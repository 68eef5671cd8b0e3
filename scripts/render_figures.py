#!/usr/bin/env python3
"""Render the showcase structures as P6 pixmaps.

Writes, under --outdir (default ./out):
  carpet-<side>.ppm      mod-3 carpet stages from the matrix
  carpet-sim-27.ppm      the same structure grown by tile assembly
  five-color-125.ppm     the a=1, b=2, c=2 mod-5 structure
"""

import argparse
from pathlib import Path

from fractile import (Coefficients, assemble_bounded, carpet_system,
                      delannoy_matrix)
from fractile.formats import RenderSpec, render_cells


def save(path: Path, values, modulus: int, cell_size: int) -> None:
    spec = RenderSpec(cell_size=cell_size)
    path.write_bytes(render_cells(values, modulus, spec))
    print(f"wrote {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--cell-size", type=int, default=4)
    args = parser.parse_args()
    if args.cell_size < 1:
        parser.error(f"--cell-size must be at least 1, got {args.cell_size}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for side in (9, 27, 81):
        m = delannoy_matrix(Coefficients(1, 1, 1, 3), side, side)
        save(outdir / f"carpet-{side}.ppm", m.entries.tolist(), 3,
             args.cell_size)

    assembly = assemble_bounded(carpet_system(), (27, 27), order_seed=0)
    grid = [[int(assembly.placements[(x, y)].label) for y in range(27)]
            for x in range(27)]
    save(outdir / "carpet-sim-27.ppm", grid, 3, args.cell_size)

    five = delannoy_matrix(Coefficients(1, 2, 2, 5), 125, 125)
    save(outdir / "five-color-125.ppm", five.entries.tolist(), 5,
         args.cell_size)


if __name__ == "__main__":
    main()
