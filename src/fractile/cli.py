"""Command-line surface.

Subcommands: matrix, selfsim, tileset, simulate, render, verify.
Exit codes: 0 on success, 1 when a verified property fails, 2 for
usage or input errors.  Each command imports the fractile modules it
runs, after its cheap argument checks, so a child process loads only
those: only matrix and selfsim load numpy, and a refused command loads
little more than `matrix`.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # each command imports what it runs
    from .formats import RenderSpec
    from .matrix import Coefficients


def _write_files(files: list[tuple[str, bytes]]) -> None:
    """Write each (path, data) pair, or none of them.

    Each file goes to a temporary name beside its target, and the targets
    are replaced only once every write has succeeded.  A target that is a
    directory is refused before anything is written, and the temporaries
    are removed on any failure.
    """
    temps = []
    try:
        for n, (path, data) in enumerate(files):
            target = Path(path)
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR), path)
            temp = target.with_name(f".{target.name}.{os.getpid()}-{n}.tmp")
            temps.append(temp)
            try:
                temp.write_bytes(data)
            except OSError as exc:  # named by its target, not the temporary
                raise type(exc)(exc.errno, exc.strerror, path) from None
        for temp, (path, _) in zip(temps, files):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_files([(path, text.encode())])


def _coefficients(args) -> Coefficients:
    from .matrix import Coefficients
    return Coefficients(args.a, args.b, args.c, args.p)


def cmd_matrix(args) -> int:
    from .matrix import delannoy_matrix
    m = delannoy_matrix(_coefficients(args), args.size, args.size)
    from .formats import write_grid
    _write_text(args.out, write_grid(m))
    return 0


def cmd_selfsim(args) -> int:
    coeffs = _coefficients(args)
    corrupt = args.corrupt
    if corrupt is not None and not all(0 <= v < args.size for v in corrupt):
        raise ValueError(f"--corrupt cell {tuple(corrupt)} is outside the "
                         f"{args.size}x{args.size} window")
    from .matrix import ResidueMatrix, check_cells, delannoy_matrix
    check_cells(args.size, args.size, "window")
    from .selfsim import check_self_similarity, check_side
    check_side(args.size, coeffs.p)
    m = delannoy_matrix(coeffs, args.size, args.size)
    if corrupt is not None:
        x, y = corrupt
        ent = m.entries  # unshared, so perturbed in place, not copied
        ent.setflags(write=True)
        ent[x, y] = (ent[x, y] + 1) % coeffs.p
        m = ResidueMatrix(coeffs.p, ent)
    report = check_self_similarity(m, coeffs.p)
    for line in report.to_lines():
        print(line)
    return 0 if report.holds else 1


def cmd_tileset(args) -> int:
    coeffs = _coefficients(args)
    from .tilegen import build_full_system, delannoy_rule, prune_reachable
    rule = delannoy_rule(coeffs)
    system = build_full_system(rule)
    if not args.no_prune:
        # Windows mentioning ⊥ hold row 0 (a^j) and column 0 (c^i); a unit's
        # powers all occur among its first p - 1, and a = 0 gives 1, 0, 0,
        # ..., so p + 1 cells along each axis show them all.
        side = args.p + 1
        system = prune_reachable(system, rule, (side, side))
    from .formats import write_tileset
    _write_text(args.out, write_tileset(system))
    return 0


def cmd_simulate(args) -> int:
    if len(args.bound) > 2:
        raise ValueError(f"--bound takes 1 or 2 values, got {len(args.bound)}")
    spec = _render_spec(args)
    text = Path(args.tileset).read_text()
    from . import formats
    system = formats.parse_tileset(text)
    bound = (args.bound[0], args.bound[-1])
    from .tam import assemble_bounded, check_growth_bound
    if args.image is not None:  # refused before growth writes a dump
        check_growth_bound(*bound)
        formats.check_pixmap(*bound, spec)
    assembly = assemble_bounded(system, bound, args.seed, lax=args.lax)
    # the pixmap is built before the dump, so a refusal writes nothing
    files = [] if args.image is None else [(args.image, formats.render_cells(
        formats.assembly_value_grid(
            {pos: (t.id, t.label) for pos, t in assembly.placements.items()},
            bound), None, spec))]
    dump = formats.write_assembly(assembly, bound)
    if args.out is None or args.out == "-":
        _write_files(files)
        sys.stdout.write(dump)
    else:
        _write_files([(args.out, dump.encode()), *files])
    if len(assembly) < bound[0] * bound[1]:
        print(f"assembly stalled at {len(assembly)} of "
              f"{bound[0] * bound[1]} cells", file=sys.stderr)
        return 1
    return 0


def _render_spec(args) -> RenderSpec:
    """The render flags, checked before any work."""
    from .formats import RenderSpec, parse_palette
    palette = None if args.palette is None else parse_palette(args.palette)
    return RenderSpec(palette, args.cell_size)


def cmd_render(args) -> int:
    spec = _render_spec(args)
    text = Path(args.source).read_text()
    from . import formats, matrix
    header, _ = formats.split_header(text)
    if header == formats.GRID_HEADER:
        modulus, rows = formats.grid_rows(text)
    elif header == formats.ASSEMBLY_HEADER:
        bound, placements = formats.parse_assembly(text)
        matrix.check_cells(*bound, "bound")  # a bad bound is named first
        formats.check_pixmap(*bound, spec)
        rows, modulus = formats.assembly_value_grid(placements, bound), None
    else:
        raise formats.FormatError(
            f"source must start with '{formats.GRID_HEADER}' or "
            f"'{formats.ASSEMBLY_HEADER}'")
    _write_files([(args.out, formats.render_cells(rows, modulus, spec))])
    return 0


def cmd_verify(args) -> int:
    coeffs = _coefficients(args)
    system = None
    if args.tileset is not None:
        from .formats import parse_tileset
        system = parse_tileset(Path(args.tileset).read_text())
    from .conformance import verify_self_assembly
    from .tilegen import delannoy_rule
    bound = (args.bound, args.bound)
    report = verify_self_assembly(
        delannoy_rule(coeffs), bound, args.trials, base_seed=args.seed,
        lax=args.lax, system=system)
    for line in report.to_lines():
        print(line)
    return 0 if report.ok else 1


def _add_coeff_flags(parser) -> None:
    parser.add_argument("--a", type=int, required=True,
                        help="weight of the west neighbor")
    parser.add_argument("--b", type=int, required=True,
                        help="weight of the southwest neighbor")
    parser.add_argument("--c", type=int, required=True,
                        help="weight of the south neighbor")
    parser.add_argument("--p", type=int, required=True,
                        help="prime modulus")


def _add_render_flags(parser) -> None:
    parser.add_argument("--palette", default=None,
                        help="palette like '0=255,255,255;1=0,0,0'")
    parser.add_argument("--cell-size", type=int, default=8,
                        help="pixels per lattice cell")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractile",
        description="Generate residue-matrix fractals, compile tile systems, "
                    "simulate self-assembly, and verify the results.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="write a residue window as a text grid")
    _add_coeff_flags(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("selfsim", help="certify numerical self-similarity")
    _add_coeff_flags(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--corrupt", type=int, nargs=2, metavar=("X", "Y"),
                   default=None,
                   help="debug: perturb one cell before checking")
    p.set_defaults(func=cmd_selfsim)

    p = sub.add_parser("tileset", help="compile and write a tile system")
    _add_coeff_flags(p)
    p.add_argument("--no-prune", action="store_true",
                   help="keep every tile of the full construction")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_tileset)

    p = sub.add_parser("simulate", help="run a bounded seeded assembly")
    p.add_argument("--tileset", required=True, help="tileset file to load")
    p.add_argument("--bound", type=int, nargs="+", required=True,
                   metavar="N", help="bound (one value for square regions)")
    p.add_argument("--seed", type=int, default=0,
                   help="order seed for the run (default 0)")
    p.add_argument("--lax", action="store_true",
                   help="let mismatching edges contribute nothing")
    p.add_argument("--out", default=None, help="assembly dump path")
    p.add_argument("--image", default=None, help="optional P6 pixmap path")
    _add_render_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render", help="render a grid or assembly as a pixmap")
    p.add_argument("source", help="grid or assembly file")
    p.add_argument("--out", required=True, help="P6 pixmap path")
    _add_render_flags(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="simulate a rule and check conformance")
    _add_coeff_flags(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lax", action="store_true",
                   help="use the lax mismatch semantics")
    p.add_argument("--tileset", default=None,
                   help="verify this tileset file instead of compiling one")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
