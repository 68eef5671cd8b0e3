"""Versioned text formats and pixmap rendering.

Three line-oriented formats, each opened by a version header:

grid v1           residue window
    grid v1
    <height> <width> <modulus>
    <row 0, space-separated residues>   (row 0 is the southmost row)
    ...

tileset v1        tile system
    tileset v1
    temperature <t>
    seed <x> <y> <tile id>              (one line per seed placement)
    tile <id> <label> W <glue> <s> S <glue> <s> E <glue> <s> N <glue> <s>

assembly v1       placement dump
    assembly v1
    bound <height> <width>
    placed <count>
    place <x> <y> <tile id> <label>     (sorted by position)

Glue tokens never contain whitespace, so every line splits on spaces.
Blank lines are skipped, so the header is the first non-blank line.  Each
record has exactly its fields; `temperature`, `bound` and `placed` appear
at most once.  Assembly dumps are written in position order, not
attachment order, so two runs of a directed system produce byte-identical
dumps.  Images are binary portable pixmaps (P6) with matrix row 0 along
the bottom edge.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .matrix import ResidueMatrix, check_cells
from .tam import Assembly, Direction, Position, TileSystem, TileType

if TYPE_CHECKING:  # numpy is imported by the functions that make arrays
    import numpy as np

GRID_HEADER = "grid v1"
TILESET_HEADER = "tileset v1"
ASSEMBLY_HEADER = "assembly v1"

_EDGE_LETTERS = (("W", Direction.W), ("S", Direction.S),
                 ("E", Direction.E), ("N", Direction.N))

# Tokens per record, its kind included.
_TILESET_RECORDS = {"temperature": 2, "seed": 4, "tile": 15}
_ASSEMBLY_RECORDS = {"bound": 3, "placed": 2, "place": 5}
_SINGLE_RECORDS = {"temperature", "bound", "placed"}


class FormatError(ValueError):
    """Raised for malformed or mislabeled input files."""


def split_header(text: str) -> tuple[str, list[str]]:
    """A file's header (its first non-blank line, stripped) and the
    non-blank lines after it."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return (lines[0].strip() if lines else ""), lines[1:]


def _body(text: str, header: str) -> list[str]:
    found, lines = split_header(text)
    if found != header:
        raise FormatError(f"expected '{header}' header")
    return lines


def _records(text: str, header: str, arity: dict[str, int]):
    """Each record after `header` as its tokens, kind first; refuses an
    unknown kind, a wrong token count and a repeated single record."""
    seen: set[str] = set()
    for line in _body(text, header):
        tokens = line.split()
        kind = tokens[0]
        if kind not in arity:
            raise FormatError(f"unknown record kind {kind!r}")
        if len(tokens) != arity[kind]:
            raise FormatError(f"malformed {kind} record: {line!r}")
        if kind in _SINGLE_RECORDS:
            if kind in seen:
                raise FormatError(f"duplicate {kind} record")
            seen.add(kind)
        yield tokens


def write_grid(matrix: ResidueMatrix) -> str:
    lines = [GRID_HEADER,
             f"{matrix.height} {matrix.width} {matrix.modulus}"]
    lines.extend(" ".join(map(str, row.tolist())) for row in matrix.entries)
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> ResidueMatrix:
    import numpy as np
    lines = _body(text, GRID_HEADER)
    try:
        height, width, modulus = (int(v) for v in lines[0].split())
    except (IndexError, ValueError) as exc:
        raise FormatError("malformed grid dimension line") from exc
    rows = lines[1:]
    if len(rows) != height:
        raise FormatError(f"expected {height} rows, found {len(rows)}")
    try:
        data = [[int(v) for v in row.split()] for row in rows]
    except ValueError as exc:
        raise FormatError("grid entries must be integers") from exc
    if any(len(row) != width for row in data):
        raise FormatError("grid row width mismatch")
    try:
        entries = np.array(data, dtype=np.int64)
    except OverflowError as exc:
        raise FormatError("grid entries must fit in int64") from exc
    try:
        return ResidueMatrix(modulus, entries)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_tileset(system: TileSystem) -> str:
    lines = [TILESET_HEADER, f"temperature {system.temperature}"]
    for (x, y), tile in sorted(system.seed.items()):
        lines.append(f"seed {x} {y} {tile.id}")
    for tile in sorted(system.tiles, key=lambda t: t.id):
        parts = [f"tile {tile.id} {tile.label}"]
        for letter, d in _EDGE_LETTERS:
            parts.append(f"{letter} {tile.color(d)} {tile.strength(d)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_tileset(text: str) -> TileSystem:
    temperature = None
    seed_ids: dict[Position, int] = {}
    tiles: list[TileType] = []
    for tokens in _records(text, TILESET_HEADER, _TILESET_RECORDS):
        kind = tokens[0]
        try:
            if kind == "temperature":
                temperature = int(tokens[1])
            elif kind == "seed":
                pos = (int(tokens[1]), int(tokens[2]))
                if pos in seed_ids:
                    raise FormatError(f"duplicate seed at {pos}")
                seed_ids[pos] = int(tokens[3])
            else:
                tile_id, label = int(tokens[1]), tokens[2]
                edges = {tokens[i]: (tokens[i + 1], int(tokens[i + 2]))
                         for i in range(3, 15, 3)}
                if set(edges) != {"W", "S", "E", "N"}:
                    raise FormatError(f"tile {tile_id} is missing edges")
                tiles.append(TileType.make(
                    tile_id, label, west=edges["W"], south=edges["S"],
                    east=edges["E"], north=edges["N"]))
        except ValueError as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(
                f"malformed record: {' '.join(tokens)!r}") from exc
    if temperature is None:
        raise FormatError("missing temperature record")
    if not seed_ids:
        raise FormatError("missing seed record")
    by_id = {t.id: t for t in tiles}
    try:
        seed = {pos: by_id[tile_id] for pos, tile_id in seed_ids.items()}
        return TileSystem(tuple(tiles), seed, temperature)
    except KeyError as exc:
        raise FormatError(f"seed references unknown tile id {exc}") from exc
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_assembly(assembly: Assembly, bound: tuple[int, int]) -> str:
    lines = [ASSEMBLY_HEADER,
             f"bound {bound[0]} {bound[1]}",
             f"placed {len(assembly.placements)}"]
    for (x, y) in sorted(assembly.placements):
        tile = assembly.placements[(x, y)]
        lines.append(f"place {x} {y} {tile.id} {tile.label}")
    return "\n".join(lines) + "\n"


def parse_assembly(text: str) -> tuple[tuple[int, int], dict[Position, tuple[int, str]]]:
    """Returns the bound and a map position -> (tile id, label)."""
    bound = None
    count = None
    placements: dict[Position, tuple[int, str]] = {}
    for tokens in _records(text, ASSEMBLY_HEADER, _ASSEMBLY_RECORDS):
        try:
            if tokens[0] == "bound":
                bound = (int(tokens[1]), int(tokens[2]))
            elif tokens[0] == "placed":
                count = int(tokens[1])
            else:
                pos = (int(tokens[1]), int(tokens[2]))
                if pos in placements:
                    raise FormatError(f"duplicate placement at {pos}")
                placements[pos] = (int(tokens[3]), tokens[4])
        except ValueError as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(
                f"malformed record: {' '.join(tokens)!r}") from exc
    if bound is None:
        raise FormatError("missing bound record")
    for x, y in placements:
        if not (0 <= x < bound[0] and 0 <= y < bound[1]):
            raise FormatError(f"placement {(x, y)} is outside the "
                              f"{bound[0]}x{bound[1]} bound")
    if count is not None and count != len(placements):
        raise FormatError("placement count does not match the records")
    return bound, placements


RGB = tuple[int, int, int]


@dataclass(frozen=True)
class RenderSpec:
    """How residues map to pixels."""

    palette: dict[int, RGB]
    cell_size: int = 8
    zero_as_background: bool = True

    def __post_init__(self) -> None:
        if self.cell_size < 1:
            raise ValueError("cell size must be positive")
        for value, rgb in self.palette.items():
            if len(rgb) != 3 or any(not 0 <= ch <= 255 for ch in rgb):
                raise ValueError(f"bad RGB triple for residue {value}: {rgb}")


def default_palette(values, modulus: int,
                    zero_as_background: bool = True) -> dict[int, RGB]:
    """Deterministic palette for the residues of `values` in [0, modulus).

    A colour depends only on the residue and the modulus, so palettes
    built from different value sets agree where they overlap.  Residue 0
    is white when treated as background, otherwise it joins the hue wheel
    with the nonzero residues.
    """
    import numpy as np
    palette: dict[int, RGB] = {}
    start = 1 if zero_as_background else 0
    count = modulus - start
    for value in np.unique(values).tolist():
        if not 0 <= value < modulus:
            continue
        if value < start:
            palette[value] = (255, 255, 255)
        elif count == 1:
            palette[value] = (0, 0, 0)
        else:
            r, g, b = colorsys.hsv_to_rgb((value - start) / count, 0.85, 0.85)
            palette[value] = (int(r * 255), int(g * 255), int(b * 255))
    return palette


def parse_palette(spec: str) -> dict[int, RGB]:
    """Parse '0=255,255,255;1=0,0,0' style palette strings."""
    palette: dict[int, RGB] = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            key, rgb = chunk.split("=")
            r, g, b = (int(v) for v in rgb.split(","))
            palette[int(key)] = (r, g, b)
        except ValueError as exc:
            raise FormatError(f"malformed palette entry {chunk!r}") from exc
    if not palette:
        raise FormatError("empty palette specification")
    return palette


def render_cells(values: np.ndarray, spec: RenderSpec) -> bytes:
    """Render a grid of residues to a binary P6 pixmap.

    Matrix row 0 becomes the bottom row of the image.  Cells holding -1
    (unplaced positions in a partial assembly) render as white.
    """
    import numpy as np
    values = np.asarray(values)
    check_cells(values.shape[0] * spec.cell_size,
                values.shape[1] * spec.cell_size, "pixmap")
    distinct, inverse = np.unique(values, return_inverse=True)
    distinct = distinct.tolist()
    missing = {v for v in distinct if v >= 0} - set(spec.palette)
    if missing:
        raise FormatError(
            f"palette does not cover residues {sorted(missing)}")
    colors = np.array([spec.palette.get(v, (255, 255, 255))
                       for v in distinct], dtype=np.uint8).reshape(-1, 3)
    # row 0 at the bottom
    pixels = colors[np.flipud(inverse.reshape(values.shape))]
    pixels = np.repeat(pixels, spec.cell_size, axis=0)
    pixels = np.repeat(pixels, spec.cell_size, axis=1)
    header = f"P6\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode()
    return b"".join((header, pixels.data))


def assembly_value_grid(placements: dict[Position, tuple[int, str]],
                        bound: tuple[int, int]) -> np.ndarray:
    """Labels of a placement map as integers; unplaced cells become -1."""
    import numpy as np
    height, width = bound
    check_cells(height, width, "bound")
    grid = np.full((height, width), -1, dtype=np.int64)
    for (x, y), (_, label) in placements.items():
        if not (0 <= x < height and 0 <= y < width):
            continue
        try:
            grid[x, y] = int(label)
        except (ValueError, OverflowError) as exc:
            raise FormatError(
                f"label {label!r} at ({x}, {y}) is not a residue") from exc
    return grid
