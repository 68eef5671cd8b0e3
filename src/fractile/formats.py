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
record has exactly its fields, integers written as `str()` writes them;
`temperature`, `bound` and `placed` appear at most once.  Assembly dumps
are written in position order, not attachment order, so two runs of a
directed system produce byte-identical dumps.  Images are binary portable
pixmaps (P6) with matrix row 0 along the bottom edge, built from rows of
ints in pure Python.

No function here loads numpy, and only `parse_tileset` loads `tam`, so
a command that renders or reads a dump loads neither.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .matrix import MAX_MODULUS, ResidueMatrix, check_cells

if TYPE_CHECKING:  # tam is imported by the one function that makes tiles
    from .tam import Assembly, Position, TileSystem

GRID_HEADER = "grid v1"
TILESET_HEADER = "tileset v1"
ASSEMBLY_HEADER = "assembly v1"

# The fields of each record after its kind: "i" an integer, "s" a token.
# `parse_assembly` reads `place <x> <y> <tile id> <label>` records itself.
_TILESET_RECORDS = {"temperature": "i", "seed": "iii",
                    "tile": "is" + "ssi" * 4}
_ASSEMBLY_RECORDS = {"bound": "ii", "placed": "i"}
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


def _integer(token: str) -> int:
    """`token` as an int, if it is exactly the text str() writes for it:
    so no `+`, `_`, leading zero, `-0` or non-ASCII digit."""
    value = int(token)
    if str(value) != token:
        raise ValueError(f"{token!r} is not written as an integer")
    return value


def _record(line: str, fields: dict[str, str], seen: set[str]
            ) -> tuple[str, list]:
    """A record line as its kind and its fields, integer fields
    converted; refuses an unknown kind, a wrong field count or a
    non-integer field, and a single record already in `seen`."""
    kind, *tokens = line.split()
    if kind not in fields:
        raise FormatError(f"unknown record kind {kind!r}")
    try:
        values = [_integer(tok) if typ == "i" else tok
                  for typ, tok in zip(fields[kind], tokens, strict=True)]
    except ValueError as exc:
        raise FormatError(f"malformed {kind} record: {line!r}") from exc
    if kind in _SINGLE_RECORDS:
        if kind in seen:
            raise FormatError(f"duplicate {kind} record")
        seen.add(kind)
    return kind, values


def _records(text: str, header: str, fields: dict[str, str]):
    """Each record after `header`, as `_record` reads it."""
    seen: set[str] = set()
    for line in _body(text, header):
        yield _record(line, fields, seen)


def write_grid(matrix: ResidueMatrix) -> str:
    lines = [GRID_HEADER,
             f"{matrix.height} {matrix.width} {matrix.modulus}"]
    lines.extend(" ".join(map(str, row.tolist())) for row in matrix.entries)
    return "\n".join(lines) + "\n"


def grid_rows(text: str) -> tuple[int, list[list[int]]]:
    """A grid file's modulus and its rows of ints, row 0 first.

    Every check of a grid file is made here: the header, the dimension
    line, the row count and width, integer text, a nonempty grid, a
    modulus in [2, MAX_MODULUS] and entries in [0, modulus).
    """
    lines = _body(text, GRID_HEADER)
    try:
        height, width, modulus = map(_integer, lines[0].split())
    except (IndexError, ValueError) as exc:
        raise FormatError("malformed grid dimension line") from exc
    if modulus < 2:
        raise FormatError("modulus must be at least 2")
    if modulus > MAX_MODULUS:
        raise FormatError(f"modulus {modulus} exceeds MAX_MODULUS = "
                          f"{MAX_MODULUS}")
    if height < 1 or width < 1:
        raise FormatError("grid dimensions must be positive")
    if len(lines) - 1 != height:
        raise FormatError(f"expected {height} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        try:
            row = list(map(int, tokens))
        except ValueError as exc:
            raise FormatError("grid entries must be integers") from exc
        # as in _integer: each entry is exactly the text str() writes
        if list(map(str, row)) != tokens:
            raise FormatError("grid entries must be integers")
        if len(row) != width:
            raise FormatError("grid row width mismatch")
        if min(row) < 0 or max(row) >= modulus:
            raise FormatError("entries must lie in [0, modulus)")
        rows.append(row)
    return modulus, rows


def write_tileset(system: TileSystem) -> str:
    lines = [TILESET_HEADER, f"temperature {system.temperature}"]
    for (x, y), tile in sorted(system.seed.items()):
        lines.append(f"seed {x} {y} {tile.id}")
    for tile in sorted(system.tiles, key=lambda t: t.id):
        parts = [f"tile {tile.id} {tile.label}"]
        # colors and strengths are stored in W, S, E, N order
        for letter, color, strength in zip("WSEN", tile.colors,
                                           tile.strengths):
            parts.append(f"{letter} {color} {strength}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_tileset(text: str) -> TileSystem:
    from .tam import TileSystem, TileType
    temperature = None
    seed_ids: dict[Position, int] = {}
    tiles: list[tuple] = []  # TileType.make's arguments, made in the try
    for kind, fields in _records(text, TILESET_HEADER, _TILESET_RECORDS):
        if kind == "temperature":
            temperature, = fields
        elif kind == "seed":
            x, y, tile_id = fields
            if (x, y) in seed_ids:
                raise FormatError(f"duplicate seed at {(x, y)}")
            seed_ids[(x, y)] = tile_id
        else:
            tile_id, label = fields[:2]
            edges = {fields[i]: (fields[i + 1], fields[i + 2])
                     for i in range(2, 14, 3)}
            if set(edges) != {"W", "S", "E", "N"}:
                raise FormatError(f"tile {tile_id} is missing edges")
            tiles.append((tile_id, label, *(edges[d] for d in "WSEN")))
    if temperature is None:
        raise FormatError("missing temperature record")
    if not seed_ids:
        raise FormatError("missing seed record")
    try:
        made = tuple(TileType.make(*args) for args in tiles)
        by_id = {t.id: t for t in made}
        seed = {pos: by_id[tile_id] for pos, tile_id in seed_ids.items()}
        return TileSystem(made, seed, temperature)
    except KeyError as exc:
        raise FormatError(f"seed references unknown tile id {exc}") from exc
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_assembly(assembly: Assembly, bound: tuple[int, int]) -> str:
    """The dump of `assembly`, its placements in position order.

    Placements are bucketed by row, each row's columns sorted as ints,
    and each tile's " <id> <label>" tail is built once."""
    lines = [ASSEMBLY_HEADER,
             f"bound {bound[0]} {bound[1]}",
             f"placed {len(assembly.placements)}"]
    tails: dict[int, str] = {}  # id(tile) -> its tail; the tiles stay alive
    rows: dict[int, dict[int, str]] = {}
    for (x, y), tile in assembly.placements.items():
        tail = tails.get(id(tile))
        if tail is None:
            tail = tails[id(tile)] = f" {tile.id} {tile.label}"
        row = rows.get(x)
        if row is None:
            row = rows[x] = {}
        row[y] = tail
    for x in sorted(rows):
        row = rows.pop(x)  # each row is freed once it is text
        head = f"place {x} "
        lines.append("\n".join([f"{head}{y}{row[y]}" for y in sorted(row)]))
    return "\n".join(lines) + "\n"


def parse_assembly(text: str) -> tuple[tuple[int, int], dict[Position, tuple[int, str]]]:
    """Returns the bound and a map position -> (tile id, label)."""
    bound = None
    count = None
    placements: dict[Position, tuple[int, str]] = {}
    seen: set[str] = set()
    for line in _body(text, ASSEMBLY_HEADER):
        tokens = line.split()
        if tokens[0] != "place":
            kind, fields = _record(line, _ASSEMBLY_RECORDS, seen)
            if kind == "bound":
                bound = tuple(fields)
            else:
                count, = fields
            continue
        # The records of a dump are nearly all `place` records, read here
        # with `_record`'s checks and messages: five fields, the first
        # three integers as `_integer` reads them.
        try:
            _, sx, sy, sid, label = tokens
            x, y, tile_id = int(sx), int(sy), int(sid)
            if str(x) != sx or str(y) != sy or str(tile_id) != sid:
                raise ValueError("not written as an integer")
        except ValueError as exc:
            raise FormatError(f"malformed place record: {line!r}") from exc
        entry = (tile_id, label)
        if placements.setdefault((x, y), entry) is not entry:
            raise FormatError(f"duplicate placement at {(x, y)}")
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
    """How residues map to pixels; no palette means the default one."""

    palette: dict[int, RGB] | None = None
    cell_size: int = 8

    def __post_init__(self) -> None:
        if self.cell_size < 1:
            raise ValueError("cell size must be positive")
        for value, rgb in (self.palette or {}).items():
            if len(rgb) != 3 or any(not 0 <= ch <= 255 for ch in rgb):
                raise ValueError(f"bad RGB triple for residue {value}: {rgb}")


def default_palette(values, modulus: int) -> dict[int, RGB]:
    """Deterministic palette for the distinct ints `values` in [0, modulus).

    A colour depends only on the residue and the modulus, so palettes
    built from different value sets agree where they overlap.  Residue 0
    is white, the background; the nonzero residues share the hue wheel,
    or are black when there is only one.
    """
    palette: dict[int, RGB] = {}
    for value in values:
        if not 0 <= value < modulus:
            continue
        if value == 0:
            palette[value] = (255, 255, 255)
        elif modulus == 2:
            palette[value] = (0, 0, 0)
        else:
            hue = (value - 1) / (modulus - 1)
            r, g, b = colorsys.hsv_to_rgb(hue, 0.85, 0.85)
            palette[value] = (int(r * 255), int(g * 255), int(b * 255))
    return palette


def parse_palette(spec: str) -> dict[int, RGB]:
    """Parse '0=255,255,255;1=0,0,0' style palette strings."""
    palette: dict[int, RGB] = {}
    for chunk in filter(None, (c.strip() for c in spec.split(";"))):
        try:
            key, rgb = chunk.split("=")
            residue = _integer(key)
            r, g, b = (_integer(v) for v in rgb.split(","))
        except ValueError as exc:
            raise FormatError(f"malformed palette entry {chunk!r}") from exc
        if residue in palette:
            raise FormatError(f"palette names residue {residue} twice")
        palette[residue] = (r, g, b)
    if not palette:
        raise FormatError("empty palette specification")
    return palette


def check_pixmap(height: int, width: int, spec: RenderSpec) -> None:
    """Refuse a pixmap of height x width cells before any row is built."""
    check_cells(height * spec.cell_size, width * spec.cell_size, "pixmap")


def render_cells(rows: list[list[int]], modulus: int | None,
                 spec: RenderSpec) -> bytes:
    """Render rows of residues (Python ints, row 0 first, all of one
    width) to a binary P6 pixmap.

    With no palette in `spec`, the default palette of the residues present
    is used, for `modulus`: a grid's p, or for assembly labels (None) one
    past the largest label.  Matrix row 0 becomes the bottom row of the
    image.  Cells holding -1 (unplaced positions) render as white.  A
    residue's pixels across one cell are one bytes block, so a pixel row
    is a join of blocks, and each matrix row gives `cell_size` of them.
    """
    size = spec.cell_size
    height, width = len(rows), len(rows[0]) if rows else 0
    check_pixmap(height, width, spec)
    distinct = sorted(set().union(*rows))
    palette = spec.palette
    if palette is None:
        palette = default_palette(
            distinct, distinct[-1] + 1 if modulus is None else modulus)
    missing = [v for v in distinct if v >= 0 and v not in palette]
    if missing:
        raise FormatError(f"palette does not cover residues {missing}")
    block = {v: bytes(palette.get(v, (255, 255, 255))) * size
             for v in distinct}
    lines = [f"P6\n{width * size} {height * size}\n255\n".encode()]
    for row in reversed(rows):  # row 0 at the bottom
        lines += [b"".join(map(block.__getitem__, row))] * size
    return b"".join(lines)


# One past the largest dump label accepted: labels were read as int64.
_LABEL_LIMIT = 2 ** 63


def assembly_value_grid(placements: dict[Position, tuple[int, str]],
                        bound: tuple[int, int]) -> list[list[int]]:
    """Labels of a placement map as rows of residues, row 0 first;
    unplaced cells become -1.  Each distinct label is parsed once."""
    height, width = bound
    check_cells(height, width, "bound")
    rows = [[-1] * width for _ in range(height)]
    values: dict[str, int] = {}
    for (x, y), (_, label) in placements.items():
        if not (0 <= x < height and 0 <= y < width):
            continue
        value = values.get(label)
        if value is None:
            try:
                value = _integer(label)
            except ValueError:
                value = -1  # not an integer: refused like a negative one
            if not 0 <= value < _LABEL_LIMIT:
                raise FormatError(
                    f"label {label!r} at ({x}, {y}) is not a residue")
            values[label] = value
        rows[x][y] = value
    return rows
