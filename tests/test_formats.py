"""Properties of the three text formats: any text either parses or raises
FormatError, and writing what was parsed reproduces the written text."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractile import Assembly, ResidueMatrix, TileSystem, TileType
from fractile import formats
from fractile.formats import (ASSEMBLY_HEADER, FormatError, RenderSpec,
                              assembly_value_grid, default_palette,
                              grid_rows, parse_assembly, parse_tileset,
                              render_cells, write_assembly, write_grid,
                              write_tileset)
from fractile.matrix import MAX_MODULUS

# One whitespace-free token, as labels and glues are written.
TOKEN = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Z")),
                min_size=1, max_size=4)
GLUE = st.tuples(TOKEN, st.integers(0, 2))
# Small numbers make duplicates and edge values likely; 2^70 overflows
# int64.
NUMBER = st.one_of(st.integers(-1, 3), st.just(2 ** 70)).map(str)
JUNK = st.text(max_size=12)
# Text that int() reads but that is not the text str() writes.
MISSPELLED = st.sampled_from(["01", "+1", "-0", "1_0", "\u0663", " 2"])


@st.composite
def grids(draw):
    p = draw(st.sampled_from((2, 3, 257, 65537, MAX_MODULUS)))
    width = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
    return ResidueMatrix(p, np.array(draw(st.lists(row, min_size=1,
                                                   max_size=5))))


@st.composite
def tilesets(draw):
    ids = draw(st.lists(st.integers(-5, 50), min_size=1, max_size=6,
                        unique=True))
    tiles = tuple(TileType.make(i, draw(TOKEN), *draw(st.tuples(*[GLUE] * 4)))
                  for i in ids)
    seed = draw(st.dictionaries(st.tuples(st.integers(-3, 3),
                                          st.integers(-3, 3)),
                                st.sampled_from(tiles), min_size=1,
                                max_size=3))
    return TileSystem(tiles, seed, draw(st.integers(1, 3)))


def as_assembly(placements):
    """An assembly holding a tile of the given id and label per position;
    the dump records nothing else of a tile."""
    return Assembly({pos: TileType.make(i, label, *[("g", 1)] * 4)
                     for pos, (i, label) in placements.items()},
                    sorted(placements), 0)


@st.composite
def assemblies(draw):
    height, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    placements = draw(st.dictionaries(cells, st.tuples(st.integers(0, 9),
                                                       TOKEN)))
    return as_assembly(placements), (height, width)


@given(grids())
def test_grid_round_trip(m):
    assert grid_rows(write_grid(m)) == (m.modulus, m.entries.tolist())


@given(tilesets())
def test_tileset_round_trip(system):
    text = write_tileset(system)
    assert write_tileset(parse_tileset(text)) == text


@given(assemblies())
def test_assembly_round_trip(case):
    assembly, bound = case
    text = write_assembly(assembly, bound)
    parsed_bound, placements = parse_assembly(text)
    assert write_assembly(as_assembly(placements), parsed_bound) == text


def sorted_write_assembly(assembly, bound):
    """The dump writer that sorts position tuples, kept as the reference
    that `write_assembly` equals."""
    lines = [ASSEMBLY_HEADER, f"bound {bound[0]} {bound[1]}",
             f"placed {len(assembly.placements)}"]
    for (x, y) in sorted(assembly.placements):
        tile = assembly.placements[(x, y)]
        lines.append(f"place {x} {y} {tile.id} {tile.label}")
    return "\n".join(lines) + "\n"


@st.composite
def shared_tile_assemblies(draw):
    """Placements anywhere, negative or past the bound, of a few tiles
    each placed many times; distinct tiles may share an id or a label."""
    pool = [TileType.make(draw(st.integers(-2, 3)),
                          draw(st.sampled_from(("0", "1", "x"))),
                          *[("g", 1)] * 4)
            for _ in range(draw(st.integers(1, 4)))]
    cells = st.tuples(st.integers(-3, 6), st.integers(-3, 6))
    placements = draw(st.dictionaries(cells, st.sampled_from(pool),
                                      max_size=30))
    bound = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    return Assembly(placements, list(placements), 0), bound


@given(shared_tile_assemblies())
@settings(max_examples=200)
def test_write_assembly_equals_the_sorting_writer(case):
    assert write_assembly(*case) == sorted_write_assembly(*case)


def record_parse_assembly(text):
    """`parse_assembly` reading `place` records through the generic record
    reader, kept as the reference for its results and messages."""
    bound = None
    count = None
    placements = {}
    fields = {"bound": "ii", "placed": "i", "place": "iiis"}
    for kind, values in formats._records(text, ASSEMBLY_HEADER, fields):
        if kind == "bound":
            bound = tuple(values)
        elif kind == "placed":
            count, = values
        else:
            x, y, tile_id, label = values
            if (x, y) in placements:
                raise FormatError(f"duplicate placement at {(x, y)}")
            placements[(x, y)] = (tile_id, label)
    if bound is None:
        raise FormatError("missing bound record")
    for x, y in placements:
        if not (0 <= x < bound[0] and 0 <= y < bound[1]):
            raise FormatError(f"placement {(x, y)} is outside the "
                              f"{bound[0]}x{bound[1]} bound")
    if count is not None and count != len(placements):
        raise FormatError("placement count does not match the records")
    return bound, placements


@st.composite
def edited(draw, written, junk=NUMBER | JUNK):
    """A written document with a few lines copied, dropped or given a
    `junk` token: text that mostly gets past the header."""
    lines = draw(written).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        edit = draw(st.sampled_from(("copy", "drop", "replace")))
        if edit == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "drop" or not tokens:
            del lines[i]
        else:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(junk)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("parse,texts", [
    (grid_rows, edited(grids().map(write_grid))),
    (parse_tileset, edited(tilesets().map(write_tileset))),
    (parse_assembly, edited(assemblies().map(lambda c: write_assembly(*c)))),
], ids=["grid", "tileset", "assembly"])
@given(data=st.data())
@settings(max_examples=150)
def test_any_text_parses_or_raises_format_error(parse, texts, data):
    try:
        parse(data.draw(JUNK | texts))
    except FormatError:
        pass


def outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc)


@given(data=st.data())
@settings(max_examples=300)
def test_parse_assembly_equals_the_record_reader(data):
    text = data.draw(edited(assemblies().map(lambda c: write_assembly(*c)),
                            NUMBER | MISSPELLED | JUNK))
    assert outcome(parse_assembly, text) == outcome(record_parse_assembly,
                                                    text)


def per_cell_value_grid(placements, bound):
    """`assembly_value_grid` parsing the label of every cell, kept as the
    reference for its rows and messages."""
    height, width = bound
    rows = [[-1] * width for _ in range(height)]
    for (x, y), (_, label) in placements.items():
        if not (0 <= x < height and 0 <= y < width):
            continue
        try:
            value = formats._integer(label)
        except ValueError:
            value = -1
        if not 0 <= value < 2 ** 63:
            raise FormatError(
                f"label {label!r} at ({x}, {y}) is not a residue")
        rows[x][y] = value
    return rows


# Good labels, and negative, oversized, misspelled or non-integer ones.
LABEL = (st.integers(0, 3).map(str) | st.sampled_from(
    ["-1", str(2 ** 63 - 1), str(2 ** 63), str(2 ** 70)]) | MISSPELLED
         | TOKEN)


@st.composite
def labelled_placements(draw):
    """A placement map of a few labels, each on many cells, some of the
    cells outside the bound."""
    labels = draw(st.lists(LABEL, min_size=1, max_size=4))
    cells = st.tuples(st.integers(-2, 5), st.integers(-2, 5))
    placements = draw(st.dictionaries(
        cells, st.tuples(st.integers(0, 3), st.sampled_from(labels)),
        max_size=30))
    return placements, (draw(st.integers(1, 4)), draw(st.integers(1, 4)))


@given(labelled_placements())
@settings(max_examples=300)
def test_assembly_value_grid_equals_the_per_cell_reference(case):
    outcomes = []
    for value_grid in (assembly_value_grid, per_cell_value_grid):
        try:
            outcomes.append(value_grid(*case))
        except FormatError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def numpy_render_cells(values, modulus, spec):
    """The pixmap renderer as written with numpy, kept as the reference
    that `render_cells` equals byte for byte."""
    values = np.asarray(values)
    distinct, inverse = np.unique(values, return_inverse=True)
    distinct = distinct.tolist()
    palette = spec.palette
    if palette is None:
        palette = default_palette(
            distinct, distinct[-1] + 1 if modulus is None else modulus)
    colors = np.array([palette.get(v, (255, 255, 255))
                       for v in distinct], dtype=np.uint8).reshape(-1, 3)
    pixels = colors[np.flipud(inverse.reshape(values.shape))]
    pixels = np.repeat(pixels, spec.cell_size, axis=0)
    pixels = np.repeat(pixels, spec.cell_size, axis=1)
    header = f"P6\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode()
    return b"".join((header, pixels.data))


RGB = st.tuples(*[st.integers(0, 255)] * 3)


@st.composite
def render_cases(draw):
    """Rows holding -1 (unplaced) cells among residues of a grid's p, or
    dump labels (modulus None); a palette covering the residues present,
    sometimes naming -1 too, or the default one."""
    modulus = draw(st.sampled_from((None, 2, 3, 5, 7, 257)))
    residue = (st.integers(0, 300) | st.just(2 ** 63 - 1) if modulus is None
               else st.integers(0, modulus - 1))
    width = draw(st.integers(1, 6))
    row = st.lists(st.just(-1) | residue, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    palette = None
    if draw(st.booleans()):
        present = {v for r in rows for v in r if v >= 0}
        palette = {v: draw(RGB) for v in sorted(present)}
        if draw(st.booleans()):
            palette[-1] = draw(RGB)
    spec = RenderSpec(palette, draw(st.integers(1, 4)))
    return rows, modulus, spec


@given(render_cases())
@settings(max_examples=200)
def test_render_cells_equals_the_numpy_renderer(case):
    rows, modulus, spec = case
    assert render_cells(rows, modulus, spec) == numpy_render_cells(*case)
