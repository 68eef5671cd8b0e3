import argparse
import hashlib
import io
import re
import shlex
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractile.matrix
from fractile import (Assembly, Coefficients, ResidueMatrix,
                      assemble_bounded, carpet_system, delannoy_matrix)
from fractile.cli import build_parser, main
from fractile import formats
from fractile.matrix import MAX_MODULUS

CARPET_FLAGS = ("--a", "1", "--b", "1", "--c", "1", "--p", "3")


def run(*argv):
    return main(list(argv))


def test_matrix_grid_output(tmp_path, capsys):
    assert run("matrix", "--a", "1", "--b", "1", "--c", "1", "--p", "3",
               "--size", "3") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "grid v1"
    assert out[2:] == ["1 1 1", "1 0 2", "1 2 1"]


@pytest.mark.parametrize("modulus", [3, 65521, MAX_MODULUS])
def test_write_grid_equals_per_cell_text(modulus):
    ent = np.random.default_rng(modulus).integers(0, modulus, size=(5, 7))
    m = ResidueMatrix(modulus, ent)
    want = ["grid v1", f"5 7 {modulus}"]
    want += [" ".join(str(int(v)) for v in row) for row in ent]
    text = formats.write_grid(m)
    assert text == "\n".join(want) + "\n"
    assert formats.grid_rows(text) == (modulus, ent.tolist())


def test_matrix_rejects_composite_modulus(capsys):
    assert run("matrix", "--a", "1", "--b", "1", "--c", "1", "--p", "4",
               "--size", "3") == 2
    assert "prime" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["4294967311", "3037000493"])
def test_matrix_rejects_modulus_over_the_limit(capsys, p):
    # both primes wrapped int64 silently before the limit existed
    assert run("matrix", "--a", "1", "--b", "1", "--c", "1", "--p", p,
               "--size", "6") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "2147483647" in captured.err


@pytest.mark.parametrize("command", ["matrix", "selfsim"])
def test_window_over_the_cell_limit_exits_2(capsys, command):
    assert run(command, "--a", "1", "--b", "1", "--c", "1", "--p", "3",
               "--size", "100000000") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "MAX_CELLS" in captured.err


def test_matrix_pascal_grid(capsys):
    assert run("matrix", "--a", "1", "--b", "0", "--c", "1", "--p", "2",
               "--size", "4") == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows == ["1 1 1 1", "1 0 1 0", "1 1 0 0", "1 0 0 0"]


def test_selfsim_exit_codes(capsys):
    assert run("selfsim", "--a", "1", "--b", "1", "--c", "1", "--p", "3",
               "--size", "81") == 0
    assert run("selfsim", "--a", "1", "--b", "2", "--c", "2", "--p", "5",
               "--size", "125") == 0
    capsys.readouterr()
    assert run("selfsim", "--a", "1", "--b", "1", "--c", "1", "--p", "3",
               "--size", "27", "--corrupt", "4", "4") == 1
    assert "witness" in capsys.readouterr().out


@pytest.mark.parametrize("cell", [("99", "99"), ("-1", "0")],
                         ids=["past-window", "negative"])
def test_selfsim_corrupt_outside_window_exits_2(capsys, cell):
    assert run("selfsim", "--a", "1", "--b", "1", "--c", "1", "--p", "3",
               "--size", "27", "--corrupt", *cell) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "outside the 27x27 window" in err[0]


@pytest.mark.parametrize("p,size,extra", [
    pytest.param("5", "3", ("--corrupt", "1", "1"), id="3"),
    pytest.param("5", "24", ("--corrupt", "1", "1"), id="24"),
    pytest.param("127", "8000", (), id="p127-8000"),
])
def test_selfsim_below_p_squared_exits_2(capsys, monkeypatch, p, size,
                                        extra):
    # a window is mapped, out of tracemalloc's sight, so generating one is
    # caught by its call
    built = []
    monkeypatch.setattr(fractile.matrix, "delannoy_matrix",
                        lambda *args: built.append(args))
    tracemalloc.start()
    try:
        code = run("selfsim", "--a", "1", "--b", "1", "--c", "1", "--p", p,
                   "--size", size, *extra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and built == []
    # refused before generating: an 8000^2 window holds 64 MB
    assert peak < 2 ** 20
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and f"below p^2 = {int(p) ** 2}" in err[0]


def test_selfsim_corrupt_does_not_copy_the_window(capsys, monkeypatch):
    argv = ["selfsim", *CARPET_FLAGS, "--size", "2187"]
    window_bytes = delannoy_matrix(Coefficients(1, 1, 1, 3),
                                   2187, 2187).entries.nbytes
    # tracemalloc sees a copy made by numpy; a mapped copy is counted here
    mapped, map_window = [], fractile.matrix._mapped
    monkeypatch.setattr(fractile.matrix, "_mapped", lambda shape, dtype: (
        mapped.append(shape[0] * shape[1] * dtype.itemsize)
        or map_window(shape, dtype)))
    peaks = []
    for extra in ([], ["--corrupt", "100", "200"]):
        tracemalloc.start()
        try:
            run(*argv, *extra)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < window_bytes / 4
    assert mapped == [window_bytes, window_bytes]
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "witness" in out


def test_tileset_carpet_records(tmp_path):
    out = tmp_path / "carpet.tiles"
    assert run("tileset", *CARPET_FLAGS, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tileset v1"
    assert sum(1 for ln in lines if ln.startswith("tile ")) == 30


def test_tileset_pruned_equals_carpet_file(tmp_path):
    out = tmp_path / "pruned.tiles"
    assert run("tileset", *CARPET_FLAGS, "--out", str(out)) == 0
    assert out.read_text() == formats.write_tileset(carpet_system())


def test_tileset_no_prune_count(tmp_path):
    out = tmp_path / "full.tiles"
    assert run("tileset", "--a", "1", "--b", "1", "--c", "1", "--p", "3",
               "--no-prune", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("tile ")) == 64


def test_tileset_budget_error(tmp_path, capsys):
    # 101 is the first prime whose domain, 102^3 windows, is over the cap
    out = tmp_path / "t.tiles"
    assert run("tileset", "--a", "1", "--b", "1", "--c", "1", "--p", "101",
               "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        "error: domain has 1061208 windows, over the budget of 1000000"]


@pytest.mark.parametrize("command", [["tileset"], ["verify", "--bound", "9"]])
def test_largest_prime_meets_the_budget_without_listing_residues(
        capsys, command):
    tracemalloc.start()
    try:
        code = run(*command, "--a", "1", "--b", "1", "--c", "1",
                   "--p", str(MAX_MODULUS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "over the budget" in err[0]
    assert peak < 1_000_000  # a tuple of the p residues would take 17 GB


def test_tileset_prune_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        run("tileset", *CARPET_FLAGS, "--prune", "243")
    assert exc.value.code == 2


def test_tileset_carpet_flag_is_gone(capsys):
    # the 30-tile set is what the coefficient flags compile to
    for argv in (["--carpet"], [*CARPET_FLAGS, "--carpet"]):
        with pytest.raises(SystemExit) as exc:
            run("tileset", *argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
    assert "unrecognized arguments: --carpet" in captured.err


@pytest.mark.parametrize("coeffs,count", [
    (("1", "1", "1", "3"), 30), (("1", "2", "2", "5"), 131),
    (("0", "3", "3", "7"), 352)])
def test_tileset_horizon_comes_from_p(tmp_path, capsys, coeffs, count):
    # 352 = 7^3 + 1 + 2 + 6: a = 0 has the powers {1, 0}, and c = 3
    # generates all six units mod 7
    a, b, c, p = coeffs
    out = tmp_path / "t.tiles"
    assert run("tileset", "--a", a, "--b", b, "--c", c, "--p", p,
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("tile ")) == count
    assert capsys.readouterr().err == ""


def test_simulate_round_trip_and_determinism(tmp_path):
    tiles = tmp_path / "carpet.tiles"
    run("tileset", *CARPET_FLAGS, "--out", str(tiles))
    d7 = tmp_path / "a7.dump"
    d9 = tmp_path / "a9.dump"
    assert run("simulate", "--tileset", str(tiles), "--bound", "27",
               "--seed", "7", "--out", str(d7)) == 0
    assert run("simulate", "--tileset", str(tiles), "--bound", "27",
               "--seed", "99", "--out", str(d9)) == 0
    assert d7.read_bytes() == d9.read_bytes()

    # the dump replays the in-memory run exactly (id-stable serialization)
    bound, placements = formats.parse_assembly(d7.read_text())
    asm = assemble_bounded(carpet_system(), (27, 27), 7)
    assert bound == (27, 27)
    assert {pos: rec[0] for pos, rec in placements.items()} == asm.id_map()

    grid = delannoy_matrix(Coefficients(1, 1, 1, 3), 27, 27)
    for (x, y), (_, label) in placements.items():
        assert int(label) == grid.entries[x, y]


def test_simulate_stall_exit_code(tmp_path, capsys):
    tiles = tmp_path / "seed-only.tiles"
    tiles.write_text("tileset v1\ntemperature 2\nseed 0 0 0\n"
                     "tile 0 s W w 1 S s 1 E e 2 N n 2\n")
    dump = tmp_path / "stall.dump"
    assert run("simulate", "--tileset", str(tiles), "--bound", "4",
               "--out", str(dump)) == 1
    _, placements = formats.parse_assembly(dump.read_text())
    assert len(placements) == 1


def test_simulate_with_image_and_rectangular_bound(tmp_path):
    tiles = tmp_path / "carpet.tiles"
    run("tileset", *CARPET_FLAGS, "--out", str(tiles))
    img = tmp_path / "sim.ppm"
    assert run("simulate", "--tileset", str(tiles), "--bound", "3", "9",
               "--seed", "1", "--out", str(tmp_path / "sim.dump"),
               "--image", str(img), "--cell-size", "3") == 0
    arr = read_ppm(img.read_bytes())
    assert arr.shape == (9, 27, 3)


@pytest.mark.parametrize("flags", [
    (), ("--palette", "0=9,9,9;1=200,0,0;2=0,0,200")],
    ids=["default", "palette"])
def test_simulate_image_equals_render_of_its_dump(tmp_path, flags):
    tiles = tmp_path / "carpet.tiles"
    run("tileset", *CARPET_FLAGS, "--out", str(tiles))
    dump, image, rendered = (tmp_path / n for n in ("a.dump", "a.ppm",
                                                    "r.ppm"))
    assert run("simulate", "--tileset", str(tiles), "--bound", "9", "5",
               "--out", str(dump), "--image", str(image),
               "--cell-size", "2", *flags) == 0
    assert run("render", str(dump), "--out", str(rendered),
               "--cell-size", "2", *flags) == 0
    assert image.read_bytes() == rendered.read_bytes()


def test_simulate_bound_takes_one_or_two_values(tmp_path, capsys):
    tiles = tmp_path / "carpet.tiles"
    run("tileset", *CARPET_FLAGS, "--out", str(tiles))
    out = tmp_path / "sim.dump"
    assert run("simulate", "--tileset", str(tiles), "--bound", "3", "4", "5",
               "--out", str(out)) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ("--cell-size", "0"), ("--palette", "0=1,2"), ("--palette", "0=300,0,0"),
    ("--palette", "0=1,2,3;1=4,5,6;2=7,8,9;2=1,1,1")],
    ids=["cell-size-zero", "palette-malformed", "palette-out-of-range",
         "palette-residue-twice"])
def test_simulate_checks_render_flags_before_growing(tmp_path, capsys, flags):
    tiles = tmp_path / "carpet.tiles"
    run("tileset", *CARPET_FLAGS, "--out", str(tiles))
    image, dump = tmp_path / "x.ppm", tmp_path / "a.dump"
    for out in ((), ("--out", str(dump))):
        assert run("simulate", "--tileset", str(tiles), "--bound", "9",
                   "--image", str(image), *out, *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert not dump.exists() and not image.exists()


@pytest.mark.parametrize("tileset,flags,message", [
    (formats.write_tileset(carpet_system()), ("--palette", "0=1,1,1"),
     "error: palette does not cover residues [1, 2]"),
    ("tileset v1\ntemperature 2\nseed 0 0 0\n"
     "tile 0 a W w 1 S s 1 E e 2 N n 2\n", (),
     "error: label 'a' at (0, 0) is not a residue")],
    ids=["palette-misses-residues", "label-not-a-residue"])
def test_simulate_image_refused_after_growth_writes_nothing(
        tmp_path, capsys, tileset, flags, message):
    # only the grown residues show that the pixmap is refused
    tiles, dump, image = (tmp_path / n for n in ("t.tiles", "a.asm", "a.ppm"))
    tiles.write_text(tileset)
    assert run("simulate", "--tileset", str(tiles), "--bound", "9",
               "--out", str(dump), "--image", str(image), *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]
    assert not dump.exists() and not image.exists()


# The dump is written first, to a temporary name; neither failure leaves it
# or its temporary behind.
@pytest.mark.parametrize("image,message", [
    ("d.ppm", "[Errno 21] Is a directory"),
    ("missing/a.ppm", "[Errno 2] No such file or directory")],
    ids=["image-is-a-directory", "image-directory-missing"])
def test_simulate_unwritable_image_writes_nothing(tmp_path, capsys, image,
                                                  message):
    tiles, dump = tmp_path / "t.tiles", tmp_path / "a.asm"
    tiles.write_text(formats.write_tileset(carpet_system()))
    (tmp_path / "d.ppm").mkdir()
    image = tmp_path / image
    assert run("simulate", "--tileset", str(tiles), "--bound", "9",
               "--out", str(dump), "--image", str(image)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}: '{image}'"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.ppm", "t.tiles"]
    assert list((tmp_path / "d.ppm").iterdir()) == []


def test_simulate_rejects_malformed_tileset(tmp_path):
    bad = tmp_path / "bad.tiles"
    bad.write_text("tileset v1\ntemperature 2\nseed 0 0 0\ntile 0 x W\n")
    assert run("simulate", "--tileset", str(bad), "--bound", "3") == 2


TILE_0 = "tile 0 1 W _ 1 S (_,_) 1 E 1 2 N (_,1) 2"


@pytest.mark.parametrize("records,problem", [
    (["temperature 2", "seed 0 0 0", TILE_0, TILE_0], "unique"),
    (["temperature 0", "seed 0 0 0", TILE_0], "temperature"),
    (["temperature 2", "temperature 1", "seed 0 0 0", TILE_0],
     "duplicate temperature"),
    (["temperature 2", "seed 0 0 0", "seed 0 0 0", TILE_0], "duplicate seed"),
    (["temperature 2 7", "seed 0 0 0", TILE_0], "malformed temperature"),
    (["temperature 2", "seed 0 0 0 junk", TILE_0], "malformed seed"),
    (["temperature 2", "seed 0 x 0", TILE_0], "malformed seed record"),
    (["temperature 2", "seed 0 0 0",
      "tile 0 1 W _ 1 S (_,_) 1 E 1 x N (_,1) 2"], "malformed tile record"),
    (["temperature 2", "seed 0 0 0",
      "tile 0 1 W _ 1 S (_,_) 1 E 1 3 N (_,1) 2"], "strengths must be"),
    (["temperature +2", "seed 0 0 0", TILE_0], "malformed temperature"),
    (["temperature 2", "seed 0 0 00", TILE_0], "malformed seed"),
    (["temperature 2", "seed -0 0 0", TILE_0], "malformed seed"),
    (["temperature 2", "seed 0 0 0",
      "tile 0 1 W _ 1 S (_,_) 1 E 1 2 N (_,1) \u0662"], "malformed tile"),
], ids=["duplicate-id", "temperature-0", "two-temperatures", "two-seeds",
        "temperature-extra-token", "seed-extra-token", "seed-not-integer",
        "strength-not-integer", "strength-3", "temperature-plus",
        "seed-leading-zero", "seed-minus-zero", "strength-arabic-indic-two"])
def test_parse_tileset_rejects_bad_records(tmp_path, capsys, records,
                                           problem):
    text = "\n".join(["tileset v1"] + records) + "\n"
    with pytest.raises(formats.FormatError, match=problem):
        formats.parse_tileset(text)
    tiles = tmp_path / "bad.tiles"
    tiles.write_text(text)
    assert run("simulate", "--tileset", str(tiles), "--bound", "3") == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def read_ppm(data: bytes):
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    width, height = (int(v) for v in dims.split())
    assert magic == b"P6" and maxval == b"255"
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)
    return arr


def test_render_carpet_image(tmp_path):
    grid = tmp_path / "carpet.grid"
    run("matrix", "--a", "1", "--b", "1", "--c", "1", "--p", "3",
        "--size", "27", "--out", str(grid))
    img = tmp_path / "carpet.ppm"
    assert run("render", str(grid), "--out", str(img), "--cell-size", "2",
               "--palette", "0=255,255,255;1=0,0,0;2=0,0,0") == 0
    arr = read_ppm(img.read_bytes())
    assert arr.shape == (54, 54, 3)
    # the central third of the carpet is void: all white
    assert (arr[18:36, 18:36] == 255).all()
    # matrix row 0 is the bottom image row and starts with residue 1: black
    assert (arr[-1, 0] == 0).all()


def test_render_single_cell(tmp_path):
    grid = tmp_path / "one.grid"
    grid.write_text("grid v1\n1 1 2\n1\n")
    img = tmp_path / "one.ppm"
    assert run("render", str(grid), "--out", str(img), "--cell-size", "5",
               "--palette", "0=255,255,255;1=10,20,30") == 0
    arr = read_ppm(img.read_bytes())
    assert arr.shape == (5, 5, 3)
    assert (arr == (10, 20, 30)).all()


def test_render_reads_the_header_after_blank_lines(tmp_path):
    grid = tmp_path / "blank.grid"
    grid.write_text("\ngrid v1\n1 1 3\n1\n")
    img = tmp_path / "blank.ppm"
    assert run("render", str(grid), "--out", str(img), "--cell-size", "1",
               "--palette", "0=255,255,255;1=10,20,30") == 0
    assert (read_ppm(img.read_bytes()) == (10, 20, 30)).all()


def test_render_assembly_dump(tmp_path):
    tiles = tmp_path / "carpet.tiles"
    run("tileset", *CARPET_FLAGS, "--out", str(tiles))
    dump = tmp_path / "a.dump"
    run("simulate", "--tileset", str(tiles), "--bound", "9",
        "--out", str(dump))
    img = tmp_path / "a.ppm"
    assert run("render", str(dump), "--out", str(img), "--cell-size", "1") == 0
    assert read_ppm(img.read_bytes()).shape == (9, 9, 3)


@pytest.mark.parametrize("records,problem", [
    (["bound 2 2", "place 0 0 1 1", "place 0 0 2 2", "place 9 9 3 1"],
     "duplicate"),
    (["place 1 1 1 1", "place 9 9 3 1", "bound 2 2"], "outside"),
    (["bound 2 2", "place -1 0 1 1"], "outside"),
    (["bound 2 2 5"], "malformed bound"),
    (["bound 2 2", "placed 1 x", "place 0 0 1 1"], "malformed placed"),
    (["bound 2 2", "place 0 0 1 1 extra"], "malformed place"),
    (["bound 2 2", "bound 3 3"], "duplicate bound"),
    (["bound 2 2", "placed 0", "placed 0"], "duplicate placed"),
    (["bound 2 2", "place 0 0 x 1"], "malformed place record"),
    (["bound 2 y"], "malformed bound record"),
    (["bound +2 1_0"], "malformed bound record"),
    (["bound 2 2", "place \u0660 0 1 3"], "malformed place record"),
    (["bound 2 2", "placed 01", "place 0 0 1 1"], "malformed placed record"),
    (["bound 2 2", "place 0 0 01 1"], "malformed place record"),
    (["bound 2 2", "place 0 +1 1 1"], "malformed place record"),
])
def test_parse_assembly_rejects_bad_placements(tmp_path, capsys, records,
                                               problem):
    text = "\n".join(["assembly v1"] + records) + "\n"
    with pytest.raises(formats.FormatError, match=problem):
        formats.parse_assembly(text)
    dump = tmp_path / "bad.dump"
    dump.write_text(text)
    assert run("render", str(dump), "--out", str(tmp_path / "a.ppm")) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("name,text,cell_size", [
    ("big.dump", "assembly v1\nbound 1000000 1000000\nplaced 0\n", "1"),
    ("small.grid", "grid v1\n3 3 3\n1 1 1\n1 0 2\n1 2 1\n", "1000000"),
], ids=["dump-bound", "pixmap"])
def test_render_over_the_cell_limit_exits_2(tmp_path, capsys, name, text,
                                            cell_size):
    # without the check numpy raises MemoryError on either; neither
    # allocation is attempted
    src = tmp_path / name
    src.write_text(text)
    assert run("render", str(src), "--out", str(tmp_path / "x.ppm"),
               "--cell-size", cell_size) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "MAX_CELLS" in err
    assert not (tmp_path / "x.ppm").exists()


def test_render_rejects_an_empty_dump_bound(tmp_path, capsys):
    # a zero bound used to give a pixmap of zero height and exit 0
    src = tmp_path / "empty.dump"
    src.write_text("assembly v1\nbound 0 5\nplaced 0\n")
    assert run("render", str(src), "--out", str(tmp_path / "x.ppm")) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "positive" in err


def test_render_at_the_cell_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(fractile.matrix, "MAX_CELLS", 36)
    grid = tmp_path / "g.grid"
    grid.write_text("grid v1\n3 3 3\n1 1 1\n1 0 2\n1 2 1\n")
    dump = tmp_path / "d.dump"
    out = str(tmp_path / "x.ppm")
    assert run("render", str(grid), "--out", out, "--cell-size", "2") == 0
    assert run("render", str(grid), "--out", out, "--cell-size", "3") == 2
    dump.write_text("assembly v1\nbound 6 6\nplaced 0\n")
    assert run("render", str(dump), "--out", out, "--cell-size", "1") == 0
    dump.write_text("assembly v1\nbound 6 7\nplaced 0\n")
    with pytest.raises(ValueError, match="MAX_CELLS"):
        formats.assembly_value_grid({}, (6, 7))
    assert run("render", str(dump), "--out", out, "--cell-size", "1") == 2


@pytest.mark.parametrize("command,flags", [
    ("render", ("--cell-size", "8")),
    ("simulate", ("--bound", "27", "--cell-size", "1000")),
    ("simulate", ("--bound", "1024", "--cell-size", "17")),
], ids=["render-8192", "simulate-27", "simulate-1024"])
def test_oversized_pixmap_is_refused_before_any_work(tmp_path, capsys,
                                                    command, flags):
    # the refused pixmaps are 65536^2, 27000^2 and 17408^2; the dump's value
    # rows would take 537 MB and growing the 1024^2 bound about 170 MB
    dump = tmp_path / "big.dump"
    dump.write_text("assembly v1\nbound 8192 8192\nplaced 0\n")
    tiles = tmp_path / "carpet.tiles"
    run("tileset", *CARPET_FLAGS, "--out", str(tiles))
    image, out = tmp_path / "x.ppm", tmp_path / "a.dump"
    argv = {"render": ["render", str(dump), "--out", str(image)],
            "simulate": ["simulate", "--tileset", str(tiles), "--out",
                         str(out), "--image", str(image)]}[command]
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run(*argv, *flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2 ** 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: pixmap ")
    assert "exceeds MAX_CELLS" in captured.err
    assert not image.exists() and not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_bound_over_the_cell_limit_exits_2(tmp_path, capsys, monkeypatch,
                                           command):
    # the limit is lowered, so a missing check could not allocate much
    tiles = tmp_path / "carpet.tiles"
    run("tileset", *CARPET_FLAGS, "--out", str(tiles))
    argv = {"simulate": ["simulate", "--tileset", str(tiles),
                         "--out", str(tmp_path / "a.dump")],
            "verify": ["verify", *CARPET_FLAGS, "--trials", "1"]}[command]
    monkeypatch.setattr(fractile.matrix, "MAX_CELLS", 16)
    assert run(*argv, "--bound", "4") == 0
    capsys.readouterr()
    assert run(*argv, "--bound", "5") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "MAX_CELLS" in captured.err


@pytest.mark.parametrize("command,bound", [
    ("simulate", ("4097", "4096")),
    ("verify", ("4097",)),   # verify grows squares: the least one over
], ids=["simulate", "verify"])
def test_bound_over_the_growth_cap_exits_2(tmp_path, capsys, command, bound):
    # 4097 x 4096 is one row over MAX_GROWTH_CELLS = 4096^2 cells, and its
    # flat grid alone would take 134 MB, so it must be refused ungrown
    tiles = tmp_path / "carpet.tiles"
    run("tileset", *CARPET_FLAGS, "--out", str(tiles))
    capsys.readouterr()
    argv = {"simulate": ["simulate", "--tileset", str(tiles),
                         "--out", str(tmp_path / "a.dump")],
            "verify": ["verify", *CARPET_FLAGS, "--trials", "1"]}[command]
    tracemalloc.start()
    try:
        code = run(*argv, "--bound", *bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2 ** 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "MAX_GROWTH_CELLS" in captured.err
    assert not (tmp_path / "a.dump").exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_negative_order_seed_exits_2(tmp_path, capsys, command):
    # seed -1 once grew seed 1's run, so verify compared a run with itself
    tiles = tmp_path / "carpet.tiles"
    run("tileset", *CARPET_FLAGS, "--out", str(tiles))
    capsys.readouterr()
    argv = {"simulate": ["simulate", "--tileset", str(tiles), "--bound", "9",
                         "--out", str(tmp_path / "a.dump")],
            "verify": ["verify", *CARPET_FLAGS, "--bound", "9",
                       "--trials", "3"]}[command]
    assert run(*argv, "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "nonnegative" in captured.err
    assert not (tmp_path / "a.dump").exists()


def test_parse_assembly_accepts_bound_after_placements():
    text = "assembly v1\nplace 1 0 4 2\nplaced 1\nbound 2 1\n"
    assert formats.parse_assembly(text) == ((2, 1), {(1, 0): (4, "2")})


@pytest.mark.parametrize("name,text", [
    ("big.grid", "grid v1\n2 2 3\n0 1\n2 99999999999999999999\n"),
    ("big.dump", "assembly v1\nbound 1 1\nplaced 1\n"
                 "place 0 0 1 99999999999999999999\n"),
    # -1 marks an unplaced cell, so no placed label may be negative
    ("neg1.dump", "assembly v1\nbound 1 2\nplaced 1\nplace 0 0 1 -1\n"),
    ("neg5.dump", "assembly v1\nbound 1 2\nplaced 1\nplace 0 0 1 -5\n"),
    # an integer is the text str() writes for it, nothing else int() takes
    ("plus.grid", "grid v1\n1 2 3\n1 +1\n"),
    ("underscore.grid", "grid v1\n1 2 3\n1 0_1\n"),
    ("zero.grid", "grid v1\n1 1 3\n00\n"),
    ("dims.grid", "grid v1\n+1 1 3\n1\n"),
    ("plus.dump", "assembly v1\nbound 1 1\nplaced 1\nplace 0 0 1 +1\n"),
    ("digit.dump", "assembly v1\nbound 1 1\nplaced 1\nplace 0 0 1 \u0661\n"),
], ids=["grid", "dump", "dump-label-minus-1", "dump-label-minus-5",
        "grid-entry-plus", "grid-entry-underscore", "grid-entry-leading-zero",
        "grid-dimension-plus", "dump-label-plus", "dump-label-arabic-indic"])
def test_render_rejects_integers_beyond_int64(tmp_path, capsys, name, text):
    src = tmp_path / name
    src.write_text(text)
    assert run("render", str(src), "--out", str(tmp_path / "x.ppm")) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_render_rejects_grid_modulus_over_the_limit(tmp_path, capsys):
    src = tmp_path / "big.grid"
    src.write_text("grid v1\n1 1 2147483659\n5\n")
    assert run("render", str(src), "--out", str(tmp_path / "x.ppm")) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "MAX_MODULUS" in err


# Every residue of p = 2, 3, 5, 7 rendered with the default palette.
DEFAULT_PALETTE_DIGEST = (
    "9e56a2c8ea3ab0d5b27aeffb46ff77336f2e504e7058a3537d75d9f3b51c870d")


def test_default_palette_renders_are_pinned(tmp_path):
    digest = hashlib.sha256()
    src, img = tmp_path / "g.grid", tmp_path / "x.ppm"
    for p in (2, 3, 5, 7):
        src.write_text(f"grid v1\n1 {p} {p}\n"
                       + " ".join(map(str, range(p))) + "\n")
        assert run("render", str(src), "--out", str(img),
                   "--cell-size", "1") == 0
        digest.update(img.read_bytes())
    assert digest.hexdigest() == DEFAULT_PALETTE_DIGEST


def test_default_palette_covers_the_residues_present():
    assert list(formats.default_palette([1999999], 2000003)) == [1999999]
    full = formats.default_palette(range(7), 7)
    assert formats.default_palette([3, 5, 9], 7) == {3: full[3], 5: full[5]}


@pytest.mark.parametrize("name,text", [
    ("big.grid", "grid v1\n1 1 2000003\n1999999\n"),
    ("big.dump", "assembly v1\nbound 1 1\nplaced 1\nplace 0 0 1 2000000\n"),
], ids=["grid", "dump"])
def test_render_large_residue_single_cell(tmp_path, name, text):
    src, img = tmp_path / name, tmp_path / "x.ppm"
    src.write_text(text)
    assert run("render", str(src), "--out", str(img), "--cell-size", "1") == 0
    arr = read_ppm(img.read_bytes())
    assert arr.shape == (1, 1, 3) and not (arr == 255).all()


def test_render_palette_gap_is_an_input_error(tmp_path):
    grid = tmp_path / "carpet.grid"
    run("matrix", "--a", "1", "--b", "1", "--c", "1", "--p", "3",
        "--size", "9", "--out", str(grid))
    assert run("render", str(grid), "--out", str(tmp_path / "x.ppm"),
               "--palette", "0=255,255,255;1=0,0,0") == 2


@pytest.mark.parametrize("palette", [
    "+1=1,2,3;0_1=2,2,2", "1=+1,0_2,\u0663", "01=1,2,3"],
    ids=["signed-residues", "channel-spellings", "leading-zero"])
def test_render_palette_integers_are_exact(tmp_path, capsys, palette):
    # the 1x1 grid holds residue 1 alone, so any reading of 1 would render
    grid = tmp_path / "one.grid"
    run("matrix", *CARPET_FLAGS, "--size", "1", "--out", str(grid))
    assert run("render", str(grid), "--out", str(tmp_path / "x.ppm"),
               "--palette", palette) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_render_rejects_unknown_source(tmp_path):
    src = tmp_path / "mystery.txt"
    src.write_text("who knows\n")
    assert run("render", str(src), "--out", str(tmp_path / "x.ppm")) == 2


def test_verify_carpet(capsys):
    assert run("verify", "--a", "1", "--b", "1", "--c", "1", "--p", "3",
               "--bound", "27", "--trials", "3") == 0
    out = capsys.readouterr().out
    assert "match the rule matrix" in out


def test_verify_compares_directedness_only_across_trials(capsys):
    argv = ("verify", *CARPET_FLAGS, "--bound", "9", "--trials")
    assert run(*argv, "1") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" on 9x9, 1 trial")
    assert lines[-1] == "directedness: not compared (one trial)"
    assert run(*argv, "5") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" on 9x9, 5 trials")
    assert lines[-1] == "directedness: all trials placed identical tiles"


def test_verify_maps_each_run_once(monkeypatch, capsys):
    calls = []
    id_map = Assembly.id_map
    monkeypatch.setattr(Assembly, "id_map",
                        lambda self: calls.append(1) or id_map(self))
    assert run("verify", *CARPET_FLAGS, "--bound", "9", "--trials", "5") == 0
    assert len(calls) == 5


def test_verify_lax_agrees(capsys):
    assert run("verify", "--a", "1", "--b", "1", "--c", "1", "--p", "3",
               "--bound", "27", "--trials", "3", "--lax") == 0


def test_verify_negative_control_tileset(tmp_path, capsys):
    # a tileset whose first-row tile lies about its label
    system = carpet_system()
    lines = formats.write_tileset(system).splitlines()
    sabotaged = []
    for line in lines:
        if line.startswith("tile 11 "):
            line = line.replace("tile 11 1", "tile 11 2", 1)
        sabotaged.append(line)
    bad = tmp_path / "bad.tiles"
    bad.write_text("\n".join(sabotaged) + "\n")
    assert run("verify", "--a", "1", "--b", "1", "--c", "1", "--p", "3",
               "--bound", "9", "--trials", "2",
               "--tileset", str(bad)) == 1
    assert "MISMATCH" in capsys.readouterr().out


def readme_cli_section():
    """README's text from `## CLI` up to `## File formats`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("\n## CLI\n", 1)[1].split("\n## File formats\n")[0]


def readme_commands():
    """The `fractile` lines of the sh block under README's `## CLI`, with
    continued lines joined and comments dropped, as argv lists."""
    block = readme_cli_section().split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    lines = (shlex.split(line, comments=True) for line in block.splitlines())
    return [argv[1:] for argv in lines if argv and argv[0] == "fractile"]


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # a documented command that names a removed flag fails here
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        assert main(argv) == 0, argv


def test_readme_cli_section_names_exactly_the_parsers_flags():
    # an undocumented flag, or a removed one still in the prose, fails here
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*",
                           readme_cli_section()))
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {flag for sub in commands.choices.values()
               for action in sub._actions for flag in action.option_strings
               if flag not in ("-h", "--help")}
    assert named == options


# the carpet and budget rows name the removed --carpet and --budget
# flags, which are now unknown
@pytest.mark.parametrize("argv", [
    ("matrix", "--a", "1", "--b", "1", "--c", "1", "--p", "3"),
    ("tileset", "--carpet", "--p", "5"),
    ("tileset", "--carpet", "--no-prune"),
    ("tileset", "--a", "1", "--b", "1", "--c", "1"),
    ("tileset", *CARPET_FLAGS, "--budget", "-1"),
    ("tileset", *CARPET_FLAGS, "--budget", "0"),
    ("tileset", "--carpet", "--budget", "5"),
], ids=["matrix-no-size", "carpet-with-p", "carpet-no-prune", "missing-p",
        "budget-negative", "budget-zero", "carpet-with-budget"])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    """Every kind of path a command may be handed: each format, garbage,
    binary bytes, a directory and a missing file."""
    root = tmp_path_factory.mktemp("inputs")
    carpet = carpet_system()
    texts = {
        "tileset": formats.write_tileset(carpet),
        "grid": formats.write_grid(
            delannoy_matrix(Coefficients(1, 1, 1, 3), 9, 9)),
        "assembly": formats.write_assembly(
            assemble_bounded(carpet, (9, 9), 0), (9, 9)),
        "garbage": "who knows\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    (root / "binary").write_bytes(bytes(range(256)))
    (root / "directory").mkdir()
    names = (*texts, "binary", "directory", "missing")
    return {name: str(root / name) for name in names}, str(root / "out")


SMALL = st.integers(-3, 27).map(str)
COEFFICIENT = st.integers(-1, 8).map(str)
# half of the draws are primes, so that commands get past their checks
MODULUS = st.one_of(
    st.sampled_from(["2", "3", "5", "7"]),
    st.sampled_from(["-3", "0", "1", "4", "9", str(MAX_MODULUS)]))
PALETTE = st.sampled_from(["0=255,255,255;1=0,0,0;2=9,9,9", "0=1,2",
                           "0=300,0,0", ""])


@st.composite
def command_argv(draw, paths, out):
    def maybe(*tokens):
        return [draw(t) if isinstance(t, st.SearchStrategy) else t
                for t in tokens] if draw(st.booleans()) else []

    def path(kind):  # the right kind of file half of the time
        return draw(st.one_of(st.just(paths[kind]),
                              st.sampled_from(sorted(paths.values()))))

    coefficients = ["--a", draw(COEFFICIENT), "--b", draw(COEFFICIENT),
                    "--c", draw(COEFFICIENT), "--p", draw(MODULUS)]
    render = [*maybe("--cell-size", st.integers(-1, 3).map(str)),
              *maybe("--palette", PALETTE)]
    command = draw(st.sampled_from(
        ["matrix", "selfsim", "tileset", "simulate", "render", "verify"]))
    if command == "matrix":
        return [command, *coefficients, "--size", draw(SMALL),
                *maybe("--out", out)]
    if command == "selfsim":
        return [command, *coefficients, "--size", draw(SMALL),
                *maybe("--corrupt", SMALL, SMALL)]
    if command == "tileset":
        return [command, *maybe(*coefficients), *maybe("--no-prune"),
                "--out", out]
    if command == "simulate":
        return [command, "--tileset", path("tileset"), "--bound",
                *draw(st.lists(SMALL, min_size=1, max_size=3)),
                *maybe("--seed", SMALL), *maybe("--lax"),
                *maybe("--out", out), *maybe("--image", out + ".ppm"),
                *render]
    if command == "render":
        kind = draw(st.sampled_from(["grid", "assembly"]))
        return [command, path(kind), "--out", out + ".ppm", *render]
    return [command, *coefficients, "--bound", draw(SMALL),
            *maybe("--trials", st.integers(-1, 3).map(str)),
            *maybe("--lax"), *maybe("--tileset", path("tileset"))]


@settings(max_examples=150)
@given(data=st.data())
def test_every_command_exits_0_1_or_2(input_paths, data):
    argv = data.draw(command_argv(*input_paths))
    out, err = io.StringIO(), io.StringIO()
    usage_error = False
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code, usage_error = exc.code, True
    assert code in (0, 1, 2)
    if code == 2:
        *usage, error = err.getvalue().splitlines()
        assert "error: " in error
        # argparse prints its usage text before a usage error's one line
        assert bool(usage) == usage_error
        assert not usage or usage[0].startswith("usage: ")
