"""Start-up cost: commands that never make or read an array run in a fresh
interpreter without loading numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fractile
from fractile import (Coefficients, assemble_bounded, carpet_system,
                      delannoy_matrix, formats)

CARPET_FLAGS = ("--a", "1", "--b", "1", "--c", "1", "--p", "3")

# Runs `fractile.cli.main` on argv and prints, as its last stdout line,
# whether numpy was loaded.
PROBE = ("import sys\nfrom fractile.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print('numpy' in sys.modules)\nsys.exit(code)\n")


def numpy_loaded(tmp_path, *argv, code=PROBE):
    env = dict(os.environ)
    src = str(Path(fractile.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout.splitlines()[-1] == "True"


def test_import_fractile_loads_no_numpy(tmp_path):
    code = "import sys, fractile\nprint('numpy' in sys.modules)\n"
    assert numpy_loaded(tmp_path, code=code) == (0, False)


def test_every_export_resolves():
    assert all(getattr(fractile, name) is not None
               for name in fractile.__all__)


@pytest.fixture(scope="module")
def carpet_tileset(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiles") / "carpet.tileset"
    path.write_text(formats.write_tileset(carpet_system()))
    return str(path)


@pytest.mark.parametrize("argv,exit_code", [
    (("tileset", *CARPET_FLAGS, "--out", "t.tileset"), 0),
    (("simulate", "--tileset", "{tiles}", "--lax", "--bound", "27",
      "--out", "lax27.asm"), 0),
    (("verify", "--a", "1", "--b", "2", "--c", "2", "--p", "5",
      "--bound", "25", "--trials", "2"), 0),
    (("verify", *CARPET_FLAGS, "--bound", "9", "--trials", "2",
      "--tileset", "{tiles}"), 0),
    (("matrix", "--a", "1", "--b", "1", "--c", "1", "--p", "4",
      "--size", "9"), 2),
    (("selfsim", *CARPET_FLAGS, "--size", "27", "--corrupt", "50", "3"), 2),
], ids=["tileset", "simulate-lax", "verify",
        "verify-tileset", "matrix-bad-p", "selfsim-corrupt-outside"])
def test_commands_without_arrays_load_no_numpy(tmp_path, carpet_tileset,
                                               argv, exit_code):
    argv = [a.format(tiles=carpet_tileset) for a in argv]
    assert numpy_loaded(tmp_path, *argv) == (exit_code, False)


def test_an_array_command_loads_numpy(tmp_path):
    # the probe is not vacuous: a command that builds a window loads numpy
    assert numpy_loaded(tmp_path, "matrix", *CARPET_FLAGS, "--size", "9",
                        "--out", "m.grid") == (0, True)


@pytest.mark.parametrize("argv", [
    ("selfsim", *CARPET_FLAGS, "--size", "27"),
    ("render", "m.grid", "--out", "m.ppm"),
    ("render", "a.dump", "--out", "a.ppm"),
    ("simulate", "--tileset", "{tiles}", "--bound", "27", "--out", "b.dump",
     "--image", "b.ppm"),
], ids=["selfsim", "render-grid", "render-dump", "simulate-image"])
def test_array_commands_load_no_numpy_ma(tmp_path, carpet_tileset, argv):
    # a first np.unique without a return_* flag imports numpy.ma (~20 ms)
    (tmp_path / "m.grid").write_text(formats.write_grid(
        delannoy_matrix(Coefficients(1, 1, 1, 3), 27, 27)))
    (tmp_path / "a.dump").write_text(formats.write_assembly(
        assemble_bounded(carpet_system(), (27, 27), 0), (27, 27)))
    argv = [a.format(tiles=carpet_tileset) for a in argv]
    code = PROBE.replace("'numpy'", "'numpy.ma'")
    assert numpy_loaded(tmp_path, *argv, code=code) == (0, False)
