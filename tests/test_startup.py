"""Start-up cost: each command, in a fresh interpreter, loads only the
fractile modules it runs, and numpy only when it makes an array."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fractile
from fractile import (Coefficients, assemble_bounded, carpet_system,
                      delannoy_matrix, formats)

CARPET_FLAGS = ("--a", "1", "--b", "1", "--c", "1", "--p", "3")

# Runs `fractile.cli.main` on argv and prints, as its last two stdout
# lines, the fractile submodules loaded and whether numpy was loaded.
PROBE = ("import sys\nfrom fractile.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(' '.join(sorted(m.partition('.')[2] for m in sys.modules\n"
         "                      if m.startswith('fractile.'))))\n"
         "print('numpy' in sys.modules)\nsys.exit(code)\n")

# Command -> its argv, exit code, the fractile submodules it loads and
# whether it loads numpy.
LOADS = {
    "tileset": (("tileset", *CARPET_FLAGS, "--out", "t.tileset"), 0,
                "cli formats matrix tam tilegen", False),
    "simulate-lax": (("simulate", "--tileset", "{tiles}", "--lax",
                      "--bound", "27", "--out", "lax27.asm"), 0,
                     "cli formats matrix tam", False),
    "simulate-image": (("simulate", "--tileset", "{tiles}", "--bound", "27",
                        "--out", "b.dump", "--image", "b.ppm"), 0,
                       "cli formats matrix tam", False),
    "simulate-image-too-big": (("simulate", "--tileset", "{tiles}",
                                "--bound", "27", "--cell-size", "1000",
                                "--out", "c.dump", "--image", "c.ppm"), 2,
                               "cli formats matrix tam", False),
    "render-grid": (("render", "m.grid", "--out", "m.ppm"), 0,
                    "cli formats matrix", False),
    "render-dump": (("render", "a.dump", "--out", "a.ppm"), 0,
                    "cli formats matrix", False),
    "verify": (("verify", "--a", "1", "--b", "2", "--c", "2", "--p", "5",
                "--bound", "25", "--trials", "2"), 0,
               "cli conformance matrix tam tilegen", False),
    "verify-tileset": (("verify", *CARPET_FLAGS, "--bound", "9", "--trials",
                        "2", "--tileset", "{tiles}"), 0,
                       "cli conformance formats matrix tam tilegen", False),
    "matrix-bad-p": (("matrix", "--a", "1", "--b", "1", "--c", "1", "--p",
                      "4", "--size", "9"), 2, "cli matrix", False),
    "selfsim-corrupt-outside": (("selfsim", *CARPET_FLAGS, "--size", "27",
                                 "--corrupt", "50", "3"), 2,
                                "cli matrix", False),
    "matrix": (("matrix", *CARPET_FLAGS, "--size", "9", "--out", "m9.grid"),
               0, "cli formats matrix", True),
    "selfsim": (("selfsim", *CARPET_FLAGS, "--size", "27"), 0,
                "cli matrix selfsim", True),
}
WITHOUT_NUMPY = [name for name, row in LOADS.items() if not row[3]]


def probe(tmp_path, *argv, code=PROBE):
    env = dict(os.environ)
    src = str(Path(fractile.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout.splitlines()


def test_import_fractile_loads_no_numpy(tmp_path):
    code = "import sys, fractile\nprint('numpy' in sys.modules)\n"
    assert probe(tmp_path, code=code) == (0, ["False"])


def test_every_export_resolves():
    assert all(getattr(fractile, name) is not None
               for name in fractile.__all__)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding a 27 x 27 carpet grid and dump and the carpet
    tileset."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "m.grid").write_text(formats.write_grid(
        delannoy_matrix(Coefficients(1, 1, 1, 3), 27, 27)))
    (root / "a.dump").write_text(formats.write_assembly(
        assemble_bounded(carpet_system(), (27, 27), 0), (27, 27)))
    (root / "carpet.tileset").write_text(formats.write_tileset(
        carpet_system()))
    return root


def loads(inputs, name, code=PROBE):
    """The exit code, loaded submodules and numpy flag of LOADS[name]."""
    tiles = str(inputs / "carpet.tileset")
    argv = [a.format(tiles=tiles) for a in LOADS[name][0]]
    returncode, lines = probe(inputs, *argv, code=code)
    return returncode, lines[-2], lines[-1] == "True"


@pytest.mark.parametrize("name", WITHOUT_NUMPY)
def test_commands_without_arrays_load_no_numpy(inputs, name):
    _, exit_code, modules, numpy = LOADS[name]
    assert loads(inputs, name) == (exit_code, modules, numpy)


def test_an_array_command_loads_numpy(inputs):
    # the probe is not vacuous: the commands that build a window load numpy
    for name in set(LOADS) - set(WITHOUT_NUMPY):
        _, exit_code, modules, numpy = LOADS[name]
        assert loads(inputs, name) == (exit_code, modules, numpy)


@pytest.mark.parametrize("name", ["selfsim"])
def test_array_commands_load_no_numpy_ma(inputs, name):
    # a first np.unique without a return_* flag imports numpy.ma (~20 ms)
    code = PROBE.replace("'numpy'", "'numpy.ma'")
    assert loads(inputs, name, code=code)[::2] == (LOADS[name][1], False)
