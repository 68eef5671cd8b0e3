import os
import subprocess
import sys
from pathlib import Path

import fractile

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    src = str(Path(fractile.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(REPO / "scripts" / name),
                           *argv], capture_output=True, text=True, env=env,
                          timeout=120)


def test_tileset_census_carpet():
    proc = run_script("tileset_census.py", "--coeffs", "1", "1", "1", "3",
                      "--horizons", "27", "243")
    assert proc.returncode == 0, proc.stderr
    rows = [ln for ln in proc.stdout.splitlines() if "horizon" in ln]
    assert len(rows) == 2
    for row in rows:
        assert "26 occurring windows" in row
        assert "30 tiles kept" in row
        assert "stable" in row and "still growing" not in row


def test_tileset_census_prints_the_predicted_count():
    proc = run_script("tileset_census.py", "--coeffs", "1", "1", "1", "3",
                      "--coeffs", "1", "2", "2", "5", "--horizons", "27")
    assert proc.returncode == 0, proc.stderr
    rows = [ln for ln in proc.stdout.splitlines() if "horizon" in ln]
    assert len(rows) == 2
    assert "30 tiles kept (predicted 30)" in rows[0]
    assert "131 tiles kept (predicted 131)" in rows[1]


def test_tileset_census_reports_when_the_pruned_set_settles():
    # 5 already keeps all 131 tiles, but 4 keeps 130, so the first
    # stable horizon is 6
    proc = run_script("tileset_census.py", "--coeffs", "1", "2", "2", "5",
                      "--horizons", "5", "6")
    assert proc.returncode == 0, proc.stderr
    rows = [ln for ln in proc.stdout.splitlines() if "horizon" in ln]
    assert len(rows) == 2
    assert "131 tiles kept" in rows[0] and "still growing" in rows[0]
    assert "131 tiles kept" in rows[1] and rows[1].endswith("pruned set stable")


def test_lemma_sweep_small_primes():
    proc = run_script("lemma_sweep.py", "--primes", "2", "3", "--k-max", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "p=2: 2/2 triples pass at k_max=2",
        "p=3: 12/12 triples pass at k_max=2"]


def test_render_figures_matrix_carpet_equals_assembled_carpet(tmp_path):
    proc = run_script("render_figures.py", "--outdir", str(tmp_path),
                      "--cell-size", "1")
    assert proc.returncode == 0, proc.stderr
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "carpet-27.ppm", "carpet-81.ppm", "carpet-9.ppm",
        "carpet-sim-27.ppm", "five-color-125.ppm"]
    assert ((tmp_path / "carpet-27.ppm").read_bytes()
            == (tmp_path / "carpet-sim-27.ppm").read_bytes())


def test_render_figures_refuses_a_cell_size_below_one(tmp_path):
    proc = run_script("render_figures.py", "--outdir", str(tmp_path / "out"),
                      "--cell-size", "0")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "--cell-size" in proc.stderr
    assert not (tmp_path / "out").exists()
