"""The four benchmark workloads.

Each workload has `setup(seed, golden)`, which builds the fixed inputs
(everything `setup_s` covers), `job(job, inputs, rng)`, the timed unit
of work, and `check(job, inputs)`, which runs outside the timed region
and returns a verdict for every operation of the job: None when the
output is right, a reason when it is not.

Operation names are `<unit>.<step>` (the CLI's are just `<unit>`).  A
unit is one input of a stated size; `job.units` gives its cell
count, and its cells count towards `cells_per_s` only when every
operation of the unit passed its check.

Seeds: every job draws its inputs (order seeds, coefficient triples,
corrupted cells) from `rng`, which the runner derives from the workload
name, the run seed and the job index, so the same seed gives the same
inputs.  The program only ever sees those inputs.
"""

from __future__ import annotations

import inspect
import os
import random
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from fractile import (BOTTOM, Assembly, Coefficients, LocalRule,
                      ResidueMatrix, TileSystem, TileType, carpet_system,
                      closed_form, conformance, delannoy_rule, formats,
                      matrix, selfsim, tam, tilegen)

import oracles as O

CARPET = Coefficients(1, 1, 1, 3)
FIVE = Coefficients(1, 2, 2, 5)


@dataclass(frozen=True)
class KnownDefect:
    """A documented bug: a failure of its operation is known only when the
    operation's output shows exactly this symptom."""

    why: str
    symptom: Callable[[object], bool]


def _index_error_traceback(res) -> bool:
    lines = res.stderr.strip().splitlines()
    return (res.returncode == 1 and "Traceback" in res.stderr
            and bool(lines) and lines[-1].startswith("IndexError"))


# Out-of-window `--corrupt` is reported as a failure on every session
# until the CLI validates it (ROADMAP item 4); it stays in the workload.
KNOWN_DEFECTS = {
    ("cli-session", "error_corrupt"): KnownDefect(
        "selfsim --corrupt outside the window exits 1 with an IndexError "
        "traceback instead of exiting 2 (ROADMAP item 4)",
        _index_error_traceback),
}


def parity_rule() -> LocalRule:
    """An n = 3 rule: parity of the defined window entries; the all-⊥
    window (the corner) yields 1."""

    def evaluate(west, south):
        defined = [v for v in west if v is not BOTTOM]
        defined += [v for row in south for v in row if v is not BOTTOM]
        return sum(defined) % 2 if defined else 1

    return LocalRule(3, (0, 1), evaluate, name="window-parity-n3")


def twins_system() -> TileSystem:
    """Two tiles with identical input sides: growth is not directed."""
    seed = TileType.make(0, "s", ("x", 1), ("x", 1), ("r", 2), ("u", 2))
    twin_a = TileType.make(1, "a", ("r", 2), ("q", 1), ("r", 2), ("v", 1))
    twin_b = TileType.make(2, "b", ("r", 2), ("q", 1), ("r", 2), ("v", 1))
    return TileSystem((seed, twin_a, twin_b), {(0, 0): seed}, 2)


LAYERS = {"conformance": conformance, "formats": formats, "matrix": matrix,
          "selfsim": selfsim, "tam": tam, "tilegen": tilegen}


def call(job, op: str, target: str, *args, **kwargs):
    """`job.call` on fractile's public `module.function`, looked up through
    the module the benchmark calls; the span takes that name, so it does
    not change when the implementation moves to another module."""
    module, function = target.split(".")
    return job.call(op, target, getattr(LAYERS[module], function), *args,
                    **kwargs)


def unit_triple(rng, p: int) -> Coefficients:
    """A seeded triple with a and c units mod p and b arbitrary."""
    return Coefficients(rng.randrange(1, p), rng.randrange(p),
                        rng.randrange(1, p), p)


def _count_grown(job, assembly, bound) -> None:
    cells = bound[0] * bound[1]
    job.count("tam.cells_placed", len(assembly) - assembly.seed_count)
    job.count("tam.stalls", int(len(assembly) < cells))


def _verdicts(job, checks: dict) -> dict:
    """Run each op's check lazily; a check that raises is a failure too."""
    out = {}
    for op, check in checks.items():
        if op not in job.ops or job.ops[op].error is not None:
            continue
        try:
            out[op] = check(job.ops[op].value)
        except Exception as exc:  # a broken output must not pass silently
            out[op] = f"check raised {type(exc).__name__}: {exc}"
    return out


# ---------------------------------------------------------------- carpet
class CarpetGrowth:
    """Assembly growth: `tam` does the work; compiling is set-up."""

    name = "carpet-growth"

    def setup(self, seed: int, golden: dict) -> SimpleNamespace:
        rule5 = delannoy_rule(FIVE)
        return SimpleNamespace(
            carpet=carpet_system(),
            t131=tilegen.prune_reachable(tilegen.build_full_system(rule5),
                                         rule5, (125, 125)),
            twins=twins_system(),
            ref3=O.reference_matrix(1, 1, 1, 3, 243, 243),
            ref5=O.reference_matrix(1, 2, 2, 5, 125, 125),
            golden=golden["assembly"])

    def job(self, job, inp, rng) -> None:
        s = [rng.randrange(2 ** 31) for _ in range(5)]
        grow = "tam.assemble_bounded"
        job.units = {"b81": 81 * 81, "b243": 243 * 243,
                     "lax81": 81 * 81, "t131": 125 * 125}
        call(job, "b81.grow", grow, inp.carpet, (81, 81), s[0], cells=81 * 81)
        big = call(job, "b243.grow", grow, inp.carpet, (243, 243), s[1],
                   cells=243 * 243)
        call(job, "lax81.grow", grow, inp.carpet, (81, 81), s[2], lax=True,
             cells=81 * 81)
        call(job, "t131.grow", grow, inp.t131, (125, 125), s[3],
             cells=125 * 125)
        call(job, "b243.replay", "tam.replay_is_valid", big, 2,
             cells=243 * 243)
        call(job, "b243.compare", "conformance.compare_assembly_labels", big,
             inp.ref3, (243, 243), cells=243 * 243)
        call(job, "b243.write", "formats.write_assembly", big, (243, 243),
             cells=243 * 243)
        call(job, "twins.directed", "tam.is_directed_empirically", inp.twins,
             (1, 6), 20, base_seed=s[4])

    def check(self, job, inp) -> dict:
        g = inp.golden

        def grown(bound, ref, key=None):
            def check(asm):
                _count_grown(job, asm, bound)
                return O.check_labels(asm.placements, bound, ref) or (
                    key and O.check_digest(formats.write_assembly(asm, bound),
                                           g[key], key))
            return check

        def written(text):
            job.count("formats.bytes_written", len(text))
            return O.check_digest(text, g["carpet-strict-243"], "dump")

        return _verdicts(job, {
            "b81.grow": grown((81, 81), inp.ref3, "carpet-strict-81"),
            "b243.grow": grown((243, 243), inp.ref3),
            "lax81.grow": grown((81, 81), inp.ref3, "carpet-lax-81"),
            "t131.grow": grown((125, 125), inp.ref5, "t131-strict-125"),
            "b243.replay": lambda ok: None if ok is True
            else "a valid assembly failed its replay",
            "b243.compare": lambda mismatch: None if mismatch is None
            else f"reported a mismatch on a correct assembly: {mismatch}",
            "b243.write": written,
            "twins.directed": O.check_not_directed,
        })


# --------------------------------------------------------------- compile
class RuleCompile:
    """Rule compilation and induction replay: `tilegen` does the work."""

    name = "rule-compile"

    def setup(self, seed: int, golden: dict) -> SimpleNamespace:
        rng = random.Random(f"{self.name}:{seed}:setup")
        return SimpleNamespace(
            carpet_rule=delannoy_rule(CARPET),
            parity=parity_rule(),
            carpet=carpet_system(),
            grown=tam.assemble_bounded(carpet_system(), (81, 81),
                                       rng.randrange(2 ** 31)),
            parity_ref=O.parity_matrix(81, 81),
            golden=golden["tileset"])

    def job(self, job, inp, rng) -> None:
        five = unit_triple(rng, 5)
        job.evidence["mod5"] = f"{five.a},{five.b},{five.c}"
        rules = (("carpet", inp.carpet_rule, 243),
                 ("mod5", delannoy_rule(five), 125),
                 ("parity", inp.parity, 81))
        job.units = {unit: h * h for unit, _, h in rules}
        job.units["induction"] = 81 * 81
        for unit, rule, h in rules:
            full = call(job, f"{unit}.build", "tilegen.build_full_system",
                        rule)
            pruned = call(job, f"{unit}.prune", "tilegen.prune_reachable",
                          full, rule, (h, h), cells=h * h)
            call(job, f"{unit}.stable", "tilegen.horizon_is_stable", rule,
                 (h, h), cells=h * h)
            call(job, f"{unit}.write", "formats.write_tileset", pruned)
        call(job, "induction.clean", "conformance.check_induction_clauses",
             inp.grown, inp.carpet_rule, cells=81 * 81)

        # Negative control: one tile swapped for another of the set.
        pos = (0, 0)
        while pos == (0, 0):
            pos = (rng.randrange(81), rng.randrange(81))
        victim = inp.grown.placements[pos]
        others = [t for t in inp.carpet.tiles if not t.same_surface(victim)]
        bad = Assembly(dict(inp.grown.placements),
                       list(inp.grown.attachment_order),
                       inp.grown.seed_count)
        bad.placements[pos] = others[rng.randrange(len(others))]
        job.evidence["transplant"] = pos
        call(job, "transplant.induction",
             "conformance.check_induction_clauses", bad, inp.carpet_rule,
             cells=81 * 81)

    def check(self, job, inp) -> dict:
        g = inp.golden
        keys = {"carpet": "carpet-243", "parity": "parity3-81",
                "mod5": f"mod5-125/{job.evidence['mod5']}"}
        sizes = {"carpet": (4, 2), "mod5": (6, 2), "parity": (3, 3)}
        checks = {}
        for unit, key in keys.items():
            symbols, n = sizes[unit]

            def built(full, want=symbols ** (n * n - 1)):
                job.count("tilegen.tiles_compiled", len(full.tiles))
                if len(full.tiles) != want:
                    return f"{len(full.tiles)} tiles, the domain has {want}"
                return None

            def pruned(system, unit=unit, key=key):
                job.count("tilegen.tiles_kept", len(system.tiles))
                if unit == "carpet":
                    return O.check_surfaces(system, inp.carpet)
                if unit == "parity":
                    labels = tilegen.rule_matrix(inp.parity, 81, 81)
                    if labels != inp.parity_ref:
                        return "rule_matrix differs from the parity definition"
                if len(system.tiles) != g[key]["tiles"]:
                    return f"{len(system.tiles)} tiles kept, recorded " \
                           f"{g[key]['tiles']}"
                return None

            def written(text, key=key):
                job.count("formats.bytes_written", len(text))
                return O.check_digest(text, g[key]["sha256"], key)

            checks[f"{unit}.build"] = built
            checks[f"{unit}.prune"] = pruned
            checks[f"{unit}.stable"] = (
                lambda v, key=key: None if v is g[key]["stable"]
                else f"horizon stability {v}, recorded {g[key]['stable']}")
            checks[f"{unit}.write"] = written

        def clauses(report, check):
            job.count("conformance.clauses_failed",
                      sum(not c.holds for c in report.clauses))
            return check(report)

        checks["induction.clean"] = lambda r: clauses(r, O.check_induction)
        checks["transplant.induction"] = lambda r: clauses(
            r, lambda r: O.check_transplant(r, job.evidence["transplant"]))
        return _verdicts(job, checks)


# --------------------------------------------------------------- selfsim
SELFSIM_SIDES = ((3, 6561), (5, 3125), (2, 4096))
CLOSED_FORM_SAMPLES = 6


def deepest_k(p: int) -> int:
    """Deepest `check_lemmas` level the default side budget allows."""
    budget = inspect.signature(selfsim.check_lemmas).parameters[
        "side_budget"].default
    k = 1
    while p ** (k + 2) <= budget:
        k += 1
    return k


class SelfsimCertify:
    """Matrix generation and self-similarity certification in numpy."""

    name = "selfsim-certify"

    def setup(self, seed: int, golden: dict) -> SimpleNamespace:
        return SimpleNamespace(k_max={p: deepest_k(p)
                                      for p, _ in SELFSIM_SIDES})

    def job(self, job, inp, rng) -> None:
        job.units = {}
        for p, side in SELFSIM_SIDES:
            coeffs = unit_triple(rng, p)
            unit = f"p{p}"
            job.units[unit] = side * side
            job.evidence[unit] = ev = {"coeffs": coeffs, "side": side}
            m = call(job, f"{unit}.matrix", "matrix.delannoy_matrix", coeffs,
                     side, side, cells=side * side)
            cells = [(rng.randrange(side), rng.randrange(side))
                     for _ in range(CLOSED_FORM_SAMPLES)]
            corrupt = (rng.randrange(side), rng.randrange(side))
            ev["corrupt"] = corrupt
            if m is None:
                continue
            job.ops[f"{unit}.matrix"].value = None  # checked via evidence
            ev["nbytes"] = m.entries.nbytes
            ev["samples"] = [(i, j, int(m.entries[i, j])) for i, j in cells]
            call(job, f"{unit}.certify", "selfsim.check_self_similarity", m,
                 p, cells=side * side)
            call(job, f"{unit}.lemmas", "selfsim.check_lemmas", coeffs,
                 inp.k_max[p])

            # Negative control: the same matrix with one cell perturbed, in
            # place, so that no second copy inflates peak_rss_mb.
            entries = m.entries
            del m
            entries.setflags(write=True)  # the array owns its data
            entries[corrupt] = (entries[corrupt] + 1) % p
            bad = ResidueMatrix(p, entries)
            report = call(job, f"{unit}.violation",
                          "selfsim.check_self_similarity", bad, p,
                          cells=side * side)
            if report is not None and report.first_violation is not None:
                ev["witness"] = {c: int(entries[c]) for c in
                                 O.witness_cells(report.first_violation, p)}
            del bad, entries

    def check(self, job, inp) -> dict:
        checks = {}
        for p, side in SELFSIM_SIDES:
            unit = f"p{p}"
            ev = job.evidence[unit]

            def generated(m, ev=ev):
                job.count("matrix.bytes", ev["nbytes"])
                job.count("matrix.cells", ev["side"] ** 2)
                return O.check_samples(
                    [(i, j, v, closed_form(ev["coeffs"], i, j))
                     for i, j, v in ev["samples"]])

            def certified(report, p=p, side=side):
                job.count("selfsim.cells_constrained",
                          O.cells_constrained(p, report.max_k))
                return O.check_clean_selfsim(report, p, side)

            def lemmas(report, p=p):
                job.count("selfsim.lemma_cases",
                          sum(r.cases for r in report.results))
                return O.check_lemmas(report, inp.k_max[p])

            checks[f"{unit}.matrix"] = generated
            checks[f"{unit}.certify"] = certified
            checks[f"{unit}.lemmas"] = lemmas
            checks[f"{unit}.violation"] = (
                lambda r, p=p, ev=ev: O.check_violation(
                    r, p, ev["corrupt"], ev.get("witness", {})))
        return _verdicts(job, checks)


# ------------------------------------------------------------------- cli
@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    cpu_s: float
    maxrss_kb: int


CLI_TIMEOUT_S = 120


def run_process(argv: list[str], cwd: Path, env: dict) -> CliResult:
    """Run one child to completion and collect its own resource usage."""
    out, err = cwd / ".stdout", cwd / ".stderr"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fo, stderr=fe,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out.read_text(), err.read_text(),
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


class CliSession:
    """One user session of `python -m fractile.cli` commands."""

    name = "cli-session"
    runs_in_children = True  # peak_rss_mb is the largest child's

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work

    def setup(self, seed: int, golden: dict) -> SimpleNamespace:
        ref = O.reference_matrix(1, 1, 1, 3, 243, 243)
        path = os.pathsep.join(
            [str(self.root / "src")]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
               else []))
        return SimpleNamespace(
            ref=ref, grid=O.grid_text(ref, 3),
            env=dict(os.environ, PYTHONPATH=path),
            golden=golden)

    def job(self, job, inp, rng) -> None:
        cwd = self.work / f"session-{job.index}"
        shutil.rmtree(cwd, ignore_errors=True)
        cwd.mkdir(parents=True)
        job.evidence["cwd"] = cwd
        carpet = ["--a", "1", "--b", "1", "--c", "1", "--p", "3"]
        corrupt = (rng.randrange(729), rng.randrange(729))
        outside = (rng.randrange(27, 100), rng.randrange(27))
        job.evidence["corrupt"] = corrupt
        commands = (
            ("tileset", "cli.tileset", 243 * 243,
             ["tileset", *carpet, "--out", "carpet.tileset"]),
            ("simulate", "cli.simulate", 81 * 81,
             ["simulate", "--tileset", "carpet.tileset", "--bound", "81",
              "--seed", str(rng.randrange(2 ** 31)), "--out", "a81.asm",
              "--image", "a81.ppm"]),
            ("simulate_lax", "cli.simulate_lax", 27 * 27,
             ["simulate", "--tileset", "carpet.tileset", "--lax", "--bound",
              "27", "--seed", str(rng.randrange(2 ** 31)), "--out",
              "lax27.asm"]),
            ("render_asm", "cli.render", 81 * 81,
             ["render", "a81.asm", "--out", "r81.ppm"]),
            ("verify", "cli.verify", 5 * 25 * 25,
             ["verify", "--a", "1", "--b", "2", "--c", "2", "--p", "5",
              "--bound", "25", "--trials", "5",
              "--seed", str(rng.randrange(2 ** 31))]),
            ("matrix", "cli.matrix", 243 * 243,
             ["matrix", *carpet, "--size", "243", "--out", "m243.grid"]),
            ("render_grid", "cli.render", 243 * 243,
             ["render", "m243.grid", "--out", "m243.ppm"]),
            ("selfsim", "cli.selfsim", 729 * 729,
             ["selfsim", *carpet, "--size", "729"]),
            ("selfsim_corrupt", "cli.selfsim", 729 * 729,
             ["selfsim", *carpet, "--size", "729", "--corrupt",
              *map(str, corrupt)]),
            ("error_p", "cli.errors", 0,
             ["matrix", "--a", "1", "--b", "1", "--c", "1", "--p", "4",
              "--size", "9"]),
            ("error_corrupt", "cli.errors", 0,
             ["selfsim", *carpet, "--size", "27", "--corrupt",
              *map(str, outside)]),
        )
        job.units = {op: cells for op, _, cells, _ in commands}
        job.call("import", "cli.import", run_process,
                 [sys.executable, "-c", "import fractile"], cwd, inp.env)
        for op, span, cells, argv in commands:
            job.call(op, span, run_process,
                     [sys.executable, "-m", "fractile.cli", *argv], cwd,
                     inp.env, cells=cells)

    def check(self, job, inp) -> dict:
        cwd, g = job.evidence["cwd"], inp.golden

        def ok(expected, then=None):
            def check(res):
                job.count("cli.child_cpu_s", res.cpu_s)
                job.evidence["maxrss_kb"] = max(
                    job.evidence.get("maxrss_kb", 0), res.maxrss_kb)
                return O.check_exit(res, expected) or (then and then(res))
            return check

        def file_digest(name, key):
            return lambda res: O.check_digest((cwd / name).read_bytes(),
                                              key, name)

        def dump(name, bound, key):
            def check(res):
                text = (cwd / name).read_text()
                return (O.check_digest(text, g["assembly"][key], name)
                        or O.check_labels(O.parse_dump(text), bound, inp.ref))
            return check

        def simulated(res):
            return (dump("a81.asm", (81, 81), "carpet-strict-81")(res)
                    or file_digest("a81.ppm", g["image"]["carpet-81"])(res))

        def rendered_asm(res):
            if (cwd / "r81.ppm").read_bytes() != (cwd / "a81.ppm").read_bytes():
                return "render of the dump differs from simulate --image"
            return file_digest("r81.ppm", g["image"]["carpet-81"])(res)

        def verified(res):
            if ("labels: match" not in res.stdout
                    or "directedness: all trials" not in res.stdout):
                return f"verify did not pass: {res.stdout.strip()[-120:]}"
            return None

        def matrix_text(res):
            if (cwd / "m243.grid").read_text() != inp.grid:
                return "grid differs from the reference recursion"
            return None

        def holds(res):
            want = f"holds (max k {O.expected_max_k(3, 729)})"
            return None if want in res.stdout else f"expected {want!r}"

        def violated(res):
            w = O.parse_cli_witness(res.stdout)
            if "VIOLATED" not in res.stdout or w is None:
                return "corrupted window was not reported VIOLATED"
            corrupt = job.evidence["corrupt"]
            values = {}
            for cell in O.witness_cells(w, 3):
                v = closed_form(CARPET, *cell)
                values[cell] = (v + 1) % 3 if cell == corrupt else v
            return O.check_violation(SimpleNamespace(holds=False,
                                                     first_violation=w),
                                     3, corrupt, values)

        return _verdicts(job, {
            "import": ok(0),
            "tileset": ok(0, file_digest("carpet.tileset",
                                         g["tileset"]["carpet-243"]["sha256"])),
            "simulate": ok(0, simulated),
            "simulate_lax": ok(0, dump("lax27.asm", (27, 27), "carpet-lax-27")),
            "render_asm": ok(0, rendered_asm),
            "verify": ok(0, verified),
            "matrix": ok(0, matrix_text),
            "render_grid": ok(0, file_digest("m243.ppm",
                                             g["image"]["carpet-243-grid"])),
            "selfsim": ok(0, holds),
            "selfsim_corrupt": ok(1, violated),
            "error_p": ok(2),
            "error_corrupt": ok(2),
        })

    def cleanup(self, job) -> None:
        shutil.rmtree(job.evidence["cwd"], ignore_errors=True)


def make(name: str, root: Path, work: Path):
    """The workload called `name`."""
    if name == CliSession.name:
        return CliSession(root, work)
    return {w.name: w for w in (CarpetGrowth, RuleCompile,
                                SelfsimCertify)}[name]()


NAMES = (CarpetGrowth.name, RuleCompile.name, SelfsimCertify.name,
         CliSession.name)
