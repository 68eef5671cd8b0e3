#!/usr/bin/env python3
"""Self-test of the benchmark's checkers: each must reject a wrong output.

Run from the repository root:  python3 perfbench/selftest.py

The first group feeds each checker a correct output (which must pass)
and a deliberately wrong one (which must fail).  The second group runs
one real job per workload, confirms that every operation passes, then
breaks one output and confirms that the workload's own check reports
it, so that a checker wired to the wrong output cannot pass silently.
"""

from __future__ import annotations

import json
import random
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import run

run.load_program()

from fractile import (Assembly, Coefficients, carpet_system,  # noqa: E402
                      check_induction_clauses, check_self_similarity,
                      delannoy_matrix, delannoy_rule, formats,
                      is_directed_empirically, tam)

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
from spans import Job, Tracer  # noqa: E402

GOLDEN = json.loads((run.HERE / "golden.json").read_text())
CARPET = Coefficients(1, 1, 1, 3)


def corrupted(matrix, cell):
    entries = matrix.entries.copy()
    entries[cell] = (entries[cell] + 1) % matrix.modulus
    return type(matrix)(matrix.modulus, entries)


class CheckerTests(unittest.TestCase):

    def test_reference_matrices_match_the_library(self):
        ref = O.reference_matrix(1, 2, 2, 5, 30, 30)
        self.assertEqual(ref, delannoy_matrix(Coefficients(1, 2, 2, 5),
                                              30, 30).entries.tolist())
        self.assertEqual(O.parity_matrix(3, 3),
                         [[1, 1, 0], [1, 1, 0], [0, 0, 0]])

    def test_mutated_label_is_rejected(self):
        asm = tam.assemble_bounded(carpet_system(), (9, 9), 4)
        ref = O.reference_matrix(1, 1, 1, 3, 9, 9)
        self.assertIsNone(O.check_labels(asm.placements, (9, 9), ref))
        labels = {pos: t.label for pos, t in asm.placements.items()}
        labels[(4, 7)] = str((int(labels[(4, 7)]) + 1) % 3)
        self.assertIn("(4, 7)", O.check_labels(labels, (9, 9), ref))
        del labels[(4, 7)]
        self.assertIsNotNone(O.check_labels(labels, (9, 9), ref))

    def test_wrong_exit_code_is_rejected(self):
        ok = SimpleNamespace(returncode=2, stderr="error: bad input\n")
        self.assertIsNone(O.check_exit(ok, 2))
        self.assertIsNotNone(O.check_exit(ok, 0))
        crash = SimpleNamespace(returncode=2, stderr="Traceback (most...\n")
        self.assertIsNotNone(O.check_exit(crash, 2))

    def test_altered_dump_is_rejected(self):
        asm = tam.assemble_bounded(carpet_system(), (81, 81), 9)
        text = formats.write_assembly(asm, (81, 81))
        key = GOLDEN["assembly"]["carpet-strict-81"]
        self.assertIsNone(O.check_digest(text, key, "dump"))
        self.assertIsNotNone(O.check_digest(text.replace("place 3 4",
                                                         "place 4 3"),
                                            key, "dump"))

    def test_missed_violation_is_rejected(self):
        m = delannoy_matrix(CARPET, 81, 81)
        self.assertIsNone(O.check_clean_selfsim(check_self_similarity(m, 3),
                                                3, 81))
        cell = (50, 20)
        bad = corrupted(m, cell)
        report = check_self_similarity(bad, 3)
        values = {c: int(bad.entries[c])
                  for c in O.witness_cells(report.first_violation, 3)}
        self.assertIsNone(O.check_violation(report, 3, cell, values))
        self.assertIsNotNone(O.check_violation(check_self_similarity(m, 3),
                                               3, cell, values))
        exact = {c: int(m.entries[c]) for c in values}
        self.assertIsNotNone(O.check_violation(report, 3, cell, exact))
        self.assertIsNotNone(O.check_violation(report, 3, (1, 1), values))
        self.assertIsNotNone(O.check_clean_selfsim(report, 3, 81))
        under = SimpleNamespace(holds=True, first_violation=None, max_k=2,
                                side=81)
        self.assertIsNotNone(O.check_clean_selfsim(under, 3, 81))

    def test_cli_witness_parse(self):
        w = O.parse_cli_witness("x VIOLATED\nwitness: s=2 t=0 k=5 i=14 j=100\n")
        self.assertEqual(O.witness_cells(w, 3), ((500, 100), (2, 0), (14, 100)))
        self.assertIsNone(O.parse_cli_witness("holds (max k 5)"))

    def test_directed_twins_are_rejected(self):
        result = is_directed_empirically(W.twins_system(), (1, 6), 20)
        self.assertIsNone(O.check_not_directed(result))
        directed = is_directed_empirically(carpet_system(), (3, 3), 2)
        self.assertIsNotNone(O.check_not_directed(directed))

    def test_missed_transplant_is_rejected(self):
        rule = delannoy_rule(CARPET)
        asm = tam.assemble_bounded(carpet_system(), (9, 9), 2)
        clean = check_induction_clauses(asm, rule)
        self.assertIsNone(O.check_induction(clean))
        self.assertIsNotNone(O.check_transplant(clean, (5, 5)))
        victim = asm.placements[(5, 5)]
        bad = Assembly(dict(asm.placements), asm.attachment_order,
                       asm.seed_count)
        bad.placements[(5, 5)] = next(t for t in carpet_system().tiles
                                      if not t.same_surface(victim))
        report = check_induction_clauses(bad, rule)
        self.assertIsNone(O.check_transplant(report, (5, 5)))
        self.assertIsNotNone(O.check_transplant(report, (5, 6)))
        self.assertIsNotNone(O.check_induction(report))

    def test_wrong_samples_and_surfaces_are_rejected(self):
        self.assertIsNone(O.check_samples([(1, 2, 0, 0)]))
        self.assertIsNotNone(O.check_samples([(1, 2, 0, 0), (3, 3, 1, 2)]))
        carpet = carpet_system()
        self.assertIsNone(O.check_surfaces(carpet, carpet))
        fewer = SimpleNamespace(tiles=carpet.tiles[:-1])
        self.assertIsNotNone(O.check_surfaces(fewer, carpet))

    def test_cells_constrained_counts_every_level(self):
        self.assertEqual(O.expected_max_k(3, 729), 5)
        self.assertEqual(O.cells_constrained(3, 1), 9 + 81)


class FakeWorkload:
    """Three ops: one passes, one fails its check, one has no check."""

    name = "fake"

    def job(self, job, inputs, rng):
        job.units = {"good": 5, "bad": 7}
        job.call("good.op", "fake.good", lambda: 1)
        job.call("bad.op", "fake.bad", lambda: 2)
        job.call("bad.unchecked", "fake.unchecked", lambda: 3)

    def check(self, job, inputs):
        return {"good.op": None, "bad.op": "wrong"}


class RunnerTests(unittest.TestCase):

    def test_unchecked_and_failed_ops_are_counted(self):
        args = SimpleNamespace(seconds=0.0, trace=1, seed=0)
        jobs, failures, attempted, tracer, setup = run.run_jobs(
            args, FakeWorkload(), None, {}, run.monotonic())
        self.assertEqual(len(jobs), 4)
        self.assertEqual(attempted, 12)
        self.assertEqual({f["op"] for f in failures},
                         {"bad.op", "bad.unchecked"})
        self.assertTrue(all(f["known"] is None for f in failures))
        self.assertEqual([j.credited_cells for j in jobs], [5] * 4)
        self.assertEqual(sum(s.parent is None for s in tracer.spans), 2)
        self.assertEqual(setup, [])

    def test_setup_probes_are_spread_over_the_run(self):
        args = SimpleNamespace(seconds=0.0, trace=0, seed=0)
        order = []

        class Workload(FakeWorkload):
            def job(self, job, inputs, rng):
                order.append("job")
                super().job(job, inputs, rng)

        def probe():
            order.append("probe")
            return 0.25

        *_, setup = run.run_jobs(args, Workload(), None, {}, run.monotonic(),
                                 probe)
        self.assertEqual(setup, [0.25] * run.SETUP_REPEATS)
        self.assertEqual(order[:4], ["probe", "job", "probe", "job"])

    def test_known_defect_needs_its_exact_symptom(self):
        known = W.KNOWN_DEFECTS
        trace = ("Traceback (most recent call last):\n  ...\n"
                 "IndexError: index 30 is out of bounds for axis 0\n")
        cases = [(W.CliResult(1, "", trace, 0.1, 1), True),
                 (W.CliResult(0, "", "", 0.1, 1), False),
                 (W.CliResult(1, "", trace.replace("IndexError",
                                                    "KeyError"), 0.1, 1),
                  False),
                 (W.CliResult(1, "", "IndexError: no traceback\n", 0.1, 1),
                  False)]
        for res, is_known in cases:
            job = Job(0, False, Tracer())
            job.call("error_corrupt", "cli.errors", lambda res=res: res)
            found = run.known_defect(known, "cli-session", job,
                                     "error_corrupt")
            self.assertEqual(found is not None, is_known, res)
        job = Job(0, False, Tracer())
        job.call("error_corrupt", "cli.errors", lambda: 1 / 0)
        self.assertIsNone(run.known_defect(known, "cli-session", job,
                                           "error_corrupt"))

    def test_layer_time_without_its_span_fails_the_run(self):
        predictions = json.loads(
            (run.HERE / "predictions.json").read_text())["per_layer"]
        tracer = Tracer()
        job = Job(0, True, tracer)
        job.root = tracer.record("job", "carpet-growth", 0, None, 0.0, 1.0)
        job.call("b81.grow", "tam.moved_elsewhere", lambda: None)
        with self.assertRaisesRegex(RuntimeError, "tam.strict"):
            run.per_layer("carpet-growth", [job], tracer, predictions)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        root = tracer.record("job", "", 0, None, 0.0, 10.0)
        tracer.record("a", "", 0, root, 1.0, 4.0)
        tracer.record("b", "", 0, root, 3.0, 5.0)
        self.assertAlmostEqual(tracer.self_times()[root], 6.0)


class WorkloadWiringTests(unittest.TestCase):
    """One real job per workload: all pass, then one broken output fails."""

    def one_job(self, wl):
        inputs = wl.setup(1, GOLDEN)
        job = Job(0, False, Tracer())
        wl.job(job, inputs, random.Random(f"{wl.name}:selftest"))
        verdicts = wl.check(job, inputs)
        self.assertEqual(set(verdicts), set(job.ops))
        return job, inputs, verdicts

    def assert_breaks(self, wl, job, inputs, op, value):
        job.ops[op].value = value
        job.counts.clear()
        self.assertIsNotNone(wl.check(job, inputs)[op], op)

    def test_carpet_growth(self):
        wl = W.make("carpet-growth", run.ROOT, None)
        job, inputs, verdicts = self.one_job(wl)
        self.assertEqual({k: v for k, v in verdicts.items() if v}, {})
        asm = job.ops["b81.grow"].value
        pos = (10, 10)
        tile = asm.placements[pos]
        asm.placements[pos] = next(t for t in inputs.carpet.tiles
                                   if t.label != tile.label)
        self.assert_breaks(wl, job, inputs, "b81.grow", asm)
        text = job.ops["b243.write"].value
        self.assert_breaks(wl, job, inputs, "b243.write", text + "\n")
        self.assert_breaks(wl, job, inputs, "b243.replay", False)

    def test_rule_compile(self):
        wl = W.make("rule-compile", run.ROOT, None)
        job, inputs, verdicts = self.one_job(wl)
        self.assertEqual({k: v for k, v in verdicts.items() if v}, {})
        text = job.ops["mod5.write"].value
        self.assert_breaks(wl, job, inputs, "mod5.write",
                           text.replace(" 1 ", " 2 ", 1))
        self.assert_breaks(wl, job, inputs, "carpet.stable", False)
        clean = job.ops["induction.clean"].value
        self.assert_breaks(wl, job, inputs, "transplant.induction", clean)

    def test_selfsim_certify(self):
        wl = W.make("selfsim-certify", run.ROOT, None)
        job, inputs, verdicts = self.one_job(wl)
        self.assertEqual({k: v for k, v in verdicts.items() if v}, {})
        ev = job.evidence["p5"]
        i, j, v = ev["samples"][0]
        ev["samples"][0] = (i, j, (v + 1) % 5)
        self.assert_breaks(wl, job, inputs, "p5.matrix", None)
        clean = job.ops["p3.certify"].value
        self.assert_breaks(wl, job, inputs, "p3.violation", clean)

    def test_cli_session(self):
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            wl = W.make("cli-session", run.ROOT, Path(tmp))
            job, inputs, verdicts = self.one_job(wl)
            bad = {k: v for k, v in verdicts.items() if v}
            self.assertEqual(set(bad), {"error_corrupt"})  # known defect
            self.assertIn(("cli-session", "error_corrupt"), W.KNOWN_DEFECTS)
            res = job.ops["error_p"].value
            res.returncode = 1
            self.assert_breaks(wl, job, inputs, "error_p", res)
            res = job.ops["selfsim"].value
            res.stdout = res.stdout.replace("holds", "VIOLATED")
            self.assert_breaks(wl, job, inputs, "selfsim", res)
            (job.evidence["cwd"] / "a81.asm").write_text("assembly v1\n")
            self.assert_breaks(wl, job, inputs, "simulate",
                               job.ops["simulate"].value)


class SpecTests(unittest.TestCase):

    def test_predictions_cover_every_per_layer_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        predictions = json.loads((run.HERE / "predictions.json").read_text())
        names = {m["name"] for m in spec["per_layer"]}
        self.assertEqual(set(predictions["per_layer"]), names)
        workloads = {w["name"] for w in spec["workloads"]}
        self.assertEqual(workloads, set(W.NAMES))
        self.assertEqual(set(predictions["workloads"]), workloads)


if __name__ == "__main__":
    unittest.main(verbosity=2)
