#!/usr/bin/env python3
"""Benchmark for fractile: one workload, closed loop, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload carpet-growth --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

One client in one process runs jobs back to back (each starts when the
previous one ends) until `--seconds` of job time have passed, with at
least three jobs.  Outputs are checked after each job, outside the timed
region.  With `--trace 0` the last line of stdout is a JSON object with
the end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics, taken from spans recorded around every call into
fractile, and jobs alternate traced and untraced so that the tracing
overhead can be reported.  Each run also writes a record,
`perfbench/out/BENCH_<workload>_seed<n>_trace<t>.json`, and a traced run
writes its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Job, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_JOBS = 3
WALL_LIMIT_S = 140  # stop starting jobs so that a run ends well within 180 s

# Per-layer times: metric -> (span name, op-name pattern, kind).  "s" is
# the median over traced jobs of the summed self time; the per-cell kinds
# divide the total self time by the total cells of the matching spans.
LAYER_TIMES = {
    "matrix.delannoy_matrix.s": ("matrix.delannoy_matrix", "", "s"),
    "matrix.delannoy_matrix.ns_per_cell": ("matrix.delannoy_matrix", "", "ns"),
    "selfsim.check_self_similarity.s":
        ("selfsim.check_self_similarity", r"\.certify$", "s"),
    "selfsim.check_self_similarity.ns_per_cell":
        ("selfsim.check_self_similarity", r"\.certify$", "ns"),
    "selfsim.violation_s":
        ("selfsim.check_self_similarity", r"\.violation$", "s"),
    "selfsim.check_lemmas.s": ("selfsim.check_lemmas", "", "s"),
    "tilegen.build_full_system.s": ("tilegen.build_full_system", "", "s"),
    "tilegen.prune_reachable.us_per_cell.delannoy":
        ("tilegen.prune_reachable", r"^(carpet|mod5)\.", "us"),
    "tilegen.prune_reachable.us_per_cell.generic":
        ("tilegen.prune_reachable", r"^parity\.", "us"),
    "tilegen.horizon_is_stable.s": ("tilegen.horizon_is_stable", "", "s"),
    "tam.strict.us_per_cell.b81": ("tam.assemble_bounded", r"^b81\.", "us"),
    "tam.strict.us_per_cell.b243": ("tam.assemble_bounded", r"^b243\.", "us"),
    "tam.strict.us_per_cell.t131": ("tam.assemble_bounded", r"^t131\.", "us"),
    "tam.lax.us_per_cell.b81": ("tam.assemble_bounded", r"^lax81\.", "us"),
    "tam.replay_is_valid.us_per_cell": ("tam.replay_is_valid", "", "us"),
    "conformance.check_induction_clauses.us_per_cell":
        ("conformance.check_induction_clauses", "", "us"),
    "conformance.compare_assembly_labels.s":
        ("conformance.compare_assembly_labels", "", "s"),
    "formats.write_assembly.s": ("formats.write_assembly", "", "s"),
    "formats.write_tileset.s": ("formats.write_tileset", "", "s"),
    "cli.import_s": ("cli.import", "", "s"),
    **{f"cli.{c}.s": (f"cli.{c}", "", "s") for c in (
        "tileset", "simulate", "simulate_lax", "render", "verify", "matrix",
        "selfsim", "errors")},
}
# Per-layer counts, each the median over traced jobs of a job counter.
LAYER_COUNTS = ("selfsim.cells_constrained", "selfsim.lemma_cases",
                "tilegen.tiles_compiled", "tam.cells_placed", "tam.stalls",
                "conformance.clauses_failed", "formats.bytes_written",
                "cli.child_cpu_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import fractile from this checkout's `src`, and nowhere else."""
    src = ROOT / "src"
    if not (src / "fractile" / "__init__.py").is_file():
        raise SystemExit(f"error: no fractile sources under {src}")
    sys.path.insert(0, str(src))
    import fractile
    if Path(fractile.__file__).resolve().parent != (src / "fractile").resolve():
        raise SystemExit(f"error: imported fractile from {fractile.__file__}")
    return fractile


def monotonic() -> float:
    """System-wide clock, comparable between processes on Linux."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(args) -> float:
    """Fresh interpreter to inputs ready, in a child process."""
    start = monotonic()
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr[-500:]}")
    return float(res.stdout.split()[-1]) - start


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside git or without git.  The
    ceiling keeps git from taking a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(args, numpy_version: str, loadavg: list[str]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "loadavg_start": loadavg,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def credited_cells(job, failed_ops: set[str]) -> int:
    """Cells of the units whose every operation passed its check."""
    total = 0
    for unit, cells in job.units.items():
        ops = [op for op in job.ops if op.split(".")[0] == unit]
        if ops and not failed_ops.intersection(ops):
            total += cells
    return total


def known_defect(known: dict, workload: str, job, op: str) -> str | None:
    """The documented defect this failure shows, if it shows exactly its
    symptom; any other failure of the same operation is unexplained."""
    defect = known.get((workload, op))
    result = job.ops.get(op)
    if defect is None or result is None or result.error is not None:
        return None
    return defect.why if defect.symptom(result.value) else None


def run_jobs(args, wl, inputs, known: dict, started: float,
             setup_probe=None):
    """Jobs back to back until `args.seconds` of job time.  The set-up
    probes are spread over the run, one between two jobs at evenly spaced
    points of job time, so that a slow spell of the machine does not
    land on all of them."""
    tracer = Tracer()
    jobs, failures, attempted, setup = [], [], 0, []
    while True:
        timed = sum(j.seconds for j in jobs)
        traced = [j for j in jobs if j.traced]
        enough = timed >= args.seconds and len(jobs) >= MIN_JOBS and (
            args.trace == 0 or min(len(traced), len(jobs) - len(traced)) >= 2)
        if enough or (jobs and monotonic() - started > WALL_LIMIT_S):
            break
        if (setup_probe and len(setup) < SETUP_REPEATS
                and timed >= len(setup) * args.seconds / SETUP_REPEATS):
            setup.append(setup_probe())
        job = Job(len(jobs), args.trace == 1 and len(jobs) % 2 == 0, tracer)
        rng = random.Random(f"{wl.name}:{args.seed}:{job.index}")
        start = time.perf_counter()
        if job.traced:
            job.root = tracer.record("job", wl.name, job.index, None,
                                     start, start)
        try:
            wl.job(job, inputs, rng)
            crash = None
        except Exception:  # reported as a failed operation of this job
            crash = traceback.format_exc(limit=3)
        end = time.perf_counter()
        job.seconds = end - start
        if job.traced:
            tracer.spans[job.root].end = end
        verdicts = wl.check(job, inputs)
        problems = {}
        for name, op in job.ops.items():
            if op.error:
                problems[name] = op.error
            elif name not in verdicts:
                problems[name] = "no check ran for this output"
            elif verdicts[name]:
                problems[name] = verdicts[name]
        if crash is not None:
            problems["<job>"] = crash
        attempted += len(job.ops) + (crash is not None)
        for name, problem in problems.items():
            failures.append({"job": job.index, "op": name,
                             "detail": str(problem)[:400],
                             "known": known_defect(known, wl.name, job, name)})
        job.credited_cells = credited_cells(job, set(problems))
        for op in job.ops.values():
            op.value = None
        if hasattr(wl, "cleanup"):
            wl.cleanup(job)
        jobs.append(job)
    while setup_probe and len(setup) < SETUP_REPEATS:
        setup.append(setup_probe())
    return jobs, failures, attempted, tracer, setup


def end_to_end(wl, jobs, setup, attempted, failed) -> dict:
    times = [j.seconds for j in jobs]
    if getattr(wl, "runs_in_children", False):
        rss_kb = max(j.evidence.get("maxrss_kb", 0) for j in jobs)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cells_per_s": sum(j.credited_cells for j in jobs)
        / sum(times),
        "job_s_p50": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(workload, jobs, tracer, predictions) -> dict:
    traced = [j for j in jobs if j.traced]
    untraced = [j for j in jobs if not j.traced]
    selfs = tracer.self_times()
    spans = [s for s in tracer.spans if s.parent is not None]
    out = {}
    for metric, (name, pattern, kind) in LAYER_TIMES.items():
        match = [s for s in spans
                 if s.name == name and re.search(pattern, s.op)]
        # A time that silently reads 0 would look like a perfect gain.
        expected = workload in predictions[metric]["measured_on"]
        if expected != bool(match):
            raise RuntimeError(
                f"{metric}: {len(match)} spans {name!r} on {workload}, but "
                f"predictions.json measures it on "
                f"{predictions[metric]['measured_on']}")
        if kind == "s":
            out[metric] = statistics.median(
                sum(selfs[s.id] for s in match if s.job == j.index)
                for j in traced)
        else:
            cells = sum(s.cells for s in match)
            scale = 1e6 if kind == "us" else 1e9
            out[metric] = (sum(selfs[s.id] for s in match) / cells * scale
                           if cells else 0.0)
    for metric in LAYER_COUNTS:
        out[metric] = statistics.median(j.counts.get(metric, 0)
                                        for j in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    def total(key):
        return sum(j.counts.get(key, 0) for j in traced)

    out["matrix.bytes_per_cell"] = ratio(total("matrix.bytes"),
                                         total("matrix.cells"))
    out["tilegen.keep_ratio"] = ratio(total("tilegen.tiles_kept"),
                                      total("tilegen.tiles_compiled"))
    out["tam.scaling_ratio"] = ratio(out["tam.strict.us_per_cell.b243"],
                                     out["tam.strict.us_per_cell.b81"])
    out["tam.lax_over_strict"] = ratio(out["tam.lax.us_per_cell.b81"],
                                       out["tam.strict.us_per_cell.b81"])
    cli_wall = sum(selfs[s.id] for s in spans if s.name.startswith("cli."))
    out["cli.cpu_over_wall"] = ratio(total("cli.child_cpu_s"), cli_wall)
    out["trace.overhead_s"] = (
        statistics.median(j.seconds for j in traced)
        - statistics.median(j.seconds for j in untraced)) if untraced else 0.0
    return out


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    import workloads
    results = {}
    for name in workloads.NAMES:
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if res.returncode != 0:
            print(f"{name}: exit {res.returncode}\n{res.stderr}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(res.stdout.splitlines()[-1])
        r = results[name]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    started = monotonic()
    loadavg = Path("/proc/loadavg").read_text().split()[:3]
    load_program()
    import numpy
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)} or all")
    OUT.mkdir(exist_ok=True)
    golden = json.loads((HERE / "golden.json").read_text())
    wl = workloads.make(args.workload, ROOT, OUT / "work")
    inputs = wl.setup(args.seed, golden)
    if args.setup_probe:
        print(f"READY {monotonic()!r}")
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args, numpy.__version__, loadavg)
    jobs, failures, attempted, tracer, setup = run_jobs(
        args, wl, inputs, workloads.KNOWN_DEFECTS, started,
        lambda: measure_setup(args))
    failed = len(failures)
    unexplained = [f for f in failures if not f["known"]]
    untraced = [j for j in jobs if not j.traced]
    e2e = end_to_end(wl, untraced, setup, attempted, failed) if untraced \
        else None
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    predictions = json.loads((HERE / "predictions.json").read_text())
    values = (per_layer(args.workload, jobs, tracer,
                        predictions["per_layer"]) if args.trace else e2e)
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(values)} do not match "
                           "BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    env["jobs"] = len(jobs)
    env["wall_s"] = monotonic() - started
    record = {
        "environment": env,
        "correct": not unexplained,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "known_defects": {op: d.why for (w, op), d in
                          workloads.KNOWN_DEFECTS.items()
                          if w == args.workload},
        "setup_s_samples": setup,
        "jobs": [{"index": j.index, "traced": j.traced, "seconds": j.seconds,
                  "credited_cells": j.credited_cells,
                  "counts": j.counts} for j in jobs],
        "job_s_p50_samples": sum(not j.traced for j in jobs),
        "end_to_end_untraced": e2e,
        "metrics": metrics,
    }
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        record["computed"] = {"matrix.bytes_per_cell": "entries.nbytes / cells"}
        (OUT / f"TRACE_{stem}.json").write_text(json.dumps(tracer.to_json()))
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1))

    for f in failures:
        tag = "known defect" if f["known"] else "FAILED"
        print(f"{tag}: job {f['job']} {f['op']}: {f['detail'].splitlines()[-1]}")
    print(f"{args.workload}: {len(jobs)} jobs, {attempted} operations, "
          f"{failed} failed, set-up samples {len(setup)}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
