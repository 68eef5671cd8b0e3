"""Operations, spans and per-job bookkeeping for the benchmark.

Every call the benchmark makes into `fractile` (or every CLI command it
runs) is one *operation*: it is timed, its return value or exception is
kept for the output check, and, when tracing is on, it is recorded as a
span whose parent is the job's root span.  The caller names the span:
`module.function` after the public fractile module it called through, or
`cli.<command>` for a CLI child.  Spans are kept in memory and written
out once, when the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Op:
    """What one timed call returned, or the exception it raised."""

    value: object
    error: str | None


@dataclass
class Span:
    id: int
    name: str
    op: str
    job: int
    parent: int | None
    start: float
    end: float
    cells: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store, written out once when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []

    def record(self, name: str, op: str, job: int, parent: int | None,
               start: float, end: float, cells: int = 0) -> int:
        span = Span(len(self.spans), name, op, job, parent, start, end, cells)
        self.spans.append(span)
        return span.id

    def self_times(self) -> dict[int, float]:
        """Duration of each span minus the time its children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = s.seconds - covered
        return out

    def to_json(self) -> list[dict]:
        selfs = self.self_times()
        return [{"id": s.id, "name": s.name, "op": s.op, "job": s.job,
                 "parent": s.parent, "start": s.start, "end": s.end,
                 "self_s": selfs[s.id], "cells": s.cells}
                for s in self.spans]


@dataclass
class Job:
    """One closed-loop job: its operations, counters and check evidence."""

    index: int
    traced: bool
    tracer: Tracer
    root: int | None = None
    ops: dict[str, Op] = field(default_factory=dict)
    units: dict[str, int] = field(default_factory=dict)  # unit -> cells
    credited_cells: int = 0
    counts: dict[str, float] = field(default_factory=dict)
    evidence: dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0

    def call(self, op: str, span: str, fn, *args, cells: int = 0, **kwargs):
        """Run one operation; an exception becomes the op's error."""
        if op in self.ops:
            raise ValueError(f"operation {op!r} is already in this job")
        start = time.perf_counter()
        try:
            value, error = fn(*args, **kwargs), None
        except Exception as exc:  # the failure is reported, not raised
            value, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if self.traced:
            self.tracer.record(span, op, self.index, self.root, start, end,
                               cells)
        self.ops[op] = Op(value, error)
        return value

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value
