"""Certification of numerical p-self-similarity and its supporting identities.

A matrix M of residues mod p is numerically p-self-similar when

    M[s*p^k + i, t*p^k + j] == M[s, t] * M[i, j]   (mod p)

for all 0 <= s, t < p, all k >= 0, and all i, j < p^k.  The checker below
verifies the congruence exhaustively over every exponent the window
supports.  It refuses windows of side below p^2; on any other, one
perturbed entry inside the largest p-power square is caught unless
a = b = c = 0.  The lemma suite re-derives the boundary and cancellation
identities the congruence rests on, by brute force, as falsifiable checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .matrix import (Coefficients, ResidueMatrix, _uint_holding,
                     delannoy_matrix)

if TYPE_CHECKING:  # numpy is imported by the functions that make arrays
    import numpy as np


@dataclass(frozen=True)
class Violation:
    """Least witness of a failed congruence, ordered by (k, s, t, i, j)."""

    s: int
    t: int
    k: int
    i: int
    j: int


@dataclass(frozen=True)
class SelfSimReport:
    p: int
    max_k: int
    holds: bool
    first_violation: Violation | None
    side: int

    def to_lines(self) -> list[str]:
        lines = [f"self-similarity base {self.p} on {self.side}x{self.side}: "
                 f"{'holds' if self.holds else 'VIOLATED'} (max k {self.max_k})"]
        if self.first_violation is not None:
            v = self.first_violation
            lines.append(
                f"witness: s={v.s} t={v.t} k={v.k} i={v.i} j={v.j}")
        return lines


def check_side(side: int, p: int) -> None:
    """Refuse a window side below p^2; needs no window, so callers can
    check before building one."""
    if side < p * p:
        raise ValueError(f"window side {side} is below p^2 = {p * p}, where "
                         "the congruence constrains at most M[0, 0]")


def check_self_similarity(matrix: ResidueMatrix, p: int) -> SelfSimReport:
    """Exhaustively verify the scaling congruence on a square window.

    The exponent range is derived from the window: every k with
    p^(k+1) <= side is checked, so the report never silently under-checks.
    A window of side below p^2 is refused, since there the congruence
    constrains at most M[0, 0].  Each level scales its unit block once per
    residue M[s, t] takes, not once per block, and keeps one scaled block
    at a time.  The returned witness, if any, is the least in
    (k, s, t, i, j) order.
    """
    import numpy as np
    if matrix.height != matrix.width:
        raise ValueError("self-similarity check requires a square window")
    if matrix.modulus != p:
        raise ValueError("matrix modulus does not match the requested base")
    side = matrix.height
    check_side(side, p)
    ent = matrix.entries
    # Holds any product of two residues: uint8 for p <= 13.
    wide = _uint_holding((p - 1) ** 2)
    max_k = -1
    while p ** (max_k + 2) <= side:
        max_k += 1
    scales = ent[:p, :p]
    for k in range(max_k + 1):
        w = p ** k
        unit = ent[:w, :w]
        least = None  # witness in the least failing block so far
        # not np.unique, whose first call imports numpy.ma (about 20 ms)
        for v in sorted(set(scales.ravel().tolist())):
            expected = np.multiply(unit, v, dtype=wide)
            # expected % p as e - e // p * p, as delannoy_matrix reduces.
            q = expected // p
            expected -= np.multiply(q, p, out=q)
            for s, t in zip(*np.nonzero(scales == v)):
                if least is not None and (s, t) > (least.s, least.t):
                    break
                actual = ent[s * w:(s + 1) * w, t * w:(t + 1) * w]
                if not np.array_equal(actual, expected):
                    i, j = np.argwhere(actual != expected)[0]
                    least = Violation(int(s), int(t), k, int(i), int(j))
                    break
            del expected, q  # freed before the next residue's blocks are made
        if least is not None:
            return SelfSimReport(p, max_k, False, least, side)
    return SelfSimReport(p, max_k, True, None, side)


@dataclass(frozen=True)
class LemmaResult:
    name: str
    passed: bool
    counterexample: tuple | None
    cases: int


@dataclass(frozen=True)
class LemmaReport:
    coeffs: Coefficients
    k_max: int
    results: tuple[LemmaResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            line = f"{r.name}: {status} ({r.cases} cases)"
            if r.counterexample is not None:
                line += f" counterexample {r.counterexample}"
            lines.append(line)
        return lines


def _first_bad(mask: np.ndarray) -> tuple | None:
    import numpy as np
    bad = np.argwhere(~mask)
    if bad.size == 0:
        return None
    return tuple(int(v) for v in bad[0])


def check_lemmas(coeffs: Coefficients, k_max: int,
                 side_budget: int = 4096) -> LemmaReport:
    """Brute-force the boundary and cancellation identities on one window.

    One matrix of side p^(k_max+1) is materialized and all identities are
    evaluated on it over their full quantifier ranges:

    * corner entries M[0, p^k - 1] are 1;
    * the first row of each boundary block scales geometrically,
      M[0, t*p^k + j] == a^t * a^j;
    * adjacent entries along row p^k - 1 cancel,
      b*M[p^k - 1, j] + c*M[p^k - 1, j + 1] == 0;
    * runs anchored at block corners propagate geometrically: wherever
      the row below a run cancels under (b, c), the run itself is
      M[i0, x0 + j] == M[i0, x0] * a^j.

    Each identity is stated along rows only.  The corner recursion is
    symmetric under transposition with a and c swapped, so the column
    identities are checked as the row identities of the transpose under
    `coeffs.transposed()`.  Witnesses name their side, "row" or "column",
    and give block indices (s, t) in the matrix's own frame.  Only the
    row slices that enter products are upcast to int64, never the window.
    """
    import numpy as np
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    p = coeffs.p
    side = p ** (k_max + 1)
    if side > side_budget:
        raise ValueError(
            f"window side {side} exceeds the budget {side_budget}")
    ent = delannoy_matrix(coeffs, side, side).entries
    rows = ("row", ent, coeffs)
    columns = ("column", ent.T, coeffs.transposed())
    results: list[LemmaResult] = []

    cases, bad = 0, None
    for k in range(k_max + 2):
        w = p ** k
        for name, m, _ in (rows, columns):
            cases += 1
            if bad is None and int(m[0, w - 1]) != 1:
                bad = (name, k, int(m[0, w - 1]))
    results.append(LemmaResult("corner_entries_are_one", bad is None, bad, cases))

    cases, bad = 0, None
    for k in range(1, k_max + 1):
        w = p ** k
        for name, m, co in (rows, columns):
            first = m[0, :w].astype(np.int64)
            for t in range(p):
                expected = (pow(co.a, t, p) * first) % p
                mask = m[0, t * w:(t + 1) * w] == expected
                cases += w
                if bad is None and not mask.all():
                    bad = (name, k, t, _first_bad(mask))
    results.append(LemmaResult("boundary_blocks_scale_geometrically",
                               bad is None, bad, cases))

    cases, bad = 0, None
    for k in range(1, k_max + 2):
        w = p ** k
        for name, m, co in (columns, rows):
            row = m[w - 1, :w].astype(np.int64)
            mask = (co.b * row[:-1] + co.c * row[1:]) % p == 0
            cases += w - 1
            if bad is None and not mask.all():
                bad = (name, k, _first_bad(mask))
    results.append(LemmaResult("adjacent_pair_cancellation",
                               bad is None, bad, cases))

    # Scaled runs: the hypothesis (the row below cancels under b, c) and
    # the conclusion (the run is n * a^j) are checked separately.
    hyp_cases = conc_cases = 0
    hyp_bad = conc_bad = None
    for k in range(1, k_max + 1):
        w = p ** k
        for name, m, co in (rows, columns):
            first = m[0, :w].astype(np.int64)
            for s in range(1, p):
                below = m[s * w - 1, :].astype(np.int64)
                for t in range(p):
                    # A column witness gives (s, t) in M's frame.
                    where = (name, k, s, t) if name == "row" else (name, k, t, s)
                    seg = below[t * w:(t + 1) * w]
                    mask = (co.b * seg[:-1] + co.c * seg[1:]) % p == 0
                    hyp_cases += w - 1
                    if hyp_bad is None and not mask.all():
                        hyp_bad = (*where, _first_bad(mask))
                    run = m[s * w, t * w:(t + 1) * w]
                    mask = run == (int(run[0]) * first) % p
                    conc_cases += w
                    if conc_bad is None and not mask.all():
                        conc_bad = (*where, _first_bad(mask))
    results.append(LemmaResult("scaled_run_hypothesis",
                               hyp_bad is None, hyp_bad, hyp_cases))
    results.append(LemmaResult("scaled_run_conclusion",
                               conc_bad is None, conc_bad, conc_cases))

    return LemmaReport(coeffs, k_max, tuple(results))
