"""Certification of numerical p-self-similarity and its supporting identities.

A matrix M of residues mod p is numerically p-self-similar when

    M[s*p^k + i, t*p^k + j] == M[s, t] * M[i, j]   (mod p)

for all 0 <= s, t < p, all k >= 0, and all i, j < p^k.  The checker below
verifies the congruence exhaustively over every exponent the window
supports, in row bands, so it holds no temporary the size of a block.  It
refuses windows of side below p^2; on any other, one perturbed entry
inside the largest p-power square is caught unless a = b = c = 0.  The
lemma suite re-derives the boundary and cancellation identities the
congruence rests on, by brute force, as falsifiable checks, on the rows
and columns they read; it builds no window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .matrix import (Coefficients, ResidueMatrix, _uint_holding,
                     window_lines)

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


# Cells of one unit-block band that each level scales and compares at a
# time; at one byte a cell, the band's temporaries take under 1 MB.
_BAND_CELLS = 2 ** 18


def check_self_similarity(matrix: ResidueMatrix, p: int) -> SelfSimReport:
    """Exhaustively verify the scaling congruence on a square window.

    The exponent range is derived from the window: every k with
    p^(k+1) <= side is checked, so the report never silently under-checks.
    A window of side below p^2 is refused, since there the congruence
    constrains at most M[0, 0].  Each level is compared in bands of about
    _BAND_CELLS cells of rows: per band, the unit block's rows are scaled
    once per residue M[s, t] takes, not once per block, and compared with
    the same rows of each block, so no temporary spans a whole block.  The
    returned witness, if any, is the least in (k, s, t, i, j) order: a
    block's first failing band holds its least (i, j), and later bands
    skip the blocks at or after the least failing (s, t).
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
    # Blocks (s, t) by the residue M[s, t] that scales them, in (s, t) order;
    # not np.unique, whose first call imports numpy.ma (about 20 ms).
    blocks: dict[int, list[tuple[int, int]]] = {}
    for s, row in enumerate(ent[:p, :p].tolist()):
        for t, v in enumerate(row):
            blocks.setdefault(v, []).append((s, t))
    residues = sorted(blocks.items())
    for k in range(max_k + 1):
        w = p ** k
        rows = max(1, _BAND_CELLS // w)
        least = None  # (s, t, i, j) in the least failing block so far
        for r0 in range(0, w, rows):
            r1 = min(w, r0 + rows)
            for v, cells in residues:
                if least is not None and cells[0] >= least[:2]:
                    continue
                expected = np.multiply(ent[r0:r1, :w], v, dtype=wide)
                # expected % p as e - e // p * p, as delannoy_matrix reduces.
                q = expected // p
                expected -= np.multiply(q, p, out=q)
                for s, t in cells:
                    if least is not None and (s, t) >= least[:2]:
                        break
                    actual = ent[s * w + r0:s * w + r1, t * w:(t + 1) * w]
                    if not np.array_equal(actual, expected):
                        i, j = np.argwhere(actual != expected)[0]
                        least = (s, t, r0 + int(i), int(j))
                        break
                del expected, q  # freed before the next residue's band
        if least is not None:
            s, t, i, j = least
            return SelfSimReport(p, max_k, False, Violation(s, t, k, i, j),
                                 side)
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
    """Brute-force the boundary and cancellation identities on the lines
    they read.

    On the window of side p^(k_max+1), the identities read row 0, rows
    p^k - 1 and rows s*p^k - 1 and s*p^k for 1 <= s < p, and the columns
    of the same indices.  Only those lines are read, off the generator's
    anti-diagonal blocks by `window_lines`; the window itself is never
    built.  Every identity is evaluated over its full quantifier range:

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
    row slices that enter products are upcast to int64.
    """
    import numpy as np
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    p = coeffs.p
    side = p ** (k_max + 1)
    if side > side_budget:
        raise ValueError(
            f"window side {side} exceeds the budget {side_budget}")
    indices = sorted({0, *(p ** k - 1 for k in range(1, k_max + 2)),
                      *(s * p ** k + d for k in range(1, k_max + 1)
                        for s in range(1, p) for d in (-1, 0))})
    row_lines, column_lines = window_lines(coeffs, side, indices)
    # Side name, line index -> line, and the weights its identities use.
    rows = ("row", dict(zip(indices, row_lines)), coeffs)
    columns = ("column", dict(zip(indices, column_lines)),
               coeffs.transposed())
    results: list[LemmaResult] = []

    cases, bad = 0, None
    for k in range(k_max + 2):
        w = p ** k
        for name, m, _ in (rows, columns):
            cases += 1
            if bad is None and int(m[0][w - 1]) != 1:
                bad = (name, k, int(m[0][w - 1]))
    results.append(LemmaResult("corner_entries_are_one", bad is None, bad, cases))

    cases, bad = 0, None
    for k in range(1, k_max + 1):
        w = p ** k
        for name, m, co in (rows, columns):
            first = m[0][:w].astype(np.int64)
            for t in range(p):
                expected = (pow(co.a, t, p) * first) % p
                mask = m[0][t * w:(t + 1) * w] == expected
                cases += w
                if bad is None and not mask.all():
                    bad = (name, k, t, _first_bad(mask))
    results.append(LemmaResult("boundary_blocks_scale_geometrically",
                               bad is None, bad, cases))

    cases, bad = 0, None
    for k in range(1, k_max + 2):
        w = p ** k
        for name, m, co in (columns, rows):
            row = m[w - 1][:w].astype(np.int64)
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
            first = m[0][:w].astype(np.int64)
            for s in range(1, p):
                below = m[s * w - 1].astype(np.int64)
                for t in range(p):
                    # A column witness gives (s, t) in M's frame.
                    where = (name, k, s, t) if name == "row" else (name, k, t, s)
                    seg = below[t * w:(t + 1) * w]
                    mask = (co.b * seg[:-1] + co.c * seg[1:]) % p == 0
                    hyp_cases += w - 1
                    if hyp_bad is None and not mask.all():
                        hyp_bad = (*where, _first_bad(mask))
                    run = m[s * w][t * w:(t + 1) * w]
                    mask = run == (int(run[0]) * first) % p
                    conc_cases += w
                    if conc_bad is None and not mask.all():
                        conc_bad = (*where, _first_bad(mask))
    results.append(LemmaResult("scaled_run_hypothesis",
                               hyp_bad is None, hyp_bad, hyp_cases))
    results.append(LemmaResult("scaled_run_conclusion",
                               conc_bad is None, conc_bad, conc_cases))

    return LemmaReport(coeffs, k_max, tuple(results))
