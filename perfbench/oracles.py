"""Independent oracles and output checkers.

Every checker returns None when the output is right and a one-line
reason when it is wrong.  The oracles here do not call the code they
check: matrices come from definitional loops, self-similarity witnesses
are re-derived from the matrix values, and byte outputs are compared
with digests recorded in `golden.json`.
"""

from __future__ import annotations

import hashlib
import re
from types import SimpleNamespace


def reference_matrix(a: int, b: int, c: int, p: int,
                     height: int, width: int) -> list[list[int]]:
    """The corner recursion as a plain double loop."""
    m = [[0] * width for _ in range(height)]
    m[0][0] = 1
    for j in range(1, width):
        m[0][j] = m[0][j - 1] * a % p
    for i in range(1, height):
        m[i][0] = m[i - 1][0] * c % p
        row, below = m[i], m[i - 1]
        for j in range(1, width):
            row[j] = (a * row[j - 1] + b * below[j - 1] + c * below[j]) % p
    return m


def parity_matrix(height: int, width: int) -> list[list[int]]:
    """The n = 3 parity rule by its definition: each cell is the parity of
    the defined cells among the two to its west and the 2 x 3 block below
    them, and the cell with no defined neighbors is 1."""
    m = [[0] * width for _ in range(height)]
    for x in range(height):
        for y in range(width):
            window = [(x, y - 2), (x, y - 1)] + [
                (x - i, y - k) for i in (1, 2) for k in (2, 1, 0)]
            defined = [m[i][j] for i, j in window if i >= 0 and j >= 0]
            m[x][y] = sum(defined) % 2 if defined else 1
    return m


def grid_text(ref: list[list[int]], p: int) -> str:
    """The `grid v1` text of a reference matrix."""
    lines = ["grid v1", f"{len(ref)} {len(ref[0])} {p}"]
    lines += [" ".join(map(str, row)) for row in ref]
    return "\n".join(lines) + "\n"


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def check_digest(data: str | bytes, expected: str, what: str) -> str | None:
    got = digest(data)
    if got != expected:
        return f"{what}: sha256 {got[:12]} differs from recorded {expected[:12]}"
    return None


def check_labels(placements: dict, bound: tuple[int, int],
                 ref: list[list[int]]) -> str | None:
    """Every cell of the bound is placed, nothing else, labels equal ref."""
    height, width = bound
    if len(placements) != height * width:
        return f"{len(placements)} cells placed, bound has {height * width}"
    for (x, y), tile in placements.items():
        if not (0 <= x < height and 0 <= y < width):
            return f"placement at {(x, y)} is outside the bound"
        label = tile if isinstance(tile, str) else tile.label
        if label != str(ref[x][y]):
            return f"label {label!r} at {(x, y)}, matrix says {ref[x][y]}"
    return None


def parse_dump(text: str) -> dict:
    """Placements of an `assembly v1` dump as position -> label."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "place":
            out[(int(parts[1]), int(parts[2]))] = parts[4]
    return out


def check_surfaces(system, reference) -> str | None:
    """Same tiles up to renumbering: labels, glues and strengths."""
    got, want = (sorted((t.label, t.colors, t.strengths) for t in s.tiles)
                 for s in (system, reference))
    if got != want:
        return (f"{len(got)} tiles whose surfaces differ from the "
                f"{len(want)}-tile reference")
    return None


def expected_max_k(p: int, side: int) -> int:
    """Largest k whose level p^(k+1) still fits in the window."""
    k = -1
    while p ** (k + 2) <= side:
        k += 1
    return k


def cells_constrained(p: int, max_k: int) -> int:
    """Cells compared by the congruence: p^2 blocks of p^2k cells per level."""
    return sum(p * p * p ** (2 * k) for k in range(max_k + 1))


def check_clean_selfsim(report, p: int, side: int) -> str | None:
    want = expected_max_k(p, side)
    if not report.holds or report.first_violation is not None:
        return f"an exact matrix was reported VIOLATED: {report.first_violation}"
    if report.max_k != want or report.side != side:
        return f"checked up to k={report.max_k}, the window supports k={want}"
    return None


def witness_cells(v, p: int) -> tuple[tuple[int, int], ...]:
    """The three cells a witness relates: M[s p^k+i, t p^k+j], M[s,t], M[i,j]."""
    w = p ** v.k
    return ((v.s * w + v.i, v.t * w + v.j), (v.s, v.t), (v.i, v.j))


def check_violation(report, p: int, corrupted: tuple[int, int],
                    values: dict) -> str | None:
    """The corrupted copy must be VIOLATED with a genuine witness.

    `values` maps the witness cells to the corrupted matrix's entries; the
    congruence must fail on them, and one of them must be the corrupted
    cell, since the copy differs from an exact matrix only there.
    """
    if report.holds or report.first_violation is None:
        return f"corrupted cell {corrupted} was not detected"
    cells = witness_cells(report.first_violation, p)
    try:
        big, st, ij = (values[c] for c in cells)
    except KeyError as exc:
        return f"no value recorded for witness cell {exc}"
    if big == st * ij % p:
        return f"witness {report.first_violation} satisfies the congruence"
    if corrupted not in cells:
        return f"witness {report.first_violation} does not involve {corrupted}"
    return None


def check_lemmas(report, k_max: int) -> str | None:
    if report.k_max != k_max:
        return f"lemmas checked at k_max={report.k_max}, asked for {k_max}"
    failed = [r.name for r in report.results if not r.passed]
    if failed or not report.results:
        return f"lemmas failed on an exact matrix: {failed}"
    return None


def check_samples(samples: list[tuple[int, int, int, int]]) -> str | None:
    """(i, j, matrix value, closed-form value) quadruples must agree."""
    for i, j, got, want in samples:
        if got != want:
            return f"M[{i},{j}] = {got}, closed form gives {want}"
    return None


def check_not_directed(result) -> str | None:
    if result.directed or result.witness is None:
        return "twin tiles were reported directed"
    _, a, b = result.witness
    if a == b:
        return f"divergence witness names the same tile twice: {a}"
    return None


def check_transplant(report, pos: tuple[int, int]) -> str | None:
    clause = next((c for c in report.clauses
                   if c.name == "tile_matches_window"), None)
    if clause is None or clause.holds:
        return f"transplanted tile at {pos} was not detected"
    if clause.violation[1] != pos:
        return f"violation reported at {clause.violation[1]}, not at {pos}"
    return None


def check_induction(report) -> str | None:
    failed = [c.name for c in report.clauses if not c.holds]
    if failed or not report.clauses:
        return f"induction clauses failed on a valid assembly: {failed}"
    return None


_WITNESS_RE = re.compile(r"witness: s=(\d+) t=(\d+) k=(\d+) i=(\d+) j=(\d+)")


def parse_cli_witness(stdout: str):
    """The witness line of `fractile selfsim`, as a namespace, or None."""
    m = _WITNESS_RE.search(stdout)
    if m is None:
        return None
    s, t, k, i, j = map(int, m.groups())
    return SimpleNamespace(s=s, t=t, k=k, i=i, j=j)


def check_exit(result, expected: int) -> str | None:
    """A CLI result must exit with `expected` and never with a traceback."""
    if result.returncode != expected:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {result.returncode}, expected {expected}: {tail[0][:120]}"
    if "Traceback" in result.stderr:
        return "printed a traceback"
    return None
