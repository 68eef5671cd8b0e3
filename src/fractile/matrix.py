"""Residue matrices generated by a three-neighbor corner recursion over Z_p.

The core object is the matrix defined by

    M[0, 0] = 1,    M[0, j] = a^j,    M[i, 0] = c^i,
    M[i, j] = a*M[i, j-1] + b*M[i-1, j-1] + c*M[i-1, j]    (i, j > 0),

with every value reduced modulo a prime p.  The a = b = c = 1 instance
gives the Delannoy numbers; a = 1, b = 0, c = 1 gives the binomial table
(Pascal's triangle laid out with constant anti-diagonals).  Windows are
generated one anti-diagonal at a time, whose cells are independent.

Two independent oracles are provided for cross-checking the recursion:
a closed-form sum of products of binomial coefficients (evaluated mod p
with Lucas digit decomposition) and an explicit enumeration of monotone
lattice paths.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported by the functions that make arrays
    from collections.abc import Iterator, Sequence

    import numpy as np


class _Bottom:
    """Sentinel ⊥ for a cell outside the first quadrant, as `tilegen`
    windows read it; a matrix never stores it."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "_"


BOTTOM = _Bottom()

# Hard cap for the exponential path enumeration oracle.
PATH_ORACLE_LIMIT = 22

# Largest accepted modulus: up to it 3*(p-1)**2 fits in uint64, so the
# vectorized recursion is exact, and every residue fits in uint32.
MAX_MODULUS = 2 ** 31 - 1

# Largest window, assembly bound or pixmap (16384^2 cells: 256 MB for a
# window at one byte per cell); larger ones are refused before allocating.
MAX_CELLS = 2 ** 28


def check_cells(height: int, width: int, what: str) -> None:
    """Refuse an empty region, or one over MAX_CELLS cells, before
    anything is allocated."""
    if height < 1 or width < 1:
        raise ValueError(f"{what} dimensions must be positive")
    if height * width > MAX_CELLS:
        raise ValueError(f"{what} {height}x{width} exceeds MAX_CELLS = "
                         f"{MAX_CELLS} cells")


def _uint_holding(bound: int) -> np.dtype:
    """Smallest unsigned dtype that holds `bound` (at most 2**64 - 1).

    Storage takes bound = p, so (v + 1) % p on a stored residue cannot
    wrap; arithmetic takes the largest value it forms before reducing.
    """
    import numpy as np
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.uint64)  # holds 3*(p-1)**2 for p <= MAX_MODULUS


def is_prime(n: int) -> bool:
    """Trial-division primality test; inputs here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Coefficients:
    """Recursion weights (a, b, c) and prime modulus p, stored reduced mod p."""

    a: int
    b: int
    c: int
    p: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c) < 0:
            raise ValueError("coefficients must be nonnegative")
        if self.p > MAX_MODULUS:
            raise ValueError(f"modulus {self.p} exceeds MAX_MODULUS = "
                             f"{MAX_MODULUS}, the limit of exact arithmetic")
        if not is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")
        object.__setattr__(self, "a", self.a % self.p)
        object.__setattr__(self, "b", self.b % self.p)
        object.__setattr__(self, "c", self.c % self.p)

    def transposed(self) -> "Coefficients":
        """Weights for the transposed matrix: swap the roles of a and c."""
        return Coefficients(self.c, self.b, self.a, self.p)


@dataclass(frozen=True)
class ResidueMatrix:
    """A finite window of residues.

    `entries` is a dense row-major array; index [x, y] means row x
    (increasing northward) and column y (increasing eastward).  The
    entries are stored read-only in the smallest unsigned dtype that holds
    the modulus; an input already contiguous in that dtype is kept, not
    copied.
    """

    modulus: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        if self.modulus > MAX_MODULUS:
            raise ValueError(f"modulus {self.modulus} exceeds MAX_MODULUS = "
                             f"{MAX_MODULUS}")
        ent = np.asarray(self.entries)
        if ent.ndim != 2 or ent.shape[0] < 1 or ent.shape[1] < 1:
            raise ValueError("entries must be a nonempty 2-d array")
        # Range-checked in the input's own dtype, before the cast can wrap.
        if ((ent.dtype.kind != "u" and ent.min() < 0)
                or int(ent.max()) >= self.modulus):
            raise ValueError("entries must lie in [0, modulus)")
        ent = np.ascontiguousarray(ent, dtype=_uint_holding(self.modulus))
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @property
    def height(self) -> int:
        return int(self.entries.shape[0])

    @property
    def width(self) -> int:
        return int(self.entries.shape[1])


# Anti-diagonals computed between two write-backs to the window.
_DIAGONAL_BLOCK = 128


def _diagonal_blocks(coeffs: Coefficients, height: int, width: int
                     ) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield the anti-diagonals of a height x width window (height <=
    width) in blocks of at most _DIAGONAL_BLOCK, as (d0, stop, diag).

    Row d - d0 + 2 of `diag` holds diagonal d for d0 <= d < stop, computed
    over the live rows max(0, d0 - width + 1) <= i < min(stop, height):
    diag[d - d0 + 2, i + 1] = M[i, d - i] on the window, 0 in column 0 and
    for i > d, and east of the window the recursion continued, which no
    window cell reads (none reads a larger column).  The first block is
    M[0, 0] alone.  `diag` is one buffer, overwritten by the next block.

    D_d[i] = M[i, d - i] = a*D_{d-1}[i] + c*D_{d-1}[i-1] + b*D_{d-2}[i-1]
    mod p, 0 outside the quadrant, so a diagonal's cells are independent:
    8 numpy calls per diagonal, in the smallest unsigned dtype that holds
    3*(p-1)**2, the largest unreduced a*x + b*y + c*z (uint8 for p <= 7,
    uint64 only above 37831).
    """
    import numpy as np
    wide = _uint_holding(3 * (coeffs.p - 1) ** 2)
    # As 0-d arrays the weights cost numpy no scalar conversion per step.
    a, b, c, p = (np.array(v, dtype=wide) for v in astuple(coeffs))
    # Row r: diagonal d = d0 - 2 + r, cell i at column i + 1; 0 for i<0, i>d.
    diag = np.zeros((_DIAGONAL_BLOCK + 2, height + 1), dtype=wide)
    acc, term = np.empty((2, height), dtype=wide)
    diag[2, 1] = 1
    d0, stop, last = 0, 1, height + width - 1
    while True:
        yield d0, stop, diag
        if stop == last:
            return
        diag[:2] = diag[stop - d0:stop - d0 + 2]
        d0, stop = stop, min(stop + _DIAGONAL_BLOCK, last)
        lo, hi, runs = max(0, d0 - width + 1), min(stop, height), stop - d0
        s, t = acc[:hi - lo], term[:hi - lo]
        for west, south, southwest, out in zip(
                diag[1:runs + 1, lo + 1:hi + 1], diag[1:runs + 1, lo:hi],
                diag[:runs, lo:hi], diag[2:runs + 2, lo + 1:hi + 1]):
            np.multiply(west, a, out=s)
            s += np.multiply(south, c, out=t)
            s += np.multiply(southwest, b, out=t)
            # s % p as s - s // p * p: numpy's % by a scalar is 8-25x slower.
            np.multiply(np.floor_divide(s, p, out=t), p, out=t)
            np.subtract(s, t, out=out)


def _mapped(shape: tuple[int, int], dtype: np.dtype) -> np.ndarray:
    """A zeroed array on its own anonymous memory map: freeing it unmaps
    its pages at once, where the allocator would keep a freed window
    resident under the next one.  Huge pages are asked for, as numpy asks
    for its own large arrays."""
    import mmap
    import numpy as np
    cells = shape[0] * shape[1]
    buf = mmap.mmap(-1, cells * dtype.itemsize, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype, cells).reshape(shape)


def delannoy_matrix(coeffs: Coefficients, height: int, width: int) -> ResidueMatrix:
    """Materialize the corner recursion on a height x width window.

    The window is written back from `_diagonal_blocks` block by block into
    its own memory map (see `_mapped`), at 2.7 ns/cell for 6561 x 6561 (2
    vCPUs, best of 5).  A tall window is built as its transpose, so buffers
    span the shorter side, and copied into a map of its own.  Thin windows
    are slow (1 x 2**20: 5.6 s, 0.1 s row by row); callers ask for squares.
    """
    import numpy as np
    check_cells(height, width, "window")
    if height > width:
        inner = delannoy_matrix(coeffs.transposed(), width, height).entries
        m = _mapped((height, width), inner.dtype)
        m[...] = inner.T
        return ResidueMatrix(coeffs.p, m)
    m = _mapped((height, width), _uint_holding(coeffs.p))
    flat, runs_of = m.reshape(-1), np.lib.stride_tricks.as_strided
    step = ((width - 1) * m.itemsize, m.itemsize)
    for d0, stop, diag in _diagonal_blocks(coeffs, height, width):
        # Rows [full_lo, full_hi) take the whole block, and the window's east
        # and west edges cut the rows before and after.  Run (q, r) from row
        # i0 is M[i0 + q, d0 + r - i0 - q], flat cell (i0 + q)*(width - 1) +
        # d0 + r < (height - 1)*(width - 1) + stop <= height*width: in the map.
        rows_lo, rows_hi = max(0, d0 - width + 1), min(height, stop)
        runs, full_lo = stop - d0, max(rows_lo, stop - width)
        full_hi = max(full_lo, min(rows_hi, d0 + 1))
        runs_of(flat[full_lo * (width - 1) + d0:], (full_hi - full_lo, runs),
                step)[...] = diag[2:runs + 2, full_lo + 1:full_hi + 1].T
        for i0, i1 in ((rows_lo, full_lo), (full_hi, rows_hi)):
            n = i1 - i0  # keep[q, r] = band[n + r - q]: is run (q, r) inside?
            band = np.zeros(n + runs, dtype=bool)
            band[max(0, i1 - d0):width + i1 - d0] = True
            np.copyto(runs_of(flat[i0 * (width - 1) + d0:], (n, runs), step),
                      diag[2:runs + 2, i0 + 1:i1 + 1].T,
                      where=runs_of(band[n:], (n, runs), (-1, 1)))
    return ResidueMatrix(coeffs.p, m)


def window_lines(coeffs: Coefficients, side: int, indices: Sequence[int]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns `indices` of the side x side window, read off the
    anti-diagonal blocks as they pass, so the window never exists.

    Returns (rows, columns), each of shape (len(indices), side) in the
    storage dtype: rows[n] = M[indices[n], :] and columns[n] =
    M[:, indices[n]].  Besides them it holds one block of diagonals.
    """
    import numpy as np
    check_cells(side, side, "window")
    if not all(0 <= x < side for x in indices):
        raise ValueError(f"line indices must lie in [0, {side})")
    rows = np.empty((len(indices), side), dtype=_uint_holding(coeffs.p))
    columns = np.empty_like(rows)
    for d0, stop, diag in _diagonal_blocks(coeffs, side, side):
        for n, x in enumerate(indices):
            # Cell k of line x lies on diagonal x + k, at row x + k - d0 + 2.
            k0, k1 = max(0, d0 - x), min(side, stop - x)
            if k0 < k1:
                block = diag[k0 + x - d0 + 2:k1 + x - d0 + 2]
                rows[n, k0:k1] = block[:, x + 1]
                columns[n, k0:k1] = block[:, k0 + 1:k1 + 1].diagonal()
    return rows, columns


def lucas_binomial(n: int, k: int, p: int) -> int:
    """C(n, k) mod p via the product of base-p digit binomials."""
    if k < 0 or k > n:
        return 0
    result = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        result = result * (math.comb(nd, kd) % p) % p
        n //= p
        k //= p
    return result


def closed_form(coeffs: Coefficients, i: int, j: int) -> int:
    """Direct evaluation of entry [i, j] as a binomial sum, mod p.

    For i <= j the entry equals
        sum_{k=0}^{i} C(j, k) * C(j+i-k, i-k) * a^(j-k) * b^k * c^(i-k);
    the recursion is symmetric under transposition with a and c swapped,
    which covers i > j.
    """
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    a, b, c, p = coeffs.a, coeffs.b, coeffs.c, coeffs.p
    if i > j:
        i, j = j, i
        a, c = c, a
    total = 0
    for k in range(i + 1):
        term = lucas_binomial(j, k, p) * lucas_binomial(j + i - k, i - k, p) % p
        term = term * pow(a, j - k, p) % p
        term = term * pow(b, k, p) % p
        term = term * pow(c, i - k, p) % p
        total = (total + term) % p
    return total


def path_cost_oracle(coeffs: Coefficients, i: int, j: int) -> int:
    """Entry [i, j] by brute-force enumeration of monotone lattice paths.

    Walks every path from (0, 0) to (i, j) built from horizontal,
    vertical, and diagonal unit steps, weighting steps by a, c, and b
    respectively, and sums the path costs mod p.  Exponential; guarded.
    """
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    if i + j > PATH_ORACLE_LIMIT:
        raise ValueError(
            f"path enumeration is limited to i + j <= {PATH_ORACLE_LIMIT}")
    a, b, c, p = coeffs.a, coeffs.b, coeffs.c, coeffs.p

    def walk(x: int, y: int, cost: int) -> int:
        if x == i and y == j:
            return cost
        total = 0
        if y < j:
            total += walk(x, y + 1, cost * a % p)
        if x < i:
            total += walk(x + 1, y, cost * c % p)
        if x < i and y < j:
            total += walk(x + 1, y + 1, cost * b % p)
        return total % p

    return walk(0, 0, 1)
