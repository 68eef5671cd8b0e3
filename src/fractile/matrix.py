"""Residue matrices generated by a three-neighbor corner recursion over Z_p.

The core object is the matrix defined by

    M[0, 0] = 1,    M[0, j] = a^j,    M[i, 0] = c^i,
    M[i, j] = a*M[i, j-1] + b*M[i-1, j-1] + c*M[i-1, j]    (i, j > 0),

with every value reduced modulo a prime p.  The a = b = c = 1 instance
gives the Delannoy numbers; a = 1, b = 0, c = 1 gives the binomial table
(Pascal's triangle laid out with constant anti-diagonals).

Two independent oracles are provided for cross-checking the recursion:
a closed-form sum of products of binomial coefficients (evaluated mod p
with Lucas digit decomposition) and an explicit enumeration of monotone
lattice paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class _Bottom:
    """Sentinel for logical entries outside the first quadrant.

    Storage never contains it; accessors return it for negative indices.
    """

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

# Largest accepted modulus: up to it 2*(p-1)**2 fits in int64, so the
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


def _storage_dtype(modulus: int) -> np.dtype:
    """Smallest unsigned dtype that holds the modulus itself.

    Since p itself fits, (v + 1) % p on a stored residue cannot wrap.
    Products of stored residues can: arithmetic on them is done in a
    wider dtype.
    """
    for dtype in (np.uint8, np.uint16):
        if modulus <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.uint32)  # holds MAX_MODULUS


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
    """A finite window of residues with ⊥ semantics outside the quadrant.

    `entries` is a dense row-major array; index [x, y] means row x
    (increasing northward) and column y (increasing eastward).  Negative
    logical indices yield BOTTOM through the accessor, never a residue.
    The entries are stored read-only in the smallest unsigned dtype that
    holds the modulus; an input already contiguous in that dtype is kept,
    not copied.
    """

    modulus: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        if self.modulus > MAX_MODULUS:
            raise ValueError(f"modulus {self.modulus} exceeds MAX_MODULUS = "
                             f"{MAX_MODULUS}")
        ent = np.asarray(self.entries)
        if ent.ndim != 2 or ent.shape[0] < 1 or ent.shape[1] < 1:
            raise ValueError("entries must be a nonempty 2-d array")
        # Range-checked in the input's own dtype, before the cast can wrap.
        if ent.min() < 0 or int(ent.max()) >= self.modulus:
            raise ValueError("entries must lie in [0, modulus)")
        ent = np.ascontiguousarray(ent, dtype=_storage_dtype(self.modulus))
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @property
    def height(self) -> int:
        return int(self.entries.shape[0])

    @property
    def width(self) -> int:
        return int(self.entries.shape[1])

    def __getitem__(self, key: tuple[int, int]):
        x, y = key
        if x < 0 or y < 0:
            return BOTTOM
        if x >= self.height or y >= self.width:
            raise IndexError(f"({x}, {y}) is outside the materialized window")
        return int(self.entries[x, y])


def _powers(base: int, count: int, p: int) -> np.ndarray:
    out = np.empty(count, dtype=np.int64)
    v = 1
    for i in range(count):
        out[i] = v
        v = v * base % p
    return out


def _next_row(prev: np.ndarray, first: int, coeffs: Coefficients,
              apow: np.ndarray, ainvpow: np.ndarray | None) -> np.ndarray:
    """One row of the recursion, vectorized.

    With u[j] = b*prev[j-1] + c*prev[j], the row obeys the first-order
    scan row[j] = a*row[j-1] + u[j].  For invertible a the scan is solved
    in closed form by dividing out powers of a and taking a prefix sum;
    products stay below p^2 so int64 arithmetic is exact.
    """
    a, b, c, p = coeffs.a, coeffs.b, coeffs.c, coeffs.p
    w = prev.shape[0]
    row = np.empty(w, dtype=np.int64)
    row[0] = first
    if w == 1:
        return row
    u = (b * prev[:-1] + c * prev[1:]) % p
    if a == 0:
        row[1:] = u
        return row
    assert ainvpow is not None
    t = (u * ainvpow[1:w]) % p
    scaled = (first + np.cumsum(t)) % p
    row[1:] = (scaled * apow[1:w]) % p
    return row


def delannoy_matrix(coeffs: Coefficients, height: int, width: int) -> ResidueMatrix:
    """Materialize the corner recursion on a height x width window.

    Each row is computed in int64 from the previous row and then stored
    in the compact dtype; no int64 array the size of the window exists.
    """
    check_cells(height, width, "window")
    a, c, p = coeffs.a, coeffs.c, coeffs.p
    m = np.empty((height, width), dtype=_storage_dtype(p))
    apow = _powers(a, width, p)
    cpow = _powers(c, height, p)
    ainvpow = None
    if a != 0 and height > 1 and width > 1:
        ainvpow = _powers(pow(a, p - 2, p), width, p)
    m[0, :] = row = apow
    for i in range(1, height):
        row = _next_row(row, int(cpow[i]), coeffs, apow, ainvpow)
        m[i, :] = row
    return ResidueMatrix(p, m)


def pascal_matrix(p: int, height: int, width: int) -> ResidueMatrix:
    """Binomial residues: entry [i, j] is C(i+j, j) mod p."""
    return delannoy_matrix(Coefficients(1, 0, 1, p), height, width)


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
