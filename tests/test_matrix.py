import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractile import (Coefficients, ResidueMatrix, closed_form,
                      delannoy_matrix, is_prime, path_cost_oracle)
import fractile.matrix
from fractile.matrix import (MAX_CELLS, MAX_MODULUS, PATH_ORACLE_LIMIT,
                             lucas_binomial)

from conftest import SMALL_PRIMES, reference_corner_matrix


def coeffs_over(primes):
    return st.sampled_from(primes).flatmap(
        lambda p: st.tuples(st.integers(0, p - 1), st.integers(0, p - 1),
                            st.integers(0, p - 1), st.just(p)))


coeff_sets = coeffs_over(SMALL_PRIMES)


def test_delannoy_small_window_mod_101():
    m = delannoy_matrix(Coefficients(1, 1, 1, 101), 3, 3)
    assert m.entries.tolist() == [[1, 1, 1], [1, 3, 5], [1, 5, 13]]


def test_delannoy_small_window_mod_3():
    m = delannoy_matrix(Coefficients(1, 1, 1, 3), 3, 3)
    assert m.entries.tolist() == [[1, 1, 1], [1, 0, 2], [1, 2, 1]]


def test_first_row_is_geometric():
    m = delannoy_matrix(Coefficients(2, 0, 0, 5), 1, 4)
    assert m.entries.tolist() == [[1, 2, 4, 3]]


# One prime per storage dtype, at both ends of uint8 and uint16.
STORAGE_PRIMES = (2, 251, 257, 65521, 65537, MAX_MODULUS)
# Sides up to 300 cross the edges of the generator's 128-diagonal blocks.
sides = st.one_of(st.just(1), st.integers(1, 300))


# The examples up to 37847 sit at both ends of each arithmetic dtype, the
# smallest that holds 3*(p-1)**2.
@given(coeffs_over(SMALL_PRIMES + STORAGE_PRIMES), sides, sides)
@example((6, 5, 4, 7), 300, 129)
@example((10, 9, 8, 11), 130, 300)
@example((138, 137, 136, 139), 300, 129)
@example((148, 147, 146, 149), 130, 300)
@example((37830, 37829, 37828, 37831), 300, 129)
@example((37846, 37845, 37844, 37847), 130, 300)
@example((1, 1, 1, 2), 1, 300)
@example((250, 249, 247, 251), 300, 1)
@example((256, 3, 255, 257), 130, 300)
@example((65520, 2, 65519, 65521), 300, 129)
@example((65536, 65535, 3, 65537), 67, 300)
@example((MAX_MODULUS - 2, MAX_MODULUS - 3, MAX_MODULUS - 5, MAX_MODULUS),
         300, 65)
def test_generator_matches_definitional_loop(coeffs, height, width):
    a, b, c, p = coeffs
    m = delannoy_matrix(Coefficients(a, b, c, p), height, width)
    assert m.entries.tolist() == reference_corner_matrix(a, b, c, p,
                                                         height, width)


def test_tall_window_buffers_span_the_short_side():
    tracemalloc.start()
    try:
        m = delannoy_matrix(Coefficients(1, 1, 1, 3), 4096, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.entries.tolist() == reference_corner_matrix(1, 1, 1, 3, 4096, 2)
    assert peak < 200_000  # 130 diagonals of 4097 uint8 cells take 533 KB


# Lucas' theorem makes M over p^n the n-th Kronecker power of its p x p
# corner, mod p (Allouche & Shallit, Automatic Sequences, 2003): an oracle
# at benchmark scale, independent of the generator.
@pytest.mark.parametrize("coeffs, n", [((0, 1, 2, 3), 7), ((1, 2, 2, 5), 5),
                                       ((1, 0, 1, 2), 12)])
def test_window_is_the_kronecker_power_of_its_corner(coeffs, n):
    p = coeffs[3]
    corner = np.array(reference_corner_matrix(*coeffs, p, p), dtype=np.uint8)
    power = corner
    for _ in range(n - 1):
        power = np.kron(corner, power) % p
    m = delannoy_matrix(Coefficients(*coeffs), p ** n, p ** n)
    assert np.array_equal(m.entries, power)


@given(coeff_sets, st.integers(1, 20), st.integers(1, 20))
def test_boundaries_are_powers(coeffs, height, width):
    a, b, c, p = coeffs
    m = delannoy_matrix(Coefficients(a, b, c, p), height, width)
    assert m.entries[0].tolist() == [pow(a, j, p) for j in range(width)]
    assert m.entries[:, 0].tolist() == [pow(c, i, p) for i in range(height)]


@given(coeff_sets)
def test_transpose_symmetry(coeffs):
    a, b, c, p = coeffs
    m = delannoy_matrix(Coefficients(a, b, c, p), 9, 9)
    t = delannoy_matrix(Coefficients(c, b, a, p), 9, 9)
    assert np.array_equal(m.entries, t.entries.T)


def test_pascal_mod_2_window():
    m = delannoy_matrix(Coefficients(1, 0, 1, 2), 4, 4)
    assert m.entries.tolist() == [[1, 1, 1, 1], [1, 0, 1, 0],
                                  [1, 1, 0, 0], [1, 0, 0, 0]]


def test_pascal_first_row_is_ones():
    m = delannoy_matrix(Coefficients(1, 0, 1, 5), 1, 5)
    assert m.entries.tolist() == [[1, 1, 1, 1, 1]]


def test_pascal_central_entry_mod_3():
    m = delannoy_matrix(Coefficients(1, 0, 1, 3), 3, 3)
    assert m.entries[2, 2] == math.comb(4, 2) % 3 == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pascal_matches_binomials(p):
    m = delannoy_matrix(Coefficients(1, 0, 1, p), 16, 16)
    for i in range(16):
        for j in range(16):
            assert m.entries[i, j] == math.comb(i + j, j) % p


def test_pascal_matches_additive_accumulation():
    # Factorial-free oracle: build the addition table directly.
    p, size = 3, 32
    table = [[1] * size for _ in range(size)]
    for i in range(1, size):
        for j in range(1, size):
            table[i][j] = (table[i][j - 1] + table[i - 1][j]) % p
    m = delannoy_matrix(Coefficients(1, 0, 1, p), size, size)
    assert m.entries.tolist() == table


def test_closed_form_hand_expansion():
    c = Coefficients(1, 1, 1, 101)
    # C(2,0)C(3,1) + C(2,1)C(2,0) = 3 + 2
    assert closed_form(c, 1, 2) == 5
    assert closed_form(c, 0, 0) == 1
    assert closed_form(c, 2, 2) == 13


@given(coeff_sets)
def test_closed_form_matches_recursion(coeffs):
    a, b, c, p = coeffs
    co = Coefficients(a, b, c, p)
    m = delannoy_matrix(co, 14, 14)
    for i in range(14):
        for j in range(14):
            assert closed_form(co, i, j) == m.entries[i, j]


def test_path_oracle_three_paths():
    assert path_cost_oracle(Coefficients(1, 1, 1, 101), 1, 1) == 3


def test_path_oracle_single_horizontal_path():
    assert path_cost_oracle(Coefficients(2, 0, 0, 7), 0, 3) == pow(2, 3, 7)


def test_path_oracle_agrees_with_closed_form():
    co = Coefficients(1, 2, 2, 5)
    assert path_cost_oracle(co, 2, 2) == closed_form(co, 2, 2)


@given(coeff_sets)
@settings(max_examples=15)
def test_path_oracle_matches_recursion(coeffs):
    a, b, c, p = coeffs
    co = Coefficients(a, b, c, p)
    m = delannoy_matrix(co, 7, 7)
    for i in range(7):
        for j in range(7):
            if i + j <= 12:
                assert path_cost_oracle(co, i, j) == m.entries[i, j]


def test_path_oracle_guard():
    with pytest.raises(ValueError):
        path_cost_oracle(Coefficients(1, 1, 1, 3), 12, PATH_ORACLE_LIMIT - 11)


@given(st.integers(0, 400), st.integers(0, 400),
       st.sampled_from(SMALL_PRIMES))
def test_lucas_binomial_matches_direct(n, k, p):
    assert lucas_binomial(n, k, p) == math.comb(n, k) % p


def test_composite_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            Coefficients(1, 1, 1, bad)


def test_largest_modulus_is_exact():
    p = MAX_MODULUS
    assert p == 2147483647 and is_prime(p)
    coeffs = Coefficients(p - 2, p - 3, p - 5, p)
    m = delannoy_matrix(coeffs, 6, 6)
    assert m.entries.tolist() == [[closed_form(coeffs, i, j) for j in range(6)]
                                  for i in range(6)]


@pytest.mark.parametrize("p, dtype", [
    (251, np.uint8), (257, np.uint16), (65521, np.uint16),
    (65537, np.uint32), (MAX_MODULUS, np.uint32)])
def test_storage_is_the_smallest_unsigned_dtype_holding_p(p, dtype):
    coeffs = Coefficients(p - 2, p - 3, p - 5, p)
    m = delannoy_matrix(coeffs, 6, 6)
    assert m.entries.dtype == dtype
    assert m.entries.tolist() == [[closed_form(coeffs, i, j) for j in range(6)]
                                  for i in range(6)]


def test_residue_matrix_keeps_an_array_already_in_storage_dtype():
    ent = np.array([[0, 1], [2, 0]], dtype=np.uint8)
    assert ResidueMatrix(3, ent).entries is ent
    # the modulus itself must fit: 256 is stored in uint16
    assert ResidueMatrix(256, ent).entries.dtype == np.uint16


def test_residue_matrix_rejects_modulus_over_the_limit():
    with pytest.raises(ValueError, match="MAX_MODULUS"):
        ResidueMatrix(MAX_MODULUS + 1, np.array([[0]]))


def test_window_over_the_cell_limit_is_refused_before_allocating(monkeypatch):
    coeffs = Coefficients(1, 1, 1, 3)
    # 10^16 cells: without the check numpy raises MemoryError, not ValueError
    with pytest.raises(ValueError, match="MAX_CELLS"):
        delannoy_matrix(coeffs, 10 ** 8, 10 ** 8)
    assert 6561 ** 2 <= MAX_CELLS
    monkeypatch.setattr(fractile.matrix, "MAX_CELLS", 12)
    assert delannoy_matrix(coeffs, 3, 4).entries.shape == (3, 4)
    with pytest.raises(ValueError, match="MAX_CELLS"):
        delannoy_matrix(coeffs, 13, 1)


def test_modulus_over_the_limit_rejected():
    with pytest.raises(ValueError, match="MAX_MODULUS"):
        Coefficients(1, 1, 1, 2147483659)


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        Coefficients(-1, 0, 0, 3)


def test_coefficients_reduced_mod_p():
    c = Coefficients(7, 9, 12, 5)
    assert (c.a, c.b, c.c) == (2, 4, 2)


def test_prime_checker():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_entries_are_immutable():
    m = delannoy_matrix(Coefficients(1, 1, 1, 3), 3, 3)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 2


def test_residue_matrix_validates_range():
    with pytest.raises(ValueError):
        ResidueMatrix(3, np.array([[0, 3]]))
    with pytest.raises(ValueError):
        ResidueMatrix(3, np.array([[-1, 0]]))
    with pytest.raises(ValueError):
        ResidueMatrix(3, [[-1, 0]])
    with pytest.raises(ValueError):
        ResidueMatrix(3, np.array([[0, 3]], dtype=np.uint8))
    with pytest.raises(ValueError):
        ResidueMatrix(3, np.array([[0, 258]]))  # 2 after a uint8 cast


def test_window_dimensions_must_be_positive():
    with pytest.raises(ValueError):
        delannoy_matrix(Coefficients(1, 1, 1, 3), 0, 3)
