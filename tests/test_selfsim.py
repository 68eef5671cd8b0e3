import hashlib
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractile.selfsim
from fractile import (Coefficients, ResidueMatrix, check_lemmas,
                      check_self_similarity, delannoy_matrix)

from conftest import SMALL_PRIMES


def carpet(side):
    return delannoy_matrix(Coefficients(1, 1, 1, 3), side, side)


def test_carpet_is_self_similar_with_derived_k():
    report = check_self_similarity(carpet(243), 3)
    assert report.holds and report.max_k == 4


def test_pascal_mod_2_is_self_similar():
    m = delannoy_matrix(Coefficients(1, 0, 1, 2), 256, 256)
    report = check_self_similarity(m, 2)
    assert report.holds and report.max_k == 7


def test_figure_instance_is_self_similar():
    m = delannoy_matrix(Coefficients(1, 2, 2, 5), 125, 125)
    assert check_self_similarity(m, 5).holds


# Products of residues exceed the uint8 storage for these moduli; each case
# wraps silently if the check multiplies in the storage dtype.
@pytest.mark.parametrize("coeffs", [(1, 1, 1, 17), (2, 3, 5, 23),
                                    (1, 2, 2, 61)])
def test_self_similarity_holds_where_products_exceed_storage(coeffs):
    p = coeffs[3]
    m = delannoy_matrix(Coefficients(*coeffs), p * p, p * p)
    assert m.entries.dtype == np.uint8
    report = check_self_similarity(m, p)
    assert report.holds and report.max_k == 1


@pytest.mark.parametrize("coeffs", [(2, 3, 5, 61), (60, 59, 58, 61)])
def test_lemmas_hold_where_products_exceed_storage(coeffs):
    report = check_lemmas(Coefficients(*coeffs), 1)
    assert report.all_passed, report.to_lines()


def test_corrupting_the_largest_residue_wraps_to_zero():
    m = delannoy_matrix(Coefficients(250, 0, 1, 251), 2, 2)
    assert m.entries.dtype == np.uint8 and m.entries[0, 1] == 250
    assert _corrupt(m, 0, 1).entries[0, 1] == 0


def _corrupt(matrix, x, y):
    ent = np.array(matrix.entries)
    ent[x, y] = (ent[x, y] + 1) % matrix.modulus
    return ResidueMatrix(matrix.modulus, ent)


def test_corruption_is_detected_with_replayable_witness():
    m = _corrupt(carpet(27), 4, 4)
    report = check_self_similarity(m, 3)
    assert not report.holds
    v = report.first_violation
    w = 3 ** v.k
    ent = m.entries.astype(int)
    lhs = ent[v.s * w + v.i, v.t * w + v.j]
    rhs = ent[v.s, v.t] * ent[v.i, v.j] % 3
    assert lhs != rhs


def test_witness_is_least_in_k_s_t_order():
    # (4, 4) sits outside every exponent-0 cell pair, so the first failing
    # decomposition is the size-3 block (1, 1) at offset (1, 1).
    m = _corrupt(carpet(9), 4, 4)
    report = check_self_similarity(m, 3)
    v = report.first_violation
    assert (v.k, v.s, v.t, v.i, v.j) == (1, 1, 1, 1, 1)


@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=20)
def test_single_cell_corruption_never_passes(p, data):
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    c = data.draw(st.integers(0, p - 1))
    if a == b == c == 0:
        b = 1
    side = p ** 2
    m = delannoy_matrix(Coefficients(a, b, c, p), side, side)
    x = data.draw(st.integers(0, side - 1))
    y = data.draw(st.integers(0, side - 1))
    assert check_self_similarity(m, p).holds
    assert not check_self_similarity(_corrupt(m, x, y), p).holds


def least_violation(ent, p):
    """(k, s, t, i, j) of the least failing congruence, by brute force."""
    side = len(ent)
    k = 0
    while p ** (k + 1) <= side:
        w = p ** k
        for s, t, i, j in product(range(p), range(p), range(w), range(w)):
            if ent[s * w + i][t * w + j] != ent[s][t] * ent[i][j] % p:
                return (k, s, t, i, j)
        k += 1
    return None


@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=60)
def test_witness_is_the_brute_force_least_violation(p, data):
    a, b, c = (data.draw(st.integers(0, p - 1)) for _ in range(3))
    side = data.draw(st.integers(p ** 2, p ** 3))
    ent = np.array(delannoy_matrix(Coefficients(a, b, c, p), side, side).entries)
    for _ in range(data.draw(st.integers(1, 3))):
        x = data.draw(st.integers(0, side - 1))
        y = data.draw(st.integers(0, side - 1))
        ent[x, y] = (ent[x, y] + data.draw(st.integers(1, p - 1))) % p
    report = check_self_similarity(ResidueMatrix(p, ent), p)
    want = least_violation(ent.tolist(), p)
    v = report.first_violation
    got = None if v is None else (v.k, v.s, v.t, v.i, v.j)
    assert got == want
    assert report.holds == (want is None)


# Products of residues fill uint8 at p = 13 and need uint16 at p = 17.
@pytest.mark.parametrize("p", [13, 17])
def test_witness_at_the_edges_of_the_product_dtype(p):
    m = delannoy_matrix(Coefficients(p - 1, p - 2, p - 3, p), p * p, p * p)
    assert check_self_similarity(m, p).holds
    bad = _corrupt(m, p * p - 2, p + 3)
    v = check_self_similarity(bad, p).first_violation
    want = least_violation(bad.entries.tolist(), p)
    assert (v.k, v.s, v.t, v.i, v.j) == want == (1, p - 1, 1, p - 2, 3)


def test_certifying_keeps_few_blocks_alive():
    m = carpet(3 ** 7)
    check_self_similarity(carpet(9), 3)  # first-call imports stay untraced
    tracemalloc.start()
    try:
        assert check_self_similarity(m, 3).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One scaled block, its quotient and one comparison mask, at one byte a
    # cell; a wider temporary, or the blocks of every residue kept alive,
    # takes five or more.
    assert peak < 4 * (3 ** 6) ** 2


@pytest.mark.parametrize("p, side", [(5, 3), (5, 24), (3, 8), (2, 3)])
def test_windows_below_p_squared_are_refused(p, side):
    # Below p^2 only level 0 fits, which relates M[s, t] to M[s, t] * M[0, 0].
    with pytest.raises(ValueError, match=r"below p\^2"):
        check_self_similarity(
            delannoy_matrix(Coefficients(1, 1, 1, p), side, side), p)
    report = check_self_similarity(
        delannoy_matrix(Coefficients(1, 1, 1, p), p * p, p * p), p)
    assert report.holds and report.max_k == 1


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=20)
def test_random_instances_are_self_similar(p, data):
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    c = data.draw(st.integers(0, p - 1))
    side = p ** 2
    m = delannoy_matrix(Coefficients(a, b, c, p), side, side)
    assert check_self_similarity(m, p).holds


def test_check_requires_square_and_matching_base():
    m = delannoy_matrix(Coefficients(1, 1, 1, 3), 9, 6)
    with pytest.raises(ValueError):
        check_self_similarity(m, 3)
    with pytest.raises(ValueError):
        check_self_similarity(carpet(9), 5)


def test_lemma_suite_passes_for_carpet_weights():
    report = check_lemmas(Coefficients(1, 1, 1, 3), 3)
    assert report.all_passed
    assert {r.name for r in report.results} == {
        "corner_entries_are_one", "boundary_blocks_scale_geometrically",
        "adjacent_pair_cancellation", "scaled_run_hypothesis",
        "scaled_run_conclusion"}
    assert all(r.cases > 0 for r in report.results)


def test_adjacent_pair_cancellation_by_hand():
    # 1*M[1,2] + 1*M[0,2] over the integers is 5 + 1, divisible by 3.
    m = delannoy_matrix(Coefficients(1, 1, 1, 101), 3, 3)
    assert (m.entries[1, 2] + m.entries[0, 2]) % 3 == 0


def test_corner_base_case():
    m = delannoy_matrix(Coefficients(2, 1, 4, 5), 2, 2)
    assert m.entries[0, 0] == 1  # p^0 - 1 = 0 on both axes


def test_lemmas_reject_tiny_k_and_huge_windows():
    with pytest.raises(ValueError):
        check_lemmas(Coefficients(1, 1, 1, 3), 0)
    with pytest.raises(ValueError):
        check_lemmas(Coefficients(1, 1, 1, 3), 9, side_budget=128)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_last_column_alternates_for_unit_weights(p):
    m = delannoy_matrix(Coefficients(1, 1, 1, p), p, p)
    for i in range(p):
        assert m.entries[i, p - 1] == (1 if i % 2 == 0 else p - 1)


def test_nonzero_mask_of_small_carpet():
    mask = carpet(3).entries != 0
    assert mask.sum() == 8 and not mask[1, 1]


def test_nonzero_mask_pascal_triangle_order_2():
    mask = delannoy_matrix(Coefficients(1, 0, 1, 2), 4, 4).entries != 0
    assert mask.sum() == 9
    assert mask.tolist() == [[i & j == 0 for j in range(4)] for i in range(4)]


def test_nonzero_mask_scales_geometrically():
    # Nonzero mask of a self-similar matrix: each p^k square is either
    # empty or a translate of the origin square.
    side, p = 81, 3
    m = carpet(side)
    mask = m.entries != 0
    for k in (1, 2, 3):
        w = p ** k
        origin = mask[:w, :w]
        for s in range(p):
            for t in range(p):
                square = mask[s * w:(s + 1) * w, t * w:(t + 1) * w]
                if m.entries[s, t] == 0:
                    assert not square.any()
                else:
                    assert np.array_equal(square, origin)


# Every cell of these windows is raised by 1 mod p in turn; the reports of
# all 1,610 corrupted matrices are pinned by one digest.
LEMMA_PIN_CASES = [((1, 1, 1, 2), 3), ((1, 1, 1, 3), 2), ((1, 2, 2, 5), 1)]
LEMMA_PIN_DIGEST = (
    "3005f556dab9cbb93d9b48821c9ba34699e41df127f527043cf5902136bfa820")
LEMMA_NAMES = ("corner_entries_are_one", "boundary_blocks_scale_geometrically",
               "adjacent_pair_cancellation", "scaled_run_hypothesis",
               "scaled_run_conclusion")


def test_lemma_reports_under_single_cell_corruption_are_pinned(monkeypatch):
    digest = hashlib.sha256()
    sides_failed = {(name, side): 0 for name in LEMMA_NAMES
                    for side in ("row", "column")}
    for (a, b, c, p), k in LEMMA_PIN_CASES:
        coeffs = Coefficients(a, b, c, p)
        side = p ** (k + 1)
        clean = delannoy_matrix(coeffs, side, side).entries
        for x in range(side):
            for y in range(side):
                ent = clean.copy()
                ent[x, y] = (ent[x, y] + 1) % p
                monkeypatch.setattr(fractile.selfsim, "delannoy_matrix",
                                    lambda *_, e=ent: ResidueMatrix(p, e))
                report = check_lemmas(coeffs, k)
                digest.update((f"{a} {b} {c} {p} {k} {x} {y}\n"
                               + "\n".join(report.to_lines())
                               + "\n").encode())
                for r in report.results:
                    if not r.passed:
                        sides_failed[r.name, r.counterexample[0]] += 1
    assert digest.hexdigest() == LEMMA_PIN_DIGEST
    assert all(sides_failed.values()), sides_failed


@pytest.mark.parametrize("coeffs, witness", [
    ((0, 1, 1, 3), ("row", 1, 0)),
    ((1, 1, 0, 3), ("column", 1, 0)),
])
def test_corner_lemma_fails_on_the_side_with_a_zero_weight(coeffs, witness):
    report = check_lemmas(Coefficients(*coeffs), 2)
    corner = report.results[0]
    assert corner.name == "corner_entries_are_one"
    assert not corner.passed and corner.counterexample == witness
