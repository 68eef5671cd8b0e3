"""Acceptance suite: one test per release criterion, printed pass by pass.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every check is exact (tolerance zero) and seeded, so
the suite is reproducible bit for bit.
"""

import random
import time

import numpy as np

from fractile import (Coefficients, ResidueMatrix, TileSystem, TileType,
                      assemble_bounded, build_full_system, carpet_system,
                      check_induction_clauses, check_lemmas,
                      check_self_similarity, closed_form, delannoy_matrix,
                      delannoy_rule, is_directed_empirically,
                      path_cost_oracle, prune_reachable, verify_self_assembly)
from fractile.formats import write_assembly

CARPET = Coefficients(1, 1, 1, 3)

SAMPLE_SEED = 20260810


def sampled_coefficients(per_prime: int, primes=(2, 3, 5, 7)):
    rng = random.Random(SAMPLE_SEED)
    sets = []
    for p in primes:
        for _ in range(per_prime):
            sets.append(Coefficients(rng.randrange(p), rng.randrange(p),
                                     rng.randrange(p), p))
    return sets


def report(number: int, description: str, started: float) -> float:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS  {description}  [{elapsed:.2f}s]")
    return elapsed


def test_criterion_1_carpet_tileset_cardinality():
    started = time.perf_counter()
    rule = delannoy_rule(CARPET)
    pruned = prune_reachable(build_full_system(rule), rule, (243, 243))
    hand = carpet_system()
    assert len(pruned.tiles) == 30
    pruned_surface = sorted((t.label, t.colors, t.strengths)
                            for t in pruned.tiles)
    hand_surface = sorted((t.label, t.colors, t.strengths)
                          for t in hand.tiles)
    assert pruned_surface == hand_surface
    elapsed = report(1, "pruned construction is the 30-tile carpet set",
                     started)
    assert elapsed < 5.0


def test_criterion_2_self_assembly_conformance():
    started = time.perf_counter()
    rule = delannoy_rule(CARPET)
    for bound in (3, 9, 27):
        outcome = verify_self_assembly(rule, (bound, bound), trials=1)
        assert outcome.matches, outcome.mismatch
    t81 = time.perf_counter()
    outcome = verify_self_assembly(rule, (81, 81), trials=1)
    assert outcome.matches, outcome.mismatch
    elapsed_81 = time.perf_counter() - t81
    report(2, "simulated labels equal the mod-3 residues at 3/9/27/81",
           started)
    assert elapsed_81 < 10.0


def test_criterion_3_directedness_100_runs():
    started = time.perf_counter()
    system = carpet_system()
    dumps = {write_assembly(assemble_bounded(system, (27, 27), seed),
                            (27, 27))
             for seed in range(100)}
    assert len(dumps) == 1
    elapsed = report(3, "100 seeded 27x27 runs are byte-identical", started)
    assert elapsed < 30.0


def test_criterion_4_numerical_self_similarity():
    started = time.perf_counter()
    checked = 0
    outcome = check_self_similarity(delannoy_matrix(CARPET, 243, 243), 3)
    assert outcome.holds and outcome.max_k == 4
    checked += 1
    outcome = check_self_similarity(
        delannoy_matrix(Coefficients(1, 2, 2, 5), 125, 125), 5)
    assert outcome.holds
    checked += 1
    for coeffs in sampled_coefficients(per_prime=20):
        side = coeffs.p ** 3
        matrix = delannoy_matrix(coeffs, side, side)
        outcome = check_self_similarity(matrix, coeffs.p)
        assert outcome.holds, (coeffs, outcome.first_violation)
        checked += 1
    report(4, f"exact scaling congruence on {checked} instances", started)


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    sets = sampled_coefficients(per_prime=5, primes=(2, 3, 5, 7, 11))
    for coeffs in sets:
        matrix = delannoy_matrix(coeffs, 41, 41)
        for i in range(41):
            for j in range(41):
                assert closed_form(coeffs, i, j) == matrix.entries[i, j], \
                    (coeffs, i, j)
    for coeffs in sets:
        matrix = delannoy_matrix(coeffs, 13, 13)
        for i in range(13):
            for j in range(13):
                if i + j <= 12:
                    assert path_cost_oracle(coeffs, i, j) \
                        == matrix.entries[i, j], (coeffs, i, j)
    report(5, f"closed form to 40x40 and path enumeration to i+j=12 "
              f"on {len(sets)} coefficient sets", started)


def test_criterion_6_lemma_suite():
    # The corner identity divides by a (and c) in its Fermat step, so the
    # suite quantifies over units for a and c; b ranges over all residues.
    started = time.perf_counter()
    rng = random.Random(SAMPLE_SEED + 6)
    total = 0
    for p in (2, 3, 5):
        triples = {(1, 1 % p, 1)}
        if 2 % p:
            triples.add((1, 2 % p, 2 % p))
        while len(triples) < min(6, (p - 1) * p * (p - 1)):
            triples.add((rng.randrange(1, p), rng.randrange(p),
                         rng.randrange(1, p)))
        for a, b, c in sorted(triples):
            outcome = check_lemmas(Coefficients(a, b, c, p), k_max=3)
            assert outcome.all_passed, (p, (a, b, c), [
                r.name for r in outcome.results if not r.passed])
            total += 1
    report(6, f"boundary and cancellation identities on {total} "
              f"coefficient sets, k up to 3", started)


def test_criterion_7_pascal_special_case():
    started = time.perf_counter()
    binomial = Coefficients(1, 0, 1, 2)
    outcome = check_self_similarity(delannoy_matrix(binomial, 256, 256), 2)
    assert outcome.holds and outcome.max_k == 7
    nonzero = delannoy_matrix(binomial, 64, 64).entries != 0
    binary_oracle = np.array([[i & j == 0 for j in range(64)]
                              for i in range(64)])
    assert np.array_equal(nonzero, binary_oracle)
    report(7, "binomial residues: self-similar at 256 and the order-6 "
              "triangle point set matches the binary oracle", started)


def _corrupt(matrix: ResidueMatrix, x: int, y: int) -> ResidueMatrix:
    entries = np.array(matrix.entries)
    entries[x, y] = (entries[x, y] + 1) % matrix.modulus
    return ResidueMatrix(matrix.modulus, entries)


def test_criterion_8_negative_controls():
    started = time.perf_counter()

    # single-cell corruption is always caught
    rng = random.Random(SAMPLE_SEED + 8)
    carpet_243 = delannoy_matrix(CARPET, 243, 243)
    cells = {(0, 0), (242, 242), (0, 242), (121, 121)}
    while len(cells) < 20:
        cells.add((rng.randrange(243), rng.randrange(243)))
    for x, y in sorted(cells):
        assert not check_self_similarity(_corrupt(carpet_243, x, y), 3).holds
    five = delannoy_matrix(Coefficients(1, 2, 2, 5), 125, 125)
    assert not check_self_similarity(_corrupt(five, 7, 100), 5).holds

    # two tiles with identical west/south profiles break directedness
    seed = TileType.make(0, "s", ("x", 1), ("x", 1), ("r", 2), ("u", 2))
    twin_a = TileType.make(1, "a", ("r", 2), ("q", 1), ("r", 2), ("v", 1))
    twin_b = TileType.make(2, "b", ("r", 2), ("q", 1), ("r", 2), ("v", 1))
    ambiguous = TileSystem((seed, twin_a, twin_b), {(0, 0): seed}, 2)
    outcome = is_directed_empirically(ambiguous, (1, 6), trials=20)
    assert not outcome.directed and outcome.witness is not None

    # a transplanted wrong tile trips the window-consistency clause
    rule = delannoy_rule(CARPET)
    system = carpet_system()
    assembly = assemble_bounded(system, (9, 9), 31)
    victim = assembly.placements[(5, 5)]
    assembly.placements[(5, 5)] = next(
        t for t in system.tiles if not t.same_surface(victim))
    clauses = {c.name: c for c in
               check_induction_clauses(assembly, rule).clauses}
    assert not clauses["tile_matches_window"].holds

    report(8, "corruption, ambiguity, and transplants are all detected",
           started)
