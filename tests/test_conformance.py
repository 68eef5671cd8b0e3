import gc
import hashlib
import tracemalloc

import pytest

from fractile import (BOTTOM, Assembly, Coefficients, LocalRule, TileSystem,
                      TileType, assemble_bounded, build_full_system,
                      build_tile, carpet_system, check_induction_clauses,
                      delannoy_rule, delannoy_matrix,
                      prune_reachable, replay_is_valid, scan_windows,
                      verify_self_assembly, window_at)
from fractile.conformance import (ClauseResult, InductionReport,
                                  compare_assembly_labels)
from fractile.tilegen import symbol_token

from conftest import window_sum_rule

CARPET = Coefficients(1, 1, 1, 3)


@pytest.mark.parametrize("bound", [3, 9, 27])
def test_carpet_self_assembles(bound):
    report = verify_self_assembly(delannoy_rule(CARPET), (bound, bound),
                                  trials=3)
    assert report.matches and report.directed
    assert report.mismatch is None and report.directedness_witness is None


def test_five_color_instance_self_assembles():
    rule = delannoy_rule(Coefficients(1, 2, 2, 5))
    report = verify_self_assembly(rule, (25, 25), trials=2)
    assert report.ok


def test_constant_rule_self_assembles():
    const = LocalRule(2, ("k",), lambda west, south: "k", name="constant")
    report = verify_self_assembly(const, (2, 2), trials=1)
    assert report.matches


def test_window_sum_rule_self_assembles():
    # n = 3 exercises the generalized first-column strength rule
    report = verify_self_assembly(window_sum_rule(), (9, 9), trials=3)
    assert report.ok


@pytest.mark.parametrize("make_rule,bound", [
    (lambda: delannoy_rule(CARPET), 9),
    (lambda: delannoy_rule(Coefficients(1, 2, 2, 5)), 10),
    (lambda: LocalRule(2, ("k",), lambda w, s: "k", name="constant"), 4),
    (window_sum_rule, 5),
])
def test_unpruned_construction_reproduces_the_matrix(make_rule, bound):
    rule = make_rule()
    system = build_full_system(rule)
    report = verify_self_assembly(rule, (bound, bound), trials=2,
                                  system=system)
    assert report.ok, (report.mismatch, report.directedness_witness)


def test_lax_and_strict_agree_on_carpet():
    rule = delannoy_rule(CARPET)
    strict = verify_self_assembly(rule, (9, 9), trials=2)
    lax = verify_self_assembly(rule, (9, 9), trials=2, lax=True)
    assert strict.ok and lax.ok


def test_verify_keeps_no_run_but_the_first_alive():
    rule = delannoy_rule(CARPET)
    bound = (54, 54)
    system = prune_reachable(build_full_system(rule), rule, bound)
    tracemalloc.start()
    try:
        run = assemble_bounded(system, bound, 0)  # also warms the tiles
        one_run = tracemalloc.get_traced_memory()[0]
        del run
        peaks = []
        for trials in (2, 8):
            # a full collection empties CPython's free lists, whose freed
            # tuples tracemalloc would otherwise count as still allocated
            gc.collect()
            tracemalloc.reset_peak()
            verify_self_assembly(rule, bound, trials, system=system)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    # the runs alive at once do not depend on the trial count
    assert peaks[1] - peaks[0] < one_run / 4


def test_report_rendering_and_dump():
    report = verify_self_assembly(delannoy_rule(CARPET), (3, 3), trials=2)
    lines = report.to_lines()
    assert any("match" in line for line in lines)
    d = report.to_dict()
    assert d["matches"] is True and d["directed"] is True
    assert d["bound"] == [3, 3]


def broken_twin_system():
    carpet = carpet_system()
    twins = []
    tiles = list(carpet.tiles)
    # duplicate the first-row tile under a new id but a different label,
    # so runs diverge and labels break
    row0 = next(t for t in tiles if t.strengths == (2, 1, 2, 1))
    twins.append(TileType(30, "2", row0.colors, row0.strengths))
    return TileSystem(tuple(tiles + twins), dict(carpet.seed), 2)


def test_broken_system_is_reported_not_raised():
    report = verify_self_assembly(delannoy_rule(CARPET), (9, 9), trials=8,
                                  system=broken_twin_system())
    assert not report.ok
    assert (not report.matches) or (not report.directed)
    if not report.matches:
        pos, expected, observed = report.mismatch
        assert observed is None or observed != expected


def test_verify_validates_arguments():
    with pytest.raises(ValueError):
        verify_self_assembly(delannoy_rule(CARPET), (9, 9), trials=0)
    with pytest.raises(ValueError):
        verify_self_assembly(delannoy_rule(CARPET), (1, 1), trials=1)


def test_induction_clauses_hold_along_carpet_growth():
    rule = delannoy_rule(CARPET)
    asm = assemble_bounded(carpet_system(), (27, 27), 23)
    report = check_induction_clauses(asm, rule)
    assert report.all_hold
    assert {c.name for c in report.clauses} == {
        "downward_closed", "first_quadrant_only", "east_strength2_in_row0",
        "north_strength2_in_col0", "tile_matches_window"}


def test_induction_clauses_hold_vacuously_for_seed(carpet):
    report = check_induction_clauses(Assembly.from_seed(carpet.seed),
                                     delannoy_rule(CARPET))
    assert report.all_hold


def test_transplanted_tile_trips_window_clause(carpet):
    rule = delannoy_rule(CARPET)
    asm = assemble_bounded(carpet, (9, 9), 3)
    wrong = next(t for t in carpet.tiles
                 if not t.same_surface(asm.placements[(4, 4)]))
    asm.placements[(4, 4)] = wrong
    report = check_induction_clauses(asm, rule)
    clause = {c.name: c for c in report.clauses}["tile_matches_window"]
    assert not clause.holds
    step, pos, detail = clause.violation
    assert pos == (4, 4) and asm.attachment_order[step] == (4, 4)


def test_induction_clauses_replay_an_n3_rule():
    # n = 3 windows are two cells thick on each side of the cell
    rule = window_sum_rule()
    system = prune_reachable(build_full_system(rule), rule, (9, 9))
    asm = assemble_bounded(system, (9, 9), 5)
    assert len(asm) == 81
    assert check_induction_clauses(asm, rule).all_hold
    wrong = next(t for t in system.tiles
                 if not t.same_surface(asm.placements[(5, 6)]))
    asm.placements[(5, 6)] = wrong
    clause = {c.name: c for c in check_induction_clauses(asm, rule).clauses
              }["tile_matches_window"]
    assert not clause.holds
    step, pos, detail = clause.violation
    assert pos == (5, 6) and asm.attachment_order[step] == (5, 6)
    assert f"placed tile {wrong.id} " in detail


# Induction replays the attachment order, so it refuses an order that
# does not list each placed position exactly once, as replay does.
def test_induction_refuses_an_order_naming_an_unplaced_position(carpet):
    asm = assemble_bounded(carpet, (5, 5), 1)
    asm.attachment_order.append((5, 0))
    with pytest.raises(ValueError, match="exactly once"):
        check_induction_clauses(asm, delannoy_rule(CARPET))


def test_induction_refuses_a_repeated_position(carpet):
    asm = assemble_bounded(carpet, (5, 5), 1)
    asm.attachment_order.append(asm.attachment_order[-1])
    with pytest.raises(ValueError, match="exactly once"):
        check_induction_clauses(asm, delannoy_rule(CARPET))


def _order_repeats(asm):
    asm.attachment_order[-1] = asm.attachment_order[-2]


def _order_misses(asm):
    asm.attachment_order.pop()


def _order_names_unplaced(asm):
    asm.attachment_order[-1] = (5, 0)


def _order_repeats_negative(asm):
    asm.placements[(-1, 2)] = asm.placements[(0, 0)]
    asm.attachment_order[-1] = (-1, 2)
    asm.attachment_order.append((-1, 2))


def _order_misses_negative(asm):
    asm.placements[(-1, 2)] = asm.placements[(0, 0)]


def _order_names_unplaced_negative(asm):
    asm.attachment_order[-1] = (-1, 2)


# Each order lists as many positions as are placed, but for the two that
# miss one; the scan, not a count, tells the others apart.
@pytest.mark.parametrize("spoil", [
    _order_repeats, _order_misses, _order_names_unplaced,
    _order_repeats_negative, _order_misses_negative,
    _order_names_unplaced_negative],
    ids=["repeated", "missing", "unplaced", "repeated-negative",
         "missing-negative", "unplaced-negative"])
def test_replay_and_induction_refuse_an_inexact_order(carpet, spoil):
    asm = assemble_bounded(carpet, (5, 5), 1)
    spoil(asm)
    assert not replay_is_valid(asm, 2)
    with pytest.raises(ValueError, match="exactly once"):
        check_induction_clauses(asm, delannoy_rule(CARPET))


def test_induction_refuses_a_placement_missing_from_the_order(carpet):
    # a wrong tile outside the order once went unchecked: every clause held
    asm = assemble_bounded(carpet, (5, 5), 1)
    assert asm.attachment_order.pop() == (4, 4)
    asm.placements[(4, 4)] = carpet.seed[(0, 0)]
    assert not replay_is_valid(asm, 2)
    with pytest.raises(ValueError, match="exactly once"):
        check_induction_clauses(asm, delannoy_rule(CARPET))


def test_gap_in_growth_trips_downward_closure(carpet):
    seed = carpet.seed[(0, 0)]
    row0 = next(t for t in carpet.tiles if t.strengths == (2, 1, 2, 1))
    asm = Assembly({(0, 0): seed, (0, 2): row0}, [(0, 0), (0, 2)], 1)
    report = check_induction_clauses(asm, delannoy_rule(CARPET))
    clause = {c.name: c for c in report.clauses}["downward_closed"]
    assert not clause.holds and clause.violation[1] == (0, 2)


@pytest.mark.parametrize("corner", [20000, 4096], ids=["20001", "4097"])
def test_induction_refuses_a_box_no_growth_spans(carpet, corner):
    # two placements span a corner + 1 square box, over MAX_GROWTH_CELLS
    seed = carpet.seed[(0, 0)]
    far = (corner, corner)
    asm = Assembly({(0, 0): seed, far: seed}, [(0, 0), far], 1)
    side = corner + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            check_induction_clauses(asm, delannoy_rule(CARPET))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (f"placements span a {side}x{side} box, over "
                              f"MAX_GROWTH_CELLS = {2 ** 24} cells")
    assert peak < 1_000_000  # the label grid alone would take 134 MB


def test_negative_position_trips_quadrant_clause(carpet):
    seed = carpet.seed[(0, 0)]
    asm = Assembly({(0, 0): seed, (-1, 0): seed}, [(0, 0), (-1, 0)], 1)
    report = check_induction_clauses(asm, delannoy_rule(CARPET))
    clause = {c.name: c for c in report.clauses}["first_quadrant_only"]
    assert not clause.holds


def test_misplaced_strength_2_tile_trips_axis_clauses(carpet):
    rule = delannoy_rule(CARPET)
    asm = assemble_bounded(carpet, (5, 5), 0)
    col0 = next(t for t in carpet.tiles if t.strengths == (1, 2, 1, 2))
    asm.placements[(2, 2)] = col0
    report = check_induction_clauses(asm, rule)
    clause = {c.name: c for c in report.clauses}["north_strength2_in_col0"]
    assert not clause.holds


def test_simulated_fractal_matches_matrix_fractal(carpet):
    bound = 27
    asm = assemble_bounded(carpet, (bound, bound), 29)
    simulated = {pos for pos, tile in asm.placements.items()
                 if tile.label != "0"}
    nonzero = delannoy_matrix(CARPET, bound, bound).entries != 0
    expected = {(x, y) for x in range(bound) for y in range(bound)
                if nonzero[x, y]}
    assert simulated == expected


def test_induction_report_rendering(carpet):
    asm = assemble_bounded(carpet, (3, 3), 0)
    report = check_induction_clauses(asm, delannoy_rule(CARPET))
    assert all(": holds" in line for line in report.to_lines())


# SHA-256 of the induction report's lines for the carpet grown at 81 x 81
# with seed 11, clean and with (40, 17) replaced by the first carpet tile
# of another surface; recorded before windows were read as row slices.
INDUCTION_PINS = {
    "clean":
        "436cf15eae86c746030e00d91ed23028846cdf395299aaebb3d57a7ed9544fe3",
    "transplant":
        "6ae5004545691de189f6fde18a32fd5341963ab70fe3d97f92373fee88d97a6c",
}


def test_induction_report_digest_pins(carpet):
    rule = delannoy_rule(CARPET)
    asm = assemble_bounded(carpet, (81, 81), 11)

    def digest():
        text = "\n".join(check_induction_clauses(asm, rule).to_lines())
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest() == INDUCTION_PINS["clean"]
    asm.placements[(40, 17)] = next(
        t for t in carpet.tiles
        if not t.same_surface(asm.placements[(40, 17)]))
    assert digest() == INDUCTION_PINS["transplant"]
    failed = [c for c in check_induction_clauses(asm, rule).clauses
              if not c.holds]
    assert len(failed) == 3 and all(c.violation[0] == 2023 for c in failed)


def test_a_rule_spelling_no_symbol_is_refused_before_growth():
    # its True tiles once spelled glues no other tile presents: growth
    # stopped after the seed and verify reported a MISMATCH at (0, 1)
    def evaluate(west, south):
        cells = (*west, *(s for row in south for s in row))
        return all(s is BOTTOM for s in cells) or west[0] == 1

    rule = LocalRule(2, (0, 1), evaluate)
    with pytest.raises(ValueError, match="spells 'True'"):
        verify_self_assembly(rule, (6, 6), 2)


def per_cell_compare(assembly, expected, bound):
    """`compare_assembly_labels` tokenizing every cell afresh, kept as
    the reference."""
    for x in range(bound[0]):
        for y in range(bound[1]):
            want = symbol_token(expected[x][y])
            tile = assembly.placements.get((x, y))
            if tile is None:
                return ((x, y), want, None)
            if tile.label != want:
                return ((x, y), want, tile.label)
    return None


@pytest.mark.parametrize("first", [1, True], ids=["1-first", "True-first"])
def test_label_compare_keeps_true_and_1_apart(first):
    # True == 1 and hashes alike, but spells "True"; 0.0 and -0.0 too
    values = [first, 1 if first is True else True, 0, 0.0, -0.0, "1"]
    bound = (4, 6)
    expected = [[values[(x + y) % 6] for y in range(6)] for x in range(4)]
    tile = {token: TileType.make(k, token, *[("g", 1)] * 4)
            for k, token in enumerate(("1", "True", "0", "0.0", "-0.0"))}
    labels = {(x, y): tile[symbol_token(expected[x][y])]
              for x in range(4) for y in range(6)}
    cases = [Assembly(labels, list(labels), 0)]
    for pos in [(0, 0), (1, 0), (0, 2), (2, 1), (3, 5)]:
        wrong = dict(labels)
        wrong[pos] = tile["1" if labels[pos].label == "True" else "True"]
        cases.append(Assembly(wrong, list(wrong), 0))
        gap = dict(labels)
        del gap[pos]
        cases.append(Assembly(gap, list(gap), 0))
    for asm in cases:
        assert (compare_assembly_labels(asm, expected, bound)
                == per_cell_compare(asm, expected, bound))
    assert compare_assembly_labels(cases[0], expected, bound) is None


def two_pass_induction(assembly, rule):
    """`check_induction_clauses` with a set of occupied positions and a
    second pass of window reads, kept as the reference."""
    violations = {name: None for name in
                  ("downward_closed", "first_quadrant_only",
                   "east_strength2_in_row0", "north_strength2_in_col0",
                   "tile_matches_window")}
    positions = assembly.attachment_order
    max_x = max((x for x, _ in positions), default=0)
    max_y = max((y for _, y in positions), default=0)
    expected, windows = scan_windows(rule, max(max_x + 1, rule.n),
                                     max(max_y + 1, rule.n))
    tiles = {window: build_tile(rule, window) for window in windows}

    def record(name, step, pos, detail):
        if violations[name] is None:
            violations[name] = (step, pos, detail)

    occupied = set()
    for step, pos in enumerate(positions):
        x, y = pos
        if x < 0 or y < 0:
            record("first_quadrant_only", step, pos, "negative coordinate")
            occupied.add(pos)
            continue
        if step >= assembly.seed_count:
            if x > 0 and (x - 1, y) not in occupied:
                record("downward_closed", step, pos, "south neighbor missing")
            if y > 0 and (x, y - 1) not in occupied:
                record("downward_closed", step, pos, "west neighbor missing")
        tile = assembly.placements[pos]
        if tile.strengths[2] == 2 and x != 0:
            record("east_strength2_in_row0", step, pos,
                   f"tile {tile.id} has a strength-2 east edge off row 0")
        if tile.strengths[3] == 2 and y != 0:
            record("north_strength2_in_col0", step, pos,
                   f"tile {tile.id} has a strength-2 north edge off column 0")
        want = tiles[window_at(expected, x, y, rule.n)]
        if not tile.same_surface(want):
            record("tile_matches_window", step, pos,
                   f"placed tile {tile.id} ({tile.label}) differs from the "
                   f"window tile ({want.label})")
        occupied.add(pos)
    return InductionReport(tuple(ClauseResult(name, v is None, v)
                                 for name, v in violations.items()))


@pytest.mark.parametrize("make_rule", [lambda: delannoy_rule(CARPET),
                                       window_sum_rule],
                         ids=["carpet", "window-sum-n3"])
def test_one_pass_induction_equals_the_two_pass_replay(make_rule):
    rule = make_rule()
    system = prune_reachable(build_full_system(rule), rule, (12, 10))
    asm = assemble_bounded(system, (12, 10), 7)
    order = asm.attachment_order
    # a gap: a placement whose west and south predecessors come later
    gap = Assembly(dict(asm.placements), [order[0], order[-1], *order[1:-1]],
                   1)
    # negative positions, one early and one at the end, and a tile off its
    # window beside the first
    negative = Assembly(dict(asm.placements), list(order), 1)
    for step, pos in ((3, (-1, 2)), (len(order), (4, -2))):
        negative.attachment_order.insert(step, pos)
        negative.placements[pos] = system.tiles[1]
    negative.placements[(0, 2)] = system.tiles[-1]
    for case in (asm, gap, negative):
        report = check_induction_clauses(case, rule)
        assert report == two_pass_induction(case, rule)
    assert not check_induction_clauses(gap, rule).all_hold
    clauses = {c.name: c for c in check_induction_clauses(negative, rule)
               .clauses}
    assert clauses["first_quadrant_only"].violation[:2] == (3, (-1, 2))
