import hashlib
import re
import tracemalloc
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractile import (BOTTOM, Coefficients, LocalRule, TileType,
                      assemble_bounded, build_full_system, build_tile,
                      delannoy_matrix, delannoy_rule, horizon_is_stable,
                      prune_reachable, rule_matrix, window_at)
from fractile.formats import write_tileset
from fractile.tilegen import (MAX_WINDOWS, glue_rows, glue_vector,
                              label_grid, scan_windows, symbol_token,
                              walk_windows)

from conftest import window_sum_rule

W, S, E, N = 0, 1, 2, 3  # edge indices of TileType.colors and .strengths

CARPET = Coefficients(1, 1, 1, 3)


def surface(system):
    return sorted((t.label, t.colors, t.strengths) for t in system.tiles)


def test_symbol_and_glue_serialization():
    assert symbol_token(BOTTOM) == "_"
    assert symbol_token(2) == "2"
    assert glue_vector((1,)) == "1"
    assert glue_vector((BOTTOM, 2)) == "(_,2)"
    assert glue_rows(((BOTTOM, BOTTOM),)) == "(_,_)"
    # rows serialize bottom-to-top: the row nearest the cell comes last
    assert glue_rows(((1, 1), (0, 2))) == "(0,2)|(1,1)"


def test_local_rule_validation():
    with pytest.raises(ValueError):
        LocalRule(1, (0, 1), lambda w, s: 0)
    with pytest.raises(ValueError):
        LocalRule(2, (), lambda w, s: 0)
    with pytest.raises(ValueError):
        LocalRule(2, (0, 0), lambda w, s: 0)
    with pytest.raises(ValueError):
        LocalRule(2, ("_",), lambda w, s: "_")
    with pytest.raises(ValueError):
        LocalRule(2, ("a b",), lambda w, s: "a b")


def test_window_extraction_orientation():
    labels = [[11, 12, 13], [21, 22, 23], [31, 32, 33]]
    assert window_at(labels, 2, 2, 3) == ((31, 32),
                                          ((21, 22, 23), (11, 12, 13)))
    assert window_at(labels, 0, 0, 3) == ((BOTTOM, BOTTOM),
                                          ((BOTTOM,) * 3, (BOTTOM,) * 3))


@pytest.mark.parametrize("coeffs,size", [
    (CARPET, 9),
    (Coefficients(1, 2, 2, 5), 10),
    (Coefficients(2, 0, 1, 7), 8),
])
def test_rule_matrix_equals_recursion(coeffs, size):
    got = rule_matrix(delannoy_rule(coeffs), size, size)
    want = delannoy_matrix(coeffs, size, size).entries.tolist()
    assert got == want


def test_constant_rule_matrix():
    const = LocalRule(2, ("k",), lambda west, south: "k", name="constant")
    assert rule_matrix(const, 2, 3) == [["k"] * 3, ["k"] * 3]


def test_window_sum_rule_matrix_hand_values():
    # hand evaluation of each window, bottom symbols contributing nothing
    assert rule_matrix(window_sum_rule(), 3, 3) == [
        [1, 1, 0], [1, 1, 0], [0, 0, 0]]


def test_build_tile_seed(carpet_rule):
    tile = build_tile(carpet_rule, ((BOTTOM,), ((BOTTOM, BOTTOM),)))
    assert tile.label == "1"
    assert (tile.colors[E], tile.strengths[E]) == ("1", 2)
    assert (tile.colors[N], tile.strengths[N]) == ("(_,1)", 2)
    assert (tile.colors[W], tile.strengths[W]) == ("_", 1)
    assert (tile.colors[S], tile.strengths[S]) == ("(_,_)", 1)


def test_build_tile_first_row(carpet_rule):
    tile = build_tile(carpet_rule, ((1,), ((BOTTOM, BOTTOM),)))
    assert tile.label == "1"
    assert (tile.colors[W], tile.strengths[W]) == ("1", 2)
    assert (tile.colors[E], tile.strengths[E]) == ("1", 2)
    assert (tile.colors[N], tile.strengths[N]) == ("(1,1)", 1)


def test_build_tile_first_column(carpet_rule):
    tile = build_tile(carpet_rule, ((BOTTOM,), ((BOTTOM, 1),)))
    assert tile.label == "1"
    assert (tile.colors[S], tile.strengths[S]) == ("(_,1)", 2)
    assert (tile.colors[N], tile.strengths[N]) == ("(_,1)", 2)
    assert tile.strengths[W] == 1 and tile.strengths[E] == 1


def test_build_tile_interior(carpet_rule):
    tile = build_tile(carpet_rule, ((1,), ((0, 2),)))
    assert tile.label == "0"
    assert tile.colors == ("1", "(0,2)", "0", "(1,0)")
    assert tile.strengths == (1, 1, 1, 1)


def test_full_system_counts():
    assert len(build_full_system(delannoy_rule(CARPET)).tiles) == 64
    pascal = delannoy_rule(Coefficients(1, 0, 1, 2))
    assert len(build_full_system(pascal).tiles) == 27
    const = LocalRule(2, ("k",), lambda west, south: "k")
    assert len(build_full_system(const).tiles) == 8


def test_full_system_budget():
    # p = 101 is the first prime over the cap: 102^3 windows
    assert MAX_WINDOWS == 10 ** 6
    for rule, count in ((delannoy_rule(Coefficients(1, 1, 1, 101)), 102 ** 3),
                        (LocalRule(3, tuple("vwxyz"), lambda *w: "v"),
                         6 ** 8)):
        evaluated = []

        def counted(*window, evaluate=rule.evaluate):
            evaluated.append(window)
            return evaluate(*window)

        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                build_full_system(replace(rule, evaluate=counted))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (f"domain has {count} windows, over the "
                                  f"budget of {MAX_WINDOWS}")
        assert evaluated == [] and peak < 100_000


def test_full_system_ids_are_window_rank(carpet_rule):
    system = build_full_system(carpet_rule)
    assert [t.id for t in system.tiles] == list(range(64))
    assert system.seed[(0, 0)] is system.tiles[0]   # all-bottom window first


def test_prune_keeps_30_carpet_tiles(carpet_rule):
    full = build_full_system(carpet_rule)
    pruned = prune_reachable(full, carpet_rule, (243, 243))
    assert len(pruned.tiles) == 30
    assert [t.id for t in pruned.tiles] == list(range(30))
    assert pruned.seed[(0, 0)].id == 0


def test_prune_matches_hand_rolled_carpet(carpet, carpet_rule):
    full = build_full_system(carpet_rule)
    pruned = prune_reachable(full, carpet_rule, (243, 243))
    assert surface(pruned) == surface(carpet)
    # ids agree record for record, so serialized files are identical too
    for mine, hand in zip(pruned.tiles, carpet.tiles):
        assert mine.id == hand.id and mine.same_surface(hand)


def test_prune_of_constant_rule():
    const = LocalRule(2, ("k",), lambda west, south: "k")
    pruned = prune_reachable(build_full_system(const), const, (4, 4))
    assert len(pruned.tiles) == 4


def test_prune_tiny_horizon_keeps_seed_and_bulk(carpet_rule):
    # only the corner window occurs, so every other boundary tile is
    # dropped while the 27 fully defined tiles stay
    full = build_full_system(carpet_rule)
    pruned = prune_reachable(full, carpet_rule, (1, 1))
    assert len(pruned.tiles) == 28
    assert pruned.seed[(0, 0)] in pruned.tiles


def test_prune_reads_bottom_only_as_a_whole_token():
    # symbols may contain "_"; only the glue token "_" itself is ⊥
    rule = LocalRule(2, ("x_", "_y"),
                     lambda west, south: "x_" if west[0] is BOTTOM else "_y")
    pruned = prune_reachable(build_full_system(rule), rule, (3, 3))
    # 8 fully defined windows, the seed, the row-0 windows after x_ and
    # after _y, and the column-0 window under x_
    assert len(pruned.tiles) == 12
    assert ("x_", "(x_,_y)") in {window_key(t) for t in pruned.tiles}


def test_pruning_is_sound_for_bounded_assembly(carpet_rule):
    full = build_full_system(carpet_rule)
    pruned = prune_reachable(full, carpet_rule, (27, 27))
    a = assemble_bounded(full, (27, 27), 13)
    b = assemble_bounded(pruned, (27, 27), 13)
    assert set(a.placements) == set(b.placements)
    assert all(a.placements[p].same_surface(b.placements[p])
               for p in a.placements)


def test_horizon_stability_probe(carpet_rule):
    assert horizon_is_stable(carpet_rule, (243, 243))
    assert horizon_is_stable(carpet_rule, (81, 81))
    # the carpet's pruned set is final at 3x3 but not yet at 2x2
    assert horizon_is_stable(carpet_rule, (3, 3))
    assert not horizon_is_stable(carpet_rule, (2, 2))
    mod5 = delannoy_rule(Coefficients(1, 2, 2, 5))
    assert not horizon_is_stable(mod5, (5, 5))
    assert horizon_is_stable(mod5, (6, 6))


def test_horizon_stability_reads_only_the_axis_strips(carpet_rule):
    # 20000^2 is over MAX_CELLS, so a full-horizon scan would raise
    assert horizon_is_stable(carpet_rule, (20000, 20000))


def test_carpet_system_census(carpet):
    assert len(carpet.tiles) == 30
    strength_2_edges = [t for t in carpet.tiles if 2 in t.strengths]
    assert len(strength_2_edges) == 3
    interior = [t for t in carpet.tiles if t.strengths == (1, 1, 1, 1)]
    assert len(interior) == 27


def test_carpet_interior_schema(carpet):
    by_window = {(t.colors[W], t.colors[S]): t for t in carpet.tiles}
    t222 = by_window[("2", "(2,2)")]
    assert t222.label == "0" and t222.colors[N] == "(2,0)"
    t000 = by_window[("0", "(0,0)")]
    assert t000.label == "0" and t000.colors[E] == "0" \
        and t000.colors[N] == "(0,0)"


def test_carpet_seed_placement(carpet):
    assert set(carpet.seed) == {(0, 0)}
    assert carpet.temperature == 2


@pytest.mark.parametrize("make_rule,size", [
    (lambda: delannoy_rule(CARPET), 7),
    (window_sum_rule, 5),
])
def test_adjacent_window_tiles_share_glues(make_rule, size):
    # east glue of the tile at (x, y) is the west glue at (x, y+1), and
    # its north glue is the south glue at (x+1, y)
    rule = make_rule()
    labels = rule_matrix(rule, size + 1, size + 1)
    for x in range(size):
        for y in range(size):
            t = build_tile(rule, window_at(labels, x, y, rule.n))
            east = build_tile(rule, window_at(labels, x, y + 1, rule.n))
            north = build_tile(rule, window_at(labels, x + 1, y, rule.n))
            assert t.colors[E] == east.colors[W]
            assert t.colors[N] == north.colors[S]


def test_strength_2_tiles_stay_on_their_axes(carpet):
    asm = assemble_bounded(carpet, (27, 27), 17)
    for (x, y), tile in asm.placements.items():
        if tile.strengths[E] == 2:
            assert x == 0
        if tile.strengths[N] == 2:
            assert y == 0


@pytest.mark.parametrize("window", [
    ((1, 2), ((0, 1, 2), (0, 1, 2))),
    ((1,), ((1, 2), (3, 4))),
    ((1,), ((1, 2, 3),)),
], ids=["n3-window", "two-south-rows", "south-row-too-wide"])
def test_build_tile_rejects_mismatched_window(carpet_rule, window):
    with pytest.raises(ValueError):
        build_tile(carpet_rule, window)


def test_rule_evaluation_must_stay_in_alphabet():
    bad = LocalRule(2, (0, 1), lambda west, south: 7)
    with pytest.raises(ValueError):
        build_tile(bad, ((0,), ((0, 0),)))


# SHA-256 of the pruned tileset file and the stability verdict, recorded
# before the window scan was folded into one pass.
PRUNED_PINS = [
    (lambda: delannoy_rule(Coefficients(1, 2, 2, 5)), 125, 131,
     "7055b45ae8e38023cda1c9244fe145ee84e2a5980f791d12e4b8b33815bad512"),
    (window_sum_rule, 27, 272,
     "b2e368c17b1b14d59e319342d79986a202d3026b380033d0fbe97e18e6350728"),
]


@pytest.mark.parametrize("make_rule,side,count,digest", PRUNED_PINS,
                         ids=["mod5-1-2-2-at-125", "window-sum-at-27"])
def test_pruned_tileset_digest_pins(make_rule, side, count, digest):
    rule = make_rule()
    pruned = prune_reachable(build_full_system(rule), rule, (side, side))
    assert len(pruned.tiles) == count
    text = write_tileset(pruned)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert horizon_is_stable(rule, (side, side))


def reference_per_cell_windows(labels, n):
    """Per-cell loop: serialized window keys of every cell."""
    return {(glue_vector(w[0]), glue_rows(w[1]))
            for w in (window_at(labels, x, y, n)
                      for x in range(len(labels))
                      for y in range(len(labels[0])))}


def reference_kept_ids(full, labels, n):
    """Ids of the tiles pruning keeps: every fully defined window's tile
    and every tile whose window occurs in the labels."""
    occurring = reference_per_cell_windows(labels, n)
    return [t.id for t in full.tiles
            if "_" not in "".join(window_key(t)) or window_key(t) in occurring]


def window_key(tile):
    return (tile.colors[W], tile.colors[S])


@given(st.sampled_from((2, 3, 5)), st.data(),
       st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=40)
def test_prune_and_stability_equal_per_cell_reference(p, data, height, width):
    a = data.draw(st.integers(1, p - 1))
    b = data.draw(st.integers(0, p - 1))
    c = data.draw(st.integers(1, p - 1))
    coeffs = Coefficients(a, b, c, p)
    rule = delannoy_rule(coeffs)
    labels = delannoy_matrix(coeffs, height, width).entries.tolist()

    full = build_full_system(rule)
    want = reference_kept_ids(full, labels, rule.n)
    id_of = {window_key(t): t.id for t in full.tiles}
    pruned = prune_reachable(full, rule, (height, width))
    assert [id_of[window_key(t)] for t in pruned.tiles] == want

    # stable: pruning one row and one column short keeps the same tiles
    smaller = [row[:width - 1] for row in labels[:height - 1]]
    stable = (height >= 2 and width >= 2
              and want == reference_kept_ids(full, smaller, rule.n))
    assert horizon_is_stable(rule, (height, width)) == stable


def test_prune_and_stability_of_an_n3_rule_equal_per_cell_reference():
    # n = 3 strips are two cells thick; labels come from the rule itself
    rule = window_sum_rule()
    full = build_full_system(rule)
    id_of = {window_key(t): t.id for t in full.tiles}
    kept = {}
    for height in range(1, 13):
        for width in range(1, 13):
            labels = rule_matrix(rule, height, width)
            want = kept[height, width] = reference_kept_ids(full, labels,
                                                            rule.n)
            pruned = prune_reachable(full, rule, (height, width))
            assert [id_of[window_key(t)] for t in pruned.tiles] == want, \
                (height, width)
            stable = (height >= 2 and width >= 2
                      and want == kept[height - 1, width - 1])
            assert horizon_is_stable(rule, (height, width)) == stable


def powers(x, p):
    """<x> = {x^j mod p : j >= 0}."""
    seen, v = set(), 1
    while v not in seen:
        seen.add(v)
        v = v * x % p
    return seen


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_uniform_tileset_is_exact_at_p_plus_one(p):
    # the horizon `fractile tileset` prunes at gives the same file as 3p^2,
    # with one tile per fully defined window, the seed, and one first-row
    # and one first-column tile per power of a and of c
    for a, b, c in product(range(p), repeat=3):
        rule = delannoy_rule(Coefficients(a, b, c, p))
        full = build_full_system(rule)
        near = prune_reachable(full, rule, (p + 1, p + 1))
        far = prune_reachable(full, rule, (3 * p * p, 3 * p * p))
        assert write_tileset(near) == write_tileset(far), (a, b, c)
        assert len(near.tiles) == \
            p ** 3 + 1 + len(powers(a, p)) + len(powers(c, p)), (a, b, c)


# SHA-256 of the unpruned tileset file, recorded before windows were read
# as row slices and glue text was built once per rule.
FULL_PINS = [
    (lambda: delannoy_rule(CARPET), 64,
     "50c4a47423310883aef173933d8f11e1890b0a227d72b9e637c50f34c54afd70"),
    (lambda: delannoy_rule(Coefficients(2, 0, 3, 7)), 512,
     "0c1ea302e3fa68df60ee5e5eda2fee52d9c4033b95d7749f6930351d99905e97"),
    (window_sum_rule, 6561,
     "1f00364dbf3a82a5b0301151422f52568654d0e233cc5d3e1e5660fdef004ee6"),
]


@pytest.mark.parametrize("make_rule,count,digest", FULL_PINS,
                         ids=["carpet", "2-0-3-7", "window-sum"])
def test_full_tileset_digest_pins(make_rule, count, digest):
    full = build_full_system(make_rule())
    assert len(full.tiles) == count
    text = write_tileset(full)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def reference_window(labels, x, y, n):
    """Definitional reader: one lookup per cell, ⊥ at a negative
    coordinate."""

    def get(i, j):
        if i < 0 or j < 0:
            return BOTTOM
        return labels[i][j]

    west = tuple(get(x, y - n + 1 + m) for m in range(n - 1))
    south = tuple(tuple(get(x - i, y - n + 1 + m) for m in range(n))
                  for i in range(1, n))
    return west, south


@given(st.integers(2, 4), st.integers(1, 9), st.integers(1, 9), st.data())
@settings(max_examples=40)
def test_window_at_equals_per_cell_reader(n, height, width, data):
    row = st.lists(st.integers(0, 9), min_size=width, max_size=width)
    labels = data.draw(st.lists(row, min_size=height, max_size=height))
    for x in range(height):
        for y in range(width):
            assert window_at(labels, x, y, n) == \
                reference_window(labels, x, y, n), (x, y)


def reference_build_tile(rule, window, tile_id=0):
    """Per-symbol glue construction: every glue serialized from its
    symbols, each tile on its own."""
    west, south = window
    b = rule.evaluate(west, south)
    west_bottom = all(s is BOTTOM for s in west)
    south_bottom = all(s is BOTTOM for row in south for s in row)
    strengths = {"W": 1, "S": 1, "E": 1, "N": 1}
    if south_bottom and west_bottom:
        strengths["N"] = strengths["E"] = 2
    elif south_bottom:
        strengths["W"] = strengths["E"] = 2
    elif west_bottom:
        strengths["S"] = strengths["N"] = 2
    return TileType.make(
        tile_id, symbol_token(b),
        west=(glue_vector(west), strengths["W"]),
        south=(glue_rows(south), strengths["S"]),
        east=(glue_vector(west[1:] + (b,)), strengths["E"]),
        north=(glue_rows((west + (b,),) + south[:-1]), strengths["N"]))


ALPHABETS = (range(3), ("x", "y_", "Z.1", "-4"), (0, 1))


def salted_rule(n, alphabet, salt):
    """A rule defined on every window, ⊥ included, that depends on each
    position's symbol."""
    index = {s: k for k, s in enumerate(alphabet)}

    def evaluate(west, south):
        cells = west + tuple(s for row in south for s in row)
        code = sum((index.get(s, len(alphabet)) + 1) * (salt + m)
                   for m, s in enumerate(cells))
        return alphabet[code % len(alphabet)]

    return LocalRule(n, alphabet, evaluate)


def reference_rule_matrix(rule, height, width):
    """Definitional per-cell loop: each cell evaluated on the window the
    per-cell reader sees once every earlier cell is filled."""
    labels = [[None] * width for _ in range(height)]
    for x in range(height):
        for y in range(width):
            labels[x][y] = rule.evaluate(
                *reference_window(labels, x, y, rule.n))
    return labels


@given(st.sampled_from((2, 3)), st.sampled_from(ALPHABETS),
       st.integers(0, 50), st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=40)
def test_walk_yields_each_window_before_writing_its_cell(n, alphabet, salt,
                                                         height, width):
    rule = salted_rule(n, alphabet, salt)
    want = reference_rule_matrix(rule, height, width)
    assert rule_matrix(rule, height, width) == want
    labels, windows = scan_windows(rule, height, width)
    assert labels == want
    assert windows == {window_at(want, x, y, n) for x in range(height)
                       for y in range(width)}
    # when the walk yields a cell's window, exactly the earlier cells of
    # the row-major order hold their values
    grid = label_grid(height, width)
    cells = 0
    for k, window in enumerate(walk_windows(rule, grid)):
        x, y = divmod(k, width)
        assert window == reference_window(want, x, y, n), (x, y)
        filled = [v for row in grid for v in row if v is not None]
        assert filled == [v for row in want for v in row][:k], (x, y)
        cells += 1
    assert cells == height * width and grid == want


@given(st.integers(2, 4), st.sampled_from(ALPHABETS), st.integers(0, 50),
       st.data())
@settings(max_examples=60)
def test_build_tile_equals_per_symbol_glues(n, alphabet, salt, data):
    rule = salted_rule(n, alphabet, salt)
    symbol = st.sampled_from((BOTTOM, *alphabet))
    west = tuple(data.draw(st.lists(symbol, min_size=n - 1,
                                    max_size=n - 1)))
    south = tuple(tuple(data.draw(st.lists(symbol, min_size=n, max_size=n)))
                  for _ in range(n - 1))
    tile = build_tile(rule, (west, south), 7)
    assert tile == reference_build_tile(rule, (west, south), 7)


def reference_full_tiles(rule):
    """Each window of the domain, ⊥ first, compiled on its own."""
    symbols, n = (BOTTOM, *rule.alphabet), rule.n
    windows = [(west, south) for west in product(symbols, repeat=n - 1)
               for south in product(product(symbols, repeat=n),
                                    repeat=n - 1)]
    return [reference_build_tile(rule, w, k) for k, w in enumerate(windows)]


@pytest.mark.parametrize("n,size", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_full_system_equals_per_symbol_glues(n, size):
    for alphabet in (range(size), ("x", "y_", "Z.1")[:size]):
        rule = salted_rule(n, alphabet, size)
        assert list(build_full_system(rule).tiles) == \
            reference_full_tiles(rule)


@pytest.mark.parametrize("n", [2, 3])
def test_true_is_not_merged_with_one(n):
    # True == 1 and hashes alike, but serializes as "True": a computed
    # cell that spells no alphabet symbol is refused, with its window
    rule = LocalRule(n, (0, 1), lambda west, south: west[-1] == 1)
    with pytest.raises(ValueError, match="spells 'False' where its "
                                         "alphabet symbol spells '0'"):
        build_full_system(rule)
    window = ((0,) * (n - 2) + (1,), ((1,) * n,) * (n - 1))
    where = re.escape(f"True at window {window}")
    with pytest.raises(ValueError, match=where):
        build_tile(rule, window)

