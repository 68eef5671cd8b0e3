import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractile import (Assembly, Coefficients, LocalRule, TileSystem,
                      TileType, assemble_bounded, build_full_system,
                      carpet_system, delannoy_rule, is_directed_empirically,
                      prune_reachable, replay_is_valid, verify_self_assembly)
from fractile.formats import write_assembly
from fractile.tam import MAX_GROWTH_CELLS, Grower, check_growth_bound

W, S, E, N = 0, 1, 2, 3  # edge indices of TileType.colors and .strengths


def carpet_tile(system, west_glue, south_glue):
    for t in system.tiles:
        if t.colors[W] == west_glue and t.colors[S] == south_glue:
            return t
    raise LookupError((west_glue, south_glue))


@pytest.fixture(scope="module")
def parts(carpet):
    return {
        "seed": carpet.seed[(0, 0)],
        "row0": carpet_tile(carpet, "1", "(_,_)"),
        "col0": carpet_tile(carpet, "_", "(_,1)"),
        "interior_111": carpet_tile(carpet, "1", "(1,1)"),
    }


def replays(placed, temperature=2, lax=False):
    """Replay `placed`, a position -> tile map in attachment order whose
    first entry is the seed."""
    asm = Assembly(dict(placed), list(placed), 1)
    return replay_is_valid(asm, temperature, lax=lax)


def test_tile_type_validation():
    with pytest.raises(ValueError):
        TileType.make(0, "x", ("a", 3), ("b", 1), ("c", 1), ("d", 1))


def test_can_attach_single_strength_2_bond(parts):
    assert replays({(0, 0): parts["seed"], (0, 1): parts["row0"]})


def test_cannot_attach_without_neighbors(carpet, parts):
    assert not any(replays({(0, 0): parts["seed"], (1, 1): t})
                   for t in carpet.tiles)


def test_cooperative_attachment(parts):
    axes = {(0, 0): parts["seed"], (0, 1): parts["row0"],
            (1, 0): parts["col0"]}
    assert replays({**axes, (1, 1): parts["interior_111"]})
    # the same tile cannot sit on row 0: its west edge mismatches strength
    assert not replays({**axes, (0, 2): parts["interior_111"]})


def test_lax_semantics_tolerates_mismatches():
    seed = TileType.make(0, "s", ("w0", 1), ("s0", 1), ("a", 2), ("b", 2))
    right = TileType.make(1, "r", ("a", 2), ("s1", 1), ("a", 2), ("q", 1))
    up = TileType.make(2, "u", ("w1", 1), ("b", 2), ("r", 2), ("b", 2))
    # The probe at (1, 1) has a full-strength west bond to `up`, but its
    # south edge mismatches the `right` tile below.  Strict matching
    # blocks it; under lax rules the mismatch merely contributes nothing.
    probe = TileType.make(3, "x", ("r", 2), ("zz", 1), ("e", 1), ("n", 1))
    placed = {(0, 0): seed, (0, 1): right, (1, 0): up, (1, 1): probe}
    assert not replays(placed)
    assert replays(placed, lax=True)


def test_bounded_assembly_fills_small_carpet(carpet):
    asm = assemble_bounded(carpet, (3, 3), 0)
    labels = [[asm.placements[(x, y)].label for y in range(3)]
              for x in range(3)]
    assert labels == [["1", "1", "1"], ["1", "0", "2"], ["1", "2", "1"]]


def test_bounded_assembly_row_only(carpet):
    asm = assemble_bounded(carpet, (1, 7), 3)
    assert [asm.placements[(0, y)].label for y in range(7)] == ["1"] * 7


def test_single_tile_system_stalls_quietly():
    seed = TileType.make(0, "s", ("w", 1), ("s", 1), ("e", 2), ("n", 2))
    system = TileSystem((seed,), {(0, 0): seed}, 2)
    asm = assemble_bounded(system, (4, 4), 0)
    assert len(asm) == 1


def test_assembly_is_bit_reproducible(carpet):
    a = assemble_bounded(carpet, (9, 9), 42)
    b = assemble_bounded(carpet, (9, 9), 42)
    assert a.attachment_order == b.attachment_order
    assert a.id_map() == b.id_map()


def test_attachment_order_is_permutation_with_seed_first(carpet):
    asm = assemble_bounded(carpet, (6, 6), 1)
    assert sorted(asm.attachment_order) == sorted(asm.placements)
    assert asm.attachment_order[0] == (0, 0)
    assert len(set(asm.attachment_order)) == len(asm.attachment_order)


def test_replay_soundness(carpet):
    asm = assemble_bounded(carpet, (9, 9), 5)
    assert replay_is_valid(asm, 2)
    # breaking the order invalidates the replay
    asm.attachment_order[1], asm.attachment_order[-1] = \
        asm.attachment_order[-1], asm.attachment_order[1]
    assert not replay_is_valid(asm, 2)
    # an order naming a position twice re-attaches at an occupied cell
    twice = assemble_bounded(carpet, (9, 9), 5)
    twice.attachment_order.append(twice.attachment_order[-1])
    assert not replay_is_valid(twice, 2)


def test_bound_must_contain_seed(carpet):
    with pytest.raises(ValueError):
        assemble_bounded(carpet, (0, 3), 0)


def test_carpet_is_directed_empirically(carpet):
    result = is_directed_empirically(carpet, (27, 27), 10)
    assert result.directed and result.witness is None


def test_full_construction_agrees_with_pruned(carpet):
    rule = delannoy_rule(Coefficients(1, 1, 1, 3))
    full = build_full_system(rule)
    a = assemble_bounded(full, (9, 9), 8)
    b = assemble_bounded(carpet, (9, 9), 8)
    assert set(a.placements) == set(b.placements)
    for pos in a.placements:
        assert a.placements[pos].same_surface(b.placements[pos])


def ambiguous_system():
    seed = TileType.make(0, "s", ("x", 1), ("x", 1), ("r", 2), ("u", 2))
    twin_a = TileType.make(1, "a", ("r", 2), ("q", 1), ("r", 2), ("v", 1))
    twin_b = TileType.make(2, "b", ("r", 2), ("q", 1), ("r", 2), ("v", 1))
    return TileSystem((seed, twin_a, twin_b), {(0, 0): seed}, 2)


def test_ambiguous_twin_tiles_break_directedness():
    result = is_directed_empirically(ambiguous_system(), (1, 5), 20)
    assert not result.directed
    pos, a, b = result.witness
    assert pos == (0, 1) and {a, b} <= {1, 2} and a != b


def test_single_tile_system_is_directed():
    seed = TileType.make(0, "s", ("w", 1), ("s", 1), ("e", 2), ("n", 2))
    system = TileSystem((seed,), {(0, 0): seed}, 2)
    assert is_directed_empirically(system, (3, 3), 4).directed


def test_directedness_requires_two_trials(carpet):
    with pytest.raises(ValueError):
        is_directed_empirically(carpet, (3, 3), 1)


def test_strict_and_lax_agree_on_carpet(carpet):
    strict = assemble_bounded(carpet, (81, 81), 9)
    lax = assemble_bounded(carpet, (81, 81), 9, lax=True)
    assert strict.id_map() == lax.id_map()


def test_seed_tile_must_come_from_tileset():
    seed = TileType.make(0, "s", ("w", 1), ("s", 1), ("e", 2), ("n", 2))
    rogue = TileType.make(0, "t", ("w", 1), ("s", 1), ("e", 2), ("n", 1))
    with pytest.raises(ValueError):
        TileSystem((seed,), {(0, 0): rogue}, 2)


def test_assembly_grows_monotonically(carpet):
    # placements only ever accumulate along the attachment order
    asm = assemble_bounded(carpet, (5, 5), 2)
    seen = set()
    for pos in asm.attachment_order:
        assert pos not in seen
        seen.add(pos)
    assert seen == set(asm.placements)


# SHA-256 of `write_assembly` dumps of directed systems, recorded in the
# benchmark's golden file; any order seed must reproduce them.
DUMP_SHA256 = {
    "carpet-strict-81":
        "3be5e29348db5935009b4e17a12ab2546bc68bf3c51b7a9508aae667ef263af4",
    "carpet-lax-81":
        "3be5e29348db5935009b4e17a12ab2546bc68bf3c51b7a9508aae667ef263af4",
    "t131-strict-125":
        "25cc0ed366c93e60510af73c765b6361968e2b717989cf18a89af45c59a68fa2",
}


def dump_sha256(system, bound, order_seed, lax=False):
    asm = assemble_bounded(system, bound, order_seed, lax=lax)
    return hashlib.sha256(write_assembly(asm, bound).encode()).hexdigest()


@pytest.mark.parametrize("lax", [False, True], ids=["strict", "lax"])
def test_carpet_dump_digest_81(carpet, lax):
    key = "carpet-lax-81" if lax else "carpet-strict-81"
    assert dump_sha256(carpet, (81, 81), 17, lax=lax) == DUMP_SHA256[key]


def test_mod5_dump_digest_125():
    rule = delannoy_rule(Coefficients(1, 2, 2, 5))
    system = prune_reachable(build_full_system(rule), rule, (125, 125))
    assert len(system.tiles) == 131
    assert dump_sha256(system, (125, 125), 3) == DUMP_SHA256["t131-strict-125"]


# Each side of a cell: the offset to its neighbor there, and the side of
# that neighbor which faces the cell.
NEIGHBORS = {N: ((1, 0), S), S: ((-1, 0), N), E: ((0, 1), W), W: ((0, -1), E)}


def reference_attaches(placements, pos, tile, temperature, lax):
    """The documented attachment rule, edge by edge, for one tile."""
    x, y = pos
    total = 0
    for d, ((dx, dy), facing) in NEIGHBORS.items():
        neighbor = placements.get((x + dx, y + dy))
        if neighbor is None:
            continue
        if (tile.colors[d] == neighbor.colors[facing]
                and tile.strengths[d] == neighbor.strengths[facing]):
            total += tile.strengths[d]
        elif not lax:
            return False
    return total >= temperature


GLUE = st.tuples(st.sampled_from("ab"), st.integers(0, 2))


def tile_sets():
    edges = st.lists(st.tuples(GLUE, GLUE, GLUE, GLUE), min_size=1,
                     max_size=6)
    return edges.map(lambda es: tuple(TileType.make(i, f"t{i}", *e)
                                      for i, e in enumerate(es)))


@st.composite
def growth_cases(draw):
    tiles = draw(tile_sets())
    height, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    corners = [(0, 0), (0, width - 1), (height - 1, 0),
               (height - 1, width - 1)]
    cells = st.one_of(st.sampled_from(corners),
                      st.tuples(st.integers(0, height - 1),
                                st.integers(0, width - 1)))
    # The seed dict keeps the drawn order, which growth's first pass uses.
    seed = {pos: draw(st.sampled_from(tiles))
            for pos in draw(st.lists(cells, min_size=1, max_size=3,
                                     unique=True))}
    system = TileSystem(tiles, seed, draw(st.integers(1, 3)))
    return system, (height, width)


@given(growth_cases(), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=300)
def test_candidates_match_per_tile_rule(case, order_seed, lax):
    # Growth places only pairs the per-tile rule accepts, and stops only
    # when no in-bound cell accepts any tile.
    system, (height, width) = case
    temperature = system.temperature
    asm = assemble_bounded(system, (height, width), order_seed, lax=lax)
    order = asm.attachment_order
    assert asm.seed_count == len(system.seed)
    assert order[:asm.seed_count] == sorted(system.seed)
    assert len(set(order)) == len(order) and set(order) == set(asm.placements)
    partial = dict(system.seed)
    for pos in order[asm.seed_count:]:
        assert 0 <= pos[0] < height and 0 <= pos[1] < width
        tile = asm.placements[pos]
        assert reference_attaches(partial, pos, tile, temperature, lax)
        partial[pos] = tile
    empty = {(x, y) for x in range(height) for y in range(width)} - set(order)
    for pos in empty:
        assert not any(reference_attaches(asm.placements, pos, t, temperature,
                                          lax) for t in system.tiles)


@st.composite
def replay_cases(draw):
    # A hand-built assembly around an arbitrary, possibly negative, origin.
    # Each position after the first neighbors an earlier one, and its tile
    # mostly fits there, so that valid orders are common.
    tiles = draw(tile_sets())
    temperature, lax = draw(st.integers(1, 3)), draw(st.booleans())
    seed_count = draw(st.integers(0, 2))
    order = [(draw(st.integers(-10**6, 10**6)),
              draw(st.integers(-10**6, 10**6)))]
    for _ in range(draw(st.integers(0, 9))):
        x, y = draw(st.sampled_from(order))
        dx, dy = draw(st.sampled_from([d for d, _ in NEIGHBORS.values()]))
        if (x + dx, y + dy) not in order:
            order.append((x + dx, y + dy))
    placements = {}
    for step, pos in enumerate(order):
        fits = [t for t in tiles
                if reference_attaches(placements, pos, t, temperature, lax)]
        pick = fits if fits and step >= seed_count and draw(
            st.integers(0, 9)) else tiles
        placements[pos] = draw(st.sampled_from(pick))
    asm = Assembly(placements, order, min(seed_count, len(order)))
    return asm, temperature, lax


@given(replay_cases())
@settings(max_examples=300)
def test_replay_matches_per_tile_rule(case):
    asm, temperature, lax = case
    partial = {pos: asm.placements[pos]
               for pos in asm.attachment_order[:asm.seed_count]}
    expected = True
    for pos in asm.attachment_order[asm.seed_count:]:
        tile = asm.placements[pos]
        if not reference_attaches(partial, pos, tile, temperature, lax):
            expected = False
            break
        partial[pos] = tile
    assert replay_is_valid(asm, temperature, lax=lax) == expected


def full_1225_system():
    return build_full_system(delannoy_rule(Coefficients(1, 2, 2, 5)))


# SHA-256 over the lines f"{x} {y} {tile id}\n" of each attachment, in
# attachment order.  Dumps do not record the order; these pin the seeded
# draws themselves.  The twins are the benchmark's twins system.
@pytest.mark.parametrize("make, bound, order_seed, lax, expected", [
    (carpet_system, (81, 81), 17, False,
     "9657649cf6a255d8587229a84cef38d0f0ae241a225d272e32fce4fc0aff94c0"),
    (ambiguous_system, (1, 6), 5, False,
     "87905e971df06f9f3f6a6f2bef9fd85160afedfc2b9386f9569ca193af54c487"),
    (full_1225_system, (50, 40), 3, True,
     "259dee46eea2498bfd2440fae6817ff23e258332d43610cf301cca61f50b0ca5"),
], ids=["carpet-strict-81", "twins-1x6", "full-1225-lax-50x40"])
def test_attachment_order_is_pinned(make, bound, order_seed, lax, expected):
    asm = assemble_bounded(make(), bound, order_seed, lax=lax)
    digest = hashlib.sha256()
    for x, y in asm.attachment_order:
        digest.update(f"{x} {y} {asm.placements[(x, y)].id}\n".encode())
    assert digest.hexdigest() == expected


def test_growth_cap_is_checked_before_allocating(carpet):
    # the cap is 4096^2 cells; nothing near it is grown here
    assert MAX_GROWTH_CELLS == 4096 ** 2
    check_growth_bound(4096, 4096)
    check_growth_bound(1, MAX_GROWTH_CELLS)
    for bound in ((4097, 4096), (4096, 4097), (1, MAX_GROWTH_CELLS + 1)):
        with pytest.raises(ValueError, match="MAX_GROWTH_CELLS"):
            assemble_bounded(carpet, bound, 0)
    with pytest.raises(ValueError, match="MAX_GROWTH_CELLS"):
        verify_self_assembly(delannoy_rule(Coefficients(1, 1, 1, 3)),
                             (4097, 4096), 1)


def test_each_draw_is_randrange_of_the_frontier():
    # One empty cell beside the seed accepts all n candidates, which join
    # the frontier in id order, so the tile placed there is the draw.
    seed = TileType.make(0, "s", ("x", 1), ("x", 1), ("a", 2), ("x", 1))
    candidates = [TileType.make(k, "c", ("a", 2), ("y", 1), ("y", 1),
                                ("y", 1)) for k in range(1, 1101)]
    for n in range(1, 1101):
        system = TileSystem((seed, *candidates[:n]), {(0, 0): seed}, 2)
        grower = Grower(system)
        for order_seed in (0, 1, 2, 99, 2 ** 40 + 7):
            placed = grower.grow((1, 2), order_seed).placements[(0, 1)]
            assert placed.id - 1 == random.Random(order_seed).randrange(n)


def test_negative_order_seed_is_refused(carpet):
    # Random seeds an int by its absolute value, so -3 would regrow 3
    for order_seed in (-1, -3):
        with pytest.raises(ValueError, match="nonnegative"):
            assemble_bounded(carpet, (9, 9), order_seed)
    with pytest.raises(ValueError, match="nonnegative"):
        is_directed_empirically(carpet, (9, 9), 3, base_seed=-1)
    # verify refuses it before compiling: this rule cannot be evaluated
    broken = LocalRule(2, (0,), lambda west, south: 1 // 0)
    with pytest.raises(ValueError, match="nonnegative"):
        verify_self_assembly(broken, (9, 9), 3, base_seed=-1)


def test_trials_share_one_grower(carpet):
    # the profile memo filled by earlier runs leaves later draws unchanged
    grower = Grower(carpet, lax=True)
    for order_seed in (4, 5, 4):
        shared = grower.grow((20, 17), order_seed)
        fresh = assemble_bounded(carpet, (20, 17), order_seed, lax=True)
        assert shared.attachment_order == fresh.attachment_order
        assert list(shared.placements.items()) == list(
            fresh.placements.items())
