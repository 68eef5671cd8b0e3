"""Compile local rules into temperature-2 tile systems.

A local rule determines each matrix cell from the n x n window to its
southwest, minus the cell itself: the n-1 cells directly to the west and
the n-1 rows of width n directly below, with ⊥ standing for positions
outside the first quadrant.  Every window is compiled to one tile whose
west/south glues spell the window and whose east/north glues spell the
windows of the successor cells, so cooperative temperature-2 growth
reproduces the matrix cell by cell from a single seed tile.  A window
is a plain (west, south) pair of symbol tuples.  `walk_windows` is the
one evaluation of a rule over a region: it fills a label grid in
row-major order, yielding each cell's window (read by `window_at`, one
slice per row padded with ⊥ off the quadrant) before it writes the
cell's value.  `build_tile` compiles one window.  Glue text is built
once per distinct west vector and south submatrix: `build_full_system`
shares that text across its whole domain, and only the computed cell's
token is new in each tile.

Edge strengths are 1 except on the axes: the seed bonds eastward and
northward at strength 2, first-row tiles bond east-west at strength 2,
and first-column tiles (any window with an all-⊥ west vector but a
nonempty south submatrix) bond north-south at strength 2.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Sequence

from .matrix import BOTTOM, Coefficients, check_cells
from .tam import TileSystem, TileType

_TOKEN_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")
_GLUE_SEPARATORS = re.compile(r"[(),|]")


def symbol_token(symbol) -> str:
    """Serialized form of an alphabet symbol; ⊥ serializes as '_'."""
    if symbol is BOTTOM:
        return "_"
    return str(symbol)


def _validate_symbol(symbol) -> None:
    token = symbol_token(symbol)
    if symbol is not BOTTOM and (token == "_" or not _TOKEN_RE.match(token)):
        raise ValueError(
            f"symbol {symbol!r} serializes to {token!r}, which collides "
            "with the glue syntax")


def glue_vector(symbols: Sequence) -> str:
    """Row-vector glue: comma-joined, parentheses omitted for length 1."""
    tokens = [symbol_token(s) for s in symbols]
    if len(tokens) == 1:
        return tokens[0]
    return "(" + ",".join(tokens) + ")"


def glue_rows(rows: Sequence[Sequence]) -> str:
    """Submatrix glue: rows serialized bottom-to-top, joined by '|'."""
    return "|".join(
        "(" + ",".join(symbol_token(s) for s in row) + ")"
        for row in reversed(rows))


@dataclass(frozen=True)
class LocalRule:
    """A total function from windows to the alphabet.

    `evaluate(west, south)` receives the west vector (westmost entry
    first, length n-1) and the south rows (the row directly below first,
    n-1 rows of width n ending at the target column).  A `range` of
    nonnegative integers is a valid alphabet by construction and is not
    walked, so a rule over p residues costs O(1) to build for any p.
    """

    n: int
    alphabet: tuple | range
    evaluate: Callable[[tuple, tuple], object]
    name: str = ""

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("window size must be at least 2")
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        if (isinstance(self.alphabet, range)
                and min(self.alphabet[0], self.alphabet[-1]) >= 0):
            return
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be distinct")
        for s in self.alphabet:
            _validate_symbol(s)
        tokens = [symbol_token(s) for s in self.alphabet]
        if len(set(tokens)) != len(tokens):
            raise ValueError("alphabet symbols must serialize distinctly")


def window_at(labels: Sequence[Sequence], x: int, y: int,
              n: int) -> tuple[tuple, tuple]:
    """The (west, south) window at (x, y) of a label grid that holds row
    x west of column y and the n-1 rows below it through column y.  Each
    window row is one slice of a grid row, padded with ⊥ on the west off
    the quadrant; rows below row 0 are all ⊥."""
    lo = y - n + 1
    if lo < 0:
        pad, lo = (BOTTOM,) * -lo, 0
    else:
        pad = ()
    west = pad + tuple(labels[x][lo:y])
    stop = y + 1
    south = []
    for r in range(x - 1, x - n, -1):
        south.append(pad + tuple(labels[r][lo:stop]) if r >= 0
                     else (BOTTOM,) * n)
    return west, tuple(south)


def label_grid(height: int, width: int) -> list[list]:
    """An empty height x width label grid for `walk_windows` to fill."""
    check_cells(height, width, "horizon")
    return [[None] * width for _ in range(height)]


def walk_windows(rule: LocalRule, labels: list[list]) -> Iterator[tuple]:
    """Fill a label grid with the rule's values in row-major order,
    yielding each cell's raw (west, south) window before writing the
    cell's value when resumed, so later windows read it."""
    n, evaluate = rule.n, rule.evaluate
    for x, row in enumerate(labels):
        for y in range(len(row)):
            window = window_at(labels, x, y, n)
            yield window
            row[y] = evaluate(*window)


def scan_windows(rule: LocalRule, height: int,
                 width: int) -> tuple[list[list], set]:
    """The label grid and the distinct raw (west, south) windows of its
    cells, which compare exactly as their glues do."""
    labels = label_grid(height, width)
    return labels, set(walk_windows(rule, labels))


def rule_matrix(rule: LocalRule, height: int, width: int) -> list[list]:
    """The label grid the rule fills cell by cell in row-major order."""
    labels = label_grid(height, width)
    deque(walk_windows(rule, labels), maxlen=0)
    return labels


def build_tile(rule: LocalRule, window: tuple[tuple, tuple],
               tile_id: int = 0) -> TileType:
    """Compile one (west, south) window into a tile.

    The west/south glues serialize the window itself; the east glue is
    the west vector shifted by the freshly computed cell, and the north
    glue is the south submatrix with the completed row pushed on top.
    """
    west, south = window
    n = rule.n
    if (len(west) != n - 1 or len(south) != n - 1
            or any(len(row) != n for row in south)):
        raise ValueError("window must have n-1 west cells and n-1 south "
                         "rows of width n")
    return _compile(rule, west, south, tile_id, ({}, {}, {}))


def _west_text(west: tuple) -> tuple[str, str, str, bool]:
    """The west glue; the completed row and the east glue up to the
    computed cell's token, which a ')' follows (an empty east head: the
    east glue is the bare token); and whether the vector is all ⊥."""
    tokens = [symbol_token(s) for s in west]
    east_head = "(" + ",".join(tokens[1:]) + "," if len(tokens) > 1 else ""
    return (glue_vector(west), "(" + ",".join(tokens) + ",", east_head,
            all(s is BOTTOM for s in west))


def _south_text(south: tuple) -> tuple[str, str, bool]:
    """The south glue; the north glue up to the completed row (the south
    rows it keeps, each followed by '|'); and whether the submatrix is
    all ⊥."""
    kept = south[:-1]
    return (glue_rows(south), glue_rows(kept) + "|" if kept else "",
            all(s is BOTTOM for row in south for s in row))


def _compile(rule: LocalRule, west: tuple, south: tuple, tile_id: int,
             memo: tuple[dict, dict, dict]) -> TileType:
    """`build_tile` of a well-formed window.  `memo` holds the text of
    each west vector and south submatrix already compiled.  Its keys
    must compare equal only when they serialize alike: a shared memo
    sees only the domain's symbols, which are pairwise unequal, and a
    fresh one a single window.  The computed cell is tokenized afresh
    and never a key, since it may equal an alphabet symbol that
    serializes differently (True and 1).  Such a cell is refused, since
    its glues would spell no symbol of the domain.  `memo` also maps each
    token already checked to the type of the cell that spelled it: a
    later cell of that type and token is the same symbol again."""
    wests, souths, spelled = memo
    w = wests.get(west)
    if w is None:
        w = wests[west] = _west_text(west)
    s = souths.get(south)
    if s is None:
        s = souths[south] = _south_text(south)
    west_glue, row_head, east_head, west_bottom = w
    south_glue, north_head, south_bottom = s
    b = rule.evaluate(west, south)
    token = symbol_token(b)
    if spelled.get(token) is not type(b):
        try:
            symbol = rule.alphabet[rule.alphabet.index(b)]
        except ValueError:
            raise ValueError(f"rule produced {b!r} at window "
                             f"{(west, south)}, which is not in its "
                             "alphabet") from None
        if symbol_token(symbol) != token:
            raise ValueError(f"rule produced {b!r} at window "
                             f"{(west, south)}, which spells {token!r} where "
                             f"its alphabet symbol spells "
                             f"{symbol_token(symbol)!r}")
        spelled[token] = type(b)
    east_glue = east_head + token + ")" if east_head else token
    north_glue = north_head + row_head + token + ")"

    strength_w = strength_s = strength_e = strength_n = 1
    if south_bottom and west_bottom:
        strength_e = strength_n = 2
    elif south_bottom:
        strength_w = strength_e = 2
    elif west_bottom:
        strength_s = strength_n = 2
    return TileType(tile_id, token,
                    (west_glue, south_glue, east_glue, north_glue),
                    (strength_w, strength_s, strength_e, strength_n))


def _domain_windows(rule: LocalRule):
    symbols = (BOTTOM, *rule.alphabet)
    n = rule.n
    for west in product(symbols, repeat=n - 1):
        for south in product(product(symbols, repeat=n), repeat=n - 1):
            yield west, south


# Largest domain `build_full_system` compiles, refused before any window
# is enumerated: a tile takes about 0.5 KB and 5 us (p = 47: 52 MB traced,
# 0.4-0.7 s on a Xeon vCPU), and p = 97 read 5.0 s and 501 MB of RSS.
MAX_WINDOWS = 10 ** 6


def build_full_system(rule: LocalRule) -> TileSystem:
    """One tile per window in the rule's domain; temperature 2.

    Windows are enumerated lexicographically with ⊥ ordered before every
    alphabet symbol, which fixes the tile ids and makes the all-⊥ seed
    window tile 0.
    """
    count = (len(rule.alphabet) + 1) ** (rule.n * rule.n - 1)
    if count > MAX_WINDOWS:
        raise ValueError(
            f"domain has {count} windows, over the budget of {MAX_WINDOWS}")
    memo: tuple[dict, dict, dict] = ({}, {}, {})
    tiles = tuple(_compile(rule, west, south, tile_id, memo)
                  for tile_id, (west, south)
                  in enumerate(_domain_windows(rule)))
    return TileSystem(tiles, {(0, 0): tiles[0]}, 2)


def _axis_windows(rule: LocalRule, height: int, width: int) -> set:
    """Raw windows of the first n-1 rows and columns: exactly the windows
    that mention ⊥, and each strip depends on nothing outside itself."""
    return (scan_windows(rule, min(rule.n - 1, height), width)[1]
            | scan_windows(rule, height, min(rule.n - 1, width))[1])


def prune_reachable(system: TileSystem, rule: LocalRule,
                    horizon: tuple[int, int]) -> TileSystem:
    """Drop boundary tiles whose windows never occur within the horizon.

    Tiles for fully defined windows are kept unconditionally; they are
    the generic bulk of the construction, and an interior attachment
    requires both the west and south glues to match, which already pins
    the tile to a window of the matrix.  Tiles whose windows mention ⊥
    are kept only if the window occurs in the horizon's axis strips.
    Kept tiles are renumbered consecutively in their original order.
    """
    occurring = {(glue_vector(west), glue_rows(south))
                 for west, south in _axis_windows(rule, *horizon)}
    # The west and south glues that mention ⊥, each glue read once.
    glues = {glue for tile in system.tiles for glue in tile.colors[0:2]}
    with_bottom = {glue for glue in glues
                   if "_" in _GLUE_SEPARATORS.split(glue)}
    kept = []
    seed_tile = None
    seed_keys = {t.colors[0:2] for t in system.seed.values()}
    for tile in system.tiles:
        key = tile.colors[0:2]
        if key not in occurring and not with_bottom.isdisjoint(key):
            continue
        new_tile = TileType(len(kept), tile.label, tile.colors,
                            tile.strengths)
        kept.append(new_tile)
        if key in seed_keys:
            seed_tile = new_tile
    if seed_tile is None:
        raise ValueError("pruning removed the seed tile")
    seed = {pos: seed_tile for pos in system.seed}
    return TileSystem(tuple(kept), seed, system.temperature)


def horizon_is_stable(rule: LocalRule, horizon: tuple[int, int]) -> bool:
    """True when the axis strips at (h, w) and (h-1, w-1) hold the same
    windows.  Pruning keeps every fully defined tile, so this says that
    pruning at one row and one column fewer keeps the same tiles.  Only
    the strips are scanned: O(h + w)."""
    h, w = horizon
    return h >= 2 and w >= 2 and (_axis_windows(rule, h, w)
                                  == _axis_windows(rule, h - 1, w - 1))


def delannoy_rule(coeffs: Coefficients) -> LocalRule:
    """The three-neighbor corner recursion as an n = 2 local rule.

    ⊥ neighbors contribute nothing; the all-⊥ window yields 1, matching
    the recursion's corner value.
    """
    a, b, c, p = coeffs.a, coeffs.b, coeffs.c, coeffs.p

    def evaluate(west: tuple, south: tuple):
        (w,) = west
        ((sw, s),) = south
        if w is BOTTOM and sw is BOTTOM and s is BOTTOM:
            return 1
        total = 0
        if w is not BOTTOM:
            total += a * w
        if sw is not BOTTOM:
            total += b * sw
        if s is not BOTTOM:
            total += c * s
        return total % p

    return LocalRule(2, range(p), evaluate,
                     name=f"corner-recursion-a{a}-b{b}-c{c}-mod{p}")


def carpet_system() -> TileSystem:
    """The explicit 30-tile system for the mod-3 Sierpinski carpet.

    Hand-rolled rather than compiled: a seed, one first-row tile, one
    first-column tile, and 27 interior tiles, one per west/southwest/south
    value combination (x, y, z) with cell value w = x + y + z mod 3.
    Ids follow the compiled enumeration order (⊥ before residues), so
    this set is glue-for-glue the pruned compiled system.
    """
    tiles: list[TileType] = []

    def add(label: str, west, south, east, north) -> None:
        tiles.append(TileType.make(len(tiles), label, west, south, east, north))

    def interior_block(x: int) -> None:
        for y in range(3):
            for z in range(3):
                w = (x + y + z) % 3
                add(str(w),
                    west=(str(x), 1), south=(f"({y},{z})", 1),
                    east=(str(w), 1), north=(f"({x},{w})", 1))

    add("1", west=("_", 1), south=("(_,_)", 1),
        east=("1", 2), north=("(_,1)", 2))        # seed
    add("1", west=("_", 1), south=("(_,1)", 2),
        east=("1", 1), north=("(_,1)", 2))        # first column
    interior_block(0)
    add("1", west=("1", 2), south=("(_,_)", 1),
        east=("1", 2), north=("(1,1)", 1))        # first row
    interior_block(1)
    interior_block(2)

    return TileSystem(tuple(tiles), {(0, 0): tiles[0]}, 2)
