"""Abstract tile assembly model core: tiles, bonds, growth, replay.

Positions are (row, column) pairs; row increases northward and column
increases eastward, so the north neighbor of (x, y) is (x+1, y) and the
west neighbor is (x, y-1).  Two abutting edges bond only when both the
glue color and the strength match; a tile may extend an assembly when
every edge abutting an occupied cell matches and the matched strengths
sum to at least the temperature.  The laxer variant, where mismatching
edges merely contribute nothing, is available behind a flag.

Growth and replay intern each distinct glue to a small int (0 is the
empty neighbor) and test attachments with one rule over those ints.
Growth keeps the bound in one flat list with a border of sentinel cells,
each placed cell holding its tile's interned glues and index, so a cell's
neighbor profile is four list reads packed into one int memo key.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterable
from dataclasses import dataclass

from .matrix import check_cells

Position = tuple[int, int]
Glue = tuple[str, int]


@dataclass(frozen=True)
class TileType:
    """A unit square with a glue color and strength on each edge.

    `colors` and `strengths` are stored in W, S, E, N order.
    Tiles do not rotate; `id` is a stable ordinal within its system.
    """

    id: int
    label: str
    colors: tuple[str, str, str, str]
    strengths: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.colors) != 4 or len(self.strengths) != 4:
            raise ValueError("tiles carry exactly four edges")
        for s in self.strengths:
            if s not in (0, 1, 2):
                raise ValueError("edge strengths must be 0, 1, or 2")

    @classmethod
    def make(cls, tile_id: int, label: str,
             west: tuple[str, int], south: tuple[str, int],
             east: tuple[str, int], north: tuple[str, int]) -> "TileType":
        edges = (west, south, east, north)
        return cls(tile_id, label,
                   tuple(e[0] for e in edges), tuple(e[1] for e in edges))

    def same_surface(self, other: "TileType") -> bool:
        """Equality on everything observable during assembly (not the id)."""
        return (self.label == other.label and self.colors == other.colors
                and self.strengths == other.strengths)


@dataclass
class TileSystem:
    """A finite tile set, a seed placement, and the temperature."""

    tiles: tuple[TileType, ...]
    seed: dict[Position, TileType]
    temperature: int = 2

    def __post_init__(self) -> None:
        if self.temperature < 1:
            raise ValueError("temperature must be at least 1")
        ids = [t.id for t in self.tiles]
        if len(set(ids)) != len(ids):
            raise ValueError("tile ids must be unique")
        by_id = {t.id: t for t in self.tiles}
        for pos, tile in self.seed.items():
            if by_id.get(tile.id) is not tile:
                raise ValueError(f"seed tile at {pos} is not in the tile set")


@dataclass
class Assembly:
    """A partial placement of tiles with its attachment history.

    `attachment_order` lists every placed position, seed positions first;
    replaying it step by step re-validates each attachment.
    """

    placements: dict[Position, TileType]
    attachment_order: list[Position]
    seed_count: int

    @classmethod
    def from_seed(cls, seed: dict[Position, TileType]) -> "Assembly":
        order = sorted(seed)
        return cls(dict(seed), order, len(order))

    def __len__(self) -> int:
        return len(self.placements)

    def id_map(self) -> dict[Position, int]:
        return {pos: tile.id for pos, tile in self.placements.items()}

    def order_is_exact(self) -> bool:
        """True when `attachment_order` lists each placed position exactly
        once, the premise of every replay."""
        order = self.attachment_order
        return (len(order) == len(self.placements)
                and set(order) == self.placements.keys())


def _intern(tiles: Iterable[TileType]
            ) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each tile's four (color, strength) glues, W, S, E, N, as small
    ints, and the strength of each glue id.  Equal glues get equal ids;
    id 0 is the glue an empty neighbor presents, of strength 0."""
    ids: dict[Glue, int] = {}
    strength = [0]
    faces = []
    for tile in tiles:
        edges = tuple(zip(tile.colors, tile.strengths))
        for glue in edges:
            if glue not in ids:
                ids[glue] = len(strength)
                strength.append(glue[1])
        faces.append(tuple(ids[glue] for glue in edges))
    return faces, strength


def _accepts(faces: tuple[int, ...], profile: tuple[int, ...],
             strength: list[int], temperature: int, lax: bool) -> bool:
    """The attachment rule for one tile against a neighbor profile.

    `faces` are the tile's interned glues and `profile` the glues its W,
    S, E and N neighbors present (0: empty).  An edge facing a neighbor
    bonds when its glue (color and strength) equals the glue presented;
    bonded strengths must reach the temperature.  Strict semantics reject
    any facing edge that does not bond; lax semantics let it contribute
    nothing.
    """
    total = 0
    for mine, theirs in zip(faces, profile):
        if not theirs:
            continue
        if mine == theirs:
            total += strength[mine]
        elif not lax:
            return False
    return total >= temperature


# Largest bound that growth accepts.  Growth peaks at about 162 B per
# cell (tracemalloc, the carpet grown at 729 x 729), so 2^24 cells
# (4096 x 4096) take about 2.7 GB; a larger bound is refused before
# anything is allocated.
MAX_GROWTH_CELLS = 2 ** 24


def check_growth_bound(height: int, width: int) -> None:
    """Refuse a bound that `check_cells` refuses, or one over
    MAX_GROWTH_CELLS cells."""
    check_cells(height, width, "bound")
    if height * width > MAX_GROWTH_CELLS:
        raise ValueError(
            f"bound {height}x{width} exceeds MAX_GROWTH_CELLS = "
            f"{MAX_GROWTH_CELLS} cells (growth takes about 162 B per cell)")


def check_order_seed(order_seed: int) -> None:
    """Refuse a negative order seed: `random.Random` seeds an int by its
    absolute value, so -3 would grow exactly the run of 3."""
    if order_seed < 0:
        raise ValueError(f"order seed must be nonnegative, got {order_seed}")


class Grower:
    """One tile system's attachment tables, built once and shared by every
    run grown from it.

    The tiles in id order, their interned glues, per edge the tiles that
    carry each glue there, and the memo from a neighbor profile to the
    tiles it accepts, which fills as runs meet new profiles.  Candidates
    depend only on the profile, so runs sharing the memo draw exactly as
    runs that each build their own.
    """

    def __init__(self, system: TileSystem, lax: bool = False) -> None:
        self.system = system
        self.lax = lax
        self.tiles = sorted(system.tiles, key=lambda t: t.id)
        self.faces, self.strength = _intern(self.tiles)
        self.index = {t.id: k for k, t in enumerate(self.tiles)}
        # What a placed cell holds: its tile's faces, then the tile's index.
        self.held = [(*f, k) for k, f in enumerate(self.faces)]
        # Per edge, glue id -> indices of the tiles with that glue there.
        # A tile attaches only through a bond, so a profile's candidates
        # share a glue with it on some facing edge.
        self.sharing: list[dict[int, list[int]]] = [{}, {}, {}, {}]
        for k, f in enumerate(self.faces):
            for edge, glue in zip(self.sharing, f):
                edge.setdefault(glue, []).append(k)
        # Profile (packed as one int) -> indices of the tiles it accepts,
        # in id order.
        self.candidates: dict[int, tuple[int, ...]] = {}

    def _accepted(self, profile: tuple[int, ...]) -> tuple[int, ...]:
        bonding = set()
        for edge, glue in zip(self.sharing, profile):
            if glue:
                bonding.update(edge.get(glue, ()))
        faces, strength = self.faces, self.strength
        temperature, lax = self.system.temperature, self.lax
        return tuple(k for k in sorted(bonding)
                     if _accepts(faces[k], profile, strength, temperature,
                                 lax))

    def grow(self, bound: tuple[int, int], order_seed: int) -> Assembly:
        """`assemble_bounded` of this system, grown with these tables."""
        height, width = bound
        check_growth_bound(height, width)
        check_order_seed(order_seed)
        seed = self.system.seed
        for (x, y) in seed:
            if not (0 <= x < height and 0 <= y < width):
                raise ValueError("bound must contain the seed")
        getrandbits = random.Random(order_seed).getrandbits
        candidates, glues = self.candidates, len(self.strength)
        held = self.held

        # The bound with a one-cell border, row-major and flat: (x, y) is
        # cell origin + x * side + y, so divmod(cell - origin, side) is
        # (x, y), and its N, S, E and W neighbors are cell + side, - side,
        # + 1 and - 1.  A cell holds its tile's faces and index, or one of
        # two sentinels that both present glue 0; they are lists so that
        # they are distinct objects.
        side = width + 2
        origin = side + 1
        empty, border = [0] * 4, [0] * 4
        cells = [border] * (side * (height + 2))
        for x in range(height):
            cells[origin + x * side:origin + x * side + width] = [empty] * width
        for (x, y), tile in seed.items():
            cells[origin + x * side + y] = held[self.index[tile.id]]

        # The frontier as a flat list of (cell, tile index) pairs, so that
        # a uniform draw is one index, plus each frontier cell's indices
        # into it for swap-removal (None off the frontier).
        pairs: list[tuple[int, int]] = []
        slots: list[list[int] | None] = [None] * len(cells)

        def settle(cell: int) -> None:
            # Drop the pairs of `cell`, just placed (a seed has none), then
            # refresh its empty neighbors N, S, E, W: drop their pairs and
            # append those of their new profiles.  That order fixes the
            # frontier's order and so which pair each draw picks.
            for near in (cell, cell + side, cell - side, cell + 1, cell - 1):
                own = slots[near]
                if own is not None:
                    slots[near] = None
                    # Descending order: the pair moved into a freed index
                    # is never one of the cell's own.
                    for i in own if len(own) == 1 else sorted(own,
                                                              reverse=True):
                        last = pairs.pop()
                        if i < len(pairs):
                            pairs[i] = last
                            moved = slots[last[0]]
                            moved[moved.index(len(pairs))] = i
                if cells[near] is not empty:
                    continue
                w, s = cells[near - 1][2], cells[near - side][3]
                e, n = cells[near + 1][0], cells[near + side][1]
                key = ((w * glues + s) * glues + e) * glues + n
                found = candidates.get(key)
                if found is None:
                    found = candidates[key] = self._accepted((w, s, e, n))
                if len(found) == 1:  # the common case, in a directed system
                    slots[near] = [len(pairs)]
                    pairs.append((near, found[0]))
                elif found:
                    slots[near] = list(range(len(pairs),
                                             len(pairs) + len(found)))
                    pairs.extend([(near, k) for k in found])

        for (x, y) in seed:
            settle(origin + x * side + y)
        grown = array("q")  # the cells filled, in order
        while pairs:
            # Random.randrange(n), as its _randbelow draws it.
            n = len(pairs)
            bits = n.bit_length()
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            pick = pairs[r]
            cell = pick[0]
            cells[cell] = held[pick[1]]
            grown.append(cell)
            settle(cell)

        del slots[:]  # all None now; freed before the assembly is built
        assembly = Assembly.from_seed(seed)
        placements, order = assembly.placements, assembly.attachment_order
        tiles = self.tiles
        for cell in grown:
            pos = divmod(cell - origin, side)
            placements[pos] = tiles[cells[cell][4]]
            order.append(pos)
        return assembly


def assemble_bounded(system: TileSystem, bound: tuple[int, int],
                     order_seed: int, lax: bool = False) -> Assembly:
    """Grow the seed until the in-bounds frontier empties.

    Each step draws uniformly over the current frontier pairs (position,
    attachable tile) using a generator seeded by `order_seed`, a
    nonnegative int, so runs are bit-reproducible.  The bound is the
    half-open region [0, height) x [0, width).
    """
    return Grower(system, lax).grow(bound, order_seed)


@dataclass(frozen=True)
class DirectednessResult:
    directed: bool
    witness: tuple[Position, int | None, int | None] | None


def divergence(reference: dict[Position, int], run: Assembly
               ) -> tuple[Position, int | None, int | None] | None:
    """The first position (in position order) where `run` placed another
    tile than the id map `reference` names, with the two tile ids (None
    marks a position one side never filled); None where they agree."""
    current = run.id_map()
    if current != reference:
        for pos in sorted(reference.keys() | current.keys()):
            a, b = reference.get(pos), current.get(pos)
            if a != b:
                return (pos, a, b)
    return None


def is_directed_empirically(system: TileSystem, bound: tuple[int, int],
                            trials: int, base_seed: int = 0,
                            lax: bool = False) -> DirectednessResult:
    """Compare placement maps across independently seeded runs.

    Returns the first later run's divergence from run 0 (see
    `divergence`); runs are grown only up to the first that differs.
    """
    if trials < 2:
        raise ValueError("at least two trials are required")
    grower = Grower(system, lax)
    reference = grower.grow(bound, base_seed).id_map()
    for k in range(1, trials):
        witness = divergence(reference, grower.grow(bound, base_seed + k))
        if witness is not None:
            break
    return DirectednessResult(witness is None, witness)


def replay_is_valid(assembly: Assembly, temperature: int,
                    lax: bool = False) -> bool:
    """Re-validate an assembly against its own attachment order."""
    if not assembly.order_is_exact():
        return False
    order, placements = assembly.attachment_order, assembly.placements
    if not order:
        return True
    distinct = {id(t): t for t in placements.values()}
    faces, strength = _intern(distinct.values())
    faces_of = dict(zip(distinct, faces))
    # Placed cells keyed by x * side + y.  With side two more than the
    # span of the columns, the key of a position's neighbor is the key of
    # no other position.
    side = max(y for _, y in order) - min(y for _, y in order) + 2
    cells: dict[int, tuple[int, ...]] = {}
    get = cells.get
    empty = (0, 0, 0, 0)
    accepted: dict[tuple, bool] = {}
    for step, pos in enumerate(order):
        f = faces_of[id(placements[pos])]
        x, y = pos
        cell = x * side + y
        if step >= assembly.seed_count:
            profile = (get(cell - 1, empty)[2], get(cell - side, empty)[3],
                       get(cell + 1, empty)[0], get(cell + side, empty)[1])
            key = (f, profile)
            ok = accepted.get(key)
            if ok is None:
                ok = accepted[key] = _accepts(f, profile, strength,
                                              temperature, lax)
            if not ok:
                return False
        cells[cell] = f
    return True
