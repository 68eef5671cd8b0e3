"""Abstract tile assembly model core: tiles, bonds, growth, replay.

Positions are (row, column) pairs; row increases northward and column
increases eastward, so the north neighbor of (x, y) is (x+1, y) and the
west neighbor is (x, y-1).  Two abutting edges bond only when both the
glue color and the strength match; a tile may extend an assembly when
every edge abutting an occupied cell matches and the matched strengths
sum to at least the temperature.  The laxer variant, where mismatching
edges merely contribute nothing, is available behind a flag.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .matrix import check_cells

Position = tuple[int, int]
Glue = tuple[str, int]
# The glues facing a cell from its W, S, E and N neighbors (None: empty).
Profile = tuple[Glue | None, Glue | None, Glue | None, Glue | None]


class Direction(Enum):
    N = (1, 0)
    S = (-1, 0)
    E = (0, 1)
    W = (0, -1)

    @property
    def delta(self) -> tuple[int, int]:
        return self.value

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.N: Direction.S,
    Direction.S: Direction.N,
    Direction.E: Direction.W,
    Direction.W: Direction.E,
}

# Storage order for the per-edge tuples on TileType.
EDGE_ORDER = (Direction.W, Direction.S, Direction.E, Direction.N)
_EDGE_INDEX = {d: i for i, d in enumerate(EDGE_ORDER)}
_DELTAS = tuple(d.delta for d in Direction)


@dataclass(frozen=True)
class TileType:
    """A unit square with a glue color and strength on each edge.

    `colors` and `strengths` are stored in EDGE_ORDER (W, S, E, N).
    Tiles do not rotate; `id` is a stable ordinal within its system.
    """

    id: int
    label: str
    colors: tuple[str, str, str, str]
    strengths: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.colors) != 4 or len(self.strengths) != 4:
            raise ValueError("tiles carry exactly four edges")
        if any(s not in (0, 1, 2) for s in self.strengths):
            raise ValueError("edge strengths must be 0, 1, or 2")

    @cached_property
    def edges(self) -> tuple[Glue, Glue, Glue, Glue]:
        """One (color, strength) glue per edge, in EDGE_ORDER; built on
        first use, since most tiles of a full construction never attach."""
        return tuple(zip(self.colors, self.strengths))

    def color(self, d: Direction) -> str:
        return self.colors[_EDGE_INDEX[d]]

    def strength(self, d: Direction) -> int:
        return self.strengths[_EDGE_INDEX[d]]

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


def _profile(placements: dict[Position, TileType], pos: Position) -> Profile:
    """The glue each neighbor of `pos` presents to it, per side in
    EDGE_ORDER (W, S, E, N); None where that neighbor cell is empty."""
    x, y = pos
    w = placements.get((x, y - 1))
    s = placements.get((x - 1, y))
    e = placements.get((x, y + 1))
    n = placements.get((x + 1, y))
    return (None if w is None else w.edges[2], None if s is None else s.edges[3],
            None if e is None else e.edges[0], None if n is None else n.edges[1])


def _accepts(edges: tuple[Glue, ...], profile: Profile, temperature: int,
             lax: bool) -> bool:
    """The attachment rule for one tile against a neighbor profile.

    An edge facing a neighbor bonds when its glue (color and strength)
    equals the glue presented; bonded strengths must reach the
    temperature.  Strict semantics reject any facing edge that does not
    bond; lax semantics let it contribute nothing.
    """
    total = 0
    for mine, theirs in zip(edges, profile):
        if theirs is None:
            continue
        if mine == theirs:
            total += mine[1]
        elif not lax:
            return False
    return total >= temperature


class _Candidates(dict):
    """Memo of profile -> attachable tiles (sorted by id) for one system
    under one semantics.  The candidates at a position depend only on its
    neighbor profile, so each distinct profile is scanned once."""

    def __init__(self, system: TileSystem, lax: bool):
        super().__init__()
        self.tiles = tuple(sorted(system.tiles, key=lambda t: t.id))
        self.temperature = system.temperature
        self.lax = lax

    def __missing__(self, profile: Profile) -> tuple[TileType, ...]:
        found = tuple(t for t in self.tiles
                      if _accepts(t.edges, profile, self.temperature, self.lax))
        self[profile] = found
        return found


def assemble_bounded(system: TileSystem, bound: tuple[int, int],
                     order_seed: int, lax: bool = False) -> Assembly:
    """Grow the seed until the in-bounds frontier empties.

    Each step draws uniformly over the current frontier pairs (position,
    attachable tile) using a generator seeded by `order_seed`, so runs are
    bit-reproducible.  The bound is the half-open region
    [0, height) x [0, width).
    """
    height, width = bound
    check_cells(height, width, "bound")
    for (x, y) in system.seed:
        if not (0 <= x < height and 0 <= y < width):
            raise ValueError("bound must contain the seed")
    randrange = random.Random(order_seed).randrange
    assembly = Assembly.from_seed(system.seed)
    placements = assembly.placements
    candidates = _Candidates(system, lax)

    # The frontier as a flat list of pairs, so that a uniform draw is one
    # index, plus each position's indices into it for swap-removal.
    pairs: list[tuple[Position, TileType]] = []
    slots: dict[Position, list[int]] = {}

    def drop(pos: Position) -> None:
        # Descending order: the pair moved into a freed index is never
        # one of pos's own.
        for i in sorted(slots.pop(pos), reverse=True):
            last = pairs.pop()
            if i < len(pairs):
                pairs[i] = last
                moved = slots[last[0]]
                moved[moved.index(len(pairs))] = i

    def refresh(pos: Position) -> None:
        if pos in placements or not (0 <= pos[0] < height
                                     and 0 <= pos[1] < width):
            return
        if pos in slots:
            drop(pos)
        tiles = candidates[_profile(placements, pos)]
        if tiles:
            slots[pos] = list(range(len(pairs), len(pairs) + len(tiles)))
            pairs.extend([(pos, t) for t in tiles])

    for (x, y) in placements:
        for dx, dy in _DELTAS:
            refresh((x + dx, y + dy))

    while pairs:
        pos, tile = pairs[randrange(len(pairs))]
        placements[pos] = tile
        assembly.attachment_order.append(pos)
        drop(pos)
        x, y = pos
        for dx, dy in _DELTAS:
            refresh((x + dx, y + dy))
    return assembly


@dataclass(frozen=True)
class DirectednessResult:
    directed: bool
    witness: tuple[Position, int | None, int | None] | None


def first_divergence(runs: Iterable[Assembly]
                     ) -> tuple[Position, int | None, int | None] | None:
    """Compare each later run's placements with the first run's.

    For the first run that differs, returns the first position (in
    position order) where it does, with the two tile ids (None marks a
    position one run never filled); None when every run placed the same
    tiles.  Runs are consumed only up to the first that differs.
    """
    runs = iter(runs)
    reference = next(runs).id_map()
    for run in runs:
        current = run.id_map()
        if current == reference:
            continue
        for pos in sorted(reference.keys() | current.keys()):
            a, b = reference.get(pos), current.get(pos)
            if a != b:
                return (pos, a, b)
    return None


def is_directed_empirically(system: TileSystem, bound: tuple[int, int],
                            trials: int, base_seed: int = 0,
                            lax: bool = False) -> DirectednessResult:
    """Compare placement maps across independently seeded runs.

    Returns the first position where two runs disagree, with the two tile
    ids (None marks a position one run never filled).
    """
    if trials < 2:
        raise ValueError("at least two trials are required")
    witness = first_divergence(
        assemble_bounded(system, bound, base_seed + k, lax=lax)
        for k in range(trials))
    return DirectednessResult(witness is None, witness)


def replay_is_valid(assembly: Assembly, temperature: int,
                    lax: bool = False) -> bool:
    """Re-validate an assembly against its own attachment order."""
    order = assembly.attachment_order
    placements = assembly.placements
    if len(order) != len(placements) or set(order) != placements.keys():
        return False
    partial = {pos: placements[pos] for pos in order[:assembly.seed_count]}
    for pos in order[assembly.seed_count:]:
        tile = placements[pos]
        if not _accepts(tile.edges, _profile(partial, pos), temperature, lax):
            return False
        partial[pos] = tile
    return True
