"""End-to-end verification: simulation vs. matrix, and growth invariants.

`verify_self_assembly` compiles a rule, simulates it under several seeds,
and checks that every run tiles the bound completely, labels every cell
with the rule's matrix value, and that all runs agree placement-for-
placement.  `check_induction_clauses` replays an assembly's attachment
history and asserts, after every step, the growth invariants that the
construction is designed to maintain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tam import (MAX_GROWTH_CELLS, Assembly, Grower, Position,
                  check_growth_bound, check_order_seed, divergence)
from .tilegen import (LocalRule, build_full_system, build_tile, label_grid,
                      prune_reachable, rule_matrix, symbol_token,
                      walk_windows)


@dataclass(frozen=True)
class ConformanceReport:
    system_id: str
    bound: tuple[int, int]
    matches: bool
    mismatch: tuple[Position, str, str | None] | None
    trials: int
    directed: bool
    directedness_witness: tuple[Position, int | None, int | None] | None = None

    @property
    def ok(self) -> bool:
        return self.matches and self.directed

    def to_lines(self) -> list[str]:
        trials = "1 trial" if self.trials == 1 else f"{self.trials} trials"
        lines = [f"system {self.system_id} on "
                 f"{self.bound[0]}x{self.bound[1]}, {trials}"]
        if self.matches:
            lines.append("labels: match the rule matrix at every cell")
        else:
            pos, expected, observed = self.mismatch
            lines.append(f"labels: MISMATCH at {pos}: expected {expected}, "
                         f"observed {observed if observed is not None else 'nothing'}")
        if self.trials == 1:
            lines.append("directedness: not compared (one trial)")
        elif self.directed:
            lines.append("directedness: all trials placed identical tiles")
        else:
            pos, a, b = self.directedness_witness
            lines.append(f"directedness: DIVERGED at {pos}: tile {a} vs {b}")
        return lines

    def to_dict(self) -> dict:
        return {
            "system": self.system_id,
            "bound": list(self.bound),
            "matches": self.matches,
            "mismatch": None if self.mismatch is None else {
                "position": list(self.mismatch[0]),
                "expected": self.mismatch[1],
                "observed": self.mismatch[2],
            },
            "trials": self.trials,
            "directed": self.directed,
            "directedness_witness": None if self.directedness_witness is None
            else {
                "position": list(self.directedness_witness[0]),
                "tile_ids": [self.directedness_witness[1],
                             self.directedness_witness[2]],
            },
        }


def compare_assembly_labels(assembly: Assembly, expected: list[list],
                            bound: tuple[int, int]
                            ) -> tuple[Position, str, str | None] | None:
    """First cell (in position order) whose label disagrees, if any.

    Each expected value is tokenized once per object: the memo maps a
    value to the first object of it met and that object's token, and
    serves only that object, so equal values that spell differently (True
    and 1) keep their own tokens."""
    height, width = bound
    get = assembly.placements.get
    tokens: dict = {}
    for x in range(height):
        row = expected[x]
        for y in range(width):
            value = row[y]
            known = tokens.get(value)
            if known is not None and known[0] is value:
                want = known[1]
            else:
                want = symbol_token(value)
                if known is None:
                    tokens[value] = (value, want)
            tile = get((x, y))
            if tile is None:
                return ((x, y), want, None)
            if tile.label != want:
                return ((x, y), want, tile.label)
    return None


def verify_self_assembly(rule: LocalRule, bound: tuple[int, int],
                         trials: int, base_seed: int = 0,
                         lax: bool = False,
                         system=None) -> ConformanceReport:
    """Simulate `trials` seeded runs and check labels plus directedness.

    When no system is supplied, the rule is compiled and pruned to the
    bound itself.  Failures are reported, never raised.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    if bound[0] < rule.n or bound[1] < rule.n:
        raise ValueError("bound must be at least n x n")
    check_growth_bound(*bound)
    check_order_seed(base_seed)
    if system is None:
        system = prune_reachable(build_full_system(rule), rule, bound)
    expected = rule_matrix(rule, bound[0], bound[1])
    grower = Grower(system, lax)
    first = grower.grow(bound, base_seed)
    mismatch = compare_assembly_labels(first, expected, bound)
    reference = first.id_map()
    del first  # only run 0's id map stays alive while the next run grows
    witness = None
    for k in range(1, trials):
        run = grower.grow(bound, base_seed + k)
        mismatch = mismatch or compare_assembly_labels(run, expected, bound)
        witness = witness or divergence(reference, run)
        del run
    return ConformanceReport(
        system_id=rule.name or f"rule-n{rule.n}-{len(rule.alphabet)}symbols",
        bound=bound, matches=mismatch is None, mismatch=mismatch,
        trials=trials, directed=witness is None,
        directedness_witness=witness)


@dataclass(frozen=True)
class ClauseResult:
    name: str
    holds: bool
    violation: tuple[int, Position, str] | None  # (step, position, detail)


@dataclass(frozen=True)
class InductionReport:
    clauses: tuple[ClauseResult, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.clauses)

    def to_lines(self) -> list[str]:
        lines = []
        for c in self.clauses:
            line = f"{c.name}: {'holds' if c.holds else 'VIOLATED'}"
            if c.violation is not None:
                step, pos, detail = c.violation
                line += f" at step {step}, position {pos}: {detail}"
            lines.append(line)
        return lines


def check_induction_clauses(assembly: Assembly, rule: LocalRule) -> InductionReport:
    """Replay the attachment order, asserting growth invariants per step.

    Checked after every step: (a) the placed region is downward-closed,
    i.e. each new position already has its west and south predecessors;
    (b) no placement has a negative coordinate; (c) tiles with an east
    strength of 2 sit in row 0; (d) tiles with a north strength of 2 sit
    in column 0; (e) each placed tile equals the compiled tile of the
    matrix window at its position.  One walk of the placements' bounding
    box yields each cell's window, compiled once per distinct window.
    Raises ValueError unless `Assembly.order_is_exact`, and on a box over
    `MAX_GROWTH_CELLS` cells, which no growth spans, before allocating.
    """
    if not assembly.order_is_exact():
        raise ValueError("the attachment order must list each placed "
                         "position exactly once")
    violations: dict[str, tuple[int, Position, str] | None] = {
        name: None for name in
        ("downward_closed", "first_quadrant_only",
         "east_strength2_in_row0", "north_strength2_in_col0",
         "tile_matches_window")}

    positions = assembly.attachment_order
    height = max(max((x for x, _ in positions), default=0) + 1, rule.n)
    width = max(max((y for _, y in positions), default=0) + 1, rule.n)
    if height * width > MAX_GROWTH_CELLS:
        raise ValueError(f"placements span a {height}x{width} box, over "
                         f"MAX_GROWTH_CELLS = {MAX_GROWTH_CELLS} cells")
    compiled: dict = {}
    tile_at = []
    for window in walk_windows(rule, label_grid(height, width)):
        tile = compiled.get(window)
        if tile is None:
            tile = compiled[window] = build_tile(rule, window)
        tile_at.append(tile)

    def record(name: str, step: int, pos: Position, detail: str) -> None:
        if violations[name] is None:
            violations[name] = (step, pos, detail)

    # Occupancy of the box; a negative position is outside it, and no
    # check reads one.
    occupied = bytearray(height * width)
    for step, pos in enumerate(positions):
        x, y = pos
        if x < 0 or y < 0:
            record("first_quadrant_only", step, pos, "negative coordinate")
            continue
        cell = x * width + y
        if step >= assembly.seed_count:
            if x > 0 and not occupied[cell - width]:
                record("downward_closed", step, pos, "south neighbor missing")
            if y > 0 and not occupied[cell - 1]:
                record("downward_closed", step, pos, "west neighbor missing")
        tile = assembly.placements[pos]
        # strengths are stored W, S, E, N
        if tile.strengths[2] == 2 and x != 0:
            record("east_strength2_in_row0", step, pos,
                   f"tile {tile.id} has a strength-2 east edge off row 0")
        if tile.strengths[3] == 2 and y != 0:
            record("north_strength2_in_col0", step, pos,
                   f"tile {tile.id} has a strength-2 north edge off column 0")
        want = tile_at[cell]
        if not tile.same_surface(want):
            record("tile_matches_window", step, pos,
                   f"placed tile {tile.id} ({tile.label}) differs from the "
                   f"window tile ({want.label})")
        occupied[cell] = 1

    return InductionReport(tuple(
        ClauseResult(name, violations[name] is None, violations[name])
        for name in violations))
