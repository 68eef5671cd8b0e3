#!/usr/bin/env python3
"""Window population and tile counts for the corner-recursion rules.

Shows how many distinct windows a matrix exhibits as the horizon grows,
the resulting tile counts before and after pruning, and whether the
pruned set is stable: whether pruning at one row and one column fewer
keeps the same tiles, which holds when the axis strips (the only cells
whose windows mention ⊥) hold the same windows.  The mod-3 carpet tops
out at 26 occurring windows, which is why its pruned system keeps the
four never-occurring bulk tiles to reach the classic count of 30.

The kept count is printed next to the predicted one, p^3 + 1 + |<a>| +
|<c>|: every fully defined window, the seed, and one first-row window
per power of a and one first-column window per power of c.
"""

import argparse

from fractile import (Coefficients, build_full_system, delannoy_rule,
                      horizon_is_stable, prune_reachable, scan_windows)


def powers(x: int, p: int) -> set[int]:
    """{x^j mod p : j >= 0}."""
    seen, v = set(), 1
    while v not in seen:
        seen.add(v)
        v = v * x % p
    return seen


def predicted_tiles(a: int, c: int, p: int) -> int:
    return p ** 3 + 1 + len(powers(a, p)) + len(powers(c, p))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--coeffs", type=int, nargs=4, action="append",
                        metavar=("A", "B", "C", "P"),
                        help="recursion weights and modulus (repeatable)")
    parser.add_argument("--horizons", type=int, nargs="+",
                        default=[3, 9, 27, 81, 243])
    args = parser.parse_args()
    coeff_sets = args.coeffs or [[1, 1, 1, 3], [1, 2, 2, 5], [1, 0, 1, 2]]

    for a, b, c, p in coeff_sets:
        rule = delannoy_rule(Coefficients(a, b, c, p))
        full = build_full_system(rule)
        predicted = predicted_tiles(a, c, p)
        print(f"\n{rule.name}: {len(full.tiles)} tiles before pruning")
        for side in args.horizons:
            count = len(scan_windows(rule, side, side)[1])
            pruned = prune_reachable(full, rule, (side, side))
            stable = horizon_is_stable(rule, (side, side))
            print(f"  horizon {side:>4}: {count:>3} occurring windows, "
                  f"{len(pruned.tiles):>3} tiles kept "
                  f"(predicted {predicted}), "
                  f"{'pruned set stable' if stable else 'still growing'}")


if __name__ == "__main__":
    main()
