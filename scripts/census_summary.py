#!/usr/bin/env python3
"""Print a one-line census summary per ground size: the exhaustive
maximum of |A| + |B| over cross-intersecting antichain pairs, how many
pairs attain it and the optimum-1 value, and how these reduce under
ground-set permutations."""

import argparse
import time

from sperner.verifier import MAX_ENUMERATION, max_cross_sum, max_sum_formula


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=MAX_ENUMERATION,
                        choices=range(3, MAX_ENUMERATION + 1))
    args = parser.parse_args()
    for n in range(3, args.max_n + 1):
        t0 = time.monotonic()
        census = max_cross_sum(n)
        elapsed = time.monotonic() - t0
        print(f"n={n}: optimum {census.optimum} (formula {max_sum_formula(n)}), "
              f"pairs at optimum {census.ordered_count_optimum} ordered / "
              f"{len(census.optimum_pairs)} classes, "
              f"at optimum-1 {census.ordered_count_near} ordered / "
              f"{len(census.near_optimum_pairs)} classes "
              f"({elapsed:.2f}s)")


if __name__ == "__main__":
    main()
