#!/usr/bin/env python3
"""Compare two ways of splitting priced jobs across workers ahead of time.

The largest-differencing method (Karmarkar-Karp) usually balances the
per-worker sums tighter than the greedy longest-processing-time rule.
On near-equal weights, such as the operation-count estimate of every
length on a pow2 grid, both rules reach the same spread.

    python3 demos/05_balancing.py
"""

from sniplab import default_cost, kk_partition, lpt_partition


def spread(schedule):
    return max(schedule.predicted_loads) - min(schedule.predicted_loads)


def compare(weights, workers):
    kk = kk_partition(weights, workers)
    lpt = lpt_partition(weights, workers)
    print(f"  {workers} workers: kk spread {spread(kk):.3g}, "
          f"lpt spread {spread(lpt):.3g}")


def main():
    # --- the textbook example ---------------------------------------------
    weights = [8.0, 7.0, 6.0, 5.0, 4.0]
    for name, fn in (("kk ", kk_partition), ("lpt", lpt_partition)):
        schedule = fn(weights, 2)
        print(f"{name}: loads {list(schedule.predicted_loads)}, "
              f"spread {spread(schedule):g}")
    print()

    # --- flat weights: the operation-count estimate of a pow2 grid --------
    # Every length costs about n^2 / 2 distance entries, whatever m is.
    n = 200_000
    grid = [2 ** e for e in range(5, 13)]
    costs = [default_cost(n, m, m // 2) for m in grid]
    print("grid:", grid)
    print("estimated costs (billions):", [round(c / 1e9, 2) for c in costs])
    for workers in (2, 4):
        compare(costs, workers)
    print()

    # --- uneven weights ---------------------------------------------------
    uneven = [72, 94, 88, 51, 94, 97, 97, 9, 45, 61]
    print("uneven weights:", uneven)
    for workers in (2, 3, 4):
        compare(uneven, workers)
    print()

    print("a sweep does not split its lengths ahead of time: run_schedule")
    print("hands them, largest first, to its own process and the workers")
    print("from a work queue, so each idle process takes the next length")
    print("whatever the lengths really cost")


if __name__ == "__main__":
    main()
