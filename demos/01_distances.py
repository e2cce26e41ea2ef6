#!/usr/bin/env python3
"""Walk through the distance layer: z-normalized distance rows and the
MPdist profile of a single segment.

Run from the repo root after installing the package:

    python3 demos/01_distances.py
"""

import numpy as np

from sniplab import (
    MPdistParams,
    TimeSeries,
    compute_sliding_stats,
    distance_row,
    mpdist_profile,
)


def main():
    rng = np.random.default_rng(7)

    # --- z-normalized distance ignores offset and scale -------------------
    # Lay a window a and a transformed copy b end to end: the distance row
    # of the window at 0 holds distance(a, b) at entry len(a).  The copy
    # 3a + 100 reads exactly 0; -a reads the largest distance.
    a = rng.standard_normal(16)
    for name, b in (("3a + 100", 3.0 * a + 100.0), ("-a", -a)):
        pair = TimeSeries(np.concatenate([a, b]))
        row = distance_row(pair, compute_sliding_stats(pair, a.size), 0, 0, a.size)
        print(f"distance(a, {name}) =".ljust(24) + repr(float(row.entries[a.size])))
    print("(the maximum possible value for length 16 is sqrt(4*16) = 8)")
    print()

    # --- one row of the all-pairs distance matrix -------------------------
    # Row r holds the distances from the window starting at r to every
    # window of the series; a window's own entry is exactly 0.
    series = TimeSeries(rng.standard_normal(200))
    stats = compute_sliding_stats(series, window_len=12)
    row = distance_row(series, stats, 0, 5, 12)
    print("self distance (entry 5):", row.entries[5])
    others = np.delete(row.entries, 5)
    print(f"other windows: min {others.min():.3f}, max {others.max():.3f}")
    print()

    # --- MPdist profile of a segment --------------------------------------
    # Segment 0 is the first m points. Its profile holds one MPdist value
    # per window of the whole series: small where the series looks like the
    # segment, large where it does not.
    m = 32
    sine = np.sin(2 * np.pi * np.arange(320) / m)
    sine[160:] = rng.standard_normal(160)
    profile = mpdist_profile(TimeSeries(sine), 0, MPdistParams(snippet_size=m))
    print("profile over the sine half  (first 129 windows):",
          f"mean {profile.values[:129].mean():.3f}")
    print("profile over the noise half (last 128 windows): ",
          f"mean {profile.values[161:].mean():.3f}")
    print("the segment recognizes its own regime and rejects the other")


if __name__ == "__main__":
    main()
