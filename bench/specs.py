"""The benchmark's workloads, as plain data the runner can read without numpy."""

from __future__ import annotations

from dataclasses import dataclass

# Worker processes a sweep uses; the runner exports it as SNIPLAB_WORKERS.
WORKERS = 2
# Snippets every workload asks for, one per planted regime.
NUM_SNIPPETS = 2


@dataclass(frozen=True)
class Spec:
    """One workload.

    ``kind`` is "discover" (one snippet search at ``lengths[0]``) or
    "sweep" (length selection over the grid ``lengths``).  Regimes
    swap every ``block_len`` points; a sweep is expected to pick the
    planted ``period``.
    """

    kind: str
    n: int
    period: int
    block_len: int
    lengths: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("discover", "sweep"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        object.__setattr__(self, "lengths", tuple(self.lengths))


WORKLOADS = {
    # 2500 segments: all n^2/m profile entries are held at once and the
    # greedy selection scans them; per-segment overhead dominates.
    "discover-m8": Spec("discover", n=20000, period=8, block_len=1024, lengths=(8,)),
    # 19 segments of 513-row distance matrices and 1026-row order
    # statistics: the distance kernel and np.partition dominate.
    "discover-m1024": Spec("discover", n=20000, period=1024, block_len=2048, lengths=(1024,)),
    # Five lengths over two worker processes: the only workload that
    # runs the scheduler and pickles results back from workers.
    "sweep-2w": Spec("sweep", n=12000, period=32, block_len=32, lengths=(8, 16, 32, 64, 128)),
}
