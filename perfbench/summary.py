"""Sample summaries, seeded inputs and machine context for the benchmark.

Every timing the benchmark reports is built from one sample per operation,
spread bug by bug across the run: medians and percentiles of the samples,
sums of per-bug medians, and one rate over all of them.  A percentile is
only reported when at least ten samples lie beyond it (``percentile``
refuses otherwise), so a tail figure never rests on a handful of
operations.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import sys
import time
from typing import List, Sequence, Tuple

#: What :func:`calibration_s` takes on an unloaded reference host.  Times
#: are scaled by ``CALIBRATION_REF_S / median(calibration_s())`` measured
#: between the operations they belong to.
CALIBRATION_REF_S = 1.0e-3

#: A percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Distance between two seeded run-id offsets: wider than the run stream
#: any operation or workload consumes from one offset.
OFFSET_STRIDE = 100_000

#: Offsets are drawn from ``OFFSET_STRIDE * [1, OFFSET_SLOTS]``.
OFFSET_SLOTS = 100_000


def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile of ``values`` (``0 < p < 100``).

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it: p75 needs 40 samples, p90 100 and p99 1,000.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    n = len(values)
    if n * (100 - p) < MIN_BEYOND * 100:
        raise ValueError(f"p{p} needs {MIN_BEYOND} samples beyond it; "
                         f"{n} samples leave {n * (100 - p) / 100:g}")
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def percentile_or_zero(values: Sequence[float], p: int) -> float:
    """:func:`percentile`, or 0.0 for a layer that took no samples."""
    return percentile(values, p) if values else 0.0


def offsets(seed: int, bugs: int) -> List[int]:
    """One seeded run-id offset per bug.

    An offset is added to the run ids a bug's own ``workload_factory``
    receives, so the seed picks which slice of every bug's run stream the
    workload sees.  The same seed always gives the same offsets.
    """
    rng = random.Random(seed)
    return [OFFSET_STRIDE * rng.randint(1, OFFSET_SLOTS)
            for _ in range(bugs)]


def panel_offsets(seed: int, rounds: int,
                  panel: List[Tuple[int, ...]]) -> List[List[int]]:
    """Run-id offsets from a fixed panel, ``[round][bug]``.

    ``panel[b]`` holds bug ``b``'s offsets; round ``r`` gives each bug the
    next one, cycling, from a start the seed picks (one rotation per bug).
    Every seed therefore diagnoses the same runs in another order.
    """
    rng = random.Random(seed)
    rotations = [rng.randrange(len(offsets)) for offsets in panel]
    return [[offsets[(r + rotation) % len(offsets)]
             for offsets, rotation in zip(panel, rotations)]
            for r in range(rounds)]


def calibration_s(n: int = 10_000) -> float:
    """One timing of a fixed pure-Python loop shaped like an interpreter's
    inner loop (list and dict indexing, integer arithmetic)."""
    regs = [0] * 8
    table = {i: i * 7 for i in range(64)}
    start = time.perf_counter()
    for k in range(n):
        r = k & 7
        regs[r] = (regs[r] + table[k & 63]) & 0xFFFF
    return time.perf_counter() - start


def host_loop_s(reps: int = 5) -> float:
    """Median of ``reps`` long :func:`calibration_s` loops: how fast the host
    runs Python right now.  Taken before and after the measured phase, it
    lets a set recorded during a slow spell be told apart from a
    regression."""
    return statistics.median(calibration_s(200_000) for _ in range(reps))


def machine() -> dict:
    """Static facts about the host the run was measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
    }
