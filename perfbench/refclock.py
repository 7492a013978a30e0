"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, which swamps the run-to-run comparison of wall
times. Every timed region is therefore bracketed by a fixed reference
loop, run in the same process just before and just after, and reported
as

    seconds = wall seconds * REF_S / mean(reference before, reference after)

that is, in seconds of a machine on which the reference loop takes
REF_S. The loop is pure Python that allocates no container objects, so
nothing tracesynth does at import time (garbage-collector settings,
caches) changes its speed; it does not touch tracesynth at all.
"""

from __future__ import annotations

import time

# Median time of reference_work on the machine the baseline in NOTES.md
# was recorded on (2 vCPU Intel Xeon at 2.1 GHz, CPython 3.11).
REF_S = 0.008


def reference_work() -> int:
    counts = {}
    total = 0
    for i in range(16000):
        key = "k%d" % (i % 131)
        counts[key] = counts.get(key, 0) + i % 7
        total += len(key) * (i & 15)
    return total + sum(sorted(counts.values())[:10])


def reference_seconds() -> float:
    """Median of three timings of reference_work."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def normalized(wall_s: float, before_s: float, after_s: float) -> float:
    """wall_s in seconds of the reference machine."""
    return wall_s * REF_S * 2 / (before_s + after_s)
