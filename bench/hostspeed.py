"""Host speed probes: a fixed computation timed between the measured calls.

The benchmark shares a few cores of a virtual machine with other tenants.
Their load slows every call down by a factor that drifts between about 1
and 2, in bursts that last from a fraction of a second to minutes, so two
runs of the same code a few minutes apart can differ by a quarter.  That
factor is largely common to all interpreter-bound work, so the benchmark
measures it with a probe: a fixed pure-Python walk, independent of btzeta,
run before a measured call once ``PROBE_EVERY_S`` seconds have passed since
the last probe, and around every set-up.  A call that took ``dt`` seconds
while the probes around it took ``p`` seconds on average is reported as
``dt * REFERENCE_PROBE_S / p``: the seconds the call would take on a host
where the probe takes ``REFERENCE_PROBE_S``.  A change to btzeta moves that
figure as it moves the wall time on an unloaded host; the probe never runs
btzeta code.  The correction is closest for pure-Python work such as the
path enumeration; numpy-heavy calls slow down somewhat less than the probe.
"""

from __future__ import annotations

import bisect
import random
import time

# the probe's time on the unloaded reference host (2 vCPU Intel Xeon, Python
# 3.11); it only fixes the scale, so it stays constant across commits
REFERENCE_PROBE_S = 0.016
PROBE_EVERY_S = 0.25
_PROBE_NODES = 40
_PROBE_DEPTH = 10
_rng = random.Random("host-speed-probe")
_SUCC = {v: tuple(_rng.sample(range(_PROBE_NODES), 2)) for v in range(_PROBE_NODES)}


def probe_work() -> int:
    """Rotation classes of closed walks in a fixed random 2-out digraph.

    Recursion, dict lookups and tuple building, the same kind of interpreter
    work as btzeta's own enumeration, on a fixed input.
    """
    seen: set[tuple] = set()

    def walk(start, v, depth, trail):
        for w in _SUCC[v]:
            if w == start:
                seen.add(min(tuple(trail[i:] + trail[:i]) for i in range(len(trail))))
            if depth + 1 < _PROBE_DEPTH:
                trail.append(w)
                walk(start, w, depth + 1, trail)
                trail.pop()

    for s in range(_PROBE_NODES):
        walk(s, s, 0, [s])
    return len(seen)


class HostSpeed:
    """Probe times over a run, and the scale they give each measured interval."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def probe_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Factor for an interval: reference over the mean of the probes around it.

        Those are the last probe started before ``start`` and the first one
        started after ``end``; a missing side falls back to the other.
        """
        i = bisect.bisect_right(self.starts, start) - 1
        j = bisect.bisect_left(self.starts, end)
        around = [self.durations[k] for k in (i, j) if 0 <= k < len(self.durations)]
        return REFERENCE_PROBE_S * len(around) / sum(around)
