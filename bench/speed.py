"""Machine-speed probe: scales measured times to a fixed reference speed.

The benchmark was defined on a shared 2-CPU box whose speed drifts with the
load of its neighbours, by up to 1.7x over seconds to minutes; the probe below
took from 39 to 67 microseconds at different times of one afternoon.  The
probe is a fixed pure-Python graph search, a mix of set, list and small-int
work like lctw's own.  It shares no code with lctw, so a change to lctw cannot
change it.

Campaign times are multiplied by ``scale(probes)``, REFERENCE_PROBE_S over the
median time of the probes run next to them: a time measured while the machine
ran slow is scaled down.  Over five seeds of the exhaustive workload, whose
corpus does not change with the seed, serial graphs/s spread by 36% raw and
by 4% scaled (quartile distance over median).
"""

from __future__ import annotations

import gc
import statistics
import time

# Typical probe time on the 2-CPU box the benchmark was defined on.
REFERENCE_PROBE_S = 50e-6

# A fixed 24-vertex graph of degree at most 4.
_ADJ = tuple(((v * 7 + 3) % 24, (v * 5 + 1) % 24, (v + 1) % 24, (v * 11 + 5) % 24) for v in range(24))


def _components_after_cuts() -> int:
    total = 0
    for cut in range(0, 24, 3):
        seen = {cut}
        for start in range(24):
            if start in seen:
                continue
            total += 1
            seen.add(start)
            stack = [start]
            while stack:
                for w in _ADJ[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return total


def probe() -> float:
    """Seconds the probe takes now: the second of two runs, with the collector off,
    so that neither cold caches nor the size of the caller's heap count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _components_after_cuts()
        started = time.perf_counter()
        _components_after_cuts()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def probe_block(count: int = 25) -> list[float]:
    return [probe() for _ in range(count)]


def scale(probes: list[float]) -> float:
    return REFERENCE_PROBE_S / statistics.median(probes)


def local_scales(probes: list[float], half_window: int = 10) -> list[float]:
    """Per sample, the scale from the probes within ``half_window`` samples of it."""
    return [scale(probes[max(0, i - half_window) : i + half_window + 1]) for i in range(len(probes))]
