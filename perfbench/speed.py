"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other tenants, the same code can run
1.6 times slower for minutes at a time (a fixed n=800 instance took 0.33 s
in one process and 0.52 s in the next), which no amount of repetition
inside one run averages out.  A fixed pure-Python kernel, timed next to the
workload, measures the current speed: over those same runs the instance
time divided by the kernel time stayed within 5%.

Timings are therefore reported as seconds scaled to a machine on which the
kernel takes ``NOMINAL_S``: ``seconds * NOMINAL_S / kernel_seconds``.  The
kernel is benchmark code, so a change to batchfront cannot move it.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.0125  # the kernel's time on an otherwise idle 2-core container


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel: dict, tuple, sort, set and
    generator work, the operations the solvers spend their time in.

    The cyclic garbage collector is off while the kernel runs: a collection
    it triggered would cost time in proportion to everything else the
    process holds (1500 pooled instances made one kernel run 6 times
    slower), and the kernel is meant to measure the processor alone.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(20000):
            table[i] = ((i * 7919) % 1000, -i)
        ordered = sorted(table.values())
        seen = set()
        for key, _ in ordered:
            seen.add(key)
        sum(max(0, key - neg) for key, neg in ordered)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` at nominal speed, from the kernel times around it."""
    return seconds * NOMINAL_S * 2 / (kernel_before + kernel_after)
