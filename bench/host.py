"""Host speed: a fixed pure-Python loop timed next to each measurement.

The benchmark's vCPUs share a host with other tenants, whose load slows
execution by 10-70% for stretches from under a second to minutes.
Process CPU time tracks wall time meanwhile, so the loss is in execution
speed, not in descheduling, and identical work takes 20-40% longer in
one run than in another.  Timing a fixed loop just before and after a
measurement gives the host's speed around it; scaled by
``NOMINAL_S / loop seconds``, the measured time becomes the time the
work takes when the loop runs at its nominal speed.
"""

from __future__ import annotations

import time

#: Long enough to average over the host's sub-second swings in speed.
LOOPS = 300_000

#: Seconds of ``calibrate()`` at nominal speed: its fastest runs on an
#: idle 2.1 GHz Xeon vCPU under CPython 3.11.
NOMINAL_S = 0.02


def calibrate() -> float:
    """Wall seconds of a fixed integer loop."""
    start = time.perf_counter()
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return time.perf_counter() - start


def adjusted(seconds: float, before: float, after: float) -> float:
    """``seconds`` at nominal host speed, from the loop's times around it."""
    return seconds * 2 * NOMINAL_S / (before + after)
