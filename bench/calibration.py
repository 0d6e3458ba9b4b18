"""A fixed pure-Python kernel that gauges how fast the host runs right now.

The reference machine is a shared VM that spends stretches of seconds to
minutes at about half speed, whatever this process does.  Timing this kernel
next to each query and dividing by it takes the host's speed out of the
figure.  The kernel uses only the standard library (exact `Fraction`
arithmetic, tuples and a dict, like `mpp`), so no change to `mpp` moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the kernel's time on the reference machine when undisturbed.  A
# time divided by the kernel time measured next to it, times this, reads as
# seconds on a host where the kernel takes exactly this long.
REFERENCE_S = 0.001


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        acc += Fraction(i % 13 + 1, i % 97 + 1)
        seen[(i, i % 7)] = acc
    return time.perf_counter() - t0
