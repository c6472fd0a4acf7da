"""Host-speed calibration: a fixed stdlib kernel timed before every job.

On a shared host the speed this benchmark gets drifts in regimes lasting
seconds to minutes: one fixed ``poly hessian`` job, repeated for a minute
on a 2-vCPU VM, took 45-85 ms, with its thread CPU time moving with its
wall time (so the drift is not stolen time).  No run length averages that
away, and a latency percentile jumps between the regimes' values.

So the runner times ``kernel`` immediately before each job and scales the
job's time by ``REFERENCE_S / m``, where ``m`` is the median of the last
``WINDOW`` kernel times: timings are reported in seconds of a host on which
the kernel takes ``REFERENCE_S``.  The kernel is pure-Python integer
polynomial multiplication over exponent-tuple dicts, the interpreter work
polarcalc's kernel does, and uses nothing a change to polarcalc can
alter: no polarcalc code, no ``fractions``, and the garbage collector is
off while it runs, so gc settings made by the program do not reach it.
Unscaled timings stay in the run record.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import statistics
from collections import deque
from time import perf_counter_ns

# The kernel's median time on the 2-vCPU VM the bounds were set on, so that
# scaled timings there read close to wall time.
REFERENCE_S = 1.5e-3
WINDOW = 9


def _form(seed: int):
    rng = random.Random(seed)
    return {e: rng.getrandbits(48) - (1 << 47)
            for e in itertools.product(range(4), repeat=4) if sum(e) == 3}


_A, _B = _form(1), _form(2)


def kernel() -> int:
    """The gcd of the coefficients of (A * B) * A for two dense integer cubics."""
    product = _B
    for _ in range(2):
        out = {}
        for ea, ca in _A.items():
            for eb, cb in product.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                out[e] = out.get(e, 0) + ca * cb
        product = out
    g = 0
    for c in product.values():
        g = math.gcd(g, c)
    return g


class HostSpeed:
    """Recent kernel times, and the factor that scales a timing to the reference host."""

    def __init__(self):
        self.recent = deque(maxlen=WINDOW)
        self.samples = 0
        self.total_s = 0.0

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter_ns()
            kernel()
            elapsed = (perf_counter_ns() - start) / 1e9
        finally:
            if enabled:
                gc.enable()
        self.recent.append(elapsed)
        self.samples += 1
        self.total_s += elapsed
        return elapsed

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.recent)
