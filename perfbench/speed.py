"""Host speed probe: op latencies scaled to a fixed reference speed.

The machines this benchmark runs on share their cores with other tenants,
and a core's speed changes by up to 2x within seconds as its neighbours
come and go.  On a 2-core VM, raw `small_s` and `large_s` spread by 12-59%
between runs of 28 s (quartile distance over median), while the ratio of
an op's latency to a fixed kernel's time, taken right before and after the
op, spreads by 4-10%.  So every latency is reported at reference speed:

    scaled = raw × reference / mean(kernel before, kernel after)

The kernel is benchmark code that never calls utcat, so a change to the
program cannot move it.  Two kernels exist because the host slows
interpreter-bound and memory-bound work by different factors: `interpreter`
(a Python loop of dict updates and float arithmetic, like utcat's label
loops) and `memory` (half that loop plus one pass over a 16 MB array, for
workloads dominated by dense linear algebra on multi-MB matrices).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

LOOP = 6000            # interpreter-kernel iterations, about 1 ms
REFERENCE_S = {"interpreter": 1.0e-3, "memory": 1.25e-3}
REPEATS = 3            # kernel runs per probe; the median is kept


def _loop(n: int) -> float:
    counts, acc = {}, 0.0
    for i in range(n):
        k = i % 97
        counts[k] = counts.get(k, 0) + 1
        acc += (i * 0.5) ** 0.5
    return acc


class SpeedProbe:
    """Calling it runs the kernel `REPEATS` times and returns the median
    seconds; a latency times `reference` over that is in reference seconds."""

    def __init__(self, kind: str):
        self.reference = REFERENCE_S[kind]
        self._buf = np.ones(2_000_000) if kind == "memory" else None
        self.kernel_s = []          # every kernel median measured

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        if self._buf is None:
            _loop(LOOP)
        else:
            _loop(LOOP // 2)
            np.add(self._buf, 1.0, out=self._buf)
        return time.perf_counter() - t0

    def __call__(self) -> float:
        k = statistics.median(self._kernel() for _ in range(REPEATS))
        self.kernel_s.append(k)
        return k
