"""Host-speed calibration with a fixed kernel in the engine's op mix.

Shared hosts change speed by up to ~1.8x for tens of seconds at a time.  Timed
next to a measurement, the kernel tracks that speed, so the measurement over
the kernel's time, times `REF_S`, measures the code rather than the host.
"""

from time import perf_counter

import numpy as np

ITERS = 15000
# The kernel's wall time when the host runs at full speed (2 vCPU Xeon,
# Python 3.11, NumPy 2.4); it converts calibrated times back to seconds.
REF_S = 0.16


def kernel_seconds() -> float:
    """Wall time of small NumPy ops driven from Python, with a 48x64 matmul
    now and then."""
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((1, 16)), rng.standard_normal((16, 16))
    big, wb = rng.standard_normal((48, 64)), rng.standard_normal((64, 64))
    acc = 0.0
    t0 = perf_counter()
    for i in range(ITERS):
        h = np.tanh(x @ w.T + 0.1)
        acc += float(np.abs(h).sum())
        order = np.argsort(-h, axis=1, kind="stable")
        table = {j: j * i for j in range(4)}
        acc += sum(table.values()) + order[0, 0]
        if i % 20 == 0:
            acc += float((big @ wb).sum())
    return perf_counter() - t0


def calibrated(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while the kernel took `kernel_s`, in seconds at
    full host speed."""
    return REF_S * seconds / kernel_s
