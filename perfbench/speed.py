"""Machine-speed reference for the benchmark's timings.

The shared 2-vCPU virtual machine the benchmark was built on changes speed
by 15-35% in phases of seconds to minutes, and CPU time tracks wall time,
so the drift is slower execution, not stolen time.  Each operation is
therefore preceded by a short fixed kernel of interpreter work, small-array
numpy and numpy on 4,096-row blocks (the block size of the library's Monte
Carlo loops) that does not touch resamplekit, and its latency is scaled to
the speed at which that kernel takes ``REFERENCE_S``:

    scaled latency = latency * REFERENCE_S / kernel time just before the op

Across runs and 20-second windows this cut the spread of the median
latency from 0.14-0.25 to 0.01-0.05 of its value.  The block part was
added when, in five-minute processes that timed the same operations against
both kernels in turn, the median latency of 20-second windows ranged over
0.17 of its value without it and over 0.08-0.10 with it (a later process
with this kernel alone: 0.15).  Raw latencies and kernel times are kept in
the result file.

The scaling holds only while the kernel measures the machine and not the
library: the kernel runs with the garbage collector off, and a run whose
kernel ran while another thread was alive is not correct.
"""

import gc
import time

import numpy as np

REFERENCE_S = 0.001
_DATA = np.random.default_rng(0).random((512, 32))
_BLOCK = np.random.default_rng(1).random((4096, 6))


def _kernel() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i
    d = {}
    for i in range(1000):
        d[i % 61] = d.get(i % 61, 0) + i
    np.argsort(_DATA, axis=1)
    np.cumsum(_DATA, axis=0)
    int((_DATA > 0.5).sum())
    b = _BLOCK
    top = np.minimum(np.maximum(b[:, 0], b[:, 1]), np.maximum(b[:, 2], b[:, 3]))
    float((top > 0.5).mean())
    b.argsort(axis=0)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds the kernel takes now: the fastest of three runs.

    The garbage collector is off meanwhile, so garbage the last operation
    left behind is not collected inside the kernel.  The caller checks
    that no other thread is alive (``threading.active_count()``).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_kernel() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


def scaled(latency: float, kernel: float) -> float:
    return latency * REFERENCE_S / kernel
