"""Host-speed calibration: report measured times as they would read at a reference host speed.

On a VM that shares its host with other tenants the CPU runs at about half
speed for spells of seconds to minutes, so the same operation takes 2 ms in
one spell and 4 ms in the next.  Spells often last longer than a run, so
medians within a run cannot remove them.  A fixed kernel that never touches
eprlink is therefore timed before the first operation and after every
operation.  An operation that took t seconds while the kernel before and
after it took c seconds on average is reported as ``t * kernel.ref_s / c``:
its time on a host where the kernel takes ``ref_s``.  A change to eprlink
moves t and leaves c alone, so it shows in full; a slow spell moves t and c
alike, so it cancels.

Each workload uses the kernel whose work is most like its own: pure-Python
arithmetic and object churn for the closed forms, the oracle and the CLI, and
whole-array uint64 hashing for the Monte Carlo sampler, which a pure-Python
kernel over-corrects.  The array kernel tracks the sampler only in part: in
one slow spell the sampler ran at 0.74 of its speed while the kernel read
0.93.  ``ref_s`` is about the kernel's time in the fast spells of a 2-core VM
(Python 3.11, numpy 2.4), so there the scaled times read about as the raw
ones do.  Raw times go to the run record.
"""

from __future__ import annotations

import statistics
import time


class Kernel:
    def __init__(self, name, body, ref_s):
        self.name = name
        self._body = body
        self.ref_s = ref_s

    def time(self) -> float:
        start = time.perf_counter()
        self._body()
        return time.perf_counter() - start

    def median_time(self, repeats) -> float:
        return statistics.median(self.time() for _ in range(repeats))


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _python_body(loops=600):
    acc = 0.0
    seen = {}
    for i in range(loops):
        p = _Point(i * 0.5, 1.0 / (i + 1))
        x = p.x**0.5 - p.y
        seen[i & 63] = x
        acc += x if i & 1 else -x
    return acc


def _numpy_body_factory(rows=500, cols=1000):
    # Writes into arrays made once: a kernel that allocates its arrays times
    # the allocator's state, which the operation before it leaves behind.
    import numpy as np

    row_keys = np.arange(rows, dtype=np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
    col_keys = np.arange(cols, dtype=np.uint64) * np.uint64(0x94D049BB133111EB)
    z = np.empty((rows, cols), dtype=np.uint64)
    t = np.empty_like(z)
    hit = np.empty(z.shape, dtype=bool)
    mul = np.uint64(0xBF58476D1CE4E5B9)

    def body():
        with np.errstate(over="ignore"):
            np.add(row_keys[:, None], col_keys[None, :], out=z)
            np.right_shift(z, np.uint64(30), out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, mul, out=z)
            np.right_shift(z, np.uint64(11), out=t)
            np.less(t, np.uint64(1 << 51), out=hit)
            return int(np.count_nonzero(hit))

    return body


PYTHON_REF_S = 0.00028
NUMPY_REF_S = 0.0035


def python_kernel() -> Kernel:
    return Kernel("python", _python_body, PYTHON_REF_S)


def numpy_kernel() -> Kernel:
    return Kernel("numpy", _numpy_body_factory(), NUMPY_REF_S)


def scale(times, host, ref_s) -> list[float]:
    """Scale ``times[i]`` by ``ref_s`` over the mean kernel time around it.

    ``host[i]`` is the kernel time before operation i and ``host[i + 1]`` the
    one after it, so ``len(host) == len(times) + 1``.  Only these two count:
    the host's speed changes between operations often enough that wider
    neighbourhoods made the scaled ``scan`` tail less steady from run to run.
    """
    if len(host) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} kernel times, got {len(host)}")
    return [t * 2.0 * ref_s / (host[i] + host[i + 1]) for i, t in enumerate(times)]
