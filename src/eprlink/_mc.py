"""Hot Monte Carlo kernel for segment-by-segment channel sampling.

Randomness is a counter-based hash: every (seed, sample, segment) key
seed*K0 + sample*K1 + segment*K2 (mod 2**64) is mixed by the splitmix64
finalizer into z, and the draw is the uniform u = (z >> 11) * 2**-53.  A draw
depends only on its key, so tallies do not depend on how the work is split.

The kernel computes exactly these draws without forming u:

* u < t is the integer test z >> 11 < ceil(t * 2**53).
* The finalizer's last step z ^= z >> 31 leaves bits 33..63 unchanged, so only
  keys whose pre-image passes the same test on those bits (about a t3 share)
  can flip; the last step runs on those candidates only.
* XOR is associative, so each sample folds its error indices over all
  n1 + n2 segments at once.

Keys are hashed in blocks of at most ``_BLOCK_KEYS`` so that the working
buffers stay in cache: a block is a group of whole samples, or one slice of
a sample wider than a block.  A block runs only the hash passes and the
candidate search; it queues each candidate's finalizer input and sample
index.  When the queue of ``_TAIL_KEYS`` fills, or the worker is done, one
vectorized pass finishes the last step, XOR-folds the error indices per
sample and tallies the folds.  A sample whose candidates span two flushes
carries its partial fold into the next, so memory does not grow with the
sample width.  Samples without a nonzero fold are tallied as 0.

Every CPU in the process's affinity mask runs one worker (the calling thread
and daemon helper threads; numpy releases the GIL inside each pass, and the
queued tail keeps GIL-bound numpy calls out of the per-block loop).  Workers
claim groups of samples from one shared counter, so a core slowed by other
load takes fewer of them, and their integer tallies are summed at the end.
No flag, environment variable or parameter sets the number of workers.  Each
worker keeps one set of block buffers and one queue for the life of the
process, and one module lock guards them, so concurrent calls run one after
another.
"""

from __future__ import annotations

import itertools
import math
import os
import threading

import numpy as np

__all__ = ["bell_outcome_counts"]

# splitmix64 increment and finalizer multipliers
_K0 = 0x9E3779B97F4A7C15
_K1 = np.uint64(0xBF58476D1CE4E5B9)
_K2 = np.uint64(0x94D049BB133111EB)

_BLOCK_KEYS = 1 << 16  # 512 KiB per uint64 buffer
_TAIL_KEYS = 1 << 14  # candidates a worker queues before it tallies them
_LOW33 = (1 << 33) - 1
_MASK64 = (1 << 64) - 1

# Per-worker (z, tmp, hit) block buffers and (zc, sample) candidate queue,
# reused across calls (allocating them on every call in helper threads grows
# glibc's per-thread arenas).
_LOCK = threading.Lock()
_BUFFERS: list[tuple[np.ndarray, ...]] = []


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_buffers(count: int) -> list[tuple[np.ndarray, ...]]:
    """The first ``count`` buffer sets, allocated on first use; call under _LOCK."""
    for k in range(count):
        if (
            k == len(_BUFFERS)
            or _BUFFERS[k][0].size < _BLOCK_KEYS
            or _BUFFERS[k][3].size < _TAIL_KEYS
        ):
            buffers = (
                np.empty(_BLOCK_KEYS, dtype=np.uint64),
                np.empty(_BLOCK_KEYS, dtype=np.uint64),
                np.empty(_BLOCK_KEYS, dtype=bool),
                np.empty(_TAIL_KEYS, dtype=np.uint64),
                np.empty(_TAIL_KEYS, dtype=np.int64),
            )
            _BUFFERS[k:k + 1] = [buffers]
    return _BUFFERS[:count]


class _Tail:
    """One worker's queued candidates, and the folds of the samples it has finished.

    Candidates arrive in increasing sample order.  A flush gives each its error
    index, XOR-folds the indices per sample and tallies the folds; the last
    sample of a flush may go on in the next, so its partial fold is carried.
    """

    __slots__ = ("zc", "sample", "thresholds", "fill", "carry", "flips")

    def __init__(self, zc, sample, thresholds):
        self.zc = zc  # finalizer input of each candidate
        self.sample = sample  # and its sample index
        self.thresholds = thresholds
        self.fill = 0
        self.carry = (-1, 0)  # sample open across flushes, and its fold so far
        self.flips = np.zeros(4, dtype=np.int64)  # samples by fold; [0] is not kept

    def push(self, zb, idx, width, first):
        """Queue candidates ``idx`` of a block of ``width``-key rows from sample ``first``."""
        start = 0
        while start < idx.size:
            end = min(idx.size, start + self.zc.size - self.fill)
            stop = self.fill + end - start
            chunk = idx[start:end]
            np.take(zb, chunk, out=self.zc[self.fill:stop], mode="clip")
            sample = self.sample[self.fill:stop]
            np.floor_divide(chunk, width, out=sample)
            sample += first
            self.fill, start = stop, end
            if stop == self.zc.size:
                self.flush()

    def flush(self):
        fill, self.fill = self.fill, 0
        if not fill:
            return
        c1, c2, c3 = self.thresholds
        zc, sample = self.zc[:fill], self.sample[:fill]
        m = (zc ^ (zc >> 31)) >> 11
        # 3, 2, 1 below c3, c2, c1 (0 for candidates that do not flip)
        e = 3 * (m < c3) - (m < c2) - (m < c1)
        folds = np.bitwise_xor.reduceat(e, np.flatnonzero(np.diff(sample, prepend=-1)))
        open_sample, fold = self.carry
        if sample[0] == open_sample:
            folds[0] ^= fold
        else:
            self.flips[fold] += 1
        self.flips += np.bincount(folds[:-1], minlength=4)
        self.carry = (int(sample[-1]), int(folds[-1]))

    def counts(self, claimed):
        """Tally of ``claimed`` samples; those without a nonzero fold count as 0."""
        self.flush()
        self.flips[self.carry[1]] += 1
        self.flips[0] = claimed - self.flips[1:].sum()
        return self.flips


def _scan(template, offset, rows, first, ntot, cols, candidate, buffers, tail):
    """Hash samples ``first`` to ``first + rows - 1`` and queue their candidates.

    ``offset`` is the key of sample ``first`` at segment 0, and ``template``
    holds i*K1 + j*K2 for a block of ``rows`` x ``cols`` keys.
    """
    z, tmp, hit = buffers[:3]
    for c0 in range(0, ntot, cols):
        width = min(cols, ntot - c0)
        n = rows * width
        zb, tb, hb = z[:n], tmp[:n], hit[:n]
        np.add(template[:n], np.uint64((offset + c0 * int(_K2)) & _MASK64), out=zb)
        np.right_shift(zb, 30, out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.multiply(zb, _K1, out=zb)
        np.right_shift(zb, 27, out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.multiply(zb, _K2, out=zb)
        np.less_equal(zb, candidate, out=hb)
        tail.push(zb, np.flatnonzero(hb), width, first)


def bell_outcome_counts(seed, samples, n1, n2, t1, t2, t3) -> np.ndarray:
    """Tally of the folded two-arm error index over all samples.

    Walks ``n1`` segments on one arm and ``n2`` on the other, drawing error
    index 1, 2, 3 with probabilities ``t1``, ``t2 - t1``, ``t3 - t2`` per
    segment (0 otherwise; 0 <= t1 <= t2 <= t3 <= 1), and XOR-folds the
    indices of each sample.  Returns int64 counts indexed by the folded index
    m = k XOR l in {0, 1, 2, 3}.
    """
    counts = np.zeros(4, dtype=np.int64)
    ntot = n1 + n2
    # u < t exactly when z >> 11 < ceil(t * 2**53); the scaling is exact
    c1, c2, c3 = (np.uint64(math.ceil(t * 2.0**53)) for t in (t1, t2, t3))
    if ntot == 0 or c3 == 0:
        counts[0] = samples
        return counts
    # A flip needs z <= L = (c3 << 11) - 1.  The last finalizer step keeps
    # bits 33..63, so its input then passes the same test on those bits.
    candidate = np.uint64(((int(c3) << 11) - 1) | _LOW33)
    cols = min(ntot, _BLOCK_KEYS)
    rows = max(1, min(samples, _BLOCK_KEYS // ntot))
    # key(lo + i, c0 + j) = template[i*width + j] + key(lo, c0)
    ikey = np.arange(rows, dtype=np.uint64) * _K1
    template = (ikey[:, None] + np.arange(cols, dtype=np.uint64) * _K2).ravel()
    base = seed * _K0
    groups = itertools.count()  # next() on it is atomic under the GIL
    failures: list[BaseException] = []

    def work(buffers):
        tail = _Tail(buffers[3][:_TAIL_KEYS], buffers[4][:_TAIL_KEYS], (c1, c2, c3))
        claimed = 0
        while not failures:
            lo = next(groups) * rows
            if lo >= samples:
                break
            r = min(rows, samples - lo)
            _scan(template, base + lo * int(_K1), r, lo, ntot, cols, candidate, buffers, tail)
            claimed += r
        return tail.counts(claimed)

    def helper(buffers, parts):
        try:
            parts.append(work(buffers))
        except BaseException as exc:
            failures.append(exc)

    with _LOCK:
        buffers = _worker_buffers(min(_usable_cpus(), -(-samples // rows)))
        parts: list[np.ndarray] = []
        threads = [
            threading.Thread(target=helper, args=(b, parts), daemon=True) for b in buffers[1:]
        ]
        for thread in threads:
            thread.start()
        try:
            counts += work(buffers[0])
        except BaseException as exc:
            failures.append(exc)  # stops the helpers
            raise
        finally:
            for thread in threads:
                thread.join()
    if failures:
        raise failures[0]
    for part in parts:
        counts += part
    return counts
