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

Keys are processed in blocks of about ``_BLOCK_KEYS`` so that the working
buffers stay in cache.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bell_outcome_counts"]

# splitmix64 increment and finalizer multipliers
_K0 = 0x9E3779B97F4A7C15
_K1 = np.uint64(0xBF58476D1CE4E5B9)
_K2 = np.uint64(0x94D049BB133111EB)

_BLOCK_KEYS = 1 << 16  # 512 KiB per uint64 buffer
_LOW33 = (1 << 33) - 1


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
    rows = max(1, min(samples, _BLOCK_KEYS // ntot))
    z = np.empty((rows, ntot), dtype=np.uint64)
    tmp = np.empty_like(z)
    hit = np.empty(z.shape, dtype=bool)
    jkey = np.arange(ntot, dtype=np.uint64) * _K2
    base = np.uint64(int(seed) * _K0 % (1 << 64))
    for lo in range(0, samples, rows):
        r = min(rows, samples - lo)
        zb, tb, hb = z[:r], tmp[:r], hit[:r]
        ikey = np.arange(lo, lo + r, dtype=np.uint64) * _K1 + base
        np.add(ikey[:, None], jkey, out=zb)
        np.right_shift(zb, 30, out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.multiply(zb, _K1, out=zb)
        np.right_shift(zb, 27, out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.multiply(zb, _K2, out=zb)
        np.less_equal(zb, candidate, out=hb)
        idx = np.flatnonzero(hb)
        zc = zb.ravel()[idx]
        m = (zc ^ (zc >> 31)) >> 11
        # 3, 2, 1 below c3, c2, c1 (0 for candidates that do not flip)
        e = 3 * (m < c3) - (m < c2) - (m < c1)
        parity = np.bincount(idx // ntot * 4 + e, minlength=4 * r).reshape(r, 4) & 1
        fold = parity[:, 1] ^ (parity[:, 2] << 1) ^ (parity[:, 3] * 3)
        counts += np.bincount(fold, minlength=4)
    return counts
