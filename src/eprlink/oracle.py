"""Ground-truth engines that validate the closed forms.

Everything here works on dense complex matrices: one density-matrix check
that hands on the state's Hermitian part, one ``einsum`` Kraus sum for the
two-qubit Pauli channels, the Bell basis as one matrix, the general
Wootters concurrence by LAPACK eigensolves (``numpy.linalg.eigh``), and a
Monte Carlo sampler that draws each sample's segment errors as an event
count and event types instead of evaluating the closed form.
States are plain ``numpy.ndarray`` density matrices (Hermitian, unit trace,
positive semidefinite up to float noise).
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple

import numpy as np

from . import _ORACLE_NAMES
from .channel import (
    ErrorDensities,
    PauliProbs,
    _as_count,
    _as_int,
    _probabilities,
    _Value,
)
from .epr import BELL_LABELS, BellDiagonal, LinkGeometry, _bell_order
from .errors import DomainError, ValidationError

__all__ = sorted(_ORACLE_NAMES)

# I, sigma_x, sigma_y, sigma_z
_PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)

# All 16 two-qubit Pauli products sigma_k (x) sigma_l, flattened k*4 + l.
_PAULI2 = np.array([np.kron(_PAULI[k], _PAULI[l]) for k in range(4) for l in range(4)])

_SIGMA_YY = np.kron(_PAULI[2], _PAULI[2]).real  # entries are real (+-1)

# Bell vectors psi+- = (|00> +- |11>)/sqrt2 and phi+- = (|01> +- |10>)/sqrt2 in the
# product basis, one per row in BELL_LABELS order, the order of (a, b, c, d).
_BELL = (1.0 / math.sqrt(2.0)) * np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=np.complex128
)

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIG_FLOOR = -1e-10


def bell_state(kind: str) -> np.ndarray:
    """Rank-1 density matrix (projector) of the Bell state kind in {psi+, psi-, phi+, phi-}."""
    if kind not in BELL_LABELS:
        raise ValidationError(f"unknown Bell state {kind!r}; expected one of {BELL_LABELS}")
    v = _BELL[BELL_LABELS.index(kind)]
    return np.outer(v, v.conj())


def validate_density_matrix(rho) -> np.ndarray:
    """Check Hermiticity (1e-12), unit trace (1e-12) and spectrum >= -1e-10.

    Returns the Hermitian part 0.5 (rho + rho^H) as a fresh complex128
    array.  The eigenvalue floor separates float noise from genuinely
    unphysical inputs.  Anything but a finite 4x4 array of numbers raises
    `ValidationError` too.
    """
    try:
        m = np.asarray(rho, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, an int past float
        raise ValidationError("density matrix must be a 4x4 array of numbers") from None
    if m.shape != (4, 4):
        raise ValidationError(f"density matrix must be 4x4, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("density matrix has non-finite entries")
    adjoint = m.conj().T
    if np.max(np.abs(m - adjoint)) > _HERMITICITY_TOL:
        raise ValidationError(f"density matrix is not Hermitian within {_HERMITICITY_TOL}")
    rho = 0.5 * (m + adjoint)
    tr = rho.trace()
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValidationError(f"density matrix trace must be 1, got {tr!r}")
    lowest = np.linalg.eigvalsh(rho)[0]
    if lowest < _EIG_FLOOR:
        raise ValidationError(f"density matrix has negative eigenvalue {lowest:.3e}")
    return rho


def apply_two_sided(r: PauliProbs, s: PauliProbs, rho) -> np.ndarray:
    """Kraus sum sum_kl r_k s_l (sigma_k (x) sigma_l) rho (sigma_k (x) sigma_l).

    The ground-truth action of independent Pauli channels on the two qubits
    of a shared pair; Hermiticity and trace are preserved exactly.  A plain
    sequence ``r`` or ``s`` is checked as `PauliProbs`.
    """
    r = r if type(r) is PauliProbs else PauliProbs(*r)
    s = s if type(s) is PauliProbs else PauliProbs(*s)
    rho = validate_density_matrix(rho)
    # the 16 weights r_k s_l against _PAULI2's products in one contraction
    return np.einsum("k,kij,jl,klm->im", np.outer(r, s).ravel(), _PAULI2, rho, _PAULI2)


def wootters_concurrence(rho) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    Builds the spin-flipped state rho~ = (sigma_y (x) sigma_y) conj(rho)
    (sigma_y (x) sigma_y) and takes the eigenvalues of rho rho~ as those of
    the Hermitian PSD matrix sqrt(rho~) rho sqrt(rho~) (the two share a
    spectrum).  With the descending square roots r_i the concurrence is
    max(0, r_1 - r_2 - r_3 - r_4), clamped to [0, 1].

    On pure and other rank-deficient states the result is accurate to about
    2e-8, not to rounding: the zero eigenvalues come out at rounding level,
    about 1e-16, and their square roots, about 1e-8 each, are subtracted
    from r_1.  No cross-check against this function can be tighter than
    about 1e-7.
    """
    rho = validate_density_matrix(rho)
    # rho~ is a signed permutation of conj(rho), so it is exactly Hermitian and
    # unitarily similar to conj(rho), whose spectrum passed the -1e-10 floor:
    # no PSD check can fire, and float noise below 0 is clamped before the root.
    rho_tilde = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    eig, v = np.linalg.eigh(rho_tilde)
    root = (v * np.sqrt(np.clip(eig, 0.0, None))) @ v.conj().T
    root = 0.5 * (root + root.conj().T)
    m = root @ rho @ root
    # ascending, so r[3] is the largest root
    r = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (m + m.conj().T)), 0.0, None))
    return min(1.0, max(0.0, float(r[3] - r[2] - r[1] - r[0])))


def bell_diagonal_project(rho) -> tuple[BellDiagonal, float]:
    """Bell-basis diagonal weights of a state plus the off-diagonal residual.

    Weights are <B_i| rho |B_i>; the residual is the Frobenius norm of
    rho minus its Bell-diagonal part (zero for any two-sided Pauli-channel
    output on a Bell state).
    """
    rho = validate_density_matrix(rho)
    # <B_i| rho |B_j>: a unitary change of basis, so it keeps the Frobenius norm
    in_bell = _BELL.conj() @ rho @ _BELL.T
    weights = in_bell.diagonal().real
    residual = float(np.linalg.norm(in_bell - np.diag(weights)))
    return BellDiagonal(*weights.tolist()), residual


class McEstimate(
    _Value, namedtuple("McEstimate", "bell_diagonal samples standard_errors geometry")
):
    """Monte Carlo estimate of the Bell weights.

    ``bell_diagonal`` (a `BellDiagonal`) holds the sample frequencies
    (integer tallies over the int ``samples``, so they sum to 1 exactly);
    ``standard_errors`` is a tuple of the four binomial standard errors of
    (a, b, c, d).  ``geometry`` (a `LinkGeometry`) holds the arm lengths
    actually sampled, n1 / segments_per_km and n2 / segments_per_km km, which
    differ from the requested ones where length * segments_per_km is not an
    integer.
    """

    __slots__ = ()


# splitmix64: the increment that spreads seeds, and the finalizer multipliers
_K0 = 0x9E3779B97F4A7C15
_K1 = np.uint64(0xBF58476D1CE4E5B9)
_K2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1
_PASS = 1 << 16  # entries of each array of one sampler pass, at most
_PLANS = 16  # link configs whose count plans `_count_plan` keeps


def _uniforms(keys):
    """53-bit uniforms z >> 11 of the splitmix64 finalizer z of uint64 ``keys``, in place."""
    keys ^= keys >> 30
    keys *= _K1
    keys ^= keys >> 27
    keys *= _K2
    keys ^= keys >> 31
    keys >>= 11
    return keys


def _binomial_cdf(m, p):
    """Start k0 of X ~ Binomial(m, p) and its CDF from there, in integers of 2**-53.

    Returns ``(k0, table)``, ``table[i]`` = P(X <= k0 + i), where
    k0 = max(0, int(mp - sqrt(84 mp))): by the Chernoff bound, less than
    e**-42 < 2**-60 of the mass lies below it.  The pmf f_k runs by its ratio
    r_k = f_(k+1)/f_k from f = 1 at k0, and the sums are divided by their
    total, so nothing underflows.  Since r_k falls with k, the mass from k on
    is at most f_k / (1 - r_k) once r_k < 1; the table ends where that is
    below 2**-53 of the sum so far, or at k = m, and its last entry is 2**53.
    """
    mean = m * p
    k0 = max(0, int(mean - math.sqrt(84.0 * mean)))
    ratio = p / (1.0 - p)
    f, total, sums = 1.0, 0.0, []
    for k in range(k0, m + 1):
        r = (m - k) / (k + 1) * ratio
        if r < 1.0 and f < (1.0 - r) * 2.0**-53 * total:
            break
        total += f
        sums.append(total)
        f *= r
    # round() ties to even, as np.rint; the last sum over the total is 1 exactly
    return k0, np.array([round(s / total * 2.0**53) for s in sums], dtype=np.uint64)


@functools.lru_cache(maxsize=_PLANS)
def _count_plan(n, t1, t2, t3):
    """The per-config constants of `_fold_tally`: ``(k0, table, idle, c1, c2)``.

    ``(k0, table)`` is `_binomial_cdf` of K ~ Binomial(n, p), p = min(t3,
    1 - t3), with the table made read-only, since every call of the config
    shares it.  At t3 <= 1/2 a draw below ``idle`` has no event and is not
    searched (none is, if k0 > 0).  An event has type 1 below ``c1``, 2 below
    ``c2`` and 3 otherwise, as u < t is u < ceil(t * 2**53).

    The `_PLANS` most recently used configs are kept, so repeated calls of
    one config build its table once; calls from several threads may share a
    plan, as nothing writes to it.  A table holds about 18 sigma uint64 entries, sigma**2 =
    np(1 - p), under 2**16 up to about 10**7 expected events a sample, so the
    cache holds at most `_PLANS` times the largest table of one call: 8 MB
    up to that size, and about half a kilobyte a plan at a few events a
    sample.
    """
    p = t3 if t3 <= 0.5 else 1.0 - t3
    k0, table = _binomial_cdf(n, p)
    table.flags.writeable = False
    idle = table[0] if k0 == 0 else np.uint64(0)
    c1, c2 = (np.uint64(math.ceil(t / t3 * 2.0**53)) for t in (t1, t2))
    return k0, table, idle, c1, c2


def _fold_tally(seed, samples, n, t1, t2, t3) -> np.ndarray:
    """Samples by the XOR fold of the error indices of their ``n`` segments.

    Returns int64 counts of the folds 0, 1, 2, 3.  A segment has error 1, 2
    or 3 with probability ``t1``, ``t2 - t1`` or ``t3 - t2``
    (0 <= t1 <= t2 <= t3 <= 1).  `monte_carlo_transmit` gives the method and
    the stream.
    """
    if n == 0 or t3 == 0.0:
        return np.array([samples, 0, 0, 0], dtype=np.int64)
    k0, table, idle, c1, c2 = _count_plan(n, t1, t2, t3)
    base = np.uint64(seed * _K0 & _MASK64)
    # rows * n < 2**64, so a pass's event total is a uint64; n < 2**64 gives rows >= 1
    rows = min(_PASS, _MASK64 // n)
    tally = np.zeros(4, dtype=np.int64)
    for lo in range(0, samples, rows):
        row = np.arange(lo, min(samples, lo + rows), dtype=np.uint64)
        row *= _K1
        row += base
        keys = step = kind = None  # free the previous pass's events before this pass's
        u = _uniforms(row.copy())
        if t3 <= 0.5:
            busy = (u >= idle).nonzero()[0]
            count = table.searchsorted(u[busy], "right").view(np.uint64)
            if k0:
                count += np.uint64(k0)
        else:
            count = np.uint64(n - k0) - table.searchsorted(u, "right").view(np.uint64)
            busy = count.nonzero()[0]
            count = count[busy]
        u = None  # the count draws, freed before the events' arrays
        tally[0] += row.size - busy.size
        # Event g of the pass is the e-th event of the busy sample whose
        # [start, end) holds it, so its key row - (e + 1)*K2 is first - g*K2.
        ends = count.cumsum()
        starts = ends - count
        first = starts - np.uint64(1)
        first *= _K2
        first += row[busy]
        fold = np.zeros(busy.size, dtype=np.uint8)
        events = int(ends[-1]) if busy.size else 0
        window, take, offsets = slice(None), count, starts  # every run whole, in one slice
        for g0 in range(0, events, _PASS):
            g1 = min(events, g0 + _PASS)
            if g1 - g0 < events:  # the samples with events in [g0, g1), runs clipped to it
                lo_g, hi_g = np.uint64(g0), np.uint64(g1)
                window = slice(ends.searchsorted(lo_g, "right"), starts.searchsorted(hi_g))
                offsets = np.maximum(starts[window], lo_g)
                take = np.minimum(ends[window], hi_g) - offsets
                offsets -= lo_g
            # runs and offsets lie within one slice, so their int64 views are the same numbers
            keys = first[window].repeat(take.view(np.int64))
            step = np.arange(g0, g1, dtype=np.uint64)
            step *= _K2
            keys -= step
            _uniforms(keys)  # the keys become their uniforms
            kind = (keys >= c1).view(np.uint8)
            kind += keys >= c2
            kind += 1
            # a sample whose events span slices folds on from where it was
            fold[window] ^= np.bitwise_xor.reduceat(kind, offsets.view(np.int64))
        tally += np.bincount(fold, minlength=4)
    return tally


def monte_carlo_transmit(
    mu: ErrorDensities,
    geom: LinkGeometry,
    segments_per_km: int,
    samples: int,
    seed: int,
) -> McEstimate:
    """Stochastic two-arm transmission: per-segment errors, tallied in the Bell basis.

    Each arm is discretized into ``round(length * segments_per_km)`` segments
    of delta = 1/segments_per_km km (an arm of positive length must round to
    at least one segment); a segment applies error i with probability
    mu_i * delta.  Error indices fold through the Klein four-group over both
    arms, and the folded index selects the received Bell state.

    The sampler draws exactly that law without walking the segments.  With
    the cumulative probabilities t1 <= t2 <= t3, a segment errs with
    probability t3, and an erring segment has error 1, 2 or 3 with
    probability t1/t3, (t2 - t1)/t3 or (t3 - t2)/t3, independently of the
    others.  So the number K of erring segments among the n = n1 + n2 of a
    sample is Binomial(n, t3), and given K their errors are K independent
    draws of that type law.  Error 0 is the fold's identity and XOR is
    commutative, so the fold is the XOR of those K types, whichever segments
    erred, on either arm.  A sample costs O(1 + n t3) draws, not O(n).

    K comes by inversion of one Binomial table in integers of 2**-53.  It
    starts where less than 2**-60 of the mass lies below (a Chernoff bound)
    and ends where less than 2**-53 is left, and its pmf runs from 1 at the
    start, so no entry underflows however many events a sample holds; past
    t3 = 1/2, K is n minus a Binomial(n, 1 - t3) draw.  The law is thus
    exact up to the 2**-53 step of the uniforms, the 2**-60 below the table
    and the rounding of its float recurrence.

    Each draw is the splitmix64 finalizer z of a 64-bit key, as
    u = (z >> 11) * 2**-53.  Sample i's keys are seed*K0 + i*K1 + j*K2
    (mod 2**64): its count draw takes column j = 0, and the type of its
    e-th event column j = -1 - e.  A draw depends only on its key, so
    a seed fixes the tallies on any host and numpy version (no
    ``numpy.random``), however a call is cut into passes; ``seed`` is any
    integer, taken mod 2**64.  Work runs in passes whose arrays hold at most
    2**16 entries each, so memory does not grow with the number of samples
    or of events in one.  Only the samples with events are folded, by XOR
    reductions over their runs of event types; the others count as fold 0,
    and at t3 <= 1/2 a draw below the first entry of a table from 0 events
    marks a sample as idle, unsearched.  The table and the type thresholds
    of a link config (n, t1, t2, t3) are its count plan, which a bounded
    cache keeps for the 16 most recently used configs, read-only, so that
    calls of one config, also from several threads, share it; nothing else
    outlives a call.

    Raises
    ------
    ValidationError
        If a plain sequence ``mu`` or ``geom`` fails the check of
        `ErrorDensities` or `LinkGeometry`; if ``seed`` is not an integer
        (``operator.index`` fails); if ``samples`` is not one in
        [1, 2**63 - 1] or ``segments_per_km`` one in [1, largest float]; if
        an arm has a positive length that rounds to zero segments, i.e. it
        is no longer than half a segment and would be sampled as noiseless;
        or if the two arms hold 2**64 or more segments, since a sample's
        event count, up to n1 + n2, is a 64-bit unsigned integer.
    DomainError
        If ``sum(mu) / segments_per_km`` exceeds 1, i.e. the discretization
        is too coarse for the requested error densities, or if ``sum(mu)``
        overflows, so that no ``segments_per_km`` is fine enough.
    """
    mu = mu if type(mu) is ErrorDensities else ErrorDensities(*mu)
    geom = geom if type(geom) is LinkGeometry else LinkGeometry(*geom)
    # 1/segments_per_km and L * segments_per_km take it as a float; the
    # tallies are int64.
    segments_per_km = _as_count(segments_per_km, "segments_per_km", 1, sys.float_info.max)
    samples = _as_count(samples, "samples", 1, (1 << 63) - 1)
    seed = _as_int(seed, "seed")
    delta = 1.0 / segments_per_km
    t1 = mu.mu1 * delta
    t2 = t1 + mu.mu2 * delta
    t3 = t2 + mu.mu3 * delta
    total = mu.mu1 + mu.mu2 + mu.mu3
    if not math.isfinite(total):
        # segments_per_km would have to pass the largest float
        raise DomainError(
            f"per-segment error probability exceeds 1 at every segments_per_km: "
            f"the error densities sum to more than {sys.float_info.max:.4g} /km"
        )
    if t3 > 1.0:
        raise DomainError(
            f"per-segment error probability {t3:.4g} exceeds 1; "
            f"increase segments_per_km above {math.ceil(total)}"
        )
    n1, n2 = (
        round(x) if math.isfinite(x) else 1 << 64
        for x in (geom.l1_km * segments_per_km, geom.l2_km * segments_per_km)
    )
    # A sample's event count, up to n1 + n2, is a uint64.
    if n1 + n2 >= 1 << 64:
        raise ValidationError(
            f"arms of {geom.l1_km!r} and {geom.l2_km!r} km hold 2**64 or more segments "
            f"at {segments_per_km} segments/km; the sampler counts a sample's events in 64 bits"
        )
    for length, n in ((geom.l1_km, n1), (geom.l2_km, n2)):
        if length > 0.0 and n == 0:
            raise ValidationError(
                f"arm length {length!r} km rounds to 0 segments at "
                f"{segments_per_km} segments/km; increase segments_per_km"
            )
    f0, f1, f2, f3 = _fold_tally(seed, samples, n1 + n2, t1, t2, t3).tolist()
    # Tallies of the folded index k XOR l, in Bell order as in epr.transmit.
    a, b, c, d = freq = _bell_order((f0 / samples, f1 / samples, f2 / samples, f3 / samples))
    return McEstimate(
        _probabilities(BellDiagonal, freq),
        samples,
        (
            math.sqrt(a * (1.0 - a) / samples),
            math.sqrt(b * (1.0 - b) / samples),
            math.sqrt(c * (1.0 - c) / samples),
            math.sqrt(d * (1.0 - d) / samples),
        ),
        LinkGeometry(n1 / segments_per_km, n2 / segments_per_km),
    )
