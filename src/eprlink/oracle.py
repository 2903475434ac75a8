"""Ground-truth engines that validate the closed forms.

Everything here works on dense complex matrices: one check that admits a
square, finite, Hermitian matrix and hands on its Hermitian part, one
``einsum`` Kraus sum for the one- and two-qubit Pauli channels, the Bell
basis as one matrix, Hermitian eigensolves by LAPACK (``numpy.linalg.eigh``),
the general Wootters concurrence, and a Monte Carlo sampler that draws
segment errors stochastically instead of evaluating the closed form.
States are plain ``numpy.ndarray`` density matrices (Hermitian, unit trace,
positive semidefinite up to float noise).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import numpy as np

from . import _mc
from .channel import ErrorDensities, PauliProbs, _as_count, _as_int, _Value
from .epr import BELL_LABELS, BellDiagonal, LinkGeometry, _bell_order
from .errors import DomainError, ValidationError

__all__ = [
    "PAULI",
    "McEstimate",
    "bell_state",
    "bell_vector",
    "apply_single_qubit_pauli",
    "apply_two_sided",
    "hermitian_eigenvalues",
    "psd_sqrt",
    "wootters_concurrence",
    "bell_diagonal_project",
    "validate_density_matrix",
    "monte_carlo_transmit",
]

# I, sigma_x, sigma_y, sigma_z
PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)

# All 16 two-qubit Pauli products sigma_k (x) sigma_l, flattened k*4 + l.
_PAULI2 = np.array([np.kron(PAULI[k], PAULI[l]) for k in range(4) for l in range(4)])

_SIGMA_YY = np.kron(PAULI[2], PAULI[2]).real  # entries are real (+-1)

# Bell vectors psi+- = (|00> +- |11>)/sqrt2 and phi+- = (|01> +- |10>)/sqrt2 in the
# product basis, one per row in BELL_LABELS order, the order of (a, b, c, d).
_BELL = (1.0 / math.sqrt(2.0)) * np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=np.complex128
)

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIG_FLOOR = -1e-10


def bell_vector(kind: str) -> np.ndarray:
    """State vector of the requested Bell state; kind in {psi+, psi-, phi+, phi-}."""
    if kind not in BELL_LABELS:
        raise ValidationError(f"unknown Bell state {kind!r}; expected one of {BELL_LABELS}")
    return _BELL[BELL_LABELS.index(kind)].copy()


def bell_state(kind: str) -> np.ndarray:
    """Rank-1 density matrix (projector) of the requested Bell state."""
    v = bell_vector(kind)
    return np.outer(v, v.conj())


def _hermitian_part(m, dim: int | None = None) -> np.ndarray:
    """0.5 (m + m^H) of a non-empty, finite square matrix, Hermitian within tolerance.

    With ``dim`` the matrix is a density matrix: it must be dim x dim and
    Hermitian within 1e-12.  Without it any square matrix passes that is
    Hermitian within 1e-10 relative to its Frobenius norm (at least 1).
    """
    m = np.asarray(m, dtype=np.complex128)
    what = "matrix" if dim is None else "density matrix"
    if m.ndim != 2 or m.shape[0] != m.shape[1] or dim not in (None, m.shape[0]) or not m.size:
        size = "a non-empty square" if dim is None else f"{dim}x{dim}"
        raise ValidationError(f"{what} must be {size}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{what} has non-finite entries")
    tol = _HERMITICITY_TOL if dim is not None else 1e-10 * max(1.0, float(np.linalg.norm(m)))
    adjoint = m.conj().T
    if np.max(np.abs(m - adjoint)) > tol:
        raise ValidationError(f"{what} is not Hermitian within {tol}")
    return 0.5 * (m + adjoint)


def validate_density_matrix(rho, dim: int = 4) -> np.ndarray:
    """Check Hermiticity (1e-12), unit trace (1e-12) and spectrum >= -1e-10.

    Returns the Hermitian part 0.5 (rho + rho^H) as a fresh complex128
    array.  The eigenvalue floor separates float noise from genuinely
    unphysical inputs.
    """
    rho = _hermitian_part(rho, dim)
    tr = rho.trace()
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValidationError(f"density matrix trace must be 1, got {tr!r}")
    lowest = np.linalg.eigvalsh(rho)[0]
    if lowest < _EIG_FLOOR:
        raise ValidationError(f"density matrix has negative eigenvalue {lowest:.3e}")
    return rho


def _kraus(weights, ops, rho) -> np.ndarray:
    # sum_k weights_k ops_k rho ops_k in one contraction
    return np.einsum("k,kij,jl,klm->im", weights, ops, rho, ops)


def apply_single_qubit_pauli(p: PauliProbs, rho) -> np.ndarray:
    """Kraus sum sum_k p_k sigma_k rho sigma_k on a single-qubit density matrix."""
    return _kraus(p, PAULI, validate_density_matrix(rho, dim=2))


def apply_two_sided(r: PauliProbs, s: PauliProbs, rho) -> np.ndarray:
    """Kraus sum sum_kl r_k s_l (sigma_k (x) sigma_l) rho (sigma_k (x) sigma_l).

    The ground-truth action of independent Pauli channels on the two qubits
    of a shared pair; Hermiticity and trace are preserved exactly.
    """
    return _kraus(np.outer(r, s).ravel(), _PAULI2, validate_density_matrix(rho, dim=4))


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by LAPACK (``numpy.linalg.eigvalsh``), descending.

    The input must be finite and Hermitian within 1e-10.
    """
    return np.linalg.eigvalsh(_hermitian_part(m))[::-1].copy()


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root V sqrt(diag) V^H of a positive semidefinite matrix.

    The input must be finite and Hermitian within 1e-10.  Eigenvalues below
    -1e-8 are rejected; small negatives (float noise) are clamped to zero
    before the root.
    """
    eig, v = np.linalg.eigh(_hermitian_part(m))
    if eig[0] < -1e-8:
        raise ValidationError(f"matrix is not PSD: eigenvalue {eig[0]:.3e}")
    roots = np.sqrt(np.clip(eig, 0.0, None))
    out = (v * roots) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def wootters_concurrence(rho) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    Builds the spin-flipped state rho~ = (sigma_y (x) sigma_y) conj(rho)
    (sigma_y (x) sigma_y) and takes the eigenvalues of rho rho~ as those of
    the Hermitian PSD matrix sqrt(rho~) rho sqrt(rho~) (the two share a
    spectrum).  With the descending square roots r_i the concurrence is
    max(0, r_1 - r_2 - r_3 - r_4), clamped to [0, 1].
    """
    rho = validate_density_matrix(rho, dim=4)
    rho_tilde = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    root = psd_sqrt(rho_tilde)
    m = root @ rho @ root
    eig = hermitian_eigenvalues(0.5 * (m + m.conj().T))
    r = np.sqrt(np.clip(eig, 0.0, None))
    return min(1.0, max(0.0, float(r[0] - r[1] - r[2] - r[3])))


def bell_diagonal_project(rho) -> tuple[BellDiagonal, float]:
    """Bell-basis diagonal weights of a state plus the off-diagonal residual.

    Weights are <B_i| rho |B_i>; the residual is the Frobenius norm of
    rho minus its Bell-diagonal part (zero for any two-sided Pauli-channel
    output on a Bell state).
    """
    rho = validate_density_matrix(rho, dim=4)
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


def monte_carlo_transmit(
    mu: ErrorDensities,
    geom: LinkGeometry,
    segments_per_km: int,
    samples: int,
    seed: int,
) -> McEstimate:
    """Stochastic two-arm transmission: per-segment error draws, tallied in the Bell basis.

    Each arm is discretized into ``round(length * segments_per_km)`` segments
    of delta = 1/segments_per_km km (an arm of positive length must round to
    at least one segment); a segment applies error i with
    probability mu_i * delta.  Error indices fold through the Klein
    four-group over both arms, and the folded index selects the received Bell
    state.  Randomness is a splitmix64 hash of (seed, sample, segment), so a
    seed fixes the tallies; ``seed`` is any integer, taken mod 2**64.  See
    ``eprlink._mc`` for the stream and the kernel.  The sampler runs one
    worker on every CPU in the process's affinity mask: the calling thread,
    and helper processes forked at the first call of two or more groups of
    samples made while the process runs one thread, which serve later calls
    until the interpreter exits.  No flag, environment variable or parameter
    sets that, and the tallies do not depend on it.  The helpers are
    children of the calling process for its whole life, so code that reaps
    any child (``os.wait()``, ``os.waitpid(-1, ...)``) must not run in it:
    it would wait on them or reap them.

    Raises
    ------
    ValidationError
        If ``seed`` is not an integer (``operator.index`` fails); if
        ``segments_per_km`` is past the largest float; if an arm
        has a positive length that rounds to zero segments, i.e. it is no
        longer than half a segment and would be sampled as noiseless; or if
        the two arms hold 2**64 or more segments, past which a sample's
        segment keys repeat.
    DomainError
        If ``sum(mu) / segments_per_km`` exceeds 1, i.e. the discretization
        is too coarse for the requested error densities, or if ``sum(mu)``
        overflows, so that no ``segments_per_km`` is fine enough.
    """
    segments_per_km = _as_count(segments_per_km, "segments_per_km", minimum=1)
    if segments_per_km > sys.float_info.max:
        # 1/segments_per_km and L * segments_per_km take it as a float
        raise ValidationError(
            f"segments_per_km must be at most {sys.float_info.max:.4g}, the largest float"
        )
    samples = _as_count(samples, "samples", minimum=1)
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
    # Past 2**64 segments a sample's keys j*K2 mod 2**64 repeat.
    if n1 + n2 >= 1 << 64:
        raise ValidationError(
            f"arms of {geom.l1_km!r} and {geom.l2_km!r} km hold 2**64 or more segments "
            f"at {segments_per_km} segments/km; the sampler's segment keys would repeat"
        )
    for length, n in ((geom.l1_km, n1), (geom.l2_km, n2)):
        if length > 0.0 and n == 0:
            raise ValidationError(
                f"arm length {length!r} km rounds to 0 segments at "
                f"{segments_per_km} segments/km; increase segments_per_km"
            )
    counts = _mc.bell_outcome_counts(seed, samples, n1, n2, t1, t2, t3)
    # Tallies of the folded index k XOR l, in Bell order as in epr.transmit.
    freq = _bell_order(count / samples for count in counts)
    errors = tuple(math.sqrt(f * (1.0 - f) / samples) for f in freq)
    return McEstimate(
        bell_diagonal=BellDiagonal(*freq),
        samples=samples,
        standard_errors=errors,
        geometry=LinkGeometry(n1 / segments_per_km, n2 / segments_per_km),
    )
