import math

import numpy as np
import pytest

from eprlink import (
    ErrorDensities,
    PauliProbs,
    ValidationError,
    apply_single_qubit_pauli,
    apply_two_sided,
    at_length,
    bell_diagonal_project,
    bell_state,
    bell_vector,
    concurrence,
    hermitian_eigenvalues,
    psd_sqrt,
    transmit,
    validate_density_matrix,
    wootters_concurrence,
)
from eprlink.oracle import PAULI

rng = np.random.default_rng(20240503)

BELL_KINDS = ("psi+", "psi-", "phi+", "phi-")


def random_probs():
    return PauliProbs(*rng.dirichlet([1.0] * 4))


def random_hermitian(n=4):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def random_qubit_state():
    n = rng.normal(size=3)
    n *= rng.uniform(0.0, 0.99) / np.linalg.norm(n)
    return 0.5 * (PAULI[0] + n[0] * PAULI[1] + n[1] * PAULI[2] + n[2] * PAULI[3])


def bell_diagonal_density(weights):
    return sum(w * bell_state(k) for w, k in zip(weights, BELL_KINDS))


def random_full_rank_state(gen, n):
    # A A^H / tr over a complex Gaussian A: full rank, complex, not symmetric,
    # and exactly Hermitian, so the oracle's Hermitian part is the state itself.
    a = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real


# Reference loops over the definitions, one term at a time, in the product
# basis |00>, |01>, |10>, |11>.
_H = 1.0 / math.sqrt(2.0)
REFERENCE_BELL = {
    "psi+": np.array([_H, 0.0, 0.0, _H]),
    "psi-": np.array([_H, 0.0, 0.0, -_H]),
    "phi+": np.array([0.0, _H, _H, 0.0]),
    "phi-": np.array([0.0, _H, -_H, 0.0]),
}


def reference_kraus(weights, ops, rho):
    out = np.zeros(rho.shape, dtype=complex)
    for weight, op in zip(weights, ops):
        out += weight * (op @ rho @ op)
    return out


def reference_two_sided(r, s, rho):
    pairs = [(k, l) for k in range(4) for l in range(4)]
    ops = [np.kron(PAULI[k], PAULI[l]) for k, l in pairs]
    return reference_kraus([r[k] * s[l] for k, l in pairs], ops, rho)


def reference_project(rho):
    weights, diag_part = [], np.zeros((4, 4), dtype=complex)
    for kind in BELL_KINDS:
        v = REFERENCE_BELL[kind]
        w = float(np.real(v.conj() @ rho @ v))
        weights.append(w)
        diag_part += w * np.outer(v, v.conj())
    return weights, float(np.linalg.norm(rho - diag_part))


class TestBellStates:
    def test_unit_trace_projectors(self):
        for kind in BELL_KINDS:
            rho = bell_state(kind)
            assert abs(rho.trace() - 1.0) < 1e-15
            assert np.allclose(rho @ rho, rho, atol=1e-15)

    def test_psi_plus_corner_entry(self):
        assert bell_state("psi+")[0, 3] == pytest.approx(0.5, abs=1e-15)

    def test_orthonormal_basis(self):
        for i, ki in enumerate(BELL_KINDS):
            for j, kj in enumerate(BELL_KINDS):
                overlap = np.vdot(bell_vector(ki), bell_vector(kj))
                assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-15
        assert abs((bell_state("phi-") @ bell_state("psi+")).trace()) < 1e-15

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            bell_state("psi")

    def test_vectors_match_the_definitions(self):
        for kind in BELL_KINDS:
            assert np.array_equal(bell_vector(kind), REFERENCE_BELL[kind])


class TestSingleQubitChannel:
    def test_identity_channel(self):
        rho = random_qubit_state()
        out = apply_single_qubit_pauli(PauliProbs.identity(), rho)
        assert np.allclose(out, rho, atol=1e-15)

    def test_depolarizing_shrinks_to_mixed(self):
        mu, length = 0.01, 30.0
        p = at_length(ErrorDensities(mu, mu, mu), length)
        rho = random_qubit_state()
        out = apply_single_qubit_pauli(p, rho)
        decay = math.exp(-4 * mu * length)
        want = decay * rho + 0.5 * (1.0 - decay) * np.eye(2)
        assert np.allclose(out, want, atol=1e-13)

    def test_flip_channel_limit(self):
        p = PauliProbs(0.5, 0.5, 0.0, 0.0)  # infinite-length bit-flip channel
        rho = random_qubit_state()
        out = apply_single_qubit_pauli(p, rho)
        want = 0.5 * (rho + PAULI[1] @ rho @ PAULI[1])
        assert np.allclose(out, want, atol=1e-15)

    def test_trace_preserving(self):
        out = apply_single_qubit_pauli(random_probs(), random_qubit_state())
        assert abs(out.trace() - 1.0) < 1e-14
        assert np.max(np.abs(out - out.conj().T)) < 1e-14

    def test_matches_kraus_loop_on_general_states(self):
        gen = np.random.default_rng(20261019)
        for _ in range(50):
            p = PauliProbs(*gen.dirichlet([1.0] * 4))
            rho = random_full_rank_state(gen, 2)
            want = reference_kraus(p, PAULI, rho)
            assert np.max(np.abs(apply_single_qubit_pauli(p, rho) - want)) < 1e-14


class TestTwoSidedChannel:
    def test_identity(self):
        ident = PauliProbs.identity()
        rho = bell_state("psi+")
        assert np.allclose(apply_two_sided(ident, ident, rho), rho, atol=1e-15)

    def test_preserves_density_matrix(self):
        for _ in range(20):
            out = apply_two_sided(random_probs(), random_probs(), bell_state("psi+"))
            assert abs(out.trace() - 1.0) < 1e-13
            assert np.max(np.abs(out - out.conj().T)) < 1e-13
            assert hermitian_eigenvalues(out).min() > -1e-10

    def test_bell_diagonal_matches_closed_form(self):
        for _ in range(50):
            r, s = random_probs(), random_probs()
            rho = apply_two_sided(r, s, bell_state("psi+"))
            projected, residual = bell_diagonal_project(rho)
            want = transmit(r, s)
            assert residual < 1e-13
            dev = max(abs(g - w) for g, w in zip(projected.as_tuple(), want.as_tuple()))
            assert dev < 1e-12

    def test_rejects_bad_state(self):
        with pytest.raises(ValidationError):
            apply_two_sided(random_probs(), random_probs(), np.eye(4))

    def test_matches_kraus_loop_on_general_states(self):
        gen = np.random.default_rng(20261020)
        for _ in range(50):
            r, s = (PauliProbs(*gen.dirichlet([1.0] * 4)) for _ in range(2))
            rho = random_full_rank_state(gen, 4)
            want = reference_two_sided(r, s, rho)
            assert np.max(np.abs(apply_two_sided(r, s, rho) - want)) < 1e-14


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.array_equal(hermitian_eigenvalues(np.eye(4)), np.ones(4))

    def test_diagonal(self):
        got = hermitian_eigenvalues(np.diag([4.0, 3.0, 2.0, 1.0]))
        assert np.allclose(got, [4.0, 3.0, 2.0, 1.0], atol=1e-14)

    def test_trace_and_determinant_identities(self):
        for _ in range(50):
            m = random_hermitian()
            eig = hermitian_eigenvalues(m)
            assert abs(eig.sum() - m.trace().real) < 1e-11
            det = np.linalg.det(m).real
            assert abs(np.prod(eig) - det) < 1e-10 * max(1.0, abs(det))

    def test_matches_lapack(self):
        for _ in range(50):
            m = random_hermitian()
            ours = hermitian_eigenvalues(m)
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.max(np.abs(ours - ref)) < 1e-11

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="Hermitian"):
            hermitian_eigenvalues(m)

    def test_zero_matrix(self):
        assert np.array_equal(hermitian_eigenvalues(np.zeros((4, 4))), np.zeros(4))

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2), (0, 0)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValidationError, match="matrix must be a non-empty square, got shape"):
            hermitian_eigenvalues(np.zeros(shape))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        got = psd_sqrt(np.diag([4.0, 1.0, 0.0, 9.0]))
        assert np.allclose(got, np.diag([2.0, 1.0, 0.0, 3.0]), atol=1e-13)

    def test_round_trip(self):
        for _ in range(20):
            m = random_hermitian()
            psd = m @ m.conj().T
            root = psd_sqrt(psd)
            assert np.linalg.norm(root @ root - psd) < 1e-9 * max(1.0, np.linalg.norm(psd))
            assert np.max(np.abs(root - root.conj().T)) < 1e-12

    def test_clamps_float_noise(self):
        got = psd_sqrt(np.diag([1.0, -1e-12, 0.0, 0.0]))
        assert got[1, 1] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError, match="PSD"):
            psd_sqrt(np.diag([1.0, -0.5, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "index, value",
        [((1, 1), np.nan), ((1, 1), np.inf), ((1, 1), -np.inf), ((0, 1), complex(0.0, np.inf))],
    )
    def test_rejects_non_finite(self, index, value):
        m = np.eye(4, dtype=complex)
        m[index] = value
        with pytest.raises(ValidationError, match="non-finite"):
            psd_sqrt(m)


class TestWoottersConcurrence:
    def test_maximally_entangled(self):
        for kind in BELL_KINDS:
            assert abs(wootters_concurrence(bell_state(kind)) - 1.0) < 1e-9

    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert wootters_concurrence(rho) == 0.0

    def test_bell_diagonal_closed_form(self):
        for _ in range(100):
            weights = rng.dirichlet([0.6] * 4)
            got = wootters_concurrence(bell_diagonal_density(weights))
            want = max(0.0, 2.0 * weights.max() - 1.0)
            assert abs(got - want) < 1e-9

    def test_two_sided_outputs(self):
        for _ in range(20):
            r, s = random_probs(), random_probs()
            rho = apply_two_sided(r, s, bell_state("psi+"))
            assert abs(wootters_concurrence(rho) - concurrence(transmit(r, s))) < 1e-9


class TestBellDiagonalProject:
    def test_pure_phi_minus(self):
        state, residual = bell_diagonal_project(bell_state("phi-"))
        assert np.allclose(state.as_tuple(), (0.0, 0.0, 0.0, 1.0), atol=1e-15)
        assert residual < 1e-15

    def test_maximally_mixed(self):
        state, residual = bell_diagonal_project(np.eye(4) / 4.0)
        assert np.allclose(state.as_tuple(), (0.25, 0.25, 0.25, 0.25), atol=1e-15)
        assert residual < 1e-15

    def test_non_diagonal_residual(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00| overlaps psi+ and psi- but is not Bell-diagonal
        state, residual = bell_diagonal_project(rho)
        assert np.allclose(state.as_tuple(), (0.5, 0.5, 0.0, 0.0), atol=1e-15)
        assert residual > 0.1

    def test_matches_projection_loop_on_general_states(self):
        gen = np.random.default_rng(20261021)
        for _ in range(50):
            rho = random_full_rank_state(gen, 4)
            state, residual = bell_diagonal_project(rho)
            weights, want_residual = reference_project(rho)
            assert max(abs(g - w) for g, w in zip(state.as_tuple(), weights)) < 1e-14
            assert abs(residual - want_residual) < 1e-14


class TestValidation:
    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            validate_density_matrix(np.eye(4))

    def test_rejects_non_hermitian(self):
        rho = bell_state("psi+").astype(complex)
        rho[0, 1] += 1e-6
        with pytest.raises(ValidationError, match="Hermitian"):
            validate_density_matrix(rho)

    def test_rejects_negative_spectrum(self):
        rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError, match="eigenvalue"):
            validate_density_matrix(rho)

    def test_accepts_valid_state(self):
        weights = rng.dirichlet([1.0] * 4)
        validate_density_matrix(bell_diagonal_density(weights))

    def test_returns_a_fresh_hermitian_part(self):
        rho = bell_state("psi+")
        rho[0, 3] += 1e-13  # Hermitian within 1e-12, not exactly
        got = validate_density_matrix(rho)
        assert got is not rho and not np.shares_memory(got, rho)
        assert got.dtype == np.complex128
        assert np.array_equal(got, 0.5 * (rho + rho.conj().T))
        assert np.array_equal(got, got.conj().T)

    @pytest.mark.parametrize(
        "dim, shape", [(4, (2, 2)), (2, (4, 4)), (4, (4, 2)), (4, (16,)), (4, (0, 0))]
    )
    def test_rejects_wrong_shape(self, dim, shape):
        with pytest.raises(ValidationError, match=f"must be {dim}x{dim}, got shape"):
            validate_density_matrix(np.zeros(shape), dim=dim)
