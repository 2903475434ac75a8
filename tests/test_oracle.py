import math

import numpy as np
import pytest

from eprlink import (
    PauliProbs,
    ValidationError,
    apply_two_sided,
    bell_diagonal_project,
    bell_state,
    concurrence,
    transmit,
    validate_density_matrix,
    wootters_concurrence,
)

rng = np.random.default_rng(20240503)

BELL_KINDS = ("psi+", "psi-", "phi+", "phi-")
IDENTITY = PauliProbs(1.0, 0.0, 0.0, 0.0)


def random_probs():
    return PauliProbs(*rng.dirichlet([1.0] * 4))


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
# I, sigma_x, sigma_y, sigma_z
SIGMA = [
    np.array([[1, 0], [0, 1]]),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]]),
]
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
    ops = [np.kron(SIGMA[k], SIGMA[l]) for k, l in pairs]
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
        # tr(|i><i| |j><j|) = |<i|j>|^2
        for i, ki in enumerate(BELL_KINDS):
            for j, kj in enumerate(BELL_KINDS):
                v = REFERENCE_BELL[kj]
                overlap = (bell_state(ki) @ np.outer(v, v)).trace()
                assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-15

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            bell_state("psi")

    def test_unknown_kind_message(self):
        want = "unknown Bell state 'psi'; expected one of ('psi+', 'psi-', 'phi+', 'phi-')"
        with pytest.raises(ValidationError) as info:
            bell_state("psi")
        assert str(info.value) == want

    def test_vectors_match_the_definitions(self):
        for kind in BELL_KINDS:
            v = REFERENCE_BELL[kind]
            assert np.array_equal(bell_state(kind), np.outer(v, v))


class TestTwoSidedChannel:
    def test_identity(self):
        rho = bell_state("psi+")
        assert np.allclose(apply_two_sided(IDENTITY, IDENTITY, rho), rho, atol=1e-15)

    def test_preserves_density_matrix(self):
        for _ in range(20):
            out = apply_two_sided(random_probs(), random_probs(), bell_state("psi+"))
            assert abs(out.trace() - 1.0) < 1e-13
            assert np.max(np.abs(out - out.conj().T)) < 1e-13
            assert np.linalg.eigvalsh(out).min() > -1e-10

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


class TestWoottersConcurrence:
    def test_maximally_entangled(self):
        for kind in BELL_KINDS:
            assert abs(wootters_concurrence(bell_state(kind)) - 1.0) < 1e-9

    def test_rounding_never_takes_it_past_1(self, monkeypatch):
        # r_1 - r_2 - r_3 - r_4 can round past 1 on a locally rotated Bell
        # state, by how much depends on the LAPACK build.  A spectrum whose
        # top root is 1 + 2**-52 stands in for that on any build; the clamp
        # holds it at 1.
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([0.0, 0.0, 0.0, 1.0 + 2.0**-51]))
        assert wootters_concurrence(bell_state("psi-")) == 1.0

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

    def test_pure_states(self):
        # A pure state |psi> has concurrence |psi^T (sigma_y x sigma_y) psi|,
        # entangled or not, and is Bell-diagonal only by accident.
        gen = np.random.default_rng(20261020)
        yy = np.kron(SIGMA[2], SIGMA[2])
        for _ in range(200):
            psi = gen.normal(size=4) + 1j * gen.normal(size=4)
            psi /= np.linalg.norm(psi)
            want = abs(psi @ yy @ psi)
            assert abs(wootters_concurrence(np.outer(psi, psi.conj())) - want) < 1e-7


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

    def test_tolerances_end_where_documented(self):
        # A Hermiticity defect of 1e-12 and an eigenvalue of -1e-10 pass; a
        # trace 1e-9 off does not.
        rho = (np.eye(4) / 4).astype(complex)
        rho[0, 1] = 1e-12
        validate_density_matrix(rho)
        validate_density_matrix(np.diag([-1e-10, 0.5, 0.5, 1e-10]).astype(complex))
        with pytest.raises(ValidationError, match="trace"):
            validate_density_matrix(np.eye(4) * (0.25 + 1e-9))

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

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (16,), (0, 0)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValidationError, match="must be 4x4, got shape"):
            validate_density_matrix(np.zeros(shape))

    @pytest.mark.parametrize(
        "index, value",
        [((1, 1), np.nan), ((1, 1), np.inf), ((1, 1), -np.inf), ((0, 1), complex(0.0, np.inf))],
    )
    def test_rejects_non_finite(self, index, value):
        m = np.eye(4, dtype=complex)
        m[index] = value
        with pytest.raises(ValidationError, match="non-finite"):
            validate_density_matrix(m)

    @pytest.mark.parametrize(
        "rho",
        [[[1, 0], [0]], "abc", [[1, 0], [0, "x"]], {"a": 1}, [[10**400, 0], [0, 0]]],
        ids=["ragged", "string", "string entry", "dict", "int past the float range"],
    )
    @pytest.mark.parametrize(
        "check",
        [
            validate_density_matrix,
            wootters_concurrence,
            lambda rho: apply_two_sided(IDENTITY, IDENTITY, rho),
        ],
        ids=["validate_density_matrix", "wootters_concurrence", "apply_two_sided"],
    )
    def test_rejects_non_numeric_input(self, check, rho):
        with pytest.raises(ValidationError, match="density matrix must be a 4x4 array of numbers"):
            check(rho)
