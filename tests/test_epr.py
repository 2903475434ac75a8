import math

import numpy as np
import pytest

from eprlink import (
    BellDiagonal,
    ErrorDensities,
    LinkGeometry,
    PauliProbs,
    ValidationError,
    at_length,
    compose,
    concurrence,
    concurrence_vs_length,
    dominant_bell_state,
    fidelity_psi_plus,
    transmit,
    transmit_at_length,
)
from eprlink.channel import _convolve

rng = np.random.default_rng(20240502)

NP_NEG_INF = np.float64("-inf")


class TestBellDiagonal:
    @pytest.mark.parametrize(
        "values, stored",
        [
            ((0, 1, 0, 0), (0.0, 1.0, 0.0, 0.0)),
            ((False, False, True, False), (0.0, 0.0, 1.0, 0.0)),
            ((np.float64(0.7), 0.1, np.float64(0.1), 0.1), (0.7, 0.1, 0.1, 0.1)),
            ((1.0, -1e-13, 0.0, 1e-13), (1.0, 0.0, 0.0, 1e-13)),
            ((np.float64(1.0 + 1e-13), -1e-13, 0, 0.0), (1.0, 0.0, 0.0, 0.0)),
        ],
    )
    def test_stores_python_floats(self, values, stored):
        state = BellDiagonal(*values)
        assert [type(v) for v in state.as_tuple()] == [float] * 4
        assert [v.hex() for v in state.as_tuple()] == [v.hex() for v in stored]

    @pytest.mark.parametrize(
        "values, message",
        [
            ((math.nan, 0.0, 0.0, 1.0), "Bell weight a must be a finite number, got nan"),
            ((0.0, 0.0, 0.0, math.inf), "Bell weight d must be a finite number, got inf"),
            ((1.0, -math.inf, 0.0, 0.0), "Bell weight b must be a finite number, got -inf"),
            ((0, 0, NP_NEG_INF, 1), f"Bell weight c must be a finite number, got {NP_NEG_INF!r}"),
            ((1.0, 0.0, 0.0, "0"), "Bell weight d must be a finite number, got '0'"),
            ((1.0, -1e-11, 0.0, 0.0), "Bell weight b must be in [0, 1], got -1e-11"),
            ((0.5, 0.5, 0.5, 0.0), "Bell weight probabilities must sum to 1, got 1.5"),
        ],
    )
    def test_rejection_messages(self, values, message):
        with pytest.raises(ValidationError) as info:
            BellDiagonal(*values)
        assert str(info.value) == message


class TestLinkGeometry:
    def test_total(self):
        assert LinkGeometry(3.0, 4.5).total_km == 7.5


class TestTransmit:
    def test_noiseless(self):
        ident = PauliProbs(1.0, 0.0, 0.0, 0.0)
        assert transmit(ident, ident).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_single_bit_flip_gives_phi_plus(self):
        flip = PauliProbs(0.0, 1.0, 0.0, 0.0)
        assert transmit(flip, PauliProbs(1.0, 0.0, 0.0, 0.0)).as_tuple() == (0.0, 0.0, 1.0, 0.0)

    def test_pairs_accepted_one_at_a_time_compose(self):
        # Each sums to 1 + 9e-13, inside the tolerance; the product sums to
        # 1 + 1.8e-12, outside it, and is divided by its sum.
        r = PauliProbs(0.5000000000009, 0.5, 0.0, 0.0)
        assert compose(r, r).as_tuple() == (0.5, 0.5, 0.0, 0.0)
        assert transmit(r, r).as_tuple() == (0.5, 0.0, 0.5, 0.0)


class TestTransmitAtLength:
    def test_zero_geometry(self):
        mu = ErrorDensities(0.01, 0.02, 0.03)
        assert transmit_at_length(mu, LinkGeometry(0.0, 0.0)).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_psi_plus_dominates(self):
        for _ in range(100):
            mu = ErrorDensities(*rng.uniform(0.0, 0.2, 3))
            length = rng.uniform(0.0, 100.0)
            state = transmit_at_length(mu, LinkGeometry(length, 0.0))
            assert state.a >= max(state.b, state.c, state.d)


class TestConcurrence:
    def test_pure_bell_state(self):
        assert concurrence(BellDiagonal(1.0, 0.0, 0.0, 0.0)) == 1.0

    def test_maximally_mixed(self):
        assert concurrence(BellDiagonal(0.25, 0.25, 0.25, 0.25)) == 0.0

    def test_fifty_fifty_mixture(self):
        # a two-Bell-state mixture is entangled except at exactly 50-50
        assert concurrence(BellDiagonal(0.5, 0.0, 0.5, 0.0)) == 0.0
        assert concurrence(BellDiagonal(0.51, 0.0, 0.49, 0.0)) > 0.0

    def test_positive_iff_weight_above_half(self):
        eps = 1e-9
        assert concurrence(BellDiagonal(0.5 + eps, 0.5 - eps, 0.0, 0.0)) > 0.0
        assert concurrence(BellDiagonal(0.5 - eps, 0.5 + eps, 0.0, 0.0)) > 0.0
        assert concurrence(BellDiagonal(0.5, 0.25, 0.25, 0.0)) == 0.0


class TestFidelity:
    def test_identity(self):
        assert fidelity_psi_plus(BellDiagonal(1.0, 0.0, 0.0, 0.0)) == 1.0


class TestConcurrenceVsLength:
    def test_zero_length(self):
        assert concurrence_vs_length(ErrorDensities(0.01, 0.02, 0.03), 0.0) == 1.0

    def test_single_flip_never_vanishes(self):
        mu = 0.008
        for length in (1.0, 10.0, 100.0, 400.0):
            got = concurrence_vs_length(ErrorDensities(mu, 0.0, 0.0), length)
            assert got > 0.0
            assert math.isclose(got, math.exp(-2 * mu * length), rel_tol=1e-10)

    def test_depolarizing_form(self):
        mu = 0.008
        for length in (5.0, 20.0, 34.0, 50.0):
            got = concurrence_vs_length(ErrorDensities(mu, mu, mu), length)
            want = max(0.0, 0.5 * (3.0 * math.exp(-4 * mu * length) - 1.0))
            assert abs(got - want) <= 1e-14

    def test_equals_transmit_route_exactly(self):
        for _ in range(50):
            mu = ErrorDensities(*rng.uniform(0.0, 0.1, 3))
            length = rng.uniform(0.0, 80.0)
            via_state = concurrence(transmit_at_length(mu, LinkGeometry(length, 0.0)))
            assert concurrence_vs_length(mu, length) == via_state

    def test_non_increasing(self):
        for _ in range(20):
            mu = ErrorDensities(*rng.uniform(0.0, 0.1, 3))
            grid = np.linspace(0.0, 120.0, 200)
            values = [concurrence_vs_length(mu, x) for x in grid]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def double_flip(mu, length):
    # x and y flips at equal density mu, over the total length.
    return transmit_at_length(ErrorDensities(mu, mu, 0.0), LinkGeometry(length, 0.0))


class TestDoubleFlip:
    def test_zero_length(self):
        assert double_flip(0.01, 0.0).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_concurrence_form(self):
        mu = 0.008
        for length in (10.0, 40.0, 55.0, 70.0):
            state = double_flip(mu, length)
            e = math.exp(-2 * mu * length)
            want = 0.5 * max(0.0, e * e + 2 * e - 1.0)
            assert abs(concurrence(state) - want) <= 1e-14


class TestOneClosedForm:
    # transmit is an unpack of channel's closed form, so it agrees with
    # _convolve bit for bit, not just to rounding.
    def test_transmit_is_convolve_in_bell_order(self):
        draw = np.random.default_rng(17)
        for _ in range(500):
            r, s = (PauliProbs(*draw.dirichlet([1.0] * 4)) for _ in range(2))
            k0, k1, k2, k3 = _convolve(r, s)
            assert [v.hex() for v in transmit(r, s)] == [v.hex() for v in (k0, k3, k1, k2)]


class TestDominantBellState:
    def test_simple(self):
        assert dominant_bell_state(BellDiagonal(0.7, 0.1, 0.1, 0.1)) == "psi+"
        assert dominant_bell_state(BellDiagonal(0.1, 0.1, 0.7, 0.1)) == "phi+"

    def test_tie_takes_lowest_index(self):
        assert dominant_bell_state(BellDiagonal(0.25, 0.25, 0.25, 0.25)) == "psi+"
        assert dominant_bell_state(BellDiagonal(0.0, 0.5, 0.5, 0.0)) == "psi-"


class TestTotalLengthPastTheFloatRange:
    # L1 + L2 overflows to inf; a zero pairwise density sum keeps its
    # exponential at 1 rather than 0 * inf = nan, and a subnormal one near 1
    # rather than exp(-inf) = 0.
    @pytest.mark.parametrize(
        "densities, weights",
        [
            ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
            ((0.01, 0.0, 0.0), (0.5, 0.0, 0.5, 0.0)),
            (
                (5e-324, 5e-324, 5e-324),
                (0.9999999999999969, 9.992007221626399e-16, 9.992007221626397e-16,
                 9.992007221626399e-16),
            ),
        ],
    )
    def test_zero_density_sums(self, densities, weights):
        mu = ErrorDensities(*densities)
        state = transmit_at_length(mu, LinkGeometry(1e308, 1e308))
        assert state.as_tuple() == weights
        assert state == transmit(at_length(mu, 1e308), at_length(mu, 1e308))
