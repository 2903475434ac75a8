import math

import numpy as np
import pytest

from eprlink import (
    ErrorDensities,
    PauliProbs,
    ValidationError,
    at_length,
    compose,
    decay_factors,
    depolarizing_probs,
    flip_at_length,
    iterate,
    iterate_bruteforce,
)
from eprlink import channel
from eprlink.channel import _convolve
from eprlink.epr import BellDiagonal

rng = np.random.default_rng(20240501)

NP_NAN = np.float64("nan")


def random_probs():
    return PauliProbs(*rng.dirichlet([1.0, 1.0, 1.0, 1.0]))


def random_densities(scale=0.1):
    return ErrorDensities(*rng.uniform(0.0, scale, 3))


def assert_close4(got, want, tol=1e-12):
    for g, w in zip(got.as_tuple(), want if isinstance(want, tuple) else want.as_tuple()):
        assert abs(g - w) <= tol, (got, want)


class TestPauliProbs:
    def test_rejects_negative_entry(self):
        with pytest.raises(ValidationError):
            PauliProbs(1.1, -0.1, 0.0, 0.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            PauliProbs(0.5, 0.5, 0.5, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            PauliProbs(math.nan, 0.0, 0.0, 1.0)

    def test_clamps_float_noise(self):
        p = PauliProbs(1.0 + 1e-15, -1e-15, 0.0, -1e-16)
        assert p.p1 == 0.0
        assert p.p3 == 0.0
        assert p.p0 == 1.0

    @pytest.mark.parametrize(
        "values, stored",
        [
            ((1, 0, 0, 0), (1.0, 0.0, 0.0, 0.0)),
            ((True, False, False, False), (1.0, 0.0, 0.0, 0.0)),
            ((np.float64(0.25),) * 4, (0.25, 0.25, 0.25, 0.25)),
            ((1.0, -1e-13, 0.0, 1e-13), (1.0, 0.0, 0.0, 1e-13)),
            ((1.0 + 1e-13, np.float64(-1e-13), 0, 0.0), (1.0, 0.0, 0.0, 0.0)),
            ((0.5, -0.0, 0.5, 0.0), (0.5, -0.0, 0.5, 0.0)),
        ],
    )
    def test_stores_python_floats(self, values, stored):
        p = PauliProbs(*values)
        assert [type(v) for v in p.as_tuple()] == [float] * 4
        assert [v.hex() for v in p.as_tuple()] == [v.hex() for v in stored]

    @pytest.mark.parametrize(
        "values, message",
        [
            ((math.nan, 0.0, 0.0, 1.0), "channel p0 must be a finite number, got nan"),
            ((0.0, 0.0, math.inf, 1.0), "channel p2 must be a finite number, got inf"),
            ((1.0, -math.inf, 0.0, 0.0), "channel p1 must be a finite number, got -inf"),
            ((np.float64("nan"), 0, 0, 1), f"channel p0 must be a finite number, got {NP_NAN!r}"),
            ((np.int64(1), 0, 0, 0), f"channel p0 must be a finite number, got {np.int64(1)!r}"),
            (("1", 0, 0, 0), "channel p0 must be a finite number, got '1'"),
            ((None, 0, 0, 1), "channel p0 must be a finite number, got None"),
            ((1.0, -1e-11, 0.0, 0.0), "channel p1 must be in [0, 1], got -1e-11"),
            ((2, -1, 0, 0), "channel p0 must be in [0, 1], got 2"),
            ((1.0, 0.0, 0.0, 1e-11), "channel probabilities must sum to 1, got 1.00000000001"),
        ],
    )
    def test_rejection_messages(self, values, message):
        with pytest.raises(ValidationError) as info:
            PauliProbs(*values)
        assert str(info.value) == message


def _reference_distribution(kind, names, values):
    """The field-by-field check and store of a distribution, without a fast path.

    Returns the stored (type, hex) pairs, or the ValidationError message.
    """
    total = 0.0
    for name, value in zip(names, values):
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{kind} {name} must be a finite number, got {value!r}"
        if not -1e-12 <= value <= 1.0 + 1e-12:
            return f"{kind} {name} must be in [0, 1], got {value!r}"
        total += value
    if abs(total - 1.0) > 1e-12:
        return f"{kind} probabilities must sum to 1, got {total!r}"
    if not all(type(v) is float and 0.0 <= v <= 1.0 for v in values):
        values = [0.0 if v < 0.0 else 1.0 if v > 1.0 else float(v) for v in values]
    return [(type(v), float(v).hex()) for v in values]


def _constructed(cls, values):
    try:
        obj = cls(*values)
    except ValidationError as exc:
        return str(exc)
    return [(type(v), float(v).hex()) for v in obj.as_tuple()]


@pytest.fixture
def full_checks(monkeypatch):
    """The values that miss the in-frame fast path of `_distribution_check` and
    reach `channel._validate_distribution`, which still runs."""
    calls = []
    validate = channel._validate_distribution

    def recorder(kind, names, values):
        calls.append(tuple(values))
        validate(kind, names, values)

    monkeypatch.setattr(channel, "_validate_distribution", recorder)
    return calls


class TestUnitDistributionPredicate:
    """The fast path of PauliProbs and BellDiagonal stores and rejects exactly
    what the field-by-field check does, with the same messages, and takes
    only floats in [0, 1] that sum to 1 within the tolerance."""

    ODD_VALUES = (
        0, 1, True, False, np.float64(0.25), np.float32(0.25), np.float64(1.0),
        math.nan, math.inf, -math.inf, NP_NAN, -1e-13, 1.0 + 1e-13, -0.0, 0.0, 1.0, 0.25, 0.5,
    )

    def corpus(self):
        gen = np.random.default_rng(20261020)
        cases = [
            (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.25,) * 4,
            (0.25, 0.25, 0.25, 0.25 + 2e-12), (0.25, 0.25, 0.25 - 2e-12, 0.25),
            (0.25, 0.25, 0.25, 0.25 + 5e-13), (1.0 + 1e-13, -1e-13, 0.0, 0.0),
        ]
        for _ in range(3000):
            weights = list(gen.dirichlet([0.5] * 4))
            if gen.random() < 0.3:
                weights[int(gen.integers(0, 4))] += float(gen.choice([2e-12, -2e-12, 5e-13]))
            weights = [float(w) for w in weights]
            if gen.random() < 0.2:
                i = int(gen.integers(0, 4))
                weights[i] = np.float64(weights[i])
            for _ in range(int(gen.integers(0, 3))):
                weights[int(gen.integers(0, 4))] = self.ODD_VALUES[
                    int(gen.integers(0, len(self.ODD_VALUES)))
                ]
            cases.append(tuple(weights))
        return cases

    def test_matches_field_by_field_check(self, full_checks):
        for values in self.corpus():
            for cls, kind, names in (
                (PauliProbs, "channel", ("p0", "p1", "p2", "p3")),
                (BellDiagonal, "Bell weight", ("a", "b", "c", "d")),
            ):
                want = _reference_distribution(kind, names, values)
                full_checks.clear()
                assert _constructed(cls, values) == want, values
                if not full_checks:
                    assert want == [(float, v.hex()) for v in values], values

    @pytest.mark.parametrize(
        "values",
        [
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 1.0),
            (0.25, 0.25, 0.25, 0.25),
            (0.25, 0.25, 0.25, 0.25 + 5e-13),
        ],
    )
    @pytest.mark.parametrize("cls", [PauliProbs, BellDiagonal])
    def test_accepts_floats_in_the_unit_interval(self, full_checks, values, cls):
        cls(*values)
        assert full_checks == []

    @pytest.mark.parametrize(
        "values",
        [
            (1, 0.0, 0.0, 0.0),
            (0.0, True, 0.0, 1.0),
            (np.float64(0.25), 0.25, 0.25, 0.25),
            (0.25, np.float64(0.25), 0.25, 0.25),
            (0.25, 0.25, np.float64(0.25), 0.25),
            (0.25, 0.25, 0.25, np.float64(0.25)),
            (0.25, 0.25, np.float32(0.25), 0.25),
            (math.nan, 0.0, 0.0, 1.0),
            (0.0, 0.0, math.inf, 1.0),
            (1.0, -math.inf, 0.0, 0.0),
            (1.0, -1e-13, 0.0, 1e-13),
            (1.0 + 1e-13, 0.0, 0.0, 0.0),
            (0.25, 0.25, 0.25, 0.25 + 2e-12),
            (0.25, 0.25, 0.25 - 2e-12, 0.25),
        ],
    )
    @pytest.mark.parametrize("cls", [PauliProbs, BellDiagonal])
    def test_rejects_everything_else(self, full_checks, values, cls):
        try:
            cls(*values)
        except ValidationError:
            pass
        assert full_checks == [values]


class TestErrorDensities:
    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            ErrorDensities(-0.001, 0.0, 0.0)

    def test_rejects_infinite(self):
        with pytest.raises(ValidationError):
            ErrorDensities(math.inf, 0.0, 0.0)


class TestCompose:
    def test_identity_channel(self):
        p = random_probs()
        assert_close4(compose(PauliProbs.identity(), p), p, tol=0.0)

    def test_hand_value(self):
        p = PauliProbs(0.7, 0.3, 0.0, 0.0)
        assert_close4(compose(p, p), (0.58, 0.42, 0.0, 0.0), tol=1e-15)

    def test_pure_error_composition(self):
        # sigma_x then sigma_y act like sigma_z up to phase
        x = PauliProbs(0.0, 1.0, 0.0, 0.0)
        y = PauliProbs(0.0, 0.0, 1.0, 0.0)
        assert compose(x, y).as_tuple() == (0.0, 0.0, 0.0, 1.0)

    def test_commutative_associative(self):
        for _ in range(100):
            p, q, r = random_probs(), random_probs(), random_probs()
            assert_close4(compose(p, q), compose(q, p))
            assert_close4(compose(compose(p, q), r), compose(p, compose(q, r)))

    def test_raw_convolution_stays_a_distribution(self):
        for _ in range(200):
            raw = _convolve(random_probs().as_tuple(), random_probs().as_tuple())
            assert all(v >= -1e-15 for v in raw)
            assert abs(sum(raw) - 1.0) <= 1e-12


class TestIterate:
    def test_zero_segments_is_identity(self):
        assert iterate(random_probs(), 0).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_hand_value(self):
        p = PauliProbs(0.9, 0.1, 0.0, 0.0)
        assert_close4(iterate(p, 2), (0.82, 0.18, 0.0, 0.0), tol=1e-15)
        assert_close4(iterate(p, 2), compose(p, p), tol=1e-15)

    def test_matches_bruteforce(self):
        for _ in range(50):
            p = random_probs()
            for n in range(21):
                assert_close4(iterate(p, n), iterate_bruteforce(p, n))

    def test_negative_decay_factor_channel(self):
        # 1 - 2 p1 - 2 p2 < 0 is legal; integer powers keep the closed form exact
        p = PauliProbs(0.1, 0.8, 0.05, 0.05)
        assert decay_factors(p).lambda3 < 0.0
        for n in range(12):
            assert_close4(iterate(p, n), iterate_bruteforce(p, n))

    def test_semigroup(self):
        for _ in range(50):
            p = random_probs()
            m, n = rng.integers(0, 21, 2)
            assert_close4(iterate(p, m + n), compose(iterate(p, m), iterate(p, n)))

    def test_rejects_bad_counts(self):
        p = random_probs()
        with pytest.raises(ValidationError):
            iterate(p, -1)
        with pytest.raises(ValidationError):
            iterate(p, 2.5)

    def test_bruteforce_cap(self):
        with pytest.raises(ValidationError, match="capped"):
            iterate_bruteforce(random_probs(), 10**9 + 1)

    def test_bruteforce_single_segment(self):
        p = random_probs()
        assert_close4(iterate_bruteforce(p, 1), p, tol=0.0)

    def test_huge_count_reaches_fixed_point(self):
        # all decay factors strictly inside (-1, 1) -> uniform mixture
        p = PauliProbs(0.85, 0.05, 0.05, 0.05)
        assert_close4(iterate(p, 10**12), (0.25, 0.25, 0.25, 0.25), tol=1e-15)

    @pytest.mark.parametrize(
        "n", [2**53 + 1, 2**60 + 1, 10**400 + 1], ids=["2**53+1", "2**60+1", "10**400+1"]
    )
    def test_odd_counts_past_2_53_keep_their_parity(self, n):
        # sigma_z squares to the identity; float(n) would round n to even
        sigma_z = PauliProbs(0.0, 0.0, 0.0, 1.0)
        assert iterate(sigma_z, n).as_tuple() == (0.0, 0.0, 0.0, 1.0)
        assert iterate(sigma_z, n - 1).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "n", [10**308, 10**400, 3**2000], ids=["10**308", "10**400", "3**2000"]
    )
    def test_counts_past_the_float_range_reach_the_fixed_point(self, n):
        p = PauliProbs(0.85, 0.05, 0.05, 0.05)
        assert iterate(p, n).as_tuple() == (0.25, 0.25, 0.25, 0.25)

    @pytest.mark.parametrize(
        "n, want",
        [
            (3, (0.0, 0.0, 0.5, 0.5)),
            (10**12, (0.5, 0.5, 0.0, 0.0)),
            (10**15, (0.5, 0.5, 0.0, 0.0)),
            (10**400 + 1, (0.0, 0.0, 0.5, 0.5)),
        ],
        ids=["3", "10**12", "10**15", "10**400+1"],
    )
    def test_decay_factor_just_past_minus_one(self, n, want):
        # p2 + p3 overshoots 1 within the sum tolerance, so 1 - 2 (p2 + p3) is
        # -1 - 1.6e-12; its n-th power used to leave [0, 1] or overflow
        p = PauliProbs(0.0, 0.0, 0.5000000000004, 0.5000000000004)
        assert_close4(iterate(p, n), want, tol=1e-12)


class TestAtLength:
    def test_zero_length_is_identity(self):
        assert at_length(random_densities(), 0.0).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_depolarizing_form(self):
        mu = 0.008
        for length in (0.5, 5.0, 50.0):
            p = at_length(ErrorDensities(mu, mu, mu), length)
            e = math.exp(-4.0 * mu * length)
            assert math.isclose(p.p0, 0.25 * (1.0 + 3.0 * e), rel_tol=1e-14)
            for v in (p.p1, p.p2, p.p3):
                assert math.isclose(v, 0.25 * (1.0 - e), rel_tol=1e-13)

    def test_single_flip_form(self):
        mu, length = 0.02, 12.0
        p = at_length(ErrorDensities(mu, 0.0, 0.0), length)
        e = math.exp(-2.0 * mu * length)
        assert math.isclose(p.p0, 0.5 * (1.0 + e), rel_tol=1e-14)
        assert math.isclose(p.p1, 0.5 * (1.0 - e), rel_tol=1e-13)
        assert p.p2 == 0.0 and p.p3 == 0.0

    def test_rejects_negative_length(self):
        with pytest.raises(ValidationError):
            at_length(random_densities(), -1.0)

    def test_continuous_semigroup(self):
        for _ in range(100):
            mu = random_densities()
            l1, l2 = rng.uniform(0.0, 30.0, 2)
            whole = at_length(mu, l1 + l2)
            split = compose(at_length(mu, l1), at_length(mu, l2))
            assert_close4(whole, split)

    def test_short_segment_limit(self):
        # n equal segments with per-segment probabilities mu_i * L / n converge
        # to the continuum channel at rate O(1/n)
        mu = ErrorDensities(0.05, 0.03, 0.02)
        length = 10.0
        target = at_length(mu, length).as_tuple()

        def error(n):
            frac = length / n
            seg = PauliProbs(
                1.0 - (mu.mu1 + mu.mu2 + mu.mu3) * frac,
                mu.mu1 * frac,
                mu.mu2 * frac,
                mu.mu3 * frac,
            )
            approx = iterate(seg, n).as_tuple()
            return max(abs(a - t) for a, t in zip(approx, target))

        errors = [error(n) for n in (100, 1000, 10_000)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3


class TestFlipAtLength:
    def test_zero_length(self):
        assert flip_at_length(0.01, "x", 0.0).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_long_length_limit(self):
        p = flip_at_length(0.01, "y", 1e9)
        assert math.isclose(p.p2, 0.5, rel_tol=1e-12)
        assert math.isclose(p.p0, 0.5, rel_tol=1e-12)

    def test_consistent_with_at_length(self):
        mu, length = 0.015, 7.0
        assert_close4(
            flip_at_length(mu, "z", length),
            at_length(ErrorDensities(0.0, 0.0, mu), length),
            tol=1e-15,
        )

    def test_rejects_bad_axis(self):
        with pytest.raises(ValidationError):
            flip_at_length(0.01, "w", 1.0)


class TestDecayFactors:
    def test_depolarizing_shrinks_uniformly(self):
        lam = decay_factors(depolarizing_probs(0.5))
        assert lam.as_tuple() == (0.5, 0.5, 0.5)

    def test_power(self):
        p = PauliProbs(0.9, 0.1, 0.0, 0.0)
        lam = decay_factors(p, 3)
        assert lam.lambda1 == 1.0
        assert math.isclose(lam.lambda2, 0.8**3, rel_tol=1e-15)

    def test_power_is_float_power_where_the_count_is_a_float(self):
        # lambda ** n, as float ** int computes it, bit for bit wherever
        # float(n) == n: every n below 2**53, and some even n past it.
        # Negative factors come from channels that flip more often than not.
        gen = np.random.default_rng(20261101)
        counts = [0, 1, 2, 3, 1023, 1024, 1075, 2**52 + 1, 2**53 - 1]
        counts += [2**53, 2**53 + 2, 10**20, 2**64, 2**70, 2**1023]
        counts += [int(v) for v in 2.0 ** gen.uniform(0.0, 53.0, 40)]
        for alpha in ([1.0, 1.0, 1.0, 1.0], [0.1, 1.0, 1.0, 1.0], [0.05, 0.05, 3.0, 3.0]):
            for _ in range(25):
                p = PauliProbs(*gen.dirichlet(alpha))
                factors = (
                    1.0 - 2.0 * (p.p2 + p.p3),
                    1.0 - 2.0 * (p.p1 + p.p3),
                    1.0 - 2.0 * (p.p1 + p.p2),
                )
                if max(map(abs, factors)) > 1.0:
                    continue
                for n in counts:
                    got = decay_factors(p, n).as_tuple()
                    assert [v.hex() for v in got] == [(f**n).hex() for f in factors], (p, n)

    def test_factors_are_clamped_to_minus_one(self):
        p = PauliProbs(0.0, 0.0, 0.5000000000004, 0.5000000000004)
        assert decay_factors(p).lambda1 == -1.0
        assert decay_factors(p, 2**53 + 1).lambda1 == -1.0


class TestDepolarizingProbs:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.0, (1.0, 0.0, 0.0, 0.0)),
            (1.0, (0.25, 0.25, 0.25, 0.25)),
            (0.5, (0.625, 0.125, 0.125, 0.125)),
        ],
    )
    def test_values(self, p, expected):
        assert depolarizing_probs(p).as_tuple() == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            depolarizing_probs(1.5)
        with pytest.raises(ValidationError):
            depolarizing_probs(-0.1)
