import math
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eprlink import (
    DomainError,
    ErrorDensities,
    LinkGeometry,
    MeasurementPoint,
    NumericError,
    SweepRow,
    SweepTable,
    ValidationError,
    concurrence,
    concurrence_vs_length,
    estimate_mu,
    fit_mu,
    sweep,
    threshold_depolarizing,
    threshold_double_flip,
    threshold_generic,
    transmit_at_length,
)
from eprlink import analysis
from eprlink.analysis import _bisect
from eprlink.channel import _decays, _hadamard
from eprlink.epr import BellDiagonal, _decay_rates, _raw_concurrence

rng = np.random.default_rng(20240504)


def _bell_weights(rates, length):
    # The closed form's (a, b, c, d) at one total length, before BellDiagonal clamps them.
    a, b, d, c = _hadamard(*_decays(rates, length))
    return a, b, c, d


def _mp_threshold(mu, guess):
    """The threshold of ``mu``, bisected in 80-digit arithmetic.

    The bracket is ``guess`` widened by 1e-9 either way; both of its signs are
    checked exactly, so the root lies in it whatever ``guess`` is.
    """
    with mpmath.workdps(80):
        m1, m2, m3 = (mpmath.mpf(m) for m in mu.as_tuple())

        def raw(length):
            return (
                mpmath.exp(-2 * (m1 + m2) * length)
                + mpmath.exp(-2 * (m1 + m3) * length)
                + mpmath.exp(-2 * (m2 + m3) * length)
                - 1
            )

        lo = mpmath.mpf(guess) * (1 - mpmath.mpf("1e-9"))
        hi = mpmath.mpf(guess) * (1 + mpmath.mpf("1e-9"))
        assert raw(lo) > 0 >= raw(hi), mu
        for _ in range(80):
            mid = (lo + hi) / 2
            if raw(mid) > 0:
                lo = mid
            else:
                hi = mid
        return hi


def _ulps(got, want):
    # Distance of float ``got`` from ``want`` (a float or an mpf), in ulps of got.
    with mpmath.workdps(80):
        return float(abs(mpmath.mpf(got) - want) / math.ulp(got))


# The reference form of the least-squares solver, one closed-form evaluation
# per step as written out in its docstring: the slope and rms below, and the
# bracket loop and bisection that the library ran before it took regula falsi
# steps inside the bracket of the per-point estimates.


def _reference_rms(points, mu):
    sse = sum(
        (p.qber - 0.75 * (1.0 - math.exp(-4.0 * mu * p.total_length_km))) ** 2 for p in points
    )
    return math.sqrt(sse / len(points))


def _reference_slope(points, mu):
    total = 0.0
    for p in points:
        decay = math.exp(-4.0 * mu * p.total_length_km)
        model = 0.75 * (1.0 - decay)
        total += 2.0 * (model - p.qber) * 3.0 * p.total_length_km * decay
    return total


def _reference_fit_mu(points):
    if all(p.qber == 0.0 for p in points):
        return 0.0, 0.0
    lo, hi = 0.0, 1.0
    for _ in range(1024):
        slope = _reference_slope(points, hi)
        if slope > 0.0:
            break
        if slope == 0.0 and _reference_rms(points, hi) > 0.0:
            hi = 0.5 * hi
        else:
            lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _reference_slope(points, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    mu = 0.5 * (lo + hi)
    return mu, _reference_rms(points, mu)


def _reference_threshold(mu):
    """The threshold solver's doubling and halving loop written out, in
    scaled units, returning the length in km or None (never-vanishes)."""
    if sum(1 for m in mu if m > 0.0) < 2:
        return None
    e = math.frexp(max(mu))[1]
    m1, m2, m3 = (math.ldexp(m, -e) for m in mu)
    r0, r1, r2 = sorted((-2.0 * (m1 + m2), -2.0 * (m1 + m3), -2.0 * (m2 + m3)))

    def raw(length):
        return math.exp(r0 * length) + math.exp(r1 * length) + math.expm1(r2 * length)

    lo, hi = 0.0, 1.0
    while raw(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if raw(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    if e <= 0 and hi > math.ldexp(2.0**1023, e):
        return None
    return math.ldexp(hi, -e)


def _density_corpus(gen):
    """Depolarizing, double-flip, single-flip and generic triples over 1e-30..1e3 /km,
    plus subnormal ones."""
    corpus = []
    for m in list(10.0 ** gen.uniform(-30.0, 3.0, 60)) + [5e-324, 1e-310, 2e-308, 3e-309]:
        m = float(m)
        corpus += [(m, m, m), (m, m, 0.0), (0.0, m, m), (m, 0.0, m), (0.0, 0.0, m), (m, 0.0, 0.0)]
    for _ in range(60):
        corpus.append(tuple(float(v) for v in 10.0 ** gen.uniform(-30.0, 3.0, 3)))
    for _ in range(20):
        corpus.append((float(gen.choice([5e-324, 1e-315, 2e-310])),) + tuple(
            float(v) for v in 10.0 ** gen.uniform(-30.0, 3.0, 2)
        ))
    return [ErrorDensities(*m) for m in corpus]


def _campaign_corpus(gen):
    """QBER campaigns of 2 to 6 points: noisy model data over 1e-30..1e3 /km at
    lengths near the decay length, subnormal densities, and 200-400 km links."""
    campaigns = []
    for mu in _density_corpus(gen):
        total = sum(mu.as_tuple())
        if total == 0.0:
            continue
        for span in ((200.0, 400.0), None):
            count = int(gen.integers(2, 7))
            if span:
                lengths = [float(v) for v in gen.uniform(*span, count)]
            else:
                lengths = [10.0 ** float(v) / total for v in gen.uniform(-2.0, 1.0, count)]
            points = []
            for length in lengths:
                if not 0.0 < length < 1e300:
                    continue
                qber = 0.75 * (1.0 - math.exp(-4.0 * total / 3.0 * length))
                qber *= 1.0 + float(gen.uniform(-0.05, 0.05))
                points.append(MeasurementPoint(min(qber, 0.7499), length))
            if len(points) >= 2:
                campaigns.append(points)
    return campaigns


class TestThresholdDepolarizing:
    def test_reference_rate(self):
        got = threshold_depolarizing(8e-3)
        assert got.is_finite
        assert math.isclose(got.length_km, math.log(3.0) / 0.032, rel_tol=1e-15)
        assert 34.0 <= got.length_km <= 34.7

    def test_unit_solving(self):
        assert threshold_depolarizing(math.log(3.0) / 4.0).length_km == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_rate_never_vanishes(self):
        result = threshold_depolarizing(0.0)
        assert not result.is_finite
        assert result.kind == "never-vanishes"

    def test_densities_past_4_5e307_have_subnormal_thresholds(self):
        # 4 mu and 2 mu overflow here; the thresholds are about 2.7e-309 km.
        with mpmath.workdps(50):
            constants = {
                threshold_depolarizing: mpmath.log(3) / 4,
                threshold_double_flip: mpmath.log(1 / (mpmath.sqrt(2) - 1)) / 2,
            }
            for closed, constant in constants.items():
                for mu in (4.6e307, 1e308, 1.7976931348623157e308):
                    assert _ulps(closed(mu).length_km, constant / mu) <= 1.0, (closed, mu)

    def test_concurrence_vanishes_at_threshold(self):
        for mu in (0.002, 0.008, 0.05):
            th = threshold_depolarizing(mu).length_km
            densities = ErrorDensities(mu, mu, mu)
            assert concurrence_vs_length(densities, th * (1.0 - 1e-6)) > 0.0
            assert concurrence_vs_length(densities, th) <= 1e-12


class TestThresholdDoubleFlip:
    def test_reference_rate(self):
        got = threshold_double_flip(8e-3)
        assert math.isclose(got.length_km, math.log(1.0 + math.sqrt(2.0)) / 0.016, rel_tol=1e-15)
        assert math.isclose(got.length_km, 55.0858, rel_tol=1e-4)

    def test_defining_equation(self):
        for mu in (0.004, 0.008, 0.03):
            th = threshold_double_flip(mu).length_km
            x = math.exp(-2.0 * mu * th)
            assert abs(x * x + 2.0 * x - 1.0) < 1e-12

    def test_outlives_depolarizing(self):
        for mu in rng.uniform(1e-4, 0.2, 20):
            assert threshold_double_flip(mu).length_km > threshold_depolarizing(mu).length_km

    def test_zero_rate_never_vanishes(self):
        result = threshold_double_flip(0.0)
        assert not result.is_finite
        assert result.kind == "never-vanishes"


class TestThresholdGeneric:
    def test_single_flip_never_vanishes(self):
        assert not threshold_generic(ErrorDensities(0.008, 0.0, 0.0)).is_finite
        assert not threshold_generic(ErrorDensities(0.0, 0.1, 0.0)).is_finite
        assert not threshold_generic(ErrorDensities(0.0, 0.0, 0.0)).is_finite

    def test_matches_depolarizing_closed_form(self):
        for mu in (0.002, 0.008, 0.05):
            got = threshold_generic(ErrorDensities(mu, mu, mu)).length_km
            assert abs(got - threshold_depolarizing(mu).length_km) < 1e-9

    def test_matches_double_flip_closed_form(self):
        for mu in (0.002, 0.008, 0.05):
            got = threshold_generic(ErrorDensities(mu, mu, 0.0)).length_km
            assert abs(got - threshold_double_flip(mu).length_km) < 1e-9

    def test_brackets_the_root(self):
        for _ in range(50):
            values = rng.uniform(1e-3, 0.05, 3)
            if rng.random() < 0.5:
                values[rng.integers(0, 3)] = 0.0
            mu = ErrorDensities(*values)
            result = threshold_generic(mu)
            assert result.is_finite
            assert concurrence_vs_length(mu, result.length_km - 1e-6) > 0.0
            assert concurrence_vs_length(mu, result.length_km) <= 1e-12

    def test_matches_closed_forms_over_float_range(self):
        # Float spacing exceeds the 1e-10 km tolerance above ~1e6 km; the
        # bisection must still stop, and the bracket must reach 1e29 km.
        for mu in np.logspace(-30.0, 3.0, 67):
            mu = float(mu)
            for densities, closed in (
                (ErrorDensities(mu, mu, mu), threshold_depolarizing),
                (ErrorDensities(mu, mu, 0.0), threshold_double_flip),
                (ErrorDensities(0.0, mu, mu), threshold_double_flip),
            ):
                start = time.perf_counter()
                got = threshold_generic(densities).length_km
                assert time.perf_counter() - start < 1.0
                want = closed(mu).length_km
                assert abs(got - want) <= max(1e-10, 1e-12 * want)

    def test_matches_closed_forms_at_subnormal_densities(self):
        # ln(3)/(4 mu) passes the bisection's 2**1023 km reach near mu = 3e-309
        # and overflows below ~1e-309; there both routes answer never-vanishes.
        grid = np.concatenate(
            [np.geomspace(5e-324, 1e-290, 800), np.linspace(1e-309, 8e-309, 36)]
        )
        for mu in map(float, grid):
            for densities, closed in (
                (ErrorDensities(mu, mu, mu), threshold_depolarizing),
                (ErrorDensities(mu, mu, 0.0), threshold_double_flip),
            ):
                got = threshold_generic(densities).length_km
                want = closed(mu).length_km
                if want is None:
                    assert got is None, mu
                else:
                    assert got is not None and abs(got - want) <= 1e-12 * want, mu

    def test_matches_mpmath_bisection(self):
        # Generic triples, density ratio up to 1e30, scaled over 1e-270..1e300
        # /km, some with one density 0.
        gen = np.random.default_rng(20261018)
        for _ in range(100):
            values = 10.0 ** gen.uniform(-270.0, 300.0) * 10.0 ** gen.uniform(-30.0, 0.0, 3)
            if gen.random() < 0.3:
                values[gen.integers(0, 3)] = 0.0
            mu = ErrorDensities(*map(float, values))
            got = threshold_generic(mu).length_km
            assert _ulps(got, _mp_threshold(mu, got)) <= 4.0, mu
            # The upper end of a bracket collapsed to adjacent floats: the
            # solver's criterion, in its scaled units, is still positive one
            # float below.
            e = math.frexp(max(mu.as_tuple()))[1]
            m1, m2, m3 = (math.ldexp(m, -e) for m in mu.as_tuple())
            rates = sorted((-2.0 * (m1 + m2), -2.0 * (m1 + m3), -2.0 * (m2 + m3)))
            t = math.ldexp(got, e)
            assert _raw_concurrence(rates, t) <= 0.0 < _raw_concurrence(
                rates, math.nextafter(t, 0.0)
            ), mu

    def test_low_density_terminates(self):
        got = threshold_generic(ErrorDensities(1e-9, 1e-9, 1e-9)).length_km
        assert math.isclose(got, threshold_depolarizing(1e-9).length_km, rel_tol=1e-12)

    @given(
        st.floats(min_value=5e-324, max_value=1.7e308),
        st.sampled_from(
            [
                ((1, 1, 1), threshold_depolarizing),
                ((1, 1, 0), threshold_double_flip),
                ((1, 0, 1), threshold_double_flip),
                ((0, 1, 1), threshold_double_flip),
            ]
        ),
    )
    def test_symmetric_patterns_match_closed_forms(self, m, pattern):
        axes, closed = pattern
        got = threshold_generic(ErrorDensities(*(m * a for a in axes))).length_km
        want = closed(m).length_km
        if got is None or want is None:
            # Both never-vanish, or they fall either side of the 2**1023 km reach.
            reach = 2.0**1023
            assert got == want or _ulps(reach, got or want) <= 4.0, m
        else:
            assert _ulps(want, got) <= 4.0, m

    @pytest.mark.parametrize(
        "densities",
        [
            (1e12, 5e11, 1e11),  # a threshold far below 1e-10 km
            (1e308, 1e308, 1e308),  # rates -2 (mu_i + mu_j) past the float range
            (1.0, 1e-20, 0.0),  # a density that 1 + x would absorb
            (0.008, 0.008, 0.008),
        ],
    )
    def test_probes_match_mpmath_bisection(self, densities):
        mu = ErrorDensities(*densities)
        got = threshold_generic(mu).length_km
        assert _ulps(got, _mp_threshold(mu, got)) <= 4.0

    def test_smallest_densities_never_vanish(self):
        # The threshold, ln(3) / (4 * 5e-324) km, is past the 2**1023 km reach.
        assert not threshold_generic(ErrorDensities(5e-324, 5e-324, 5e-324)).is_finite

    def test_bit_identical_to_reference_threshold(self):
        # Generic triples, density ratio up to 1e30, scaled over 1e-300..1e300
        # /km: about 30% with one density 0 and 20% with all three equal.
        gen = np.random.default_rng(20261019)
        triples = _density_corpus(gen)
        for _ in range(2400):
            scale, pick = 10.0 ** gen.uniform(-300.0, 300.0), gen.random()
            values = [scale] * 3 if pick < 0.2 else scale * 10.0 ** gen.uniform(-30.0, 0.0, 3)
            if 0.2 <= pick < 0.5:
                values[gen.integers(0, 3)] = 0.0
            triples.append(ErrorDensities(*map(float, values)))
        assert len(triples) > 2400
        # Near-equal densities (depolarizing within 1e-15 relative) and the
        # (m, m, 0) patterns over the same scales.
        for _ in range(300):
            m = float(10.0 ** gen.uniform(-300.0, 300.0))
            near = (m * (1.0 + 1e-15 * float(d)) for d in gen.integers(-1, 2, 3))
            triples.append(ErrorDensities(*near))
            for pattern in ((m, m, 0.0), (0.0, m, m), (m, 0.0, m)):
                triples.append(ErrorDensities(*pattern))
        for mu in triples:
            want = _reference_threshold(mu)
            got = threshold_generic(mu).length_km
            if want is None:
                assert got is None, mu
            else:
                assert got.hex() == want.hex(), mu

    @pytest.mark.parametrize(
        "densities, named",
        [
            ((1e300, 1e-300, 0.0), "1e+300 and 1e-300"),
            ((1e10, 0.0, 1e-315), "10000000000.0 and 1e-315"),
        ],
    )
    def test_densities_too_far_apart_to_scale_raise(self, densities, named):
        # Scaled by the power of two at 1e300 (or 1e10), the smaller density
        # is 0.0, and the loop returns where exp(r0 L) underflows: 3.72567e-298
        # km for the first, where a 700-digit bisection gives 6.87509e-298 km.
        mu = ErrorDensities(*densities)
        assert _reference_threshold(mu) > 0.0
        with pytest.raises(DomainError) as info:
            threshold_generic(mu)
        assert str(info.value) == f"error densities {named} /km are too far apart"

    def test_criterion_that_never_falls_raises_instead_of_hanging(self, monkeypatch):
        # The upper end doubles up to the largest float, about 1024 steps, and
        # stops there: an unbounded doubling loop never returns.
        monkeypatch.setattr(analysis, "_raw_concurrence", lambda rates, length: 1.0)
        with pytest.raises(NumericError, match="^could not bracket the threshold$"):
            threshold_generic(ErrorDensities(0.01, 0.02, 0.0))

    def test_subnormal_density_that_scales_is_kept(self):
        # 1e-320 scaled by 2**-1 is still positive: two densities remain.
        mu = ErrorDensities(1.0, 1e-320, 0.0)
        got = threshold_generic(mu).length_km
        assert got.hex() == _reference_threshold(mu).hex()
        assert f"{got:.6g}" == "365.463"


class TestEstimateMu:
    def test_drift_observation(self):
        mu = estimate_mu(MeasurementPoint(0.01, 0.4))
        assert 8.3e-3 <= mu <= 8.5e-3

    def test_qber_observation(self):
        mu = estimate_mu(MeasurementPoint(0.043, 1.45))
        assert 1.00e-2 <= mu <= 1.04e-2

    def test_zero_qber(self):
        assert estimate_mu(MeasurementPoint(0.0, 5.0)) == 0.0

    @pytest.mark.parametrize("qber", [0.0, 1e-20, 5e-324])
    @pytest.mark.parametrize("length", [1.0, 5e-324, 1e308])
    def test_zero_estimate_is_positive_zero(self, qber, length):
        # -ln(1) / 4 / L is -0.0; the estimate, and the fit of that one point, is 0.0
        point = MeasurementPoint(qber, length)
        assert estimate_mu(point).hex() == "0x0.0p+0"
        assert fit_mu([point])[0].hex() == "0x0.0p+0"

    def test_round_trips_the_forward_model(self):
        # 4 mu L capped at 10: beyond that the qber sits within 1e-5 of the
        # 0.75 floor and the 1 - q cancellation alone costs more than 1e-12
        for _ in range(100):
            mu = rng.uniform(1e-4, 0.1)
            exponent = rng.uniform(0.004, 10.0)
            length = exponent / (4.0 * mu)
            qber = 0.75 * (1.0 - math.exp(-exponent))
            recovered = estimate_mu(MeasurementPoint(qber, length))
            assert math.isclose(recovered, mu, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "qber, length", [(0.5, 1e308), (0.5, 4.5e307), (0.01, 1.7976931348623157e308), (0.7, 6e307)]
    )
    def test_lengths_where_4l_overflows(self, qber, length):
        # 4 L is inf here; the estimate used to collapse to mu = 0
        assert math.isinf(4.0 * length)
        with mpmath.workdps(50):
            want = -mpmath.log((3 - 4 * mpmath.mpf(qber)) / 3) / (4 * mpmath.mpf(length))
        got = estimate_mu(MeasurementPoint(qber, length))
        assert got > 0.0
        assert abs(got - want) <= 1e-12 * want

    def test_unchanged_where_4l_is_finite(self):
        # the overflow-safe division rounds exactly as -ln(...) / (4 L) does
        gen = np.random.default_rng(20261018)
        for _ in range(2000):
            qber = float(gen.choice([gen.uniform(0.0, 0.75), 10.0 ** gen.uniform(-320.0, -0.2)]))
            length = float(10.0 ** gen.uniform(-323.0, math.log10(4.4e307)))
            if length == 0.0:
                continue
            point = MeasurementPoint(qber, length)
            # + 0.0 turns the -0.0 of a logarithm that rounds to 0 into 0.0
            direct = -math.log((3.0 - 4.0 * qber) / 3.0) / (4.0 * length) + 0.0
            if math.isinf(direct):
                with pytest.raises(DomainError, match="implied error density overflows"):
                    estimate_mu(point)
            else:
                assert estimate_mu(point).hex() == direct.hex()


class TestFitMu:
    def test_empty_input(self):
        with pytest.raises(ValidationError):
            fit_mu([])

    def test_single_point_reduces_to_estimate(self):
        point = MeasurementPoint(0.01, 0.4)
        mu, rms = fit_mu([point])
        assert mu == estimate_mu(point)
        assert rms < 1e-12

    def test_recovers_noiseless_synthetic_data(self):
        true_mu = 0.01
        points = [
            MeasurementPoint(0.75 * (1.0 - math.exp(-4.0 * true_mu * length)), length)
            for length in (1.0, 5.0, 10.0, 20.0)
        ]
        mu, rms = fit_mu(points)
        assert abs(mu - true_mu) < 1e-9
        assert rms < 1e-12

    def test_fit_bracketed_by_per_point_estimates(self):
        points = [MeasurementPoint(0.01, 0.4), MeasurementPoint(0.043, 1.45)]
        mu, _ = fit_mu(points)
        lo, hi = sorted(estimate_mu(p) for p in points)
        assert lo <= mu <= hi

    def test_points_beyond_decay_underflow(self):
        # exp(-4 mu L) underflows at the first bracket end, mu = 1/km
        true_mu = 1e-3
        points = [
            MeasurementPoint(0.75 * (1.0 - math.exp(-4.0 * true_mu * length)), length)
            for length in (200.0, 300.0, 400.0)
        ]
        mu, _ = fit_mu(points)
        assert math.isclose(mu, true_mu, rel_tol=1e-9)

    # Campaigns whose fit is not the reference's: eight moved 2 to 124 ulps
    # inside the slope's band of noisy signs, and 417 to the other local
    # minimum, 6.18e-7 -> 1.50e-7 /km (rms 0.0201 -> 0.0067).
    _MOVED_FROM_REFERENCE = (115, 243, 417, 494, 502, 716, 744, 834, 840)

    def test_bit_identical_to_reference_fit(self):
        campaigns = _campaign_corpus(np.random.default_rng(20261022))
        assert len(campaigns) > 300
        # an objective with local minima near 2.6e-29 and 9.35e-29 /km
        campaigns.append([
            MeasurementPoint(0.011912406880146999, 4.0771052497558764e25),
            MeasurementPoint(0.01620979901579673, 5.8883510341838265e25),
            MeasurementPoint(0.7153676894742085, 2.9827568789217064e28),
        ])
        moved = []
        for i, points in enumerate(campaigns):
            mu, rms = fit_mu(points)
            if all(p.qber == 0.0 for p in points):
                assert (mu, rms) == (0.0, 0.0)
                continue
            # mu is the midpoint of adjacent floats n < p, so it is one of
            # them, with the reference slope > 0 at p and not at n.
            pairs = [(math.nextafter(mu, -math.inf), mu), (mu, math.nextafter(mu, math.inf))]
            assert any(
                _reference_slope(points, p) > 0.0
                and not _reference_slope(points, n) > 0.0
                and (0.5 * (n + p)).hex() == mu.hex()
                for n, p in pairs
            ), points
            assert rms.hex() == _reference_rms(points, mu).hex(), points
            if [mu.hex(), rms.hex()] != [v.hex() for v in _reference_fit_mu(points)]:
                moved.append(i)
        assert tuple(moved) == self._MOVED_FROM_REFERENCE

    def test_single_point_past_the_float_range_raises(self):
        # estimate_mu and fit_mu raise as the CLI does
        point = MeasurementPoint(0.7499999999, 1e-320)
        for call in (estimate_mu, lambda p: fit_mu([p])):
            with pytest.raises(DomainError) as info:
                call(point)
            assert str(info.value) == (
                "implied error density overflows: qber 0.7499999999 at 1e-320 km"
                " needs more than 1.798e+308 /km"
            )

    def test_densities_where_4_mu_overflows(self):
        # mu = 6.8e307 /km, past ~4.5e307, where 4 mu overflows and mu L does not
        point = MeasurementPoint(0.7, 1e-308)
        assert fit_mu([point]) == (estimate_mu(point), 0.0)
        mu, rms = fit_mu([point, point])
        assert math.isclose(mu, estimate_mu(point), rel_tol=1e-12)
        assert rms < 1e-12

    def test_all_zero_qber(self):
        mu, rms = fit_mu([MeasurementPoint(0.0, 1.0), MeasurementPoint(0.0, 2.0)])
        assert mu == 0.0 and rms == 0.0

    def test_estimates_that_round_to_zero_bracket_the_optimum(self):
        # log((3 - 4e-20) / 3) rounds to 0, so each estimate is 0.0.  The
        # optimum, near 1e-20 / (3e308) /km, underflows: the slope is
        # negative at 0 and positive at 5e-324, whose midpoint rounds to 0.0.
        point = MeasurementPoint(1e-20, 1e308)
        assert estimate_mu(point) == 0.0
        mu, rms = fit_mu([point, point])
        assert (mu.hex(), rms) == ("0x0.0p+0", 1e-20)

    def test_slope_that_underflows_everywhere_raises_without_cycling(self):
        # At 5e-324 km, mu L < 9e-16 for every float mu, so |model - qber| <
        # 3e-15, and each slope term 6 (model - qber) L decay underflows to
        # +-0: the slope has no sign change in [0, largest float], and no
        # bracket exists.  The upper end doubles from 5e-324 to the largest
        # float, each mu once, and then the fit raises.
        seen = []

        def record(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "derivative":
                seen.append(frame.f_locals["mu"])

        point = MeasurementPoint(1e-20, 5e-324)
        sys.setprofile(record)
        try:
            with pytest.raises(NumericError, match="could not bracket the least-squares optimum"):
                fit_mu([point, point])
        finally:
            sys.setprofile(None)
        assert seen[:2] == [0.0, 0.0]
        assert seen[2:] == sorted(set(seen[2:]))
        assert seen[-1] == sys.float_info.max
        assert len(seen) <= 2 + 1074 + 1024 + 1


def _plain_bisection_evaluations(f, pos, neg):
    # Evaluations of plain bisection from the same bracket to adjacent floats.
    count = 0
    while True:
        mid = 0.5 * pos + 0.5 * neg
        if mid == pos or mid == neg:
            return count
        count += 1
        if f(mid) > 0.0:
            pos = mid
        else:
            neg = mid


# Criteria and their brackets (pos, neg): steps, plateaus of exact 0.0, nan,
# the whole float range, subnormal ends, falling (pos < neg) and rising.
_ADVERSARIAL_CRITERIA = {
    "step": (lambda x: 1.0 if x > 0.3 else -1.0, 1.0, 0.0),
    "falling step": (lambda x: 1.0 if x < 0.3 else -1.0, 0.0, 1.0),
    "zero plateau": (lambda x: max(x - 0.7, 0.0), 1.0, 0.0),
    "underflowed slope": (lambda x: (x - 0.3) * 1e-320, 1.0, 0.0),
    "nan below": (lambda x: x - 0.3 if x > 0.3 else math.nan, 1.0, 0.0),
    "whole float range": (lambda x: x - 3.0, sys.float_info.max, 0.0),
    "whole float range, concave": (lambda x: math.sqrt(x) - 1e-100, sys.float_info.max, 0.0),
    "whole float range, logarithmic": (lambda x: math.log1p(x) - 50.0, sys.float_info.max, 0.0),
    "whole float range, convex": (
        lambda x: math.expm1(min(x, 700.0)) - 1.0, sys.float_info.max, 0.0
    ),
    "largest floats": (lambda x: x - 1.5e308, sys.float_info.max, 1e308),
    "subnormal": (lambda x: x - 3e-318, 1e-310, 5e-324),
    "subnormal, convex": (lambda x: x * 1e300 * x * 1e300 - 1e-40, 1e-310, 5e-324),
    "falling": (lambda x: math.exp(-x) - 1e-5, 0.0, 100.0),
    "rising": (lambda x: x**4 - 1.0, 1e10, 0.0),
    # The secant point is nan: (-inf) * -0.0 here, inf / inf below.
    "step onto 0.0 across the float range": (
        lambda x: 1.0 if x < 1e308 else 0.0, -1.7e308, 1.7e308
    ),
    "infinite ends": (lambda x: math.inf if x < 3.0 else -math.inf, 0.0, 8.0),
    # An end on the wrong side of the root, neg or pos, falling and rising.
    "falling, neg short of the root": (lambda x: math.exp(-x) - 1e-5, 0.0, 1.0),
    "falling, pos past the root": (lambda x: math.exp(-x) - 1e-5, 50.0, 100.0),
    "rising, neg past the root": (lambda x: x**4 - 1.0, 1e10, 2.0),
    "rising, pos short of the root": (lambda x: x**4 - 1.0, 0.25, 0.0),
}

# Criteria with no sign change, each from ends one step short of 0 or of the
# largest float on the side where its wrong end steps.
_NO_SIGN_CHANGE = {
    "positive, rising, neg to 0": (lambda x: 1.0, 1e-323, 5e-324),
    "positive, falling, neg to the largest float": (lambda x: 1.0, 2.0**1022, 2.0**1023),
    "nonpositive, rising, pos to the largest float": (lambda x: 0.0, 2.0**1023, 2.0**1022),
    "nonpositive, falling, pos to 0": (lambda x: -1.0, 5e-324, 1e-323),
}


def _bounded_bisect(f, pos, neg):
    # `_bisect` under a bound on its evaluations: any three steps at least
    # halve the bracket, so at most three for each of plain bisection's,
    # plus three.  A regula falsi that stalls (an end that never moves) runs
    # past the bound.
    bound = 3 * _plain_bisection_evaluations(f, pos, neg) + 3
    calls = []

    def counted(x):
        calls.append(x)
        assert len(calls) <= bound, f"more than {bound} evaluations"
        return f(x)

    return _bisect(counted, pos, neg, "a root")


class TestBisect:
    @pytest.mark.parametrize(
        "f, pos, neg", list(_ADVERSARIAL_CRITERIA.values()), ids=list(_ADVERSARIAL_CRITERIA)
    )
    def test_contract_on_adversarial_criteria(self, f, pos, neg):
        p, n = _bounded_bisect(f, pos, neg)
        assert math.nextafter(min(p, n), math.inf) == max(p, n)
        assert (p > n) == (pos > neg)
        assert f(p) > 0.0 and not f(n) > 0.0

    @pytest.mark.parametrize(
        "name, ends",
        [
            # The secant point is nan: the midpoint is taken.
            ("step onto 0.0 across the float range", (9.999999999999998e307, 1e308)),
            ("infinite ends", (2.9999999999999996, 3.0)),
            # A start with an end on the wrong side ends at the valid start's floats.
            ("falling", (11.512925464970227, 11.512925464970229)),
            ("falling, neg short of the root", (11.512925464970227, 11.512925464970229)),
            ("falling, pos past the root", (11.512925464970227, 11.512925464970229)),
            ("rising", (1.0000000000000002, 1.0)),
            ("rising, neg past the root", (1.0000000000000002, 1.0)),
            ("rising, pos short of the root", (1.0000000000000002, 1.0)),
            # No sign change: the wrong end stops at 0 or the largest float.
            *((name, None) for name in _NO_SIGN_CHANGE),
        ],
    )
    def test_ends(self, name, ends):
        if ends is None:
            with pytest.raises(NumericError, match="^could not bracket a root$"):
                _bounded_bisect(*_NO_SIGN_CHANGE[name])
        else:
            assert _bounded_bisect(*_ADVERSARIAL_CRITERIA[name]) == ends

    def test_smooth_criteria_take_a_fifth_of_bisection_steps(self):
        # Without the Illinois halving the logarithm takes 477 steps, not 96,
        # after the evaluations of its two ends.
        for name in ("", ", concave", ", logarithmic"):
            f, pos, neg = _ADVERSARIAL_CRITERIA["whole float range" + name]
            calls = []
            _bisect(lambda x: calls.append(x) or f(x), pos, neg, "a root")
            assert 5 * len(calls) < _plain_bisection_evaluations(f, pos, neg), name


def _reference_sweep(mu, l_max, steps):
    # Every row through transmit_at_length and concurrence, then SweepTable's
    # own check: a BellDiagonal error in any row comes before a grid error.
    rows = []
    for i in range(steps + 1):
        length = l_max * (i / steps)
        state = transmit_at_length(mu, LinkGeometry(length, 0.0))
        rows.append(SweepRow(length, concurrence(state), state.a))
    return SweepTable(tuple(rows))


def _sweep_outcome(build, *args):
    try:
        table = build(*args)
    except ValidationError as exc:
        return type(exc), str(exc)
    return [tuple(v.hex() for v in row) for row in table.rows]


_densities = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.floats(min_value=-30.0, max_value=3.0).map(lambda e: 10.0**e),
    st.floats(min_value=8.9e307, max_value=9.1e307),
)
_sweep_lengths = st.one_of(
    st.floats(min_value=5e-324, max_value=1e308),
    st.floats(min_value=-323.0, max_value=308.0).map(lambda e: 10.0**e),
)


class TestSweep:
    @given(st.tuples(_densities, _densities, _densities), _sweep_lengths, st.integers(2, 200))
    @example((0.0, 0.0, 1e308), 5e-324, 4)
    @example((9e307, 0.0, 0.0), 1e308, 2)
    @example((0.01, 0.02, 0.03), 5e-324, 4)
    @example((5e-324, 5e-324, 5e-324), 1e308, 200)
    def test_matches_per_row_checks(self, densities, l_max, steps):
        # The per-curve check gives what checking every row gave: the same
        # rows bit for bit, or the same exception and message.
        mu = ErrorDensities(*densities)
        got = _sweep_outcome(sweep, mu, l_max, steps)
        assert got == _sweep_outcome(_reference_sweep, mu, l_max, steps)
        if isinstance(got, list):
            table = sweep(mu, l_max, steps)
            assert SweepTable(table.rows) == table
            rates = _decay_rates(mu)
            for row in table.rows:
                assert BellDiagonal(*_bell_weights(rates, row.length_km)).a == row.fidelity

    @pytest.mark.parametrize(
        "densities", [(1e308, 1e308, 1e308), (5e307, 5e307, 0.0), (0.0, 0.0, 1e308)]
    )
    @pytest.mark.parametrize("l_max", [60.0, 5e-324])
    def test_overflowing_decay_rates_are_rejected(self, densities, l_max):
        # one, two or three of the rates -2 (mu_i + mu_j) overflow to -inf,
        # and row 0 is 0 * -inf = nan, before any grid length is compared
        with pytest.raises(ValidationError) as info:
            sweep(ErrorDensities(*densities), l_max, 4)
        assert str(info.value) == "Bell weight a must be a finite number, got nan"

    def test_grid_contract(self):
        mu = ErrorDensities(0.008, 0.008, 0.008)
        table = sweep(mu, 60.0, 120)
        assert len(table.rows) == 121
        first = table.rows[0]
        assert (first.length_km, first.concurrence, first.fidelity) == (0.0, 1.0, 1.0)
        lengths = [r.length_km for r in table.rows]
        assert lengths == sorted(lengths)
        assert math.isclose(lengths[-1], 60.0, rel_tol=1e-15)

    def test_zero_beyond_depolarizing_threshold(self):
        mu = 0.008
        th = threshold_depolarizing(mu).length_km
        table = sweep(ErrorDensities(mu, mu, mu), 60.0, 120)
        for row in table.rows:
            if row.length_km < th - 0.5:
                assert row.concurrence > 0.0
            elif row.length_km > th:
                assert row.concurrence == 0.0

    def test_non_increasing(self):
        mu = ErrorDensities(*rng.uniform(0.001, 0.05, 3))
        table = sweep(mu, 80.0, 200)
        values = [r.concurrence for r in table.rows]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_rows_are_named_tuples(self):
        row = sweep(ErrorDensities(0.008, 0.008, 0.008), 60.0, 120).rows[60]
        assert SweepRow._fields == ("length_km", "concurrence", "fidelity")
        assert row == (row.length_km, row.concurrence, row.fidelity)
        assert repr(row) == (
            "SweepRow(length_km=30.0, concurrence=0.07433932896266793,"
            " fidelity=0.537169664481334)"
        )
        assert [v.hex() for v in row] == [
            "0x1.e000000000000p+4", "0x1.307e6fab384c0p-4", "0x1.1307e6fab384cp-1"
        ]
        with pytest.raises(AttributeError):
            row.concurrence = 0.5

    def test_lengths_that_round_together_are_rejected(self):
        # 5e-324 * (i / 4) rounds to 0 km for i = 0, 1, 2
        with pytest.raises(ValidationError, match="sweep lengths must be strictly increasing"):
            sweep(ErrorDensities(0.01, 0.02, 0.03), 5e-324, 4)

    def test_table_rejects_rising_concurrence(self):
        rows = (SweepRow(0.0, 0.5, 0.75), SweepRow(1.0, 0.6, 0.8))
        with pytest.raises(ValidationError, match="sweep concurrence must be non-increasing"):
            SweepTable(rows)

    @pytest.mark.parametrize(
        "rows, field",
        [
            ((SweepRow(0.0, 1.0, 1.0), SweepRow(math.nan, 0.5, 0.75)), "length_km"),
            ((SweepRow(math.nan, 1.0, 1.0),), "length_km"),
            ((SweepRow(0.0, 1.0, 1.0), SweepRow(5.0, math.nan, 0.7)), "concurrence"),
            ((SweepRow(0.0, math.nan, 1.0),), "concurrence"),
        ],
    )
    def test_table_rejects_nan(self, rows, field):
        # Each field is checked before the rows are compared, in row 0 and after it.
        with pytest.raises(ValidationError) as info:
            SweepTable(rows)
        assert str(info.value) == f"{field} must be a finite number, got nan"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ((SweepRow(-5.0, 7.0, 9.0), SweepRow(1.0, -3.0, "x")), "length_km must be >= 0"),
            ((SweepRow("0", 1.0, 1.0),), "length_km must be a finite number, got '0'"),
            ((SweepRow(0.0, 1.5, 1.0),), r"concurrence must be in \[0, 1\], got 1.5"),
            ((SweepRow(0.0, 1.0, 1.0), SweepRow(1.0, 0.5, "x")), "fidelity must be a finite"),
            ((SweepRow(0.0, 1.0, -0.5),), r"fidelity must be in \[0, 1\], got -0.5"),
            ((SweepRow(math.inf, 1.0, 1.0),), "length_km must be a finite number, got inf"),
            (5, "sweep rows must be a sequence of .* triples"),
            ([(1.0, 0.5)], "sweep rows must be a sequence of .* triples"),
            ([None], "sweep rows must be a sequence of .* triples"),
        ],
    )
    def test_table_checks_each_field(self, rows, message):
        with pytest.raises(ValidationError, match=message):
            SweepTable(rows)

    def test_rows_equal_transmit_at_length_bit_for_bit(self):
        # log-uniform densities over 1e-30..1e3 /km, plus subnormal ones;
        # grids reach from well inside to far beyond the decay length
        gen = np.random.default_rng(20261019)
        mus = [ErrorDensities(*(10.0 ** gen.uniform(-30.0, 3.0, 3))) for _ in range(30)]
        mus += [ErrorDensities(*(10.0 ** gen.uniform(-30.0, 3.0, 2)), 0.0) for _ in range(10)]
        mus += [
            ErrorDensities(5e-324, 5e-324, 5e-324),
            ErrorDensities(2.2250738585072014e-308, 1e-310, 0.0),
            ErrorDensities(1e-320, 0.0, 3e-322),
        ]
        for mu in mus:
            for l_max in (min(1e308, 10.0 ** gen.uniform(-2.0, 1.0) / sum(mu.as_tuple())), 1e308):
                steps = int(gen.integers(2, 80))
                table = sweep(mu, l_max, steps)
                assert len(table.rows) == steps + 1
                for i, row in enumerate(table.rows):
                    state = transmit_at_length(mu, LinkGeometry(row.length_km, 0.0))
                    got = (row.length_km, row.concurrence, row.fidelity)
                    want = (l_max * (i / steps), concurrence(state), state.a)
                    assert [v.hex() for v in got] == [v.hex() for v in want], (mu, l_max, i)

    def test_rows_with_clamped_noise_equal_transmit_at_length_bit_for_bit(self):
        # One density, two equal ones, or three equal ones: weights that are
        # 0 in exact arithmetic come out of the closed form as +-1e-17 noise,
        # which BellDiagonal clamps.  The sweep keeps a without building one.
        gen = np.random.default_rng(20261024)
        noisy = 0
        for _ in range(40):
            m = float(10.0 ** gen.uniform(-4.0, 1.0))
            for densities in ((m, 0.0, 0.0), (0.0, m, m), (m, 0.0, m), (m, m, m)):
                mu = ErrorDensities(*densities)
                l_max = float(10.0 ** gen.uniform(-1.0, 1.0)) / m
                table = sweep(mu, l_max, 60)
                for row in table.rows:
                    weights = _bell_weights(_decay_rates(mu), row.length_km)
                    noisy += min(weights) < 0.0
                    state = transmit_at_length(mu, LinkGeometry(row.length_km, 0.0))
                    got = (row.concurrence, row.fidelity)
                    want = (concurrence(state), state.a)
                    assert [v.hex() for v in got] == [v.hex() for v in want], (mu, row)
        assert noisy > 500
