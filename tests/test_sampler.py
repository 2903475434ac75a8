"""The event-count sampler behind `monte_carlo_transmit`.

The sampler draws each sample's error events, not its segments, so its
tallies are checked in law: by z and chi-square tests over many seeds
against the exact discrete model ``transmit(iterate(seg, n1), iterate(seg,
n2))``, built from the public API, and by its Binomial table against the
exact pmf.  A table of literal tallies pins the stream itself.
"""

import math
import subprocess
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest

from eprlink import (
    DomainError,
    ErrorDensities,
    LinkGeometry,
    PauliProbs,
    ValidationError,
    iterate,
    monte_carlo_transmit,
    oracle,
    transmit,
    transmit_at_length,
)

from test_cli import child_env

DEPOL = ErrorDensities(0.008, 0.008, 0.008)
GEOM = LinkGeometry(5.0, 5.0)
SEEDS = range(40)
Z_MAX = 5.0


def discrete_reference(mu, geom, segments_per_km):
    """Exact Bell weights of the segment model at ``segments_per_km``."""
    delta = 1.0 / segments_per_km
    t1 = mu[0] * delta
    t2 = t1 + mu[1] * delta
    t3 = t2 + mu[2] * delta
    seg = PauliProbs(1.0 - t3, t1, t2 - t1, t3 - t2)
    n1, n2 = (round(length * segments_per_km) for length in geom)
    return transmit(iterate(seg, n1), iterate(seg, n2)).as_tuple()


def tallies(mu, geom, segments_per_km, samples, seed):
    est = monte_carlo_transmit(mu, geom, segments_per_km, samples, seed)
    return [round(w * samples) for w in est.bell_diagonal.as_tuple()]


def assert_tallies_follow(want, got, samples):
    """Chi-square and per-weight z tests of tallies ``got`` (a row per seed) against ``want``."""
    want, got = np.asarray(want), np.asarray(got)
    assert (got[:, want == 0.0] == 0).all()
    expected = want[want > 0.0] * samples
    chi2 = float((((got[:, want > 0.0] - expected) ** 2) / expected).sum())
    dof = (len(expected) - 1) * len(got)
    if dof:
        # Wilson-Hilferty: (chi2/dof)**(1/3) is about normal
        z_chi2 = ((chi2 / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
        assert abs(z_chi2) < Z_MAX, (chi2, dof)
    total = samples * len(got)
    for pooled, w in zip(got.sum(axis=0), want):
        if 0.0 < w < 1.0:
            assert abs(pooled / total - w) < Z_MAX * math.sqrt(w * (1 - w) / total), (pooled, w)


def test_noiseless_channel_is_exact():
    est = monte_carlo_transmit(
        ErrorDensities(0.0, 0.0, 0.0), GEOM, segments_per_km=10, samples=5000, seed=3
    )
    assert est.bell_diagonal.as_tuple() == (1.0, 0.0, 0.0, 0.0)
    assert est.standard_errors == (0.0, 0.0, 0.0, 0.0)


def test_zero_length_geometry_is_exact():
    est = monte_carlo_transmit(
        DEPOL, LinkGeometry(0.0, 0.0), segments_per_km=10, samples=1000, seed=3
    )
    assert est.bell_diagonal.as_tuple() == (1.0, 0.0, 0.0, 0.0)


def test_same_seed_same_tallies():
    a = monte_carlo_transmit(DEPOL, GEOM, segments_per_km=20, samples=20_000, seed=11)
    b = monte_carlo_transmit(DEPOL, GEOM, segments_per_km=20, samples=20_000, seed=11)
    assert a == b


def test_different_seeds_differ():
    a = monte_carlo_transmit(DEPOL, GEOM, segments_per_km=20, samples=20_000, seed=11)
    b = monte_carlo_transmit(DEPOL, GEOM, segments_per_km=20, samples=20_000, seed=12)
    assert a != b


def test_matches_closed_form():
    est = monte_carlo_transmit(DEPOL, GEOM, segments_per_km=50, samples=100_000, seed=5)
    reference = transmit_at_length(DEPOL, GEOM)
    for got, want, se in zip(
        est.bell_diagonal.as_tuple(), reference.as_tuple(), est.standard_errors
    ):
        assert abs(got - want) <= 4.0 * se


def test_discretization_bias_vanishes():
    # same sample count, finer segmentation: estimates drift by less than 1e-3
    mu = ErrorDensities(0.02, 0.02, 0.02)
    geom = LinkGeometry(0.5, 0.5)
    coarse = monte_carlo_transmit(mu, geom, segments_per_km=100, samples=1_000_000, seed=77)
    fine = monte_carlo_transmit(mu, geom, segments_per_km=1000, samples=1_000_000, seed=77)
    drift = max(
        abs(a - b)
        for a, b in zip(coarse.bell_diagonal.as_tuple(), fine.bell_diagonal.as_tuple())
    )
    assert drift < 1e-3


def test_asymmetric_arms_use_total_length():
    est = monte_carlo_transmit(
        DEPOL, LinkGeometry(8.0, 2.0), segments_per_km=50, samples=100_000, seed=21
    )
    reference = transmit_at_length(DEPOL, GEOM)  # same total length
    for got, want, se in zip(
        est.bell_diagonal.as_tuple(), reference.as_tuple(), est.standard_errors
    ):
        assert abs(got - want) <= 4.0 * se


def test_rejects_coarse_segmentation():
    with pytest.raises(DomainError, match="segments_per_km"):
        monte_carlo_transmit(
            ErrorDensities(0.5, 0.5, 0.5), GEOM, segments_per_km=1, samples=10, seed=0
        )


def test_overflowing_error_densities_raise_a_finite_domain_error():
    # mu1 + mu2 + mu3 overflows: no segments_per_km brings the probability under 1
    with pytest.raises(DomainError, match="every segments_per_km") as info:
        monte_carlo_transmit(
            ErrorDensities(1e308, 1e308, 1e308), LinkGeometry(1.0, 1.0),
            segments_per_km=1, samples=10, seed=0,
        )
    assert "inf" not in str(info.value)


def test_takes_segments_per_km_up_to_the_largest_float():
    # The greatest value the count check takes; past it see test_values.py.
    estimate = monte_carlo_transmit(
        DEPOL, LinkGeometry(0.0, 0.0), segments_per_km=int(sys.float_info.max), samples=1, seed=0
    )
    assert estimate.bell_diagonal.as_tuple() == (1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "mu, l1, l2, segments_per_km",
    [
        (0.0, 1e308, 1e308, 10),  # L * segments_per_km overflows to inf
        (0.1, 1e300, 0.0, 1),  # about 1e300 segments
        (0.1, 2.0**63, 2.0**63, 1),  # exactly 2**64 segments
        (0.1, 0.0, 2.0**64, 1),
    ],
)
def test_rejects_2_64_segments_or_more(mu, l1, l2, segments_per_km):
    # a sample's event count, up to n1 + n2, is a 64-bit unsigned integer
    with pytest.raises(ValidationError, match=r"2\*\*64 or more segments"):
        monte_carlo_transmit(
            ErrorDensities(mu, mu, mu), LinkGeometry(l1, l2),
            segments_per_km=segments_per_km, samples=1, seed=0,
        )


def test_accepts_just_under_2_64_segments():
    # noiseless, so no sample has an event
    est = monte_carlo_transmit(
        ErrorDensities(0.0, 0.0, 0.0), LinkGeometry(2.0**63, 2.0**63 - 1024),
        segments_per_km=1, samples=10, seed=0,
    )
    assert est.bell_diagonal.as_tuple() == (1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("l1, l2", [(0.004, 0.0), (0.0, 0.004), (0.005, 3.0), (2.0, 1e-300)])
def test_rejects_arms_shorter_than_half_a_segment(l1, l2):
    # round(L * 100) == 0: the arm would be sampled as noiseless, while the
    # closed form gives a = 0.99990 at L = 0.004 km
    with pytest.raises(ValidationError, match="rounds to 0 segments"):
        monte_carlo_transmit(DEPOL, LinkGeometry(l1, l2), segments_per_km=100, samples=10, seed=0)


def test_accepts_an_arm_of_just_over_half_a_segment():
    est = monte_carlo_transmit(
        DEPOL, LinkGeometry(0.006, 0.0), segments_per_km=100, samples=10, seed=0
    )
    assert est.samples == 10


@pytest.mark.parametrize(
    "l1, l2, segments_per_km, sampled",
    [
        (5.0, 5.0, 20, (5.0, 5.0)),
        (3.0, 2.0, 100, (3.0, 2.0)),
        (0.1, 0.3, 10, (0.1, 0.3)),
        # round() takes halves to even: 1.5 -> 2 segments, 2.5 -> 2 segments
        (0.015, 0.015, 100, (0.02, 0.02)),
        (0.025, 0.0, 100, (0.02, 0.0)),
        (0.006, 1.234, 100, (0.01, 1.23)),
    ],
)
def test_reports_the_sampled_arm_lengths(l1, l2, segments_per_km, sampled):
    est = monte_carlo_transmit(
        DEPOL, LinkGeometry(l1, l2), segments_per_km=segments_per_km, samples=10, seed=0
    )
    assert (est.geometry.l1_km, est.geometry.l2_km) == sampled


@pytest.mark.parametrize(
    "seed",
    [-1, -(2**63), -(3 * 2**64) + 5, 2**64, 2**64 + 7, 717897987691852588770249, 2**200],
    ids=["-1", "-2**63", "-3*2**64+5", "2**64", "2**64+7", "717897987691852588770249", "2**200"],
)
def test_seed_is_taken_modulo_2_64(seed):
    want = monte_carlo_transmit(DEPOL, GEOM, segments_per_km=10, samples=300, seed=seed % 2**64)
    assert monte_carlo_transmit(DEPOL, GEOM, segments_per_km=10, samples=300, seed=seed) == want


def test_negative_seed_is_wrapped():
    counts = monte_carlo_transmit(DEPOL, GEOM, segments_per_km=10, samples=1000, seed=-1)
    wrapped = monte_carlo_transmit(DEPOL, GEOM, segments_per_km=10, samples=1000, seed=2**64 - 1)
    assert counts.samples == 1000
    assert counts == wrapped


@pytest.mark.parametrize(
    "mu, geom, segments_per_km, samples",
    [
        # each segment is (1/4, 1/4, 1/4, 1/4): a quarter per weight, where
        # the continuum weights put a at 0.2637
        ((0.5, 0.5, 0.5), (1.0, 1.0), 2, 20_000),
        # unequal densities: b, c and d differ, which checks the fold order
        ((0.01, 0.02, 0.005), (20.0, 10.0), 1, 20_000),
        # t3 past 1/2, drawn as n minus a Binomial(n, 1 - t3) count
        ((0.3, 0.6, 0.15), (1.5, 1.0), 2, 20_000),
        # t1 = t2 = t3: every event is error 1, so b = d = 0
        ((0.05, 0.0, 0.0), (4.0, 3.0), 1, 20_000),
        # t3 = 1: every segment errs, with error 1 or 2
        ((0.5, 0.5, 0.0), (3.0, 2.0), 1, 20_000),
        # one empty arm
        ((0.02, 0.01, 0.03), (0.0, 12.0), 2, 20_000),
        # an average of 90 events a sample
        ((0.05, 0.1, 0.15), (250.0, 50.0), 1, 2000),
    ],
    ids=["quarter", "asymmetric", "past-half", "one-type", "all-err", "empty-arm", "dense"],
)
def test_tallies_match_the_discrete_model(mu, geom, segments_per_km, samples):
    want = discrete_reference(mu, geom, segments_per_km)
    got = [tallies(mu, geom, segments_per_km, samples, seed) for seed in SEEDS]
    assert_tallies_follow(want, got, samples)


@pytest.mark.parametrize(
    "t1, t2, t3",
    [
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.02),  # error 3 only
        (0.0, 0.02, 0.02),  # error 2 only
        (0.01, 0.01, 0.01),  # error 1 only
        (0.2, 0.5, 1.0),  # every segment errs
        (0.5, 0.75, 0.9999999999999999),  # a segment is clean with probability 2**-53
        (1.0, 1.0, 1.0),
    ],
)
def test_extreme_thresholds_match_the_discrete_model(t1, t2, t3):
    # the folds of 37 segments, against the 37-fold convolution of one segment
    n, samples = 37, 2000
    want = iterate(PauliProbs(1.0 - t3, t1, t2 - t1, t3 - t2), n).as_tuple()
    got = [oracle._fold_tally(seed, samples, n, t1, t2, t3).tolist() for seed in SEEDS]
    assert_tallies_follow(want, got, samples)


def test_coarse_segmentation_gives_a_quarter_per_weight():
    # 2 segments/km at mu = 0.5 /km on each axis: within 5 standard errors of
    # the discrete weights, 1/4 each, far from the continuum's a = 0.2637
    est = monte_carlo_transmit(
        ErrorDensities(0.5, 0.5, 0.5), LinkGeometry(1.0, 1.0),
        segments_per_km=2, samples=100_000, seed=1,
    )
    for got, se in zip(est.bell_diagonal.as_tuple(), est.standard_errors):
        assert abs(got - 0.25) <= Z_MAX * se
    assert abs(est.bell_diagonal.a - transmit_at_length((0.5, 0.5, 0.5), (1.0, 1.0)).a) > 0.01


@pytest.mark.parametrize("l1, l2, weights", [(3.0, 0.0, (0, 0, 1, 0)), (2.0, 2.0, (1, 0, 0, 0))])
def test_every_segment_errs_at_a_probability_of_1(l1, l2, weights):
    # t1 = t2 = t3 = 1: n errors of type 1, whose fold is n mod 2
    est = monte_carlo_transmit(
        ErrorDensities(1.0, 0.0, 0.0), LinkGeometry(l1, l2), segments_per_km=1, samples=50, seed=3
    )
    assert est.bell_diagonal.as_tuple() == weights


@pytest.mark.parametrize("geom", [(5.0, 5.0), (2.0**63, 2.0**63 - 1024)], ids=["10", "2**64-1024"])
def test_a_subnormal_error_probability_is_exact(geom):
    # 5e-324 per segment: below 2**-53 of mass is on any event, even over
    # just under 2**64 segments, so every sample is psi+
    est = monte_carlo_transmit(
        ErrorDensities(0.0, 0.0, 5e-324), geom, segments_per_km=1, samples=10, seed=0
    )
    assert est.bell_diagonal.as_tuple() == (1.0, 0.0, 0.0, 0.0)


def test_only_the_total_segment_count_matters():
    # the fold runs over both arms at once, with one threshold triple
    mu = ErrorDensities(0.02, 0.01, 0.03)
    ests = [
        monte_carlo_transmit(mu, geom, segments_per_km=10, samples=5000, seed=8)
        for geom in ((6.0, 0.0), (0.0, 6.0), (2.5, 3.5))
    ]
    assert ests[0].bell_diagonal == ests[1].bell_diagonal == ests[2].bell_diagonal


@pytest.mark.parametrize(
    "m, p",
    [
        (0, 0.3),
        (1, 0.5),
        (7, 0.2),
        (300, 0.5),
        (978, 0.4),
        (20_000, 0.01),
        (10**5, 0.01),  # k0 = 710
        (10**6, 1e-7),
    ],
)
def test_binomial_table_matches_the_exact_pmf(m, p):
    k0, table = oracle._binomial_cdf(m, p)
    assert table.dtype == np.uint64 and table[-1] == 2**53
    assert k0 + len(table) <= m + 1 and (np.diff(table.astype(np.int64)) >= 0).all()
    # it ends in the tail, not where a float sum of the pmf would reach 1
    assert len(table) <= 20 * math.sqrt(m * p * (1 - p)) + 20
    with mpmath.workdps(40):
        prob = mpmath.mpf(p)

        def pmf(k):
            return mpmath.binomial(m, k) * prob**k * (1 - prob) ** (m - k)

        cdf = mpmath.fsum(pmf(k) for k in range(k0))
        assert cdf < mpmath.mpf(2) ** -60  # the mass the table leaves out below k0
        for k, entry in enumerate(table.tolist(), start=k0):
            cdf += pmf(k)
            assert abs(entry * 2.0**-53 - float(cdf)) < 1e-13, (k, entry)
        # the last entry takes the tail, less than 2**-53 of the mass
        assert 1 - cdf < 2.0**-53 or k == m


@pytest.mark.parametrize("m, p", [(2**63, 5e-324), (10, 0.0), (2**64 - 1, 0.0)])
def test_binomial_table_without_mass_past_0(m, p):
    k0, table = oracle._binomial_cdf(m, p)
    assert (k0, table.tolist()) == (0, [2**53])


@pytest.mark.parametrize("p", [1e-10, 1e-4], ids=["mean-110", "mean-1.1e8"])
def test_binomial_table_of_many_segments_ends_in_its_tail(p):
    # 2**40 segments: a walk from 0 or towards m would never end
    m = 2**40
    k0, table = oracle._binomial_cdf(m, p)
    assert len(table) <= 20 * math.sqrt(m * p * (1 - p)) + 20 and table[-1] == 2**53
    # The median of a Binomial is floor(mp) or ceil(mp).
    median = k0 + int(table.searchsorted(np.uint64(2**52)))
    assert math.floor(m * p) <= median <= math.ceil(m * p)


# Tallies of oracle._fold_tally, pinned: (seed, samples, n, t1, t2, t3) -> tallies.
PINNED_STREAM = [
    # under one event a sample; samples 0 and 299 are idle
    ((2, 300, 40, 0.002, 0.004, 0.006), [250, 16, 16, 18]),
    ((2, 100, 25, 0.2, 0.5, 1.0), [24, 24, 26, 26]),  # t3 = 1: every segment errs
    ((5, 40, 12, 0.1, 0.4, 1.0), [12, 11, 6, 11]),
    ((0, 50, 2**64 - 1, 0.0, 0.0, 5e-324), [50, 0, 0, 0]),
    ((3**50, 100, 60, 0.3, 0.55, 0.7), [21, 28, 24, 27]),  # t3 past 1/2
    ((-(2**63), 400, 200, 0.01, 0.015, 0.02), [108, 100, 94, 98]),
    # no sample is idle: 3 to 17 events a sample
    ((7, 100, 1000, 0.003, 0.006, 0.01), [29, 21, 33, 17]),
    # t3 = 1/2 and the next float up: 9 to 21 events a sample either way
    ((11, 100, 30, 0.1, 0.3, 0.5), [22, 27, 22, 29]),
    ((11, 100, 30, 0.1, 0.3, math.nextafter(0.5, 1)), [31, 27, 22, 20]),
    # tables that start past 0 events: k0 = 8 and 19
    ((3, 300, 2000, 0.01, 0.02, 0.05), [77, 70, 72, 81]),
    ((-8, 30, 1200, 0.3, 0.6, 0.9), [9, 5, 8, 8]),
    # 600 and 750 expected events a sample, k0 = 375 and 499
    ((2**64 - 5, 40, 20000, 0.01, 0.02, 0.03), [14, 9, 6, 11]),
    ((9, 20, 3000, 0.25, 0.5, 0.75), [3, 5, 7, 5]),
]


def _k0(config):
    # the count that the call's Binomial table starts at
    _, _, n, _, _, t3 = config
    return oracle._binomial_cdf(n, min(t3, 1.0 - t3))[0]


def test_a_table_past_0_events_has_no_idle_draw():
    # k0 = 1 here: every sample has an event, so no draw may count as idle.
    k0, _, idle, _, _ = oracle._count_plan(870, 0.02, 0.05, 0.1)
    assert (k0, idle) == (1, 0)


def test_uniforms_are_the_splitmix64_finalizer():
    # Written out in Python ints: the pinned tallies see only the top bits of
    # a uniform, so a changed shift can leave every one of them in place.
    def finalizer(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & (2**64 - 1)
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & (2**64 - 1)
        return (z ^ (z >> 31)) >> 11

    keys = [0, 1, 2**32 + 7, 0x9E3779B97F4A7C15, 2**64 - 1]
    assert oracle._uniforms(np.array(keys, dtype=np.uint64)).tolist() == list(map(finalizer, keys))


def test_the_pinned_stream_takes_every_count_branch():
    # a table from k0 = 0 and from k0 > 0, each at t3 <= 1/2 and past it
    branches = {(_k0(config) > 0, config[5] > 0.5) for config, _ in PINNED_STREAM}
    assert branches == {(False, False), (False, True), (True, False), (True, True)}


def test_cached_count_plans_are_fresh_read_only_and_bounded():
    for config, _ in PINNED_STREAM:
        plan, fresh = oracle._count_plan(*config[2:]), oracle._count_plan.__wrapped__(*config[2:])
        assert [type(x) for x in plan] == [type(x) for x in fresh], config
        assert plan[0] == fresh[0] and plan[2:] == fresh[2:], config
        assert plan[1].dtype == fresh[1].dtype and np.array_equal(plan[1], fresh[1]), config
        with pytest.raises(ValueError, match="read-only"):
            plan[1][0] = 0
    # the least recently used plans are dropped past the bound
    for n in range(1, oracle._PLANS + 5):
        oracle._fold_tally(0, 10, n, 0.1, 0.2, 0.3)
    assert oracle._count_plan.cache_info().currsize == oracle._PLANS


@pytest.mark.parametrize("size", [oracle._PASS, 1, 3, 64])
def test_tallies_match_the_pinned_stream(monkeypatch, size):
    # A seed fixes the tallies, however a call is cut into passes: at a pass
    # size of 1, 3 or 64, samples, count draws and events all span passes,
    # and a sample's events span slices.  At a pass size of 1 only the tables
    # from k0 = 0 run, as k0 > 0 takes most of its time: k0 is one per-config
    # constant added to every count, and the other sizes check it with events
    # that span slices.  Each pin runs with its plan built, then cached.
    monkeypatch.setattr(oracle, "_PASS", size)
    for config, want in PINNED_STREAM:
        if size > 1 or _k0(config) == 0:
            oracle._count_plan.cache_clear()
            assert oracle._fold_tally(*config).tolist() == want, config
            assert oracle._fold_tally(*config).tolist() == want, config
            assert oracle._count_plan.cache_info().hits == 1, config


def test_no_runtime_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (-(2**63), 2**64 - 1, 3**50):
            oracle._fold_tally(seed, 2000, 600, 0.1, 0.2, 1.0)
            oracle._fold_tally(seed, 2000, 600, 0.1, 0.2, 0.7)
            oracle._fold_tally(seed, 50, 0, 0.0, 0.0, 0.0)
            oracle._fold_tally(seed, 50, 2**64 - 1, 0.0, 0.0, 5e-324)
        monte_carlo_transmit(DEPOL, GEOM, segments_per_km=20, samples=5000, seed=-9)


def test_memory_does_not_grow_with_sample_width():
    # At t3 = 1 a sample has one event per segment.
    tracemalloc = pytest.importorskip("tracemalloc")

    def peak(samples, n, thresholds=(0.2, 0.5, 1.0)):
        tracemalloc.start()
        try:
            oracle._fold_tally(4, samples, n, *thresholds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    size = oracle._PASS
    narrow, wide = peak(1, 2 * size), peak(1, 16 * size)
    assert wide <= narrow + 4096, (narrow, wide)
    assert wide < 8 * size * 8  # a few pass-sized arrays, not the events of a sample
    # A full pass of samples whose events span four slices, and four such passes:
    # the pass's arrays and their temporaries, not the samples of a call.
    one_pass, passes = peak(size, 4), peak(4 * size, 4)
    assert passes <= one_pass + 4096, (one_pass, passes)
    assert passes < 12 * size * 8
    # One sample of 10**6 expected events: its count table holds about 17,000
    # entries, and its events span 16 slices.
    assert peak(1, 10**7, (0.03, 0.06, 0.1)) < 8 * size * 8


def test_sampling_never_loads_numpy_random():
    # numpy.random adds several MB of resident memory; the stream is splitmix64.
    script = (
        "import sys\n"
        "from eprlink import monte_carlo_transmit\n"
        "monte_carlo_transmit((0.3, 0.6, 0.15), (2.0, 1.0), 2, 1000, 1)\n"
        "monte_carlo_transmit((0.01, 0.01, 0.01), (5.0, 5.0), 100, 1000, 1)\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was loaded'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_concurrent_callers_get_sequential_tallies():
    # the last two callers share one link config, and so its plan, from a cold cache
    configs = [
        (5, 30_000, 220, 0.01, 0.02, 0.03),
        (6, 20_000, 307, 0.02, 0.2, 0.5),
        (7, 20_000, 1000, 0.001, 0.003, 0.004),
        (8, 20_000, 1000, 0.001, 0.003, 0.004),
    ]
    sequential = [oracle._fold_tally(*c).tolist() for c in configs]
    oracle._count_plan.cache_clear()
    results = [None] * len(configs)

    def call(k):
        results[k] = oracle._fold_tally(*configs[k]).tolist()

    threads = [threading.Thread(target=call, args=(k,)) for k in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, also inside a plan's build
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == sequential


@pytest.mark.parametrize("seed", [True, np.int64(-3), np.uint64(2**64 - 1)])
def test_accepts_integer_like_seeds(seed):
    want = monte_carlo_transmit(DEPOL, GEOM, segments_per_km=10, samples=500, seed=int(seed))
    assert monte_carlo_transmit(DEPOL, GEOM, segments_per_km=10, samples=500, seed=seed) == want
