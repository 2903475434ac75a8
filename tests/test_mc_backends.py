import sys
import threading
import warnings

import numpy as np
import pytest

from eprlink import (
    DomainError,
    ErrorDensities,
    LinkGeometry,
    ValidationError,
    monte_carlo_transmit,
    transmit_at_length,
)
from eprlink import _mc

DEPOL = ErrorDensities(0.008, 0.008, 0.008)
GEOM = LinkGeometry(5.0, 5.0)

_K0 = np.uint64(0x9E3779B97F4A7C15)
_K1 = np.uint64(0xBF58476D1CE4E5B9)
_K2 = np.uint64(0x94D049BB133111EB)


def reference_counts(seed, samples, n1, n2, t1, t2, t3):
    """Dense per-key sampler: a float uniform for every (sample, segment) key."""
    with np.errstate(over="ignore"):
        ikey = np.uint64(seed % (1 << 64)) * _K0 + np.arange(samples, dtype=np.uint64) * _K1
        z = ikey[:, None] + np.arange(n1 + n2, dtype=np.uint64)[None, :] * _K2
        z = (z ^ (z >> np.uint64(30))) * _K1
        z = (z ^ (z >> np.uint64(27))) * _K2
        z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    e = np.zeros(u.shape, dtype=np.uint8)
    e[u < t3] = 3
    e[u < t2] = 2
    e[u < t1] = 1
    k = np.bitwise_xor.reduce(e[:, :n1], axis=1)
    l = np.bitwise_xor.reduce(e[:, n1:], axis=1)
    return np.bincount(k ^ l, minlength=4)


def reference_draw(seed, sample, segment):
    """Hash of one key before the last finalizer step, and the 53-bit draw."""
    mask = (1 << 64) - 1
    z = (seed * int(_K0) + sample * int(_K1) + segment * int(_K2)) & mask
    z = ((z ^ (z >> 30)) * int(_K1)) & mask
    z = ((z ^ (z >> 27)) * int(_K2)) & mask
    return z, (z ^ (z >> 31)) >> 11


def assert_matches_reference(seed, samples, n1, n2, t1, t2, t3):
    got = _mc.bell_outcome_counts(seed, samples, n1, n2, t1, t2, t3)
    want = reference_counts(seed, samples, n1, n2, t1, t2, t3)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist(), (seed, samples, n1, n2, t1, t2, t3)


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


@pytest.mark.parametrize("segments_per_km", [10**320, 2**1024], ids=["10**320", "2**1024"])
def test_rejects_segments_per_km_past_the_float_range(segments_per_km):
    # 1/segments_per_km used to raise OverflowError
    with pytest.raises(ValidationError, match="segments_per_km must be at most 1.798e"):
        monte_carlo_transmit(
            DEPOL, GEOM, segments_per_km=segments_per_km, samples=1, seed=0
        )


@pytest.mark.parametrize(
    "mu, l1, l2, segments_per_km",
    [
        (0.0, 1e308, 1e308, 10),  # L * segments_per_km overflows to inf
        (0.1, 1e300, 0.0, 1),  # would walk about 1e295 column tiles
        (0.1, 2.0**63, 2.0**63, 1),  # exactly 2**64 segments
        (0.1, 0.0, 2.0**64, 1),
    ],
)
def test_rejects_2_64_segments_or_more(mu, l1, l2, segments_per_km):
    # past 2**64 segments, keys j*K2 mod 2**64 repeat within a sample
    with pytest.raises(ValidationError, match=r"2\*\*64 or more segments"):
        monte_carlo_transmit(
            ErrorDensities(mu, mu, mu), LinkGeometry(l1, l2),
            segments_per_km=segments_per_km, samples=1, seed=0,
        )


def test_accepts_just_under_2_64_segments():
    # noiseless, so the kernel returns without walking the segments
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


def test_rejects_bad_counts():
    with pytest.raises(ValidationError):
        monte_carlo_transmit(DEPOL, GEOM, segments_per_km=0, samples=10, seed=0)
    with pytest.raises(ValidationError):
        monte_carlo_transmit(DEPOL, GEOM, segments_per_km=10, samples=0, seed=0)


def test_negative_seed_is_wrapped():
    counts = _mc.bell_outcome_counts(-1, 1000, 10, 10, 0.01, 0.02, 0.03)
    wrapped = _mc.bell_outcome_counts(2**64 - 1, 1000, 10, 10, 0.01, 0.02, 0.03)
    assert counts.sum() == 1000
    assert counts.tolist() == wrapped.tolist()


def test_bit_identical_to_reference_on_random_configs():
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        t1, t2, t3 = sorted(rng.uniform(0.0, 10.0 ** rng.uniform(-4.0, 0.0), 3).tolist())
        seed = int(rng.integers(-(2**63), 2**63)) * int(rng.integers(1, 4))
        assert_matches_reference(
            seed, int(rng.integers(1, 1500)), int(rng.integers(0, 300)),
            int(rng.integers(0, 300)), t1, t2, t3,
        )


@pytest.mark.parametrize("n1, n2", [(0, 37), (37, 0), (0, 0), (1, 1)])
def test_bit_identical_with_an_empty_arm(n1, n2):
    assert_matches_reference(5, 2000, n1, n2, 0.01, 0.03, 0.05)


@pytest.mark.parametrize(
    "t1, t2, t3",
    [
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.02),
        (0.0, 0.02, 0.02),
        (0.01, 0.01, 0.01),
        (0.2, 0.5, 1.0),
        (1.0, 1.0, 1.0),
        (0.5, 0.75, 1.0 - 2.0**-53),
    ],
)
def test_bit_identical_at_extreme_probabilities(t1, t2, t3):
    assert_matches_reference(11, 700, 40, 23, t1, t2, t3)


def test_bit_identical_when_draws_sit_on_the_threshold():
    # u < t fails exactly at u == t: put every threshold on a drawn value
    seed, samples, n1, n2 = 2**63 + 12345, 300, 20, 30
    keys = [reference_draw(seed, i, j) for i in range(samples) for j in range(n1 + n2)]
    draws = sorted(m for _, m in keys)
    for k in (0, 1, len(draws) // 3):
        t1, t2, t3 = (draws[k + d] * 2.0**-53 for d in (0, 40, 900))
        assert_matches_reference(seed, samples, n1, n2, t1, t2, t3)
    # The last finalizer step lowers these draws below the threshold while
    # their pre-image stays above it; they must still flip.
    lowered = [m for pre, m in keys if pre >> 11 > m]
    for m in lowered[:20]:
        t3 = (m + 1) * 2.0**-53
        assert_matches_reference(seed, samples, n1, n2, t3 / 4, t3 / 2, t3)


@pytest.mark.parametrize("seed", [0, -1, -(2**63), 2**63, 2**64 - 1, 2**64 + 7, 3**50])
def test_bit_identical_across_seed_range(seed):
    assert_matches_reference(seed, 500, 60, 60, 0.02, 0.04, 0.06)


def test_bit_identical_across_block_boundaries():
    ntot = 1000
    rows = _mc._BLOCK_KEYS // ntot
    for samples in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
        assert_matches_reference(3, samples, 400, ntot - 400, 0.002, 0.004, 0.006)
    # a single sample wider than one block
    assert_matches_reference(3, 3, _mc._BLOCK_KEYS, 5, 0.002, 0.004, 0.006)


def test_no_runtime_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (-(2**63), 2**64 - 1, 3**50):
            _mc.bell_outcome_counts(seed, 2000, 300, 300, 0.1, 0.2, 1.0)
            _mc.bell_outcome_counts(seed, 50, 0, 0, 0.0, 0.0, 0.0)
        monte_carlo_transmit(DEPOL, GEOM, segments_per_km=20, samples=5000, seed=-9)


@pytest.mark.parametrize("ntot", [40, 63, 64, 65, 200, 257])
def test_bit_identical_with_samples_wider_than_a_block(monkeypatch, ntot):
    monkeypatch.setattr(_mc, "_BLOCK_KEYS", 64)
    rows = max(1, 64 // ntot)
    for samples in (1, 2, rows, rows + 1, 3 * rows + 2):
        assert_matches_reference(9, samples, ntot // 3, ntot - ntot // 3, 0.05, 0.1, 0.2)


def test_memory_does_not_grow_with_sample_width():
    tracemalloc = pytest.importorskip("tracemalloc")

    def peak(ntot):
        tracemalloc.start()
        try:
            _mc.bell_outcome_counts(4, 1, ntot // 2, ntot - ntot // 2, 0.2, 0.5, 1.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = _mc._BLOCK_KEYS
    _mc.bell_outcome_counts(4, 1, block, block, 0.2, 0.5, 1.0)  # allocate the buffers
    narrow, wide = peak(2 * block), peak(16 * block)
    assert wide <= narrow + 4096, (narrow, wide)
    assert wide < 8 * block * 8  # a few block-sized temporaries, not the sample width


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tallies_do_not_depend_on_the_worker_count(monkeypatch, workers):
    monkeypatch.setattr(_mc, "_BLOCK_KEYS", 256)
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed, samples in ((3, 4001), (-8, 1000), (2**64 - 5, 257)):
            assert_matches_reference(seed, samples, 17, 30, 0.01, 0.03, 0.06)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("tail", [1, 7, None])
def test_bit_identical_for_any_candidate_queue_length(monkeypatch, tail):
    # Samples of 257 and 20000 keys span 2 and 79 blocks; at t3 = 1 every key
    # is a candidate, so a sample's fold carries across queue flushes.
    monkeypatch.setattr(_mc, "_BLOCK_KEYS", 256)
    configs = [(9, 1000, 17, 30, 0.01, 0.03, 0.06), (9, 3, 100, 157, 0.2, 0.5, 1.0)]
    if tail is None:
        configs.append((9, 2, 9000, 11000, 0.05, 0.1, 1.0))  # > _TAIL_KEYS per sample
    else:
        monkeypatch.setattr(_mc, "_TAIL_KEYS", tail)
    for config in configs:
        assert_matches_reference(*config)


def test_no_thread_outlives_a_call():
    before = threading.active_count()
    _mc.bell_outcome_counts(1, 20_000, 300, 300, 0.01, 0.02, 0.03)
    assert threading.active_count() == before


def test_helper_failure_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(_mc, "_BLOCK_KEYS", 256)
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    scan = _mc._scan
    helper_started = threading.Event()

    def failing_in_helper(*args):
        if threading.current_thread() is threading.main_thread():
            helper_started.wait(timeout=10.0)  # let the helper claim a group
            return scan(*args)
        helper_started.set()
        raise RuntimeError("helper failed")

    monkeypatch.setattr(_mc, "_scan", failing_in_helper)
    with pytest.raises(RuntimeError, match="helper failed"):
        _mc.bell_outcome_counts(2, 1000, 20, 20, 0.01, 0.02, 0.03)
    assert helper_started.is_set()
    assert not _mc._LOCK.locked()
    monkeypatch.setattr(_mc, "_scan", scan)
    assert_matches_reference(2, 1000, 20, 20, 0.01, 0.02, 0.03)


def test_caller_failure_stops_the_helpers(monkeypatch):
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    scan = _mc._scan
    helper_started = threading.Event()
    helper_groups = []

    def failing_in_caller(*args):
        if threading.current_thread() is threading.main_thread():
            helper_started.wait(timeout=10.0)
            raise KeyboardInterrupt
        helper_groups.append(args[2])
        helper_started.set()
        return scan(*args)

    monkeypatch.setattr(_mc, "_scan", failing_in_caller)
    with pytest.raises(KeyboardInterrupt):
        _mc.bell_outcome_counts(2, 20_000, 300, 300, 0.01, 0.02, 0.03)  # 184 groups
    assert 1 <= len(helper_groups) < 92
    assert not _mc._LOCK.locked()


def test_concurrent_callers_get_sequential_tallies():
    configs = [(5, 30_000, 100, 120, 0.01, 0.02, 0.03), (6, 20_000, 7, 300, 0.002, 0.02, 0.05)]
    sequential = [_mc.bell_outcome_counts(*c).tolist() for c in configs]
    results = [None, None]

    def call(k):
        results[k] = _mc.bell_outcome_counts(*configs[k]).tolist()

    threads = [threading.Thread(target=call, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    assert results == sequential


@pytest.mark.parametrize("seed", [1.5, 1.0, "1", None, float("nan"), b"1"])
def test_rejects_non_integer_seeds(seed):
    with pytest.raises(ValidationError, match="seed must be an integer"):
        monte_carlo_transmit(DEPOL, GEOM, segments_per_km=10, samples=10, seed=seed)


@pytest.mark.parametrize("seed", [True, np.int64(-3), np.uint64(2**64 - 1)])
def test_accepts_integer_like_seeds(seed):
    want = monte_carlo_transmit(DEPOL, GEOM, segments_per_km=10, samples=500, seed=int(seed))
    assert monte_carlo_transmit(DEPOL, GEOM, segments_per_km=10, samples=500, seed=seed) == want
