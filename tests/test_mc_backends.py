import errno
import mmap
import os
import select
import signal
import subprocess
import sys
import threading
import time
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

from test_cli import child_env

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


@pytest.mark.parametrize(
    "mu, geom, message",
    [
        ((float("nan"), 0.0, 0.0), GEOM, "mu1 must be a finite number, got nan"),
        ([0.01, 0.01, -0.01], GEOM, "mu3 must be >= 0, got -0.01"),
        (DEPOL, (-1.0, 2.0), "l1_km must be >= 0, got -1.0"),
        (DEPOL, [1.0, float("nan")], "l2_km must be a finite number, got nan"),
    ],
)
def test_look_alike_arguments_are_checked(mu, geom, message):
    with pytest.raises(ValidationError) as info:
        monte_carlo_transmit(mu, geom, segments_per_km=100, samples=10, seed=1)
    assert str(info.value) == message


@pytest.mark.parametrize("samples", [2**63, 2**64, 10**5000], ids=["2**63", "2**64", "10**5000"])
def test_rejects_2_63_samples_or_more(samples):
    # The tallies are int64; an integer of 5000 digits is described, not printed.
    with pytest.raises(ValidationError, match=r"^samples must be < 2\*\*63, got "):
        monte_carlo_transmit(
            ErrorDensities(0.0, 0.0, 0.0), GEOM, segments_per_km=10, samples=samples, seed=1
        )


@pytest.mark.parametrize(
    "mu, geom", [((0.01, 0.01, 0.01), (1.0, 2.0)), ([0.01, 0, 0.01], [1, 2.0])]
)
def test_look_alike_arguments_give_the_same_estimate(mu, geom):
    got = monte_carlo_transmit(mu, geom, segments_per_km=100, samples=50, seed=1)
    want = monte_carlo_transmit(
        ErrorDensities(*mu), LinkGeometry(*geom), segments_per_km=100, samples=50, seed=1
    )
    assert repr(got) == repr(want)


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


def test_a_helper_takes_every_constant_from_each_call(monkeypatch):
    # fork the helper while the block and queue sizes are patched small ...
    _mc._stop_helpers()
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_mc, "_BUFFERS", ())
    monkeypatch.setattr(_mc, "_BLOCK_KEYS", 64)
    monkeypatch.setattr(_mc, "_TAIL_KEYS", 7)
    assert_matches_reference(9, 40, 20, 20, 0.05, 0.1, 0.2)
    helper = _mc._TEAM.helpers[0][0]
    # ... then let it serve calls of the full sizes
    monkeypatch.setattr(_mc, "_BLOCK_KEYS", 1 << 16)
    monkeypatch.setattr(_mc, "_TAIL_KEYS", 1 << 14)
    assert_matches_reference(9, 20_000, 300, 300, 0.01, 0.02, 0.03)
    assert_matches_reference(9, 3, 30_000, 50_000, 0.05, 0.1, 0.2)
    assert _mc._TEAM.helpers[0][0] == helper


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
    for seed, samples in ((3, 4001), (-8, 1000), (2**64 - 5, 257)):
        assert_matches_reference(seed, samples, 17, 30, 0.01, 0.03, 0.06)


@pytest.mark.parametrize("chunks", [1, 3, 7])
def test_tallies_do_not_depend_on_the_chunk_count(monkeypatch, chunks):
    # chunks of many groups, a short last chunk, one chunk for a whole call
    monkeypatch.setattr(_mc, "_BLOCK_KEYS", 256)
    monkeypatch.setattr(_mc, "_CHUNKS", chunks)
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    for seed, samples in ((3, 4001), (-8, 1000), (2**64 - 5, 257)):
        assert_matches_reference(seed, samples, 17, 30, 0.01, 0.03, 0.06)


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


def wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


def test_helper_failure_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    scan, caller = _mc._scan, os.getpid()
    failed = mmap.mmap(-1, 1)  # shared with the helper forked below
    scanned = []

    def failing_in_helper(*args):
        if os.getpid() != caller:
            failed[0] = 1
            raise RuntimeError("helper failed")
        wait_until(lambda: failed[0])  # leave the helper a chunk to fail on
        scanned.append(args[3])
        return scan(*args)

    # A helper runs the code of its parent at fork time: fork one that fails.
    _mc._stop_helpers()
    monkeypatch.setattr(_mc, "_scan", failing_in_helper)
    try:
        with pytest.raises(RuntimeError, match="helper failed"):
            _mc.bell_outcome_counts(2, 20_000, 20, 20, 0.01, 0.02, 0.03)  # 13 chunks
    finally:
        _mc._stop_helpers()
    assert len(scanned) < 6  # the failed helper emptied the claim pipe
    assert not _mc._LOCK.locked()
    monkeypatch.setattr(_mc, "_scan", scan)
    assert_matches_reference(2, 20_000, 20, 20, 0.01, 0.02, 0.03)


@pytest.mark.parametrize("workers", [2, 3])
def test_killed_helper_makes_the_caller_raise(monkeypatch, workers):
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: workers)
    config = (4, 20_000, 300, 300, 0.01, 0.02, 0.03)
    scan, caller = _mc._scan, os.getpid()
    killed = mmap.mmap(-1, 1)  # shared with the helpers forked below

    def killing_the_first_helper(*args):
        # The caller kills helper 1 before any helper may scan, so it dies
        # mid-call; the others then take the remaining chunks and reply.
        if os.getpid() == caller:
            if not killed[0]:
                os.kill(_mc._TEAM.helpers[0][0], signal.SIGKILL)
                killed[0] = 1
        else:
            wait_until(lambda: killed[0])
        return scan(*args)

    _mc._stop_helpers()
    monkeypatch.setattr(_mc, "_scan", killing_the_first_helper)
    with pytest.raises(RuntimeError, match="helper process exited mid-call"):
        _mc.bell_outcome_counts(*config)
    pids = [pid for pid, _, _ in _mc._TEAM.helpers]
    assert len(pids) == workers - 1
    stop_helpers, stopped = _mc._stop_helpers, []
    monkeypatch.setattr(_mc, "_stop_helpers", lambda: stopped.append(stop_helpers()))
    monkeypatch.setattr(_mc, "_scan", scan)
    assert_matches_reference(*config)  # stops the old helpers and forks new ones
    assert stopped == [True]  # False had one to be killed after its pipe closed
    assert not any(running(pid) for pid in pids)
    assert not set(pids) & {pid for pid, _, _ in _mc._TEAM.helpers}


def test_caller_failure_stops_the_helpers(monkeypatch):
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    config = (2, 20_000, 300, 300, 0.01, 0.02, 0.03)  # 184 chunks of one group
    scan, receive, caller = _mc._scan, _mc._receive, os.getpid()
    scanned = mmap.mmap(-1, 1)  # shared with the helper forked below
    replies = []

    def interrupted(*args):
        if os.getpid() == caller:
            wait_until(lambda: scanned[0])
            raise KeyboardInterrupt
        scanned[0] = 1
        time.sleep(0.005)  # half the groups would take the helper at least 0.46 s
        return scan(*args)

    def recording(fd):
        replies.append(receive(fd))
        return replies[-1]

    _mc._stop_helpers()
    monkeypatch.setattr(_mc, "_scan", interrupted)
    monkeypatch.setattr(_mc, "_receive", recording)
    with pytest.raises(KeyboardInterrupt):
        _mc.bell_outcome_counts(*config)
    # The helper's reply was read before the re-raise, and it stopped claiming.
    team = _mc._TEAM
    (helper_tally,) = replies
    assert 1 <= sum(helper_tally) < 20_000 // 2
    assert not select.select([fd for _, _, fd in team.helpers], [], [], 0.0)[0]
    assert not _mc._LOCK.locked()
    monkeypatch.setattr(_mc, "_scan", scan)
    assert_matches_reference(*config)
    assert _mc._TEAM is team  # the same helper answers


def test_an_interrupt_while_reading_replies_replaces_the_helpers(monkeypatch):
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    assert_matches_reference(2, 20_000, 300, 300, 0.01, 0.02, 0.03)  # forks the helper
    team, receive = _mc._TEAM, _mc._receive

    def interrupted(fd):
        raise KeyboardInterrupt

    monkeypatch.setattr(_mc, "_receive", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _mc.bell_outcome_counts(2, 20_000, 300, 300, 0.01, 0.02, 0.03)
    # The helper's reply is left unread: the next call must not take it for its own.
    monkeypatch.setattr(_mc, "_receive", receive)
    assert_matches_reference(3, 20_000, 300, 300, 0.01, 0.02, 0.03)
    assert _mc._TEAM is not team


@pytest.mark.parametrize("failing", ["fork", "dup"])
def test_a_failed_fork_leaves_the_caller_working_alone(monkeypatch, failing):
    # Out of processes or descriptors: the call runs on the calling thread,
    # and the pipe ends opened for the helper are closed again.
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    _mc._stop_helpers()

    def unavailable(*args):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, failing, unavailable)
    config = (9, 20_000, 30, 30, 0.01, 0.02, 0.03)  # 19 groups
    try:
        before = len(os.listdir("/proc/self/fd"))
        assert_matches_reference(*config)
        after = len(os.listdir("/proc/self/fd"))
        assert after <= before + 2  # the claim pipe, kept for the next call
        assert_matches_reference(*config)
        assert len(os.listdir("/proc/self/fd")) == after
        assert _mc._TEAM is None or not _mc._TEAM.helpers
    finally:
        _mc._stop_helpers()


def test_a_helper_that_does_not_exit_is_killed(monkeypatch):
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_mc, "_EXIT_WAIT_S", 0.2)
    assert_matches_reference(4, 2000, 300, 300, 0.01, 0.02, 0.03)  # forks the helper
    helper = _mc._TEAM.helpers[0][0]
    os.kill(helper, signal.SIGSTOP)  # so it cannot see its task pipe close
    try:
        assert not _mc._stop_helpers()  # True had it exited by itself
    finally:
        if running(helper):
            os.kill(helper, signal.SIGKILL)
    assert not running(helper)
    assert _mc._TEAM is None


def test_no_helper_outlives_its_interpreter():
    script = (
        "import atexit, os, sys\n"
        "def childless():\n"
        "    try:\n"
        "        os.waitpid(-1, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        return True\n"
        "    return False\n"
        "# registered first, so it runs after the sampler's exit handler\n"
        "atexit.register(lambda: childless() or os._exit(3))\n"
        "from eprlink import _mc\n"
        "_mc._usable_cpus = lambda: 2\n"
        "assert childless() and _mc._TEAM is None\n"
        "_mc.bell_outcome_counts(1, 10, 30, 30, 0.01, 0.02, 0.03)  # one group\n"
        "assert childless() and _mc._TEAM is None\n"
        "_mc.bell_outcome_counts(1, 10_000, 30, 30, 0.01, 0.02, 0.03)\n"
        "print(_mc._TEAM.helpers[0][0], flush=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr  # 3: a helper was left unreaped at exit
    assert not running(int(proc.stdout))


def test_a_helper_exits_when_its_caller_dies_mid_call():
    script = (
        "import os, signal\n"
        "from eprlink import _mc\n"
        "_mc._usable_cpus = lambda: 2\n"
        "_mc.bell_outcome_counts(1, 2000, 300, 300, 0.01, 0.02, 0.03)  # forks the helper\n"
        "def dying(*args):\n"
        "    print(_mc._TEAM.helpers[0][0], flush=True)\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "_mc._scan = dying  # in the caller only: the helper has the real one\n"
        "_mc.bell_outcome_counts(1, 20_000, 300, 300, 0.01, 0.02, 0.03)  # 184 chunks\n"
    )
    # The helper shares the child's stdout, so wait for the child, not for EOF.
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, env=child_env())
    helper = None
    try:
        helper = int(proc.stdout.readline())
        assert proc.wait(timeout=60) == -signal.SIGKILL
        wait_until(lambda: not running(helper))  # it took the last chunks, then saw EOF
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if helper is not None and running(helper):
            os.kill(helper, signal.SIGKILL)


def test_a_helper_exits_when_its_task_pipe_closes(monkeypatch):
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    assert_matches_reference(4, 2000, 300, 300, 0.01, 0.02, 0.03)  # forks the helper
    helper = _mc._TEAM.helpers[0][0]
    assert _mc._stop_helpers()  # False had it to be killed
    assert not running(helper)


def test_a_forked_child_forks_its_own_helper(monkeypatch):
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    config = (7, 3000, 100, 120, 0.01, 0.02, 0.03)
    assert_matches_reference(*config)
    team = _mc._TEAM
    parent_helper = team.helpers[0][0]
    fds = [fd for _, task, reply in team.helpers for fd in (task, reply)]
    child = os.fork()
    if child == 0:
        status = 1
        try:
            assert _mc._TEAM is None
            for fd in fds:
                with pytest.raises(OSError):
                    os.fstat(fd)
            assert_matches_reference(*config)
            assert _mc._TEAM.helpers[0][0] != parent_helper
            assert _mc._stop_helpers()
            status = 0
        finally:
            os._exit(status)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert_matches_reference(*config)
    assert _mc._TEAM is team and team.helpers[0][0] == parent_helper


def test_helper_holds_no_pipe_of_the_caller(monkeypatch):
    # A helper forked while the caller holds a pipe to `cat` must not keep its
    # write end open, or `cat` would never see end of file.
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    _mc._stop_helpers()
    cat = subprocess.Popen(["cat"], stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)
    try:
        assert_matches_reference(8, 2000, 300, 300, 0.01, 0.02, 0.03)  # forks a helper
        assert _mc._TEAM is not None
        cat.stdin.close()
        assert cat.wait(timeout=10.0) == 0
    finally:
        cat.kill()
        cat.wait()


def test_a_call_beside_another_thread_forks_no_helper(monkeypatch):
    monkeypatch.setattr(_mc, "_usable_cpus", lambda: 2)
    _mc._stop_helpers()
    config = (3, 4001, 17, 30, 0.01, 0.03, 0.06)
    got = []
    thread = threading.Thread(target=lambda: got.append(_mc.bell_outcome_counts(*config)))
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert _mc._TEAM is None
    assert got[0].tolist() == reference_counts(*config).tolist()
    assert_matches_reference(*config)  # from the one thread left: forks the helper
    assert _mc._TEAM is not None


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
