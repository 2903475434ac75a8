"""The in-frame accept tests of the value objects against the checks they skip.

`ErrorDensities`, `MeasurementPoint`, `channel._real` and
`epr.concurrence` accept their common input (plain floats in range) without
running their field-by-field check.  Each reference below is that
field-by-field check as it ran on every input, written out here, with two
declared changes: an int past the float range is "not a finite number" (a
`ValidationError`) where `math.isfinite` used to raise `OverflowError`, and
every message follows `channel._real`'s template under the field or parameter
name, so a negative total length now reads "must be > 0".  For
every input the library must store the same (type, float.hex) fields, or raise
the same exception type with the same message.
"""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eprlink import (
    DomainError,
    ErrorDensities,
    LinkGeometry,
    MeasurementPoint,
    PauliProbs,
    ValidationError,
    at_length,
    compose,
    concurrence,
    decay_factors,
    depolarizing_probs,
    doubleflip_coefficients,
    flip_at_length,
    iterate,
    threshold_depolarizing,
    transmit,
    transmit_at_length,
)
from eprlink.channel import Lambdas, _convolve, _decay_rates, _decays, _hadamard, _real
from eprlink.epr import BellDiagonal, _bell_order

BIG = 10**400
HUGE = 10**5000  # past sys.get_int_max_str_digits(): repr refuses it
BELOW_FLOOR = math.nextafter(0.75, 0.0)

SPECIAL = (
    0, 1, 7, -1, True, False, BIG, -BIG,
    np.float64(0.5), np.float64(-0.0), np.float64("nan"), np.float32(0.25), np.float32(-1.0),
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, sys.float_info.max,
    math.nan, math.inf, -math.inf, 1e-13, -1e-13, 1.0 + 1e-13, 0.25, 0.5, 1.0, 3.0,
    0.7499999999, BELOW_FLOOR, 0.75, "1", None,
)

scalars = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(),
    st.floats(min_value=0.0, max_value=1e3),
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.booleans(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)


def _finite(value):
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _stored(values):
    return [(type(v), float.hex(v)) for v in values]


def _outcome(build, *args):
    try:
        return build(*args)
    except (ValidationError, DomainError) as exc:
        return type(exc), str(exc)


def _reference_densities(values):
    stored = []
    for name, value in zip(("mu1", "mu2", "mu3"), values):
        if not isinstance(value, (int, float)) or not _finite(value):
            raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if value < 0:
            raise ValidationError(f"{name} must be >= 0, got {value!r}")
        stored.append(float(value))
    return _stored(stored)


def _reference_length(value, name):
    if not isinstance(value, (int, float)) or not _finite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def _reference_point(qber, length):
    if not isinstance(qber, (int, float)) or not _finite(qber):
        raise ValidationError(f"qber must be a finite number, got {qber!r}")
    if qber < 0.0:
        raise ValidationError(f"qber must be >= 0, got {qber!r}")
    if qber >= 0.75:
        raise DomainError(f"qber {qber!r} exceeds the depolarizing fidelity floor (must be < 0.75)")
    if not isinstance(length, (int, float)) or not _finite(length):
        raise ValidationError(f"total_length_km must be a finite number, got {length!r}")
    if length <= 0:
        raise ValidationError(f"total_length_km must be > 0, got {length!r}")
    return _stored([float(qber), float(length)])


@given(st.tuples(scalars, scalars, scalars))
@example((0, True, 2))
@example((np.float64(0.1), np.float32(0.2), 0.3))
@example((-0.0, 5e-324, 1e-310))
@example((0.1, math.nan, 0.1))
@example((0.1, 0.1, -math.inf))
@example((BIG, 0.0, 0.0))
@example((0.0, -BIG, 0.0))
@example((1e-13, -1e-13, 0.0))
def test_error_densities_match_field_by_field_check(values):
    want = _outcome(_reference_densities, values)
    got = _outcome(lambda: _stored(ErrorDensities(*values).as_tuple()))
    assert got == want


@given(scalars)
@example(-0.0)
@example(5e-324)
@example(np.float64(2.5))
@example(np.float32(2.5))
@example(True)
@example(BIG)
@example(-1e-13)
@example(math.inf)
def test_length_check_matches_field_by_field_check(value):
    want = _outcome(lambda: _stored([_reference_length(value, "length_km")]))
    assert _outcome(lambda: _stored([_real(value, "length_km", 0.0)])) == want
    want = _outcome(lambda: _stored([_reference_length(value, "l1_km")]))
    geometry = _outcome(lambda: _stored([LinkGeometry(value, 1.0).l1_km]))
    assert geometry == want


@given(scalars, scalars)
@example(0.7499999999, 1e-320)
@example(BELOW_FLOOR, 1.0)
@example(0.75, 1.0)
@example(-0.0, 1.0)
@example(0.1, -0.0)
@example(0.1, 5e-324)
@example(0, 1)
@example(False, True)
@example(np.float64(0.1), np.float32(2.0))
@example(math.nan, 1.0)
@example(0.1, math.inf)
@example(0.1, BIG)
@example(BIG, 1.0)
@example(-1e-13, 1.0)
def test_measurement_point_matches_field_by_field_check(qber, length):
    want = _outcome(_reference_point, qber, length)
    assert _outcome(_stored_point, qber, length) == want


def _stored_point(qber, length):
    point = MeasurementPoint(qber, length)
    return _stored([point.qber, point.total_length_km])


# Bell weights on the simplex, and quadruples of edge values, of which
# BellDiagonal accepts some (clamping the +-1e-13 overshoot) and rejects others.
weights = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
    .filter(lambda w: sum(w) > 0.0)
    .map(lambda w: [v / sum(w) for v in w]),
    st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0, 1e-13, -1e-13, 5e-324)), min_size=4, max_size=4),
)


@given(weights)
@example([0.25, 0.25, 0.25, 0.25])
@example([0.5, 0.5, 0.0, 0.0])
@example([1.0, 0.0, 0.0, 0.0])
@example([1.0 + 1e-13, -1e-13, 0.0, 0.0])
@example([0.0, 1.0 + 1e-13, 0.0, -1e-13])
@example([0.5 + 5e-324, 0.5, 0.0, 0.0])
@example([1, 0, 0, 0])
@example([np.float64(0.7), np.float32(0.25), 0.05, 0])
def test_concurrence_matches_its_formula(values):
    try:
        state = BellDiagonal(*values)
    except ValidationError:
        return
    want = min(1.0, max(0.0, 2.0 * max(state.as_tuple()) - 1.0))
    got = concurrence(state)
    assert (type(got), float.hex(got)) == (type(want), float.hex(want))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: ErrorDensities(v, 0, 0), "mu1 must be a finite number, got {}"),
        (lambda v: LinkGeometry(v, 0), "l1_km must be a finite number, got {}"),
        (lambda v: MeasurementPoint(0.1, v), "total_length_km must be a finite number, got {}"),
        (lambda v: PauliProbs(v, 0, 0, 0), "channel p0 must be a finite number, got {}"),
        (lambda v: BellDiagonal(0, 0, v, 1), "Bell weight c must be a finite number, got {}"),
        (lambda v: Lambdas(1, v, 1), "lambda2 must be a finite number, got {}"),
        (lambda v: threshold_depolarizing(v), "mu must be a finite number, got {}"),
        (lambda v: depolarizing_probs(v), "p must be a finite number, got {}"),
        (lambda v: flip_at_length(v, "x", 1.0), "mu_i must be a finite number, got {}"),
        (lambda v: doubleflip_coefficients(v, 1), "mu must be a finite number, got {}"),
        (lambda v: MeasurementPoint(v, 1.0), "qber must be a finite number, got {}"),
    ],
)
@pytest.mark.parametrize("value", [BIG, -BIG, HUGE], ids=["10**400", "-10**400", "10**5000"])
def test_ints_past_the_float_range_are_not_finite(build, message, value):
    shown = "an integer of 16610 bits" if value is HUGE else repr(value)
    with pytest.raises(ValidationError) as info:
        build(value)
    assert str(info.value) == message.format(shown)


def test_huge_negative_count_is_a_validation_error():
    with pytest.raises(ValidationError) as info:
        iterate(PauliProbs.identity(), -HUGE)
    assert str(info.value) == "segment count must be >= 0, got an integer of 16610 bits"


def _closed_form_routes(gen):
    # (route, result, class, the four values its closed form computes), over
    # densities of 1e-4..10 /km with about one in five single-flip triples:
    # their weights (1 +- x +- y +- z)/4 can round a hair below 0, which the
    # check clamps.
    for _ in range(400):
        mu = ErrorDensities(*(10.0 ** gen.uniform(-4.0, 1.0) * (gen.random() < 0.7) for _ in "xyz"))
        l1, l2 = (10.0 ** gen.uniform(-3.0, 2.0) for _ in "rs")
        n = gen.randint(1, 64)
        r, s = at_length(mu, l1), at_length(mu, l2)
        rates = _decay_rates(mu)
        a, b, d, c = _hadamard(*_decays(rates, l1 + l2))
        yield "at_length", r, PauliProbs, _hadamard(*reversed(_decays(rates, l1)))
        yield "compose", compose(r, s), PauliProbs, _convolve(r, s)
        yield "iterate", iterate(r, n), PauliProbs, _hadamard(*decay_factors(r, n))
        yield "transmit", transmit(r, s), BellDiagonal, _bell_order(_convolve(r, s))
        yield "transmit_at_length", transmit_at_length(mu, (l1, l2)), BellDiagonal, (a, b, c, d)


def test_closed_form_routes_build_what_the_class_call_builds():
    # The routes hand their four values to the probabilities' check directly,
    # not through the class call; the result must be the class call's.
    clamped = set()
    for route, got, cls, values in _closed_form_routes(random.Random(20261019)):
        assert type(got) is cls, route
        assert _stored(got) == _stored(cls(*values)), (route, values)
        if min(values) < 0.0:
            clamped.add(route)
    # compose and transmit convolve non-negative values, which cannot round below 0.
    assert clamped == {"at_length", "iterate", "transmit_at_length"}
