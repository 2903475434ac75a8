"""Derived quantities: threshold lengths, error-density estimation, sweeps.

The total-length concurrence of a received pair decays with distance; when at
least two error densities are positive it hits zero at a finite threshold
length.  One bracketed root search finds it for every density pattern
(`DomainError` where two densities are too far apart to scale together); the
closed forms of the symmetric special cases are the paper's formulas and
references.  Going the other way, measured channel error rates (QBER) at
known total lengths invert to a per-km error density under the depolarizing
model qber = 3/4 * (1 - exp(-4 mu L)).  Both narrow a bracket to adjacent
floats in `_bisect`, a safeguarded regula falsi.
"""

from __future__ import annotations

import math
from collections import namedtuple
from types import MethodType

from .channel import (
    _FLOAT_MAX,
    ErrorDensities,
    _as_count,
    _decay_rates,
    _real,
    _Value,
)
from .epr import _raw_concurrence
from .errors import DomainError, NumericError, ValidationError

__all__ = [
    "MeasurementPoint",
    "ThresholdResult",
    "SweepRow",
    "SweepTable",
    "threshold_depolarizing",
    "threshold_double_flip",
    "threshold_generic",
    "estimate_mu",
    "fit_mu",
    "sweep",
]

# Fidelity with any Bell state cannot drop below 1/4 under depolarization,
# so a channel-attributed QBER of 3/4 or more has no pre-image.
QBER_FLOOR_LIMIT = 0.75

# The longest finite threshold, 2**1023 km (the largest finite power of two);
# past it (or past the float range) the closed forms and `threshold_generic`
# both answer never-vanishes.
_MAX_THRESHOLD_KM = 2.0**1023

# Over -(the sum of the scaled rates), the start of the threshold bracket.
_JENSEN_START = 3.0 * math.log(3.0) * (1.0 - 2.0**-40)


class MeasurementPoint(_Value, namedtuple("MeasurementPoint", "qber total_length_km")):
    """One experimental observation: channel-attributed QBER at a total length."""

    __slots__ = ()

    def __new__(cls, qber, total_length_km):
        if (
            type(qber) is float
            and 0.0 <= qber < QBER_FLOOR_LIMIT
            and type(total_length_km) is float
            and 0.0 < total_length_km <= _FLOAT_MAX
        ):
            return tuple.__new__(cls, (qber, total_length_km))
        q = _real(qber, "qber", 0.0)
        if q >= QBER_FLOOR_LIMIT:
            raise DomainError(
                f"qber {qber!r} exceeds the depolarizing fidelity floor (must be < 0.75)"
            )
        return tuple.__new__(cls, (q, _real(total_length_km, "total_length_km", 0.0, above=True)))


class ThresholdResult(_Value, namedtuple("ThresholdResult", "length_km")):
    """Threshold total length, or None when the concurrence never vanishes."""

    __slots__ = ()

    def __new__(cls, length_km):
        if length_km is not None:
            length_km = _real(length_km, "length_km", 0.0, above=True)
        return tuple.__new__(cls, (length_km,))

    @property
    def is_finite(self) -> bool:
        return self.length_km is not None

    @property
    def kind(self) -> str:
        return "finite" if self.is_finite else "never-vanishes"


class SweepRow(namedtuple("SweepRow", "length_km concurrence fidelity")):
    """One sweep grid point: total length (km), concurrence and psi+ fidelity."""

    __slots__ = ()


class SweepTable(_Value, namedtuple("SweepTable", "rows")):
    """Rows of (length, concurrence, psi+ fidelity) on an increasing length grid.

    Each row's length_km is >= 0 and its concurrence and fidelity are in
    [0, 1]; lengths rise strictly and concurrence does not rise.
    """

    __slots__ = ()

    def __new__(cls, rows):
        try:
            fields = [(length, conc, fidelity) for length, conc, fidelity in rows]
        except (TypeError, ValueError):  # not iterable, or a row that is not a triple
            raise ValidationError(
                "sweep rows must be a sequence of (length_km, concurrence, fidelity) triples"
            ) from None
        checked = []
        prev_length, prev_conc = -math.inf, math.inf
        for length, conc, fidelity in fields:
            length = _real(length, "length_km", 0.0)
            conc = _real(conc, "concurrence", 0.0, 1.0)
            fidelity = _real(fidelity, "fidelity", 0.0, 1.0)
            if length <= prev_length:
                raise ValidationError("sweep lengths must be strictly increasing")
            if conc > prev_conc + 1e-12:
                raise ValidationError("sweep concurrence must be non-increasing")
            prev_length, prev_conc = length, conc
            checked.append(SweepRow(length, conc, fidelity))
        return tuple.__new__(cls, (tuple(checked),))


def threshold_depolarizing(mu: float) -> ThresholdResult:
    """Threshold length ln(3) / (4 mu) of the depolarizing channel.

    Never-vanishes for mu = 0, and where the length exceeds 2**1023 km (the
    reach of `threshold_generic`) or overflows.
    """
    mu = _real(mu, "mu", 0.0)
    if mu == 0.0:
        return ThresholdResult(None)
    # Quartering ln(3) is exact, so this rounds ln(3) / (4 mu) once, and no
    # intermediate 4 mu can overflow (mu above ~4.5e307).
    return _closed_form_result(math.log(3.0) / 4.0 / mu)


def threshold_double_flip(mu: float) -> ThresholdResult:
    """Threshold length when exactly two flips occur at equal rate ``mu``.

    The root of e^2 + 2e - 1 in e = exp(-2 mu L), i.e.
    ln(1/(sqrt(2) - 1)) / (2 mu).  Never-vanishes for mu = 0 and beyond
    2**1023 km, as in `threshold_depolarizing`.
    """
    mu = _real(mu, "mu", 0.0)
    if mu == 0.0:
        return ThresholdResult(None)
    return _closed_form_result(math.log(1.0 / (math.sqrt(2.0) - 1.0)) / 2.0 / mu)


def _closed_form_result(length_km: float) -> ThresholdResult:
    return ThresholdResult(length_km if length_km <= _MAX_THRESHOLD_KM else None)


def threshold_generic(mu: ErrorDensities) -> ThresholdResult:
    """Threshold length for any error densities, by bracketed regula falsi.

    With fewer than two positive densities the concurrence stays positive for
    every finite length (single-flip regime): never-vanishes.  Otherwise the
    densities are scaled by the power of two at their largest, so no decay
    rate can overflow; `DomainError` if that sends two positive densities to
    fewer than two (a ratio past about 2**1074).  `_bisect` brackets the
    unclamped concurrence (strictly decreasing) from just inside the length
    where Jensen's bound x + y + z >= 3 exp(mean rate * L) reaches 1, doubling
    its upper end, and narrows it to adjacent floats; the upper end, the
    first float where the criterion is <= 0, is returned.  Past 2**1023 km
    the result is never-vanishes, as for the closed forms, which it matches
    to a few ulps.  A plain sequence ``mu`` is checked as `ErrorDensities`.
    """
    mu = mu if type(mu) is ErrorDensities else ErrorDensities(*mu)
    _, second, largest = sorted(mu)
    if second == 0.0:
        return ThresholdResult(None)
    # Densities in units of 2**e /km, the largest in [0.5, 1), and lengths in
    # units of 2**-e km: every rate lies in [-4, 0].
    e = math.frexp(largest)[1]
    if math.ldexp(second, -e) == 0.0:
        raise DomainError(f"error densities {largest!r} and {second!r} /km are too far apart")
    rates = sorted(_decay_rates(math.ldexp(m, -e) for m in mu))
    # Jensen: x + y + z >= 3 exp(mean rate * L), so the criterion is positive
    # below ln 3 / -(mean rate).  lo sits 2**-40 relative inside that bound,
    # where the criterion is at least ln 3 * 2**-40 ~ 1e-12, against ~1e-16 of
    # rounding in lo and in the criterion: f(lo) > 0 with no fallback to 0.
    # The scaled densities sum to [0.5, 3), so lo lies in (0.27, 1.65]; the
    # rates that carry the largest density are <= -1, so the doubling ends by
    # 2**10 units, far below `_bisect`'s cap.  The criterion rounds
    # monotonically in L, so the float returned does not depend on where the
    # bracket starts.  It is bound to its rates, with no wrapper frame.
    lo = _JENSEN_START / -(rates[0] + rates[1] + rates[2])
    hi = _bisect(MethodType(_raw_concurrence, rates), lo, 2.0 * lo, "the threshold")[1]
    # 2**1023 km in scaled units; for e > 0 it passes the float range, and hi
    # cannot reach it.
    if e <= 0 and hi > math.ldexp(_MAX_THRESHOLD_KM, e):
        return ThresholdResult(None)
    return ThresholdResult(math.ldexp(hi, -e))


def estimate_mu(point: MeasurementPoint) -> float:
    """Per-km error density implied by one QBER observation.

    Inverts qber = 3/4 * (1 - exp(-4 mu L)) for the depolarizing model:
    mu = -ln((3 - 4 qber) / 3) / (4 L), in 1/km.  `DomainError` where that
    passes the float range (qber near 0.75 over a subnormal length).  A plain
    pair ``point`` is checked as `MeasurementPoint`.
    """
    return _estimate(point if type(point) is MeasurementPoint else MeasurementPoint(*point))


def _estimate(point: MeasurementPoint) -> float:
    # `estimate_mu` on a checked point.  The logarithm is 0 or at least
    # 1.1e-16 in magnitude, so quartering it is exact: this rounds the
    # quotient by 4 L once, as before, but 4 L can no longer overflow (L above
    # ~4.5e307 km gave mu = 0).  Where the logarithm is 0 the quotient is
    # -0.0; adding 0.0 makes that 0.0 and keeps every other float.
    mu = -math.log((3.0 - 4.0 * point.qber) / 3.0) / 4.0 / point.total_length_km + 0.0
    if mu > _FLOAT_MAX:
        raise DomainError(
            f"implied error density overflows: qber {point.qber!r} at "
            f"{point.total_length_km!r} km needs more than {_FLOAT_MAX:.4g} /km"
        )
    return mu


def _qber_model(mu: float, length_km: float) -> float:
    # mu * length_km first: 4 mu overflows past ~4.5e307 /km, where mu L can
    # still be small.  Elsewhere the decay is unchanged: scaling by 4 commutes
    # with rounding outside the subnormals, where exp gives 1.0 either way.
    return 0.75 * (1.0 - math.exp(-4.0 * (mu * length_km)))


def fit_mu(points) -> tuple[float, float]:
    """Least-squares error density over several QBER observations.

    Minimizes sum_i (qber_i - 3/4 (1 - exp(-4 mu L_i)))^2 by narrowing a sign
    change of the objective's derivative in mu to adjacent floats
    (`_bisect`), from the bracket of the per-point estimates, and returns its
    midpoint (a local minimum).  The objective need not be unimodal: points
    at lengths far apart can give it several local minima, and the one
    returned need not be the lowest.  A single point reduces exactly to
    `estimate_mu`.  `DomainError` where a point's estimate passes the float
    range, as in `estimate_mu`; `NumericError` where the derivative has no
    sign change in [0, largest float].  Returns (mu, rms residual).  A plain
    pair among ``points`` is checked as `MeasurementPoint`.
    """
    points = [p if type(p) is MeasurementPoint else MeasurementPoint(*p) for p in points]
    if not points:
        raise ValidationError("at least one measurement point is required")
    if len(points) == 1:
        mu = _estimate(points[0])
        return mu, _rms_residual(mu, points)
    if all(p.qber == 0.0 for p in points):
        return 0.0, 0.0

    data = [(p.qber, p.total_length_km) for p in points]

    def derivative(mu: float) -> float:
        # decay and 0.75 * (1.0 - decay) are _qber_model's floats: the same
        # arithmetic, one exponential a point.  The slope factor 6 = 2 * 3/4 * 4
        # is one multiply: 6.0 * r rounds as 2.0 * r * 3.0 does, doubling being exact.
        total = 0.0
        for qber, length in data:
            decay = math.exp(-4.0 * (mu * length))
            total += 6.0 * (0.75 * (1.0 - decay) - qber) * length * decay
        return total

    # Every residual is negative below every per-point estimate and positive
    # above them all, so the critical points lie between, where the slope
    # rises: positive at the greatest.  Where rounding (a logarithm that is 0
    # below qber ~1.1e-16) leaves an end's slope on the wrong side, `_bisect`
    # widens it: the least to 0 at worst, where the slope is -6 sum(qber L) <= 0.
    estimates = sorted(map(_estimate, points))
    hi, lo = _bisect(derivative, estimates[-1], estimates[0], "the least-squares optimum")
    # 0.5 * (lo + hi); above 1 the halves are exact, and their sum rounds as
    # that does but cannot overflow.
    mu = 0.5 * (lo + hi) if hi <= 1.0 else 0.5 * lo + 0.5 * hi
    return mu, _rms_residual(mu, points)


def _bisect(f, pos, neg, what):
    # Narrows a sign change of f, f(pos) > 0.0 >= f(neg), to adjacent floats,
    # returned as (pos, neg), either end the larger.  First an end on the
    # wrong side, neg first, hands its place to the other end and steps away
    # from it (so it must be >= 0): down by halving, up by doubling to at most
    # the largest float (5e-324 from 0); on equal ends neg steps down.  It
    # raises NumericError "could not bracket <what>" at 0 or the largest float.
    f_pos, f_neg = f(pos), f(neg)
    up = neg > pos
    while f_neg > 0.0:
        if neg == (_FLOAT_MAX if up else 0.0):
            raise NumericError(f"could not bracket {what}")
        pos, f_pos, neg = neg, f_neg, (min(2.0 * neg, _FLOAT_MAX) or 5e-324) if up else 0.5 * neg
        f_neg = f(neg)
    while not f_pos > 0.0:
        if pos == (0.0 if up else _FLOAT_MAX):
            raise NumericError(f"could not bracket {what}")
        neg, f_neg, pos = pos, f_pos, 0.5 * pos if up else (min(2.0 * pos, _FLOAT_MAX) or 5e-324)
        f_pos = f(pos)
    # Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): x replaces pos
    # where f(x) > 0.0, else neg, so 0.0 and nan go with neg.  x is the secant
    # point from the end of smaller |f| (the next float where it rounds onto
    # that end), and an end kept twice in a row has its stored f halved.  x is
    # the midpoint where the secant is nan, and whenever two steps have not
    # halved the bracket, so no bracket takes more than three evaluations per
    # step of plain bisection, plus three.  Summed halves keep mid finite.
    wide = wider = math.inf
    kept = 0
    while True:
        mid = 0.5 * pos + 0.5 * neg
        if mid == pos or mid == neg:
            return pos, neg
        x, width = mid, abs(neg - pos)
        if f_neg <= 0.0 < f_pos and width <= 0.5 * wider:
            if f_pos < -f_neg:
                near, far, r = pos, neg, f_pos / (f_pos - f_neg)
            else:
                near, far, r = neg, pos, f_neg / (f_neg - f_pos)
            x = near + (far - near) * r
            if x == near:
                x = math.nextafter(near, far)
            elif x != x:
                x = mid
        wider, wide = wide, width
        fx = f(x)
        if fx > 0.0:
            if kept < 0:
                f_neg *= 0.5
            pos, f_pos, kept = x, fx, -1
        else:
            if kept > 0:
                f_pos *= 0.5
            neg, f_neg, kept = x, fx, 1


def _rms_residual(mu: float, points) -> float:
    sse = sum((p.qber - _qber_model(mu, p.total_length_km)) ** 2 for p in points)
    return math.sqrt(sse / len(points))


def sweep(mu: ErrorDensities, l_max_km: float, steps: int) -> SweepTable:
    """Concurrence and psi+ fidelity on a uniform length grid 0..l_max_km.

    ``steps`` is the number of grid intervals, so the table has steps + 1
    rows; the first row is always (0, 1, 1).

    Raises
    ------
    ValidationError
        If a plain sequence ``mu`` fails the check of `ErrorDensities`; if
        ``l_max_km`` is not a finite number > 0; if ``steps`` is not an
        integer >= 2; if grid lengths round together ("sweep lengths must be
        strictly increasing", e.g. a subnormal ``l_max_km``); or if a decay
        rate -2 (mu_i + mu_j) overflows, where the first row is 0 * inf = nan
        ("Bell weight a must be a finite number, got nan").
    """
    mu = mu if type(mu) is ErrorDensities else ErrorDensities(*mu)
    l_max_km = _real(l_max_km, "l_max_km", 0.0, above=True)
    steps = _as_count(steps, "steps", minimum=2)
    rates = _decay_rates(mu)
    if -math.inf in rates:
        # Row 0 is 0 * -inf = nan: the error BellDiagonal raises for it.
        raise ValidationError("Bell weight a must be a finite number, got nan")
    # Each row equals transmit_at_length(mu, LinkGeometry(length, 0)) bit for
    # bit: `channel._decays` and the first weight of `channel._hadamard`,
    # inlined for speed.  With finite rates <= 0, x, y and z lie in [0, 1] and
    # a in [1/4, 1]; b, c and d are >= 0 up to rounding (x >= yz gives
    # 1 + x - y - z >= (1 - y)(1 - z), and so on), so BellDiagonal keeps a as
    # given, and a is the largest weight (rounding is monotone), so the
    # concurrence is 2a - 1 floored at 0.  No row needs a check of its own.
    # SweepTable's length check runs here; its concurrence check cannot fail,
    # as x, y and z cannot rise on a rising grid with finite rates <= 0.  Rows
    # and table are built with tuple.__new__, as their own __new__ do after any
    # check, less a Python frame.
    rx, ry, rz = rates
    exp = math.exp
    new_row = tuple.__new__
    rows = []
    append = rows.append
    prev_length = -math.inf
    for length in [l_max_km * (i / steps) for i in range(steps + 1)]:
        x = exp(rx * length)
        y = exp(ry * length)
        z = exp(rz * length)
        a = 0.25 * (1.0 + x + y + z)
        conc = 2.0 * a - 1.0
        if conc < 0.0:
            conc = 0.0
        if length <= prev_length:
            raise ValidationError("sweep lengths must be strictly increasing")
        append(new_row(SweepRow, (length, conc, a)))
        prev_length = length
    return tuple.__new__(SweepTable, (tuple(rows),))
