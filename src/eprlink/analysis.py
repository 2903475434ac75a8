"""Derived quantities: threshold lengths, error-density estimation, sweeps.

The total-length concurrence of a received pair decays with distance; when at
least two error densities are positive it hits zero at a finite threshold
length, found in closed form for the symmetric special cases and by bisection
in general.  Going the other way, a measured channel error rate (QBER) at a
known total length inverts to a per-km error density under the depolarizing
model: qber = 3/4 * (1 - exp(-4 mu L)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .channel import (
    _FLOAT_MAX,
    ErrorDensities,
    _as_count,
    _as_length,
    _check_finite,
)
from .epr import _decay_rates, _raw_concurrence
from .errors import DomainError, NumericError, ValidationError

__all__ = [
    "MeasurementPoint",
    "ThresholdResult",
    "SweepRow",
    "SweepTable",
    "threshold_depolarizing",
    "threshold_double_flip",
    "threshold_generic",
    "threshold",
    "estimate_mu",
    "fit_mu",
    "sweep",
]

# Fidelity with any Bell state cannot drop below 1/4 under depolarization,
# so a channel-attributed QBER of 3/4 or more has no pre-image.
QBER_FLOOR_LIMIT = 0.75

_BISECT_TOL_KM = 1e-10
# Brackets start at 1 and double or halve; 1024 steps span the float range
# (2**1023 is the largest finite power of two).
_MAX_DOUBLINGS = 1024
# The largest bracket end the bisection reaches.  A closed-form threshold
# beyond it, or one that overflows to inf, is never-vanishes, so the closed
# forms and the bisection give the same answer.
_MAX_THRESHOLD_KM = 2.0 ** (_MAX_DOUBLINGS - 1)


@dataclass(frozen=True)
class MeasurementPoint:
    """One experimental observation: channel-attributed QBER at a total length."""

    qber: float
    total_length_km: float

    def __post_init__(self):
        qber, length = self.qber, self.total_length_km
        if (
            type(qber) is float
            and 0.0 <= qber < QBER_FLOOR_LIMIT
            and type(length) is float
            and 0.0 < length <= _FLOAT_MAX
        ):
            return
        _check_finite(qber, "qber must be a finite number, got ")
        if qber < 0.0:
            raise ValidationError(f"qber must be >= 0, got {qber!r}")
        if qber >= QBER_FLOOR_LIMIT:
            raise DomainError(
                f"qber {qber!r} exceeds the depolarizing fidelity floor (must be < 0.75)"
            )
        length = _as_length(length)
        if length <= 0.0:
            raise ValidationError(f"total length must be > 0 km, got {length!r}")
        object.__setattr__(self, "qber", float(qber))
        object.__setattr__(self, "total_length_km", length)


@dataclass(frozen=True)
class ThresholdResult:
    """Threshold total length, or None when the concurrence never vanishes."""

    length_km: float | None

    def __post_init__(self):
        if self.length_km is not None:
            length = _as_length(self.length_km)
            if length <= 0.0:
                raise ValidationError(f"finite threshold must be > 0 km, got {length!r}")
            object.__setattr__(self, "length_km", length)

    @property
    def is_finite(self) -> bool:
        return self.length_km is not None

    @property
    def kind(self) -> str:
        return "finite" if self.is_finite else "never-vanishes"


class SweepRow(NamedTuple):
    """One sweep grid point: total length (km), concurrence and psi+ fidelity."""

    length_km: float
    concurrence: float
    fidelity: float


@dataclass(frozen=True)
class SweepTable:
    """Rows of (length, concurrence, psi+ fidelity) on an increasing length grid."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        for (prev_length, prev_conc, _), (length, conc, _) in zip(rows, rows[1:]):
            if length <= prev_length:
                raise ValidationError("sweep lengths must be strictly increasing")
            if conc > prev_conc + 1e-12:
                raise ValidationError("sweep concurrence must be non-increasing")

    @classmethod
    def _checked(cls, rows: tuple) -> "SweepTable":
        # A table of rows that `sweep` has already put through both checks.
        table = object.__new__(cls)
        object.__setattr__(table, "rows", rows)
        return table


def threshold_depolarizing(mu: float) -> ThresholdResult:
    """Threshold length ln(3) / (4 mu) of the depolarizing channel.

    Never-vanishes for mu = 0, and where the length exceeds 2**1023 km (the
    bisection's reach in `threshold_generic`) or overflows.
    """
    _check_mu(mu)
    if mu == 0.0:
        return ThresholdResult(None)
    return _closed_form_result(math.log(3.0) / (4.0 * mu))


def threshold_double_flip(mu: float) -> ThresholdResult:
    """Threshold length when exactly two flips occur at equal rate ``mu``.

    The root of e^2 + 2e - 1 in e = exp(-2 mu L), i.e.
    ln(1/(sqrt(2) - 1)) / (2 mu).  Never-vanishes for mu = 0 and beyond
    2**1023 km, as in `threshold_depolarizing`.
    """
    _check_mu(mu)
    if mu == 0.0:
        return ThresholdResult(None)
    return _closed_form_result(math.log(1.0 / (math.sqrt(2.0) - 1.0)) / (2.0 * mu))


def _closed_form_result(length_km: float) -> ThresholdResult:
    return ThresholdResult(length_km if length_km <= _MAX_THRESHOLD_KM else None)


def _check_mu(mu: float) -> None:
    _check_finite(mu, "error density must be a finite number, got ")
    if mu < 0.0:
        raise ValidationError(f"error density must be >= 0, got {mu!r}")


def threshold_generic(mu: ErrorDensities) -> ThresholdResult:
    """Threshold length for arbitrary error densities, by bracketed bisection.

    With fewer than two positive densities the concurrence stays positive for
    every finite length (single-flip regime), so the result is
    never-vanishes.  Otherwise the unclamped concurrence is strictly
    decreasing; the bracket doubles from 1 km until it turns negative and is
    then bisected to 1e-10 km, or to adjacent floats where their spacing is
    wider.  The returned length is the upper bracket end, so the clamped
    concurrence at the threshold is exactly zero.
    """
    if sum(1 for m in mu.as_tuple() if m > 0.0) < 2:
        return ThresholdResult(None)
    rates = _decay_rates(mu)
    lo, hi = 0.0, 1.0
    for _ in range(_MAX_DOUBLINGS):
        if _raw_concurrence(rates, hi) <= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        # ~9e307 km without a sign change: numerically indistinguishable
        # from a non-vanishing concurrence.
        return ThresholdResult(None)
    while hi - lo > _BISECT_TOL_KM:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _raw_concurrence(rates, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(hi)


def threshold(mu: ErrorDensities, method: str = "auto") -> tuple[ThresholdResult, str]:
    """Threshold length by closed form, by bisection, or closed form where one exists.

    ``method`` is "closed", "bisect" or "auto".  The closed forms cover fewer
    than two positive densities (never-vanishes), three equal densities
    (`threshold_depolarizing`) and two equal ones (`threshold_double_flip`);
    "auto" bisects (`threshold_generic`) every other pattern, and "closed"
    raises `DomainError` there.  Returns the result and the method used,
    "closed" or "bisect".
    """
    if method not in ("auto", "closed", "bisect"):
        raise ValidationError(
            f"threshold method must be one of 'auto', 'closed', 'bisect', got {method!r}"
        )
    if method != "bisect":
        result = _closed_threshold(mu)
        if result is not None:
            return result, "closed"
        if method == "closed":
            raise DomainError(
                "no closed-form threshold for this density pattern; use --method bisect"
            )
    return threshold_generic(mu), "bisect"


def _closed_threshold(mu: ErrorDensities) -> ThresholdResult | None:
    # The closed-form threshold when the density pattern admits one, else None.
    values = mu.as_tuple()
    positive = [v for v in values if v > 0.0]
    if len(positive) < 2:
        return ThresholdResult(None)
    if len(positive) == 3 and values[0] == values[1] == values[2]:
        return threshold_depolarizing(values[0])
    if len(positive) == 2 and positive[0] == positive[1]:
        return threshold_double_flip(positive[0])
    return None


def estimate_mu(point: MeasurementPoint) -> float:
    """Per-km error density implied by one QBER observation.

    Inverts qber = 3/4 * (1 - exp(-4 mu L)) for the depolarizing model:
    mu = -ln((3 - 4 qber) / 3) / (4 L), in 1/km.  inf where that passes the
    float range (qber near 0.75 over a subnormal length).
    """
    # The logarithm is 0 or at least 1.1e-16 in magnitude, so quartering it is
    # exact: this rounds the quotient by 4 L once, as before, but 4 L can no
    # longer overflow (L above ~4.5e307 km gave mu = 0).
    return -math.log((3.0 - 4.0 * point.qber) / 3.0) / 4.0 / point.total_length_km


def _finite_estimate(point: MeasurementPoint) -> float:
    # `estimate_mu`, or DomainError where the density passes the float range.
    mu = estimate_mu(point)
    if math.isinf(mu):
        raise DomainError(
            f"implied error density overflows: qber {point.qber!r} at "
            f"{point.total_length_km!r} km needs more than {sys.float_info.max:.4g} /km"
        )
    return mu


def _qber_model(mu: float, length_km: float) -> float:
    return 0.75 * (1.0 - math.exp(-4.0 * mu * length_km))


def fit_mu(points) -> tuple[float, float]:
    """Least-squares error density over several QBER observations.

    Minimizes sum_i (qber_i - 3/4 (1 - exp(-4 mu L_i)))^2 by bisecting the
    objective's derivative in mu (the model is monotone in mu per point, so
    the objective is unimodal).  A single point reduces exactly to
    `estimate_mu`, except that a density past the float range raises
    `DomainError` instead of returning inf.  Returns (mu, rms residual).
    """
    points = list(points)
    if not points:
        raise ValidationError("at least one measurement point is required")
    if len(points) == 1:
        mu = _finite_estimate(points[0])
        return mu, _rms_residual(mu, points)
    if all(p.qber == 0.0 for p in points):
        return 0.0, 0.0

    data = [(p.qber, p.total_length_km) for p in points]

    def derivative(mu: float) -> float:
        # -4.0 * mu * length is (-4.0 * mu) * length, and 0.75 * (1.0 - decay)
        # is _qber_model's float: the same arithmetic, one exponential a point.
        rate = -4.0 * mu
        total = 0.0
        for qber, length in data:
            decay = math.exp(rate * length)
            total += 2.0 * (0.75 * (1.0 - decay) - qber) * 3.0 * length * decay
        return total

    lo, hi = 0.0, 1.0
    for _ in range(_MAX_DOUBLINGS):
        slope = derivative(hi)
        if slope > 0.0:
            break
        if slope == 0.0 and _rms_residual(hi, points) > 0.0:
            # The model misses the data, yet every term of the slope
            # underflowed (exp(-4 mu L) ~ 0): the optimum lies below hi.
            hi = 0.5 * hi
        else:
            lo, hi = hi, 2.0 * hi
    else:
        raise NumericError("could not bracket the least-squares optimum")
    # Bisect until the bracket collapses to adjacent floats; each halving is
    # four exponentials, so running past the 1e-12 contract costs nothing and
    # keeps the residual at noise level for exact-model data.
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if derivative(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    mu = 0.5 * (lo + hi)
    return mu, _rms_residual(mu, points)


def _rms_residual(mu: float, points) -> float:
    sse = sum((p.qber - _qber_model(mu, p.total_length_km)) ** 2 for p in points)
    return math.sqrt(sse / len(points))


def sweep(mu: ErrorDensities, l_max_km: float, steps) -> SweepTable:
    """Concurrence and psi+ fidelity on a uniform length grid 0..l_max_km.

    ``steps`` is the number of grid intervals, so the table has steps + 1
    rows; the first row is always (0, 1, 1).

    Raises
    ------
    ValidationError
        If ``l_max_km`` is not a finite number > 0 km; if ``steps`` is not an
        integer >= 2; if grid lengths round together ("sweep lengths must be
        strictly increasing", e.g. a subnormal ``l_max_km``); or if a decay
        rate -2 (mu_i + mu_j) overflows, where the first row is 0 * inf = nan
        ("Bell weight a must be a finite number, got nan").
    """
    l_max_km = _as_length(l_max_km)
    if l_max_km <= 0.0:
        raise ValidationError(f"maximum sweep length must be > 0 km, got {l_max_km!r}")
    steps = _as_count(steps, "steps", minimum=2)
    rates = _decay_rates(mu)
    if -math.inf in rates:
        # Row 0 is 0 * -inf = nan: the error BellDiagonal raises for it.
        raise ValidationError("Bell weight a must be a finite number, got nan")
    # Each row equals transmit_at_length(mu, LinkGeometry(length, 0)) bit for
    # bit.  With finite rates <= 0, x, y and z lie in [0, 1] and a, written as
    # in `_bell_weights`, in [1/4, 1]; b, c and d are >= 0 up to rounding (x >=
    # yz gives 1 + x - y - z >= (1 - y)(1 - z), and so on), so BellDiagonal
    # keeps a as given, and a is the largest weight (rounding is monotone), so
    # the concurrence is 2a - 1 floored at 0.  No row needs a check of its own;
    # SweepTable's two checks run here, in its order.  tuple.__new__ is what
    # SweepRow's generated __new__ does, less its Python frame.
    rx, ry, rz = rates
    exp = math.exp
    new_row = tuple.__new__
    rows = []
    append = rows.append
    prev_length, prev_conc = -math.inf, math.inf
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
        if conc > prev_conc + 1e-12:
            raise ValidationError("sweep concurrence must be non-increasing")
        append(new_row(SweepRow, (length, conc, a)))
        prev_length, prev_conc = length, conc
    return SweepTable._checked(tuple(rows))
