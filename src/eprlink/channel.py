"""Pauli-channel algebra.

A Pauli channel applies one of {I, sigma_x, sigma_y, sigma_z} to a qubit with
probabilities (p0, p1, p2, p3).  Because the Pauli group modulo phase is the
Klein four-group, concatenating two such channels convolves their probability
vectors over that group, and an N-segment channel has a closed form obtained
by diagonalizing the convolution: three decay factors

    lambda1 = (1 - 2 p2 - 2 p3)^N
    lambda2 = (1 - 2 p1 - 2 p3)^N
    lambda3 = (1 - 2 p1 - 2 p2)^N

pushed through a fixed 1/4 * {+-1} Hadamard-pattern matrix.  Taking the
continuum limit with per-km error densities (mu1, mu2, mu3) turns the decay
factors into exponentials in the channel length.

The closed form is written once, here: `_convolve` (Klein-four product),
`_hadamard` (the (1 +- x +- y +- z)/4 map), `_decay_rates` and `_decays` (the
rates -2 (mu_i + mu_j) and their exponentials).  Every other route, also in
`epr`, unpacks or wraps these.

The value objects here and in `epr`, `analysis` and `oracle` are immutable
tuples of their fields on the `_Value` base, each checked in ``__new__``
except `oracle.McEstimate` (`analysis.SweepRow` is a plain named tuple).
Four probabilities (`PauliProbs`, `epr.BellDiagonal`) share one check,
`_probabilities`, which their constructor runs and the closed-form routes
(`compose`, `iterate`, `at_length`, `epr.transmit` and
`epr.transmit_at_length`) call directly with the class; non-negative floats
(`ErrorDensities`, `epr.LinkGeometry`) share one constructor.  Every
scalar field or parameter goes through `_real`, which raises "{name} must
be a finite number, got {value}" or "{name} must be >= 0 | > 0 | in [0, 1],
got {value}" under the name the signature spells ("channel p0" and "Bell
weight a" for the probabilities).  Every integer count goes through
`_as_count`, which raises "{name} must be an integer, got {value}", and
refuses a count at both its least and its greatest value with "{name} must
be >= {minimum}, got {value}" or "{name} must be <= {maximum}, got {value}".
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple

from .errors import ValidationError

__all__ = [
    "PauliProbs",
    "ErrorDensities",
    "Lambdas",
    "compose",
    "iterate",
    "iterate_bruteforce",
    "decay_factors",
    "at_length",
]

# Float round-trips through the closed form leave ~1e-16 of noise on the
# components, so validation admits a 1e-12 slack and clamps tiny negatives.
_ENTRY_TOL = 1e-12
_SUM_TOL = 1e-12
_ENTRY_MIN = -_ENTRY_TOL
_ENTRY_MAX = 1.0 + _ENTRY_TOL
_REAL = (int, float)
# `0.0 <= x <= _FLOAT_MAX` holds exactly for the finite non-negative floats.
_FLOAT_MAX = sys.float_info.max

# Keeps the brute-force oracle desk-scale; the closed form has no cap.
_BRUTEFORCE_CAP = 10**9
# Exponents at or past _POWER_CAP leave every decay factor of magnitude < 1
# at 0.
_POWER_CAP = 2**64


def _shown(value) -> str:
    # repr for a message; Python refuses to print ints of more than
    # sys.get_int_max_str_digits() digits, so those are described instead.
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _real(value, name: str, low=-_FLOAT_MAX, high=_FLOAT_MAX, above=False) -> float:
    # `value` as a float if it is a finite int or float in [low, high], or in
    # (low, high] with `above` (for "> low", with no high); else the template.
    if type(value) is float and low <= value <= high and (value > low or not above):
        return value
    try:
        x = float(value) if isinstance(value, _REAL) else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be a finite number, got {_shown(value)}")
    if low <= x <= high and (x > low or not above):
        return x
    if high < _FLOAT_MAX:
        raise ValidationError(f"{name} must be in [{low:g}, {high:g}], got {_shown(value)}")
    raise ValidationError(f"{name} must be {'>' if above else '>='} {low:g}, got {_shown(value)}")


def _validate_distribution(kind: str, names, values) -> None:
    total = 0.0
    for name, value in zip(names, values):
        # Within 1e-12 of [0, 1] passes; `_real` raises for nan, +-inf and the rest.
        if not (isinstance(value, _REAL) and _ENTRY_MIN <= value <= _ENTRY_MAX):
            _real(value, f"{kind} {name}", 0.0, 1.0)
        total += value
    if abs(total - 1.0) > _SUM_TOL:
        raise ValidationError(f"{kind} probabilities must sum to 1, got {total!r}")


def _clamp01(value: float) -> float:
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return float(value)


class _Value(tuple):
    """Base of the immutable value objects: a tuple of the fields.

    Each value object subclasses this and a ``collections.namedtuple`` of its
    fields, which gives the C-level field getters and the
    ``Name(field=value, ...)`` repr.  An instance equals only an instance of
    its own class with equal fields, never a plain tuple, and hashes as the
    tuple of its fields.  ``_make`` (and ``_replace`` through it), pickle
    and ``copy`` call the class, so they run its check.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def as_tuple(self) -> tuple:
        """The fields as a plain tuple."""
        return tuple(self)

    def __reduce__(self):
        return self.__class__, tuple(self)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _bind(cls, values, named):
    # The fields of a call by keyword, or with the wrong number of arguments:
    # the namedtuple's own __new__ binds them, raising TypeError as a call of
    # the class would, and the instance it builds is only read.
    return super(_Value, cls).__new__(cls, *values, **named)


class _Probabilities(_Value):
    """Four probabilities in [0, 1] that sum to 1, both up to 1e-12.

    Fields that are floats in [0, 1] summing to 1 within the tolerance,
    tested in `_probabilities`, are stored as given; the sum is taken in
    `_validate_distribution`'s order, so this accepts only what that check
    accepts.  Any other input takes the full check, and then every field is
    rewritten: ints, bools and numpy scalars become floats, and the
    sub-tolerance overshoot that validation admits is clamped.  A subclass
    names its fields and the ``_kind`` that its messages start with.
    """

    __slots__ = ()

    def __new__(cls, *values, **named):
        if named or len(values) != 4:
            values = _bind(cls, values, named)
        return _probabilities(cls, values)


def _probabilities(cls, values):
    # The check of `_Probabilities` subclass `cls` on four values, as its
    # docstring says: the class call runs it, and the closed-form routes call
    # it directly, less the frame of type.__call__.
    a, b, c, d = values
    if (
        type(a) is float
        and type(b) is float
        and type(c) is float
        and type(d) is float
        and 0.0 <= a <= 1.0
        and 0.0 <= b <= 1.0
        and 0.0 <= c <= 1.0
        and 0.0 <= d <= 1.0
        and abs(a + b + c + d - 1.0) <= _SUM_TOL
    ):
        return tuple.__new__(cls, values)
    _validate_distribution(cls._kind, cls._fields, values)
    return tuple.__new__(cls, map(_clamp01, values))


class _NonNegative(_Value):
    """Finite non-negative floats.

    Fields that are floats in [0, max float], tested here in ``__new__``'s
    frame, are stored as given; otherwise `_real` checks each field in turn,
    under its field name, and returns the float to store.
    """

    __slots__ = ()

    def __new__(cls, *values, **named):
        if named or len(values) != len(cls._fields):
            values = _bind(cls, values, named)
        for value in values:
            if not (type(value) is float and 0.0 <= value <= _FLOAT_MAX):
                return tuple.__new__(cls, [_real(v, n, 0.0) for v, n in zip(values, cls._fields)])
        return tuple.__new__(cls, values)


class PauliProbs(_Probabilities, namedtuple("PauliProbs", "p0 p1 p2 p3")):
    """Probabilities (p0, p1, p2, p3) of applying I, sigma_x, sigma_y, sigma_z.

    Entries must be in [0, 1] and sum to 1 (both up to 1e-12); sub-tolerance
    negatives are clamped to 0 on construction.
    """

    __slots__ = ()
    _kind = "channel"


class ErrorDensities(_NonNegative, namedtuple("ErrorDensities", "mu1 mu2 mu3")):
    """Per-kilometre error rates (mu1, mu2, mu3) for the x, y, z flips, in 1/km."""

    __slots__ = ()


class Lambdas(_Value, namedtuple("Lambdas", "lambda1 lambda2 lambda3")):
    """Decay factors (lambda1, lambda2, lambda3) of a concatenated channel.

    For channels in the exponential (length-parameterized) family each factor
    lies in (0, 1]; an arbitrary stochastic channel may produce negative
    factors, which is still a legal input to the closed form.
    """

    __slots__ = ()

    def __new__(cls, lambda1, lambda2, lambda3):
        return tuple.__new__(cls, map(_real, (lambda1, lambda2, lambda3), cls._fields))


def _convolve(r, s):
    # Klein-four convolution: output index i collects all (j, k) with j XOR k == i.
    r0, r1, r2, r3 = r
    s0, s1, s2, s3 = s
    return (
        r0 * s0 + r1 * s1 + r2 * s2 + r3 * s3,
        r0 * s1 + r1 * s0 + r2 * s3 + r3 * s2,
        r0 * s2 + r1 * s3 + r2 * s0 + r3 * s1,
        r0 * s3 + r1 * s2 + r2 * s1 + r3 * s0,
    )


def _hadamard(l1: float, l2: float, l3: float) -> tuple[float, float, float, float]:
    # 1/4 * Hadamard-pattern matrix applied to (1, lambda1, lambda2, lambda3).
    return (
        0.25 * (1.0 + l1 + l2 + l3),
        0.25 * (1.0 + l1 - l2 - l3),
        0.25 * (1.0 - l1 + l2 - l3),
        0.25 * (1.0 - l1 - l2 + l3),
    )


def _decay_rates(mu) -> tuple[float, float, float]:
    # -2 (mu_i + mu_j) per km for the pairs (1, 2), (1, 3), (2, 3): the
    # exponents of lambda3, lambda2 and lambda1.
    m1, m2, m3 = mu
    return -2.0 * (m1 + m2), -2.0 * (m1 + m3), -2.0 * (m2 + m3)


def _decays(rates, length: float) -> tuple[float, float, float]:
    # exp(rate * L) for each rate.  Python evaluates -2.0 * (m1 + m2) * L left
    # to right, so this is bit-identical to the expression written out.
    rx, ry, rz = rates
    return math.exp(rx * length), math.exp(ry * length), math.exp(rz * length)


def _as_int(n, what: str) -> int:
    try:
        return operator.index(n)
    except TypeError as exc:
        raise ValidationError(f"{what} must be an integer, got {n!r}") from exc


def _as_count(n, what: str, minimum: int = 0, maximum=None) -> int:
    # An int bound is printed exactly, a float one with :g as `_real` does.
    n = _as_int(n, what)
    if n < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {_shown(n)}")
    if maximum is not None and n > maximum:
        shown = f"{maximum:g}" if type(maximum) is float else maximum
        raise ValidationError(f"{what} must be <= {shown}, got {_shown(n)}")
    return n


def compose(first: PauliProbs, second: PauliProbs) -> PauliProbs:
    """Concatenate two Pauli channels.

    The result is the convolution of the two probability vectors over the
    Klein four-group (sigma_j . sigma_k = +- sigma_{j XOR k}); the conjugation
    cancels the phases, so only the group indices matter.  The operation is
    commutative and associative.

    Parameters
    ----------
    first, second : PauliProbs
        Channel descriptions, in either order.

    Returns
    -------
    PauliProbs
        The concatenated channel.
    """
    first = first if type(first) is PauliProbs else PauliProbs(*first)
    second = second if type(second) is PauliProbs else PauliProbs(*second)
    product = _convolve(first, second)
    try:
        return _probabilities(PauliProbs, product)
    except ValidationError:
        return _rescaled(PauliProbs, product)


def _rescaled(cls, values):
    # `values` divided by their sum, as a `cls`.  A product of two
    # distributions sums to the product of their sums, so two inputs that each
    # pass the 1e-12 check may give one that misses it; `compose` and
    # `epr.transmit` call this only then, so a product that passes keeps its bits.
    total = math.fsum(values)
    return _probabilities(cls, [value / total for value in values])


def iterate(p: PauliProbs, n: int) -> PauliProbs:
    """N-fold concatenation of a channel with itself, via the closed form.

    Computes the three decay factors raised to the n-th power and maps them
    back to probabilities.  ``n == 0`` returns the identity channel.  Negative
    decay factors (legal for strongly flipping channels) keep the sign of
    n's parity for every n, also past 2**53 and past the float range.

    Parameters
    ----------
    p : PauliProbs
        The single-segment channel.
    n : int
        Number of segments, >= 0.

    Returns
    -------
    PauliProbs
        The n-segment channel.
    """
    n = _as_count(n, "segment count")
    return _probabilities(PauliProbs, _hadamard(*_decay_factors(p, n)))


def iterate_bruteforce(p: PauliProbs, n: int) -> PauliProbs:
    """N-fold concatenation by repeated composition; the oracle for `iterate`.

    Left-folds `compose` n times starting from the identity channel.  Capped
    at 1e9 segments to stay desk-scale; use `iterate` beyond that.
    """
    n = _as_count(n, "segment count", maximum=_BRUTEFORCE_CAP)
    p = p if type(p) is PauliProbs else PauliProbs(*p)
    acc = (1.0, 0.0, 0.0, 0.0)
    for _ in range(n):
        acc = _convolve(acc, p)
    return PauliProbs(*acc)


def decay_factors(p: PauliProbs, n: int = 1) -> Lambdas:
    """Decay factors of the n-fold concatenation of `p`.

    lambda_i = (1 - 2 p_j - 2 p_k)^n for the two flip indices j, k != i,
    with 1 - 2 p_j - 2 p_k clamped to [-1, 1]: probabilities that overshoot
    the sum 1 within its 1e-12 tolerance put it just past -1.
    """
    return Lambdas(*_decay_factors(p, _as_count(n, "segment count")))


def _decay_factors(p, n: int) -> tuple[float, float, float]:
    # `decay_factors` as a plain tuple, for a count n already checked.
    p = p if type(p) is PauliProbs else PauliProbs(*p)
    _, p1, p2, p3 = p
    return (
        _power(1.0 - 2.0 * (p2 + p3), n),
        _power(1.0 - 2.0 * (p1 + p3), n),
        _power(1.0 - 2.0 * (p1 + p2), n),
    )


def _power(lam: float, n: int) -> float:
    # lam ** n with lam clamped to [-1, 1], where the factors of every Pauli
    # channel lie (1 - 2 (p_j + p_k) <= 1, but the sum tolerance lets it
    # reach -1 - 2e-12, which a large n would blow up).  float ** int
    # converts n to a float, exact only below 2**53: past that it may round
    # to even, and past the float range it overflows.  So the sign comes from
    # n's parity and the magnitude from n capped at 2**64, where
    # (1 - 2**-53) ** n, the largest power below 1, has underflowed to 0.
    # CPython's float ** int also raises |lam| and negates for odd n, so
    # below 2**53 this is lam ** n bit for bit (lam is never -0.0).
    if lam < -1.0:
        lam = -1.0
    magnitude = abs(lam) ** min(n, _POWER_CAP)
    return -magnitude if lam < 0.0 and n & 1 else magnitude


def at_length(mu: ErrorDensities, length_km: float) -> PauliProbs:
    """Channel parameters of a fiber of the given length.

    The continuum limit of many short segments with per-km error densities
    ``mu`` gives decay factors exp(-2 (mu_j + mu_k) L); these are mapped to
    probabilities the same way as in `iterate`.  Length 0 is the identity
    channel.

    Parameters
    ----------
    mu : ErrorDensities
        Per-km error densities (1/km).
    length_km : float
        Channel length in km, >= 0.

    Returns
    -------
    PauliProbs
        The length-L channel; all components lie in [0, 1].
    """
    mu = mu if type(mu) is ErrorDensities else ErrorDensities(*mu)
    length_km = _real(length_km, "length_km", 0.0)
    l3, l2, l1 = _decays(_decay_rates(mu), length_km)
    return _probabilities(PauliProbs, _hadamard(l1, l2, l3))

