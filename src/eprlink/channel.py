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
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

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
    "flip_at_length",
    "depolarizing_probs",
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

_FLIP_AXES = {"x": 1, "y": 2, "z": 3}

_PROB_NAMES = ("p0", "p1", "p2", "p3")
_MU_NAMES = ("mu1", "mu2", "mu3")


def _shown(value) -> str:
    # repr for a message; Python refuses to print ints of more than
    # sys.get_int_max_str_digits() digits, so those are described instead.
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _validate_distribution(kind: str, names, values) -> None:
    total = 0.0
    for i, value in enumerate(values):
        # The chained comparison is False for NaN and +-inf too; _check_finite
        # only picks the message.
        if not (isinstance(value, _REAL) and _ENTRY_MIN <= value <= _ENTRY_MAX):
            _check_finite(value, f"{kind} {names[i]} must be a finite number, got ")
            raise ValidationError(f"{kind} {names[i]}={value!r} is outside [0, 1]")
        total += value
    if abs(total - 1.0) > _SUM_TOL:
        raise ValidationError(f"{kind} probabilities must sum to 1, got {total!r}")


def _clamp01(value: float) -> float:
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return float(value)


def _distribution_check(kind: str, names):
    """The ``__post_init__`` of a frozen dataclass of four probabilities.

    Fields that are floats in [0, 1] summing to 1 within the tolerance,
    tested here in the caller's frame, are stored as given; the sum is taken
    in `_validate_distribution`'s order, so this accepts only what that check
    accepts.  Any other input takes the full check, and then every field is
    rewritten: ints, bools and numpy scalars become floats, and the
    sub-tolerance overshoot that validation admits is clamped.
    """
    fields = operator.attrgetter(*names)

    def __post_init__(self):
        a, b, c, d = values = fields(self)
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
            return
        _validate_distribution(kind, names, values)
        for name, value in zip(names, values):
            object.__setattr__(self, name, _clamp01(value))

    return __post_init__


def _nonnegative_check(names, check):
    """The ``__post_init__`` of a frozen dataclass of finite non-negative floats.

    Fields that are floats in [0, max float], tested here in the caller's
    frame, are stored as given; otherwise ``check(self)``, the class's own
    field-by-field check, raises or rewrites them.
    """
    fields = operator.attrgetter(*names)

    def __post_init__(self):
        for value in fields(self):
            if not (type(value) is float and 0.0 <= value <= _FLOAT_MAX):
                check(self)
                return

    return __post_init__


@dataclass(frozen=True)
class PauliProbs:
    """Probabilities (p0, p1, p2, p3) of applying I, sigma_x, sigma_y, sigma_z.

    Entries must be in [0, 1] and sum to 1 (both up to 1e-12); sub-tolerance
    negatives are clamped to 0 on construction.
    """

    p0: float
    p1: float
    p2: float
    p3: float

    __post_init__ = _distribution_check("channel", _PROB_NAMES)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p0, self.p1, self.p2, self.p3)

    @classmethod
    def identity(cls) -> "PauliProbs":
        return cls(1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ErrorDensities:
    """Per-kilometre error rates (mu1, mu2, mu3) for the x, y, z flips, in 1/km."""

    mu1: float
    mu2: float
    mu3: float

    def _check(self):
        for name in _MU_NAMES:
            value = getattr(self, name)
            _check_finite(value, f"error density {name} must be finite, got ")
            if value < 0:
                raise ValidationError(f"error density {name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, float(value))

    __post_init__ = _nonnegative_check(_MU_NAMES, _check)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.mu1, self.mu2, self.mu3)


@dataclass(frozen=True)
class Lambdas:
    """Decay factors (lambda1, lambda2, lambda3) of a concatenated channel.

    For channels in the exponential (length-parameterized) family each factor
    lies in (0, 1]; an arbitrary stochastic channel may produce negative
    factors, which is still a legal input to the closed form.
    """

    lambda1: float
    lambda2: float
    lambda3: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            value = getattr(self, name)
            _check_finite(value, f"decay factor {name} must be finite, got ")
            object.__setattr__(self, name, float(value))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3)


def _convolve(r, s):
    # Klein-four convolution: output index i collects all (j, k) with j XOR k == i.
    return (
        r[0] * s[0] + r[1] * s[1] + r[2] * s[2] + r[3] * s[3],
        r[0] * s[1] + r[1] * s[0] + r[2] * s[3] + r[3] * s[2],
        r[0] * s[2] + r[1] * s[3] + r[2] * s[0] + r[3] * s[1],
        r[0] * s[3] + r[1] * s[2] + r[2] * s[1] + r[3] * s[0],
    )


def _from_lambdas(l1: float, l2: float, l3: float) -> PauliProbs:
    # 1/4 * Hadamard-pattern matrix applied to (1, lambda1, lambda2, lambda3).
    return PauliProbs(
        0.25 * (1.0 + l1 + l2 + l3),
        0.25 * (1.0 + l1 - l2 - l3),
        0.25 * (1.0 - l1 + l2 - l3),
        0.25 * (1.0 - l1 - l2 + l3),
    )


def _as_int(n, what: str) -> int:
    try:
        return operator.index(n)
    except TypeError as exc:
        raise ValidationError(f"{what} must be an integer, got {n!r}") from exc


def _as_count(n, what: str, minimum: int = 0) -> int:
    n = _as_int(n, what)
    if n < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {_shown(n)}")
    return n


def _check_finite(value, message: str) -> None:
    # Raises `message` followed by the value unless the value is a finite
    # int or float; math.isfinite raises OverflowError on an int past the
    # float range.
    try:
        if isinstance(value, _REAL) and math.isfinite(value):
            return
    except OverflowError:
        pass
    raise ValidationError(message + _shown(value))


def _check_density(mu) -> None:
    # The error density of a single or double flip: finite and >= 0.
    message = "error density must be finite and >= 0, got "
    _check_finite(mu, message)
    if mu < 0:
        raise ValidationError(message + _shown(mu))


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
    return PauliProbs(*_convolve(first.as_tuple(), second.as_tuple()))


def iterate(p: PauliProbs, n) -> PauliProbs:
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
    lam = decay_factors(p, n)
    return _from_lambdas(*lam.as_tuple())


def iterate_bruteforce(p: PauliProbs, n) -> PauliProbs:
    """N-fold concatenation by repeated composition; the oracle for `iterate`.

    Left-folds `compose` n times starting from the identity channel.  Capped
    at 1e9 segments to stay desk-scale; use `iterate` beyond that.
    """
    n = _as_count(n, "segment count")
    if n > _BRUTEFORCE_CAP:
        raise ValidationError(f"brute-force segment count capped at {_BRUTEFORCE_CAP}, got {n}")
    seg = p.as_tuple()
    acc = (1.0, 0.0, 0.0, 0.0)
    for _ in range(n):
        acc = _convolve(acc, seg)
    return PauliProbs(*acc)


def decay_factors(p: PauliProbs, n=1) -> Lambdas:
    """Decay factors of the n-fold concatenation of `p`.

    lambda_i = (1 - 2 p_j - 2 p_k)^n for the two flip indices j, k != i,
    with 1 - 2 p_j - 2 p_k clamped to [-1, 1]: probabilities that overshoot
    the sum 1 within its 1e-12 tolerance put it just past -1.
    """
    n = _as_count(n, "segment count")
    return Lambdas(
        _power(1.0 - 2.0 * (p.p2 + p.p3), n),
        _power(1.0 - 2.0 * (p.p1 + p.p3), n),
        _power(1.0 - 2.0 * (p.p1 + p.p2), n),
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
    length_km = _as_length(length_km)
    m1, m2, m3 = mu.as_tuple()
    return _from_lambdas(
        math.exp(-2.0 * (m2 + m3) * length_km),
        math.exp(-2.0 * (m1 + m3) * length_km),
        math.exp(-2.0 * (m1 + m2) * length_km),
    )


def _as_length(length_km) -> float:
    if type(length_km) is float and 0.0 <= length_km <= _FLOAT_MAX:
        return length_km
    _check_finite(length_km, "length must be a finite number, got ")
    if length_km < 0:
        raise ValidationError(f"length must be >= 0 km, got {length_km!r}")
    return float(length_km)


def flip_at_length(mu_i: float, axis: str, length_km: float) -> PauliProbs:
    """Single-flip channel of the given length.

    Puts flip probability (1 - exp(-2 mu_i L)) / 2 on the chosen axis and the
    remainder on the identity; the flip probability tends to 1/2 as the
    length grows.

    Parameters
    ----------
    mu_i : float
        Error density of the flip, in 1/km.
    axis : {'x', 'y', 'z'}
        Which flip the channel applies.
    length_km : float
        Channel length in km, >= 0.
    """
    if axis not in _FLIP_AXES:
        raise ValidationError(f"flip axis must be one of 'x', 'y', 'z', got {axis!r}")
    _check_density(mu_i)
    length_km = _as_length(length_km)
    q = 0.5 * (1.0 - math.exp(-2.0 * mu_i * length_km))
    probs = [1.0 - q, 0.0, 0.0, 0.0]
    probs[_FLIP_AXES[axis]] = q
    return PauliProbs(*probs)


def depolarizing_probs(p: float) -> PauliProbs:
    """Depolarizing channel with total error probability ``p``.

    Returns (1 - 3p/4, p/4, p/4, p/4): the channel that replaces the state by
    the maximally mixed state with probability p.
    """
    message = "depolarizing probability must be in [0, 1], got "
    _check_finite(p, message)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(message + _shown(p))
    return PauliProbs(1.0 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p)
