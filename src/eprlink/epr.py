"""Closed-form analytics for a maximally entangled pair sent through two Pauli channels.

The source emits (|00> + |11>)/sqrt(2) and sends one qubit through a channel
of length L1 and the other through a channel of length L2 of the same type.
The received state is always diagonal in the Bell basis

    psi+- = (|00> +- |11>)/sqrt(2),   phi+- = (|01> +- |10>)/sqrt(2)

with weights (a, b, c, d) that are bilinear in the two channels' error
probabilities and, for length-parameterized channels, depend on the lengths
only through L = L1 + L2.  The concurrence of a Bell-diagonal state is
max(0, 2 max(a, b, c, d) - 1).

`transmit` and `transmit_at_length` read the closed form of `channel` in Bell
order; the other functions here wrap them.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .channel import (
    ErrorDensities,
    PauliProbs,
    _convolve,
    _decay_rates,
    _decays,
    _hadamard,
    _NonNegative,
    _Probabilities,
    _probabilities,
    _real,
    _rescaled,
    at_length,
)
from .errors import ValidationError

__all__ = [
    "BellDiagonal",
    "LinkGeometry",
    "transmit",
    "transmit_at_length",
    "concurrence",
    "fidelity_psi_plus",
    "concurrence_vs_length",
    "dominant_bell_state",
    "BELL_LABELS",
]

BELL_LABELS = ("psi+", "psi-", "phi+", "phi-")


class BellDiagonal(_Probabilities, namedtuple("BellDiagonal", "a b c d")):
    """Weights (a, b, c, d) on the psi+, psi-, phi+, phi- projectors.

    Each weight is the fidelity of the state with the corresponding Bell
    state.  Weights lie in [0, 1] and sum to 1 (both up to 1e-12).
    """

    __slots__ = ()
    _kind = "Bell weight"


class LinkGeometry(_NonNegative, namedtuple("LinkGeometry", "l1_km l2_km")):
    """Distances (km) from the pair source to the two receivers."""

    __slots__ = ()

    @property
    def total_km(self) -> float:
        return self.l1_km + self.l2_km


def transmit(r: PauliProbs, s: PauliProbs) -> BellDiagonal:
    """Bell-diagonal weights of the received pair for arm channels ``r`` and ``s``.

    Each weight collects the error-index pairs (k, l) whose Klein-four
    product maps psi+ to the respective Bell state: index XOR 0 keeps psi+,
    1 gives phi+, 2 gives phi-, and 3 gives psi-.  This is
    `channel._convolve` with its output read in that order (`_bell_order`).
    """
    r = r if type(r) is PauliProbs else PauliProbs(*r)
    s = s if type(s) is PauliProbs else PauliProbs(*s)
    weights = _bell_order(_convolve(r, s))
    try:
        return _probabilities(BellDiagonal, weights)
    except ValidationError:
        return _rescaled(BellDiagonal, weights)


def _bell_order(klein):
    # (a, b, c, d) from four weights indexed by the Klein-four product k XOR l.
    a, c, d, b = klein
    return a, b, c, d


def transmit_at_length(mu: ErrorDensities, geom: LinkGeometry) -> BellDiagonal:
    """Bell-diagonal weights for two length-parameterized arms of the same type.

    Only the total length L = L1 + L2 enters: the weights are the four
    (1 +- x +- y +- z)/4 sign combinations of the three exponentials
    x = exp(-2 (mu1 + mu2) L), y = exp(-2 (mu1 + mu3) L),
    z = exp(-2 (mu2 + mu3) L).  Equal to
    ``transmit(at_length(mu, L1), at_length(mu, L2))``.  Where L1 + L2
    overflows to inf that is the route taken: each arm is finite, while
    rate * inf is -inf for every nonzero rate.
    """
    mu = mu if type(mu) is ErrorDensities else ErrorDensities(*mu)
    geom = geom if type(geom) is LinkGeometry else LinkGeometry(*geom)
    total_km = geom.total_km
    if total_km == math.inf:
        return transmit(at_length(mu, geom.l1_km), at_length(mu, geom.l2_km))
    a, b, d, c = _hadamard(*_decays(_decay_rates(mu), total_km))
    return _probabilities(BellDiagonal, (a, b, c, d))


def concurrence(state: BellDiagonal) -> float:
    """Concurrence of a Bell-diagonal state: max(0, 2 max(a,b,c,d) - 1).

    Zero for separable states, 1 for a pure Bell state; positive exactly when
    one weight exceeds 1/2.  Never above 1: a `BellDiagonal` weight is at most
    1.0, and 2.0 * 1.0 - 1.0 is 1.0 exactly.
    A plain sequence ``state`` is checked as `BellDiagonal`.
    """
    state = state if type(state) is BellDiagonal else BellDiagonal(*state)
    # max(0, conc), written out: 0.0 unless conc > 0 (nan gives 0.0).  `>=`
    # would return the same floats, as 2.0 * max - 1.0 is +0.0 where it is 0.
    conc = 2.0 * max(state) - 1.0
    return conc if conc > 0.0 else 0.0


def fidelity_psi_plus(state: BellDiagonal) -> float:
    """Overlap of the received state with psi+; above 1/2 the pair beats any
    classical teleportation strategy.  A plain sequence ``state`` is checked
    as `BellDiagonal`."""
    state = state if type(state) is BellDiagonal else BellDiagonal(*state)
    return state.a


def _raw_concurrence(rates: tuple[float, float, float], length: float) -> float:
    # x + y + z - 1, twice the unclamped concurrence, over three decay rates in
    # increasing order; negative beyond the threshold length.  Root-finding in
    # `analysis` needs the sign, which the clamp destroys.  The largest
    # exponential enters as expm1, so the -1 cancels exactly and a small
    # density is not absorbed.
    r0, r1, r2 = rates
    return math.exp(r0 * length) + math.exp(r1 * length) + math.expm1(r2 * length)


def concurrence_vs_length(mu: ErrorDensities, total_length_km: float) -> float:
    """Concurrence of the received pair as a function of total length.

    max(0, (x + y + z - 1)/2) with the exponentials of `transmit_at_length`.
    Evaluated through ``concurrence(transmit_at_length(...))`` so the two
    routes agree bit-for-bit.  Non-increasing in the length, 1 at L = 0.
    """
    geom = LinkGeometry(_real(total_length_km, "total_length_km", 0.0), 0.0)
    return concurrence(transmit_at_length(mu, geom))


def dominant_bell_state(state: BellDiagonal) -> str:
    """Label of the Bell state with the largest weight.

    Ties resolve to the lowest index in the (a, b, c, d) = (psi+, psi-,
    phi+, phi-) ordering, so the report is deterministic.  A plain sequence
    ``state`` is checked as `BellDiagonal`.
    """
    state = state if type(state) is BellDiagonal else BellDiagonal(*state)
    best = max(range(4), key=lambda i: (state[i], -i))
    return BELL_LABELS[best]
