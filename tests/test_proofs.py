"""Symbolic proofs of the closed form's identities, for every input.

sympy runs the package's channel algebra on symbols; rounding stays with the
numerical routes (dense oracle, brute force, CLI corpus, acceptance gates).
The real `compose`, `iterate`, `at_length`, `transmit` and
`transmit_at_length` run with three float-only helpers patched:
`_probabilities` skips its checks, and `_decays` and `_power` read a length
or count of 1, 2 or 3 as the symbol u, v or u + v.
"""

import pytest
import sympy as sp

from eprlink import channel, epr
from eprlink.channel import ErrorDensities, PauliProbs, _convolve, _hadamard
from eprlink.epr import LinkGeometry

r, s, t = (sp.symbols(f"{name}0:4", nonnegative=True) for name in "rst")
m, m1, m2, m3, u, v = sp.symbols("m m1 m2 m3 u v", nonnegative=True)
SUMS = {1: u, 2: v, 3: u + v}
unchecked = tuple.__new__  # a value object built from its values, with no checks


def same(got, want):
    # Equal term by term, with the code's float constants read as exact rationals.
    diffs = [sp.sympify(g - w) for g, w in zip(got, want, strict=True)]
    diffs = [sp.expand(d.xreplace({f: sp.Rational(f) for f in d.atoms(sp.Float)})) for d in diffs]
    assert diffs == [0] * len(diffs), (got, want)


@pytest.fixture
def symbolic(monkeypatch):
    for module in (channel, epr):
        monkeypatch.setattr(module, "_probabilities", unchecked)
        monkeypatch.setattr(module, "_decays", lambda xs, km: [sp.exp(x * SUMS[km]) for x in xs])
    monkeypatch.setattr(channel, "_power", lambda factor, n: factor ** SUMS[n])


def test_convolve_is_commutative_associative_and_multiplies_sums():
    rs = _convolve(r, s)
    same(rs, _convolve(s, r))
    same(_convolve(rs, t), _convolve(r, _convolve(s, t)))
    same([sum(rs)], [sum(r) * sum(s)])
    # Every coefficient is positive: nonnegative inputs give nonnegative outputs.
    assert all(c > 0 for k in rs for c in sp.Poly(k, *r, *s).coeffs())


def test_hadamard_turns_products_of_decay_factors_into_convolutions():
    x, y = sp.symbols("x1:4"), sp.symbols("y1:4")
    same(_hadamard(*(a * b for a, b in zip(x, y))), _convolve(_hadamard(*x), _hadamard(*y)))


def test_kraus_sum_on_psi_plus_is_bell_diagonal_with_the_convolution_in_bell_order():
    paulis = [sp.Matrix(2, 2, e)  # I, sigma_x, sigma_y and sigma_z
              for e in ([1, 0, 0, 1], [0, 1, 1, 0], [0, -sp.I, sp.I, 0], [1, 0, 0, -1])]
    bell = [sp.Matrix(b) / sp.sqrt(2)  # psi+, psi-, phi+ and phi-
            for b in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])]
    got = sp.zeros(4, 4)
    for ri, a in zip(r, paulis):
        for sj, b in zip(s, paulis):
            kraus = sp.kronecker_product(a, b) * bell[0]
            got += ri * sj * kraus * kraus.H
    # Bell-diagonal, weighted as `transmit` reads the product.
    weights = epr._bell_order(_convolve(r, s))
    same(list(got), list(sum((w * b * b.H for w, b in zip(weights, bell)), sp.zeros(4, 4))))


def test_compose_iterate_and_transmit(symbolic):
    p, q, w = (unchecked(PauliProbs, x) for x in (r, s, t))
    same(channel.compose(p, q), channel.compose(q, p))
    same(channel.compose(channel.compose(p, q), w), channel.compose(p, channel.compose(q, w)))
    same(channel.iterate(p, 3), channel.compose(channel.iterate(p, 1), channel.iterate(p, 2)))
    same(epr.transmit(p, q), epr.transmit(q, p))
    same([sum(epr.transmit(p, q))], [sum(r) * sum(s)])


@pytest.mark.parametrize("l1, l2", [(1.0, 2.0), (2.0, 1.0)])
def test_at_length_composes_and_two_arms_see_only_their_sum(symbolic, l1, l2):
    mu = unchecked(ErrorDensities, (m1, m2, m3))
    arms = channel.at_length(mu, l1), channel.at_length(mu, l2)
    same(channel.at_length(mu, 3.0), channel.compose(*arms))
    fused = epr.transmit_at_length(mu, LinkGeometry(l1, l2))
    same(fused, epr.transmit(*arms))
    same(fused, epr._bell_order(channel.at_length(mu, 3.0)))


@pytest.mark.parametrize(
    "densities, form",
    [
        # (p0, p1, p2, p3) over a length L, with e = exp(-2 m L).
        ((m, 0.0, 0.0), lambda e: [(1 + e) / 2, (1 - e) / 2, 0, 0]),
        ((0.0, m, 0.0), lambda e: [(1 + e) / 2, 0, (1 - e) / 2, 0]),
        ((0.0, 0.0, m), lambda e: [(1 + e) / 2, 0, 0, (1 - e) / 2]),
        ((m, m, 0.0), lambda e: [(1 + e) ** 2 / 4] + [(1 - e * e) / 4] * 2 + [(1 - e) ** 2 / 4]),
        ((m, 0.0, m), lambda e: [(1 + e) ** 2 / 4, (1 - e * e) / 4, (1 - e) ** 2 / 4, (1 - e * e) / 4]),
        ((0.0, m, m), lambda e: [(1 + e) ** 2 / 4, (1 - e) ** 2 / 4] + [(1 - e * e) / 4] * 2),
        ((m, m, m), lambda e: [(1 + 3 * e * e) / 4] + [(1 - e * e) / 4] * 3),
        ((0.0, 0.0, 0.0), lambda e: [1, 0, 0, 0]),
    ],
    ids=["x-flip", "y-flip", "z-flip", "double-flip", "xz-double-flip", "yz-double-flip",
         "depolarizing", "noiseless"],
)
def test_channel_forms(symbolic, densities, form):
    # Read in Bell order, the two-arm form is the channel's over L1 + L2.
    mu = unchecked(ErrorDensities, densities)
    same(channel.at_length(mu, 1.0), form(sp.exp(-2 * m * u)))
    fused = epr.transmit_at_length(mu, LinkGeometry(1.0, 2.0))
    same(fused, epr._bell_order(form(sp.exp(-2 * m * (u + v)))))
