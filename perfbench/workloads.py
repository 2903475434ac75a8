"""The four workloads: seeded inputs, the timed eprlink calls, and their checks.

Each workload builds a list of operations from the seed, and the benchmark
cycles through that list until its time is up.  An operation has
``run(lib)``, the timed eprlink calls, and ``check(result)``, which compares
the result with an independent reference and returns None or the reason it
failed.  ``verify(lib)`` runs once after the timed loop.

Only the crosscheck workload imports numpy here, and only after eprlink is
imported, so any lazy import in eprlink shows in the scan and cli set-up time.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from tracing import MC_SPAN, SUBCOMMANDS

TOL = 1e-12

# scan: the physical fiber range of error densities, in 1/km.
MU_LOG10_RANGE = (-4.0, -1.0)
# Shares 2:1:1:1, so the median operation is a generic triple.
REGIMES = ("generic", "depolarizing", "generic", "double-flip", "single-flip")
SPLITS = (0.0, 0.3, 0.5, 0.8)
SWEEP_STEPS = 120
FIT_POINTS = 5
# Measurement campaigns span at most this much fiber.  Beyond about 186 km
# fit_mu cannot bracket its optimum (exp(-4 mu L) underflows at its first
# bracket, mu = 1/km) and raises NumericError; see README.md.
FIT_MAX_KM = 150.0
SCAN_POOL = 2000

# crosscheck: every fourth operation is a general state (shares 3:1).
CROSSCHECK_POOL = 1000
GENERAL_EVERY = 4

# montecarlo: seven configs, the i-th near the i-th of seven log-spaced
# segment counts, paired with flip levels in a fixed shuffled order so that
# cost per segment and cost per flip are not confounded.
MC_SAMPLES = 2000
MC_SEGMENTS = (200, 4000)
MC_FLIPS = (0.05, 5.0)
MC_FLIP_ORDER = (3, 0, 5, 1, 6, 2, 4)
MC_SEGMENTS_PER_KM = (100, 50, 200, 100, 50, 200, 100)
MC_JITTER = 0.03
Z_MAX = 5.0

# cli: five of the six subcommands, transmit twice, so shares are unequal.
# `eprlink montecarlo` is left out: it dies with ZeroDivisionError whenever a
# Bell tally is 0, which physical inputs often give; see README.md.
CLI_CYCLE = ("compose", "transmit", "threshold", "estimate-mu", "sweep", "transmit")
CLI_CYCLES = 5
CLI_TIMEOUT_S = 60


# Lib attribute -> (span name, or None for an untraced value class; eprlink name)
_LIB_NAMES = {
    "ErrorDensities": (None, "ErrorDensities"),
    "LinkGeometry": (None, "LinkGeometry"),
    "PauliProbs": (None, "PauliProbs"),
    "MeasurementPoint": (None, "MeasurementPoint"),
    "bell_state": (None, "bell_state"),
    "at_length": ("channel.at_length", "at_length"),
    "compose": ("channel.compose", "compose"),
    "iterate": ("channel.iterate", "iterate"),
    "transmit_at_length": ("epr.transmit_at_length", "transmit_at_length"),
    "transmit": ("epr.transmit", "transmit"),
    "concurrence": ("epr.concurrence", "concurrence"),
    "threshold_generic": ("analysis.threshold_generic", "threshold_generic"),
    "sweep": ("analysis.sweep", "sweep"),
    "fit_mu": ("analysis.fit_mu", "fit_mu"),
    "apply_two_sided": ("oracle.apply_two_sided", "apply_two_sided"),
    "bell_diagonal_project": ("oracle.bell_diagonal_project", "bell_diagonal_project"),
    "wootters_bell": ("oracle.wootters_concurrence.bell", "wootters_concurrence"),
    "wootters_general": ("oracle.wootters_concurrence.general", "wootters_concurrence"),
    "monte_carlo_transmit": (MC_SPAN, "monte_carlo_transmit"),
}


class Lib:
    """The eprlink calls that operations make; with a tracer, each call records a span.

    Each eprlink name is looked up on first use, so a workload that never
    calls the oracle never makes eprlink load it (or what it imports).
    """

    def __init__(self, root: Path, tracer=None):
        self._wrap = tracer.wrap if tracer else (lambda name, fn: fn)
        env = child_env(root)
        self.cli = {
            sub: self._wrap(f"cli.{sub}", _cli_runner(root, env, sub)) for sub in SUBCOMMANDS
        }

    def __getattr__(self, attr):
        if attr not in _LIB_NAMES:
            raise AttributeError(attr)
        import eprlink

        span, name = _LIB_NAMES[attr]
        value = getattr(eprlink, name)
        if span is not None:
            value = self._wrap(span, value)
        setattr(self, attr, value)
        return value


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


def _cli_runner(root: Path, env: dict, sub: str):
    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "eprlink", sub, *argv, "--format", "json"],
            cwd=root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )

    return run


class Op:
    def verify(self, lib):
        return None


# ------------------------------------------------------------ references


def _exps(mu, length):
    """The three exponentials of the closed form, computed here independently."""
    m1, m2, m3 = mu
    return (
        math.exp(-2.0 * (m1 + m2) * length),
        math.exp(-2.0 * (m1 + m3) * length),
        math.exp(-2.0 * (m2 + m3) * length),
    )


def _bell_weights(mu, length):
    x, y, z = _exps(mu, length)
    return (
        0.25 * (1.0 + x + y + z),
        0.25 * (1.0 + x - y - z),
        0.25 * (1.0 - x - y + z),
        0.25 * (1.0 - x + y - z),
    )


def _arm_channel(mu, length):
    x, y, z = _exps(mu, length)  # lambda3, lambda2, lambda1 of one arm
    return (
        0.25 * (1.0 + z + y + x),
        0.25 * (1.0 + z - y - x),
        0.25 * (1.0 - z + y - x),
        0.25 * (1.0 - z - y + x),
    )


def _qber_model(mu, length):
    return 0.75 * (1.0 - math.exp(-4.0 * mu * length))


def _far(got, want, tol=TOL) -> bool:
    return len(got) != len(want) or any(abs(g - w) > tol for g, w in zip(got, want))


def _rel_far(got, want, tol) -> bool:
    return abs(got - want) > tol * abs(want)


def _log_uniform(rng) -> float:
    return 10.0 ** rng.uniform(*MU_LOG10_RANGE)


def _draw_mu(rng, regime):
    if regime == "generic":
        return (_log_uniform(rng), _log_uniform(rng), _log_uniform(rng))
    m = _log_uniform(rng)
    if regime == "depolarizing":
        return (m, m, m)
    mu = [0.0, 0.0, 0.0]
    for axis in rng.sample(range(3), 2 if regime == "double-flip" else 1):
        mu[axis] = m
    return tuple(mu)


def _fit_lengths(rng, mu_total):
    """Lengths of one measurement campaign, short enough that the QBER stays below 3/4."""
    span = min(1.0 / mu_total, FIT_MAX_KM) * rng.uniform(0.5, 1.0)
    return [span * (i + 1) / FIT_POINTS for i in range(FIT_POINTS)]


def _closed_threshold(regime, mu):
    """Closed-form threshold of the regimes that have one (generic has none)."""
    m = max(mu)
    if regime == "depolarizing":
        return math.log(3.0) / (4.0 * m)
    if regime == "double-flip":
        return math.log(1.0 / (math.sqrt(2.0) - 1.0)) / (2.0 * m)
    return None


def _threshold_mismatch(regime, mu, length):
    if regime == "single-flip":
        return None if length is None else f"single flip must never vanish, got {length!r}"
    if length is None:
        return "finite threshold expected"

    def raw(l):
        return sum(_exps(mu, l)) - 1.0

    if not raw(length * (1.0 - 1e-9)) > 0.0 >= raw(length * (1.0 + 1e-9)):
        return f"threshold {length!r} km is not a root of the concurrence"
    closed = _closed_threshold(regime, mu)
    if closed is not None and _rel_far(length, closed, 1e-9):
        return f"threshold {length!r} km != closed form {closed!r}"
    return None


# ------------------------------------------------------------ scan


class ScanOp(Op):
    """One design study of a mu triple: closed forms, channel algebra, threshold, sweep, fit."""

    def __init__(self, rng, regime):
        self.regime = regime
        self.mu = _draw_mu(rng, regime)
        total = sum(self.mu)
        self.length = 10.0 ** rng.uniform(math.log10(0.02 / total), math.log10(1.0 / total))
        self.lmax = 1.2 / total
        self.n = rng.randint(2, 64)
        self.points = [(1.0 - _bell_weights(self.mu, l)[0], l) for l in _fit_lengths(rng, total)]

    def run(self, lib):
        mu = lib.ErrorDensities(*self.mu)
        total = self.length
        splits = []
        for share in SPLITS:
            l1 = share * total
            l2 = total - l1
            state = lib.transmit_at_length(mu, lib.LinkGeometry(l1, l2))
            routed = lib.transmit(lib.at_length(mu, l1), lib.at_length(mu, l2))
            splits.append((state, lib.concurrence(state), routed))
        whole = lib.at_length(mu, total)
        composed = lib.compose(lib.at_length(mu, 0.25 * total), lib.at_length(mu, 0.75 * total))
        iterated = lib.iterate(lib.at_length(mu, total / self.n), self.n)
        threshold = lib.threshold_generic(mu)
        table = lib.sweep(mu, self.lmax, SWEEP_STEPS)
        fit = lib.fit_mu([lib.MeasurementPoint(q, l) for q, l in self.points])
        return splits, whole, composed, iterated, threshold, table, fit

    def check(self, result):
        splits, whole, composed, iterated, threshold, table, (mu_fit, rms) = result
        weights = _bell_weights(self.mu, self.length)
        for state, conc, routed in splits:
            if _far(state.as_tuple(), weights):
                return "transmit_at_length differs from the closed form"
            if _far(routed.as_tuple(), weights):
                return "transmit of the two arm channels differs from the closed form"
            if abs(conc - max(0.0, 2.0 * max(weights) - 1.0)) > TOL:
                return "concurrence differs from 2 max(weights) - 1"
        arm = _arm_channel(self.mu, self.length)
        for name, probs in (("at_length", whole), ("compose", composed), ("iterate", iterated)):
            if _far(probs.as_tuple(), arm, 1e-10):
                return f"{name} differs from the closed-form arm channel"
        reason = _threshold_mismatch(self.regime, self.mu, threshold.length_km)
        if reason:
            return reason
        reason = self._sweep_mismatch(table.rows)
        if reason:
            return reason
        return self._fit_mismatch(mu_fit, rms)

    def _sweep_mismatch(self, rows):
        if len(rows) != SWEEP_STEPS + 1:
            return f"sweep has {len(rows)} rows, expected {SWEEP_STEPS + 1}"
        for i, row in enumerate(rows):
            length = self.lmax * (i / SWEEP_STEPS)
            x, y, z = _exps(self.mu, length)
            want = (length, max(0.0, 0.5 * (x + y + z - 1.0)), 0.25 * (1.0 + x + y + z))
            if _far((row.length_km, row.concurrence, row.fidelity), want, 1e-10 * (1.0 + length)):
                return f"sweep row {i} differs from the closed form"
        return None

    def _fit_mismatch(self, mu_fit, rms):
        def sse(m):
            return sum((q - _qber_model(m, l)) ** 2 for q, l in self.points)

        if abs(rms - math.sqrt(sse(mu_fit) / len(self.points))) > TOL:
            return "fit_mu residual differs from the recomputed rms"
        if sse(mu_fit) > min(sse(mu_fit * (1 - 1e-6)), sse(mu_fit * (1 + 1e-6))) + 1e-15:
            return "fit_mu result is not a least-squares minimum"
        if self.regime == "depolarizing" and _rel_far(mu_fit, self.mu[0], 1e-9):
            return f"fit_mu {mu_fit!r} does not recover mu {self.mu[0]!r}"
        return None


def build_scan(seed, lib, out_dir):
    rng = random.Random(f"scan:{seed}")
    return [ScanOp(rng, REGIMES[i % len(REGIMES)]) for i in range(SCAN_POOL)]


# ------------------------------------------------------------ crosscheck


def _random_channel(rng):
    p0 = rng.uniform(0.4, 1.0)
    weights = [rng.random() for _ in range(3)]
    weights[rng.randrange(3)] *= rng.choice((0.0, 1.0, 1.0))
    rest = (1.0 - p0) / sum(weights)
    p1, p2 = rest * weights[0], rest * weights[1]
    return (p0, p1, p2, max(0.0, 1.0 - p0 - p1 - p2))


class BellCrossOp(Op):
    """Dense oracle on psi+ through two arm channels against transmit and concurrence."""

    def __init__(self, rng, psi_plus):
        self.r = _random_channel(rng)
        self.s = _random_channel(rng)
        self.psi_plus = psi_plus

    def run(self, lib):
        r = lib.PauliProbs(*self.r)
        s = lib.PauliProbs(*self.s)
        rho = lib.apply_two_sided(r, s, self.psi_plus)
        projected, residual = lib.bell_diagonal_project(rho)
        oracle_conc = lib.wootters_bell(rho)
        state = lib.transmit(r, s)
        return projected, residual, oracle_conc, state, lib.concurrence(state)

    def check(self, result):
        projected, residual, oracle_conc, state, conc = result
        if _far(projected.as_tuple(), state.as_tuple()):
            return "oracle Bell weights differ from transmit"
        if residual > TOL:
            return f"oracle state is not Bell-diagonal (residual {residual:.3e})"
        if abs(oracle_conc - conc) > 1e-10:
            return f"Wootters concurrence {oracle_conc!r} != closed form {conc!r}"
        return None


class GeneralCrossOp(Op):
    """Wootters concurrence of a full-rank general state against numpy.linalg."""

    def __init__(self, rho, reference):
        self.rho = rho
        self.reference = reference

    def run(self, lib):
        return lib.wootters_general(self.rho)

    def check(self, conc):
        if abs(conc - self.reference) > 1e-9:
            return f"Wootters concurrence {conc!r} != numpy.linalg reference {self.reference!r}"
        return None


def _general_state(np, gen):
    g = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    mixed = g @ g.conj().T
    v = gen.normal(size=4) + 1j * gen.normal(size=4)
    pure = np.outer(v, v.conj()) / np.vdot(v, v).real
    w = gen.uniform(0.05, 0.6)
    rho = (1.0 - w) * pure + w * mixed / np.trace(mixed).real
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _wootters_reference(np, rho):
    # Spectrum of sqrt(rho) rho~ sqrt(rho), which equals that of rho rho~,
    # by numpy's Hermitian eigensolver (the oracle uses its own Jacobi solver
    # on sqrt(rho~) rho sqrt(rho~)).
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    tilde = yy @ rho.conj() @ yy
    vals, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    m = root @ tilde @ root
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (m + m.conj().T)), 0.0, None))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def build_crosscheck(seed, lib, out_dir):
    import numpy as np

    rng = random.Random(f"crosscheck:{seed}")
    gen = np.random.default_rng([seed, 1])
    psi_plus = lib.bell_state("psi+")
    ops = []
    for i in range(CROSSCHECK_POOL):
        if i % GENERAL_EVERY == GENERAL_EVERY - 1:
            rho = _general_state(np, gen)
            ops.append(GeneralCrossOp(rho, _wootters_reference(np, rho)))
        else:
            ops.append(BellCrossOp(rng, psi_plus))
    return ops


# ------------------------------------------------------------ montecarlo


def _log_level(bounds, i, count):
    lo, hi = bounds
    return lo * (hi / lo) ** (i / (count - 1))


def _jitter(rng):
    return rng.uniform(1.0 - MC_JITTER, 1.0 + MC_JITTER)


class McOp(Op):
    """One sampler call on a fixed link config, z-tested against the exact discrete model."""

    def __init__(self, rng, k, seed, lib):
        count = len(MC_FLIP_ORDER)
        segments = round(_log_level(MC_SEGMENTS, k, count) * _jitter(rng))
        flips = _log_level(MC_FLIPS, MC_FLIP_ORDER[k], count) * _jitter(rng)
        self.segments_per_km = MC_SEGMENTS_PER_KM[k]
        self.n1 = round(segments * rng.uniform(0.2, 0.8))
        self.n2 = segments - self.n1
        weights = [rng.uniform(0.2, 1.0) for _ in range(3)]
        per_segment = flips / segments
        self.mu = tuple(
            per_segment * self.segments_per_km * w / sum(weights) for w in weights
        )
        self.lengths = (self.n1 / self.segments_per_km, self.n2 / self.segments_per_km)
        if [round(l * self.segments_per_km) for l in self.lengths] != [self.n1, self.n2]:
            raise ValueError("link config does not fit the segment grid")
        # Each segment applies flip i with probability mu_i / segments_per_km.
        delta = 1.0 / self.segments_per_km
        p = [m * delta for m in self.mu]
        seg = lib.PauliProbs(1.0 - sum(p), *p)
        self.expect = lib.transmit(lib.iterate(seg, self.n1), lib.iterate(seg, self.n2)).as_tuple()
        self.seed_base = (seed * 100 + k) * 100_000
        self.calls = 0
        self.first = None

    def run(self, lib):
        seed = self.seed_base + self.calls
        self.calls += 1
        return self._call(lib, seed)

    def _call(self, lib, seed):
        mu = lib.ErrorDensities(*self.mu)
        geom = lib.LinkGeometry(*self.lengths)
        return seed, lib.monte_carlo_transmit(mu, geom, self.segments_per_km, MC_SAMPLES, seed)

    def check(self, result):
        seed, estimate = result
        if self.first is None:
            self.first = result
        if estimate.samples != MC_SAMPLES:
            return f"estimate reports {estimate.samples} samples, asked for {MC_SAMPLES}"
        for got, want in zip(estimate.bell_diagonal.as_tuple(), self.expect):
            se = math.sqrt(want * (1.0 - want) / MC_SAMPLES)
            if abs(got - want) > max(Z_MAX * se, TOL):
                return f"seed {seed}: weight {got!r} is over {Z_MAX} sigma from {want!r}"
        return None

    def verify(self, lib):
        if self.first is None:
            return None
        seed, estimate = self.first
        _, again = self._call(lib, seed)
        return None if again == estimate else f"seed {seed}: rerun differs from the first call"


def build_montecarlo(seed, lib, out_dir):
    rng = random.Random(f"montecarlo:{seed}")
    return [McOp(rng, k, seed, lib) for k in range(len(MC_FLIP_ORDER))]


# ------------------------------------------------------------ cli


def _fmt(values):
    return ",".join(repr(float(v)) for v in values)


def _mu_tuple(d):
    return (d["mu1"], d["mu2"], d["mu3"])


class CliOp(Op):
    """One ``python -m eprlink <sub> ... --format json`` child, checked against the library."""

    def __init__(self, sub, argv, expect):
        self.sub = sub
        self.argv = argv
        self.expect = expect

    def run(self, lib):
        return lib.cli[self.sub](self.argv)

    def check(self, proc):
        if proc.returncode != 0:
            return f"{self.sub} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        doc = json.loads(proc.stdout)
        if sorted(doc) != ["command", "inputs", "results"]:
            return f"{self.sub} JSON top-level keys are {sorted(doc)}"
        if doc["command"] != self.sub:
            return f"{self.sub} JSON names command {doc['command']!r}"
        return self.expect(doc["results"])


def _cli_compose(rng, lib, i, out_dir):
    mu = _draw_mu(rng, "generic")
    length = 10.0 ** rng.uniform(0.0, 2.0)
    n = rng.randint(2, 40)
    probs = lib.iterate(lib.at_length(lib.ErrorDensities(*mu), length), n).as_tuple()
    lambdas = (
        1.0 - 2.0 * (probs[2] + probs[3]),
        1.0 - 2.0 * (probs[1] + probs[3]),
        1.0 - 2.0 * (probs[1] + probs[2]),
    )

    def expect(res):
        got = [res["probs"][k] for k in ("p0", "p1", "p2", "p3")]
        lam = [res["decay_factors"][k] for k in ("lambda1", "lambda2", "lambda3")]
        if _far(got, probs) or _far(lam, lambdas):
            return "compose output differs from iterate(at_length(...))"
        return None

    return ["--mu", _fmt(mu), "--length", repr(length), "--iterate", str(n)], expect


def _cli_transmit(rng, lib, i, out_dir):
    mu = _draw_mu(rng, REGIMES[i % len(REGIMES)])
    l1, l2 = rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)
    state = lib.transmit_at_length(lib.ErrorDensities(*mu), lib.LinkGeometry(l1, l2))
    conc = lib.concurrence(state)

    def expect(res):
        w = res["weights"]
        if _far([w["a"], w["b"], w["c"], w["d"]], state.as_tuple()):
            return "transmit weights differ from transmit_at_length"
        if abs(res["concurrence"] - conc) > TOL:
            return "transmit concurrence differs from the library"
        oracle = res["oracle"]
        if oracle["max_weight_deviation"] > TOL or oracle["bell_residual"] > TOL:
            return f"transmit --verify-oracle disagrees: {oracle}"
        return None

    argv = ["--mu", _fmt(mu), "--l1", repr(l1), "--l2", repr(l2), "--verify-oracle"]
    return argv, expect


def _cli_threshold(rng, lib, i, out_dir):
    mu = _draw_mu(rng, REGIMES[i % len(REGIMES)])
    want = lib.threshold_generic(lib.ErrorDensities(*mu))

    def expect(res):
        if res["kind"] != want.kind:
            return f"threshold kind {res['kind']!r} != library {want.kind!r}"
        if want.is_finite and _rel_far(res["length_km"], want.length_km, 1e-9):
            return f"threshold {res['length_km']!r} km != library {want.length_km!r}"
        return None

    return ["--mu", _fmt(mu)], expect


def _cli_estimate_mu(rng, lib, i, out_dir):
    mu = _log_uniform(rng)
    rows = [(_qber_model(mu, l), l) for l in _fit_lengths(rng, 3.0 * mu)]
    path = out_dir / f"cli-measurements-{i}.csv"
    path.write_text(
        "qber,total_length_km\n" + "".join(f"{q!r},{l!r}\n" for q, l in rows), encoding="utf-8"
    )
    want, _ = lib.fit_mu([lib.MeasurementPoint(q, l) for q, l in rows])

    def expect(res):
        got = res["fit"]["mu"]
        if _rel_far(got, want, 1e-12):
            return f"estimate-mu fit {got!r} != library fit_mu {want!r}"
        if _rel_far(got, mu, 1e-9):
            return f"estimate-mu fit {got!r} does not recover mu {mu!r}"
        return None

    return ["--input", str(path)], expect


def _cli_sweep(rng, lib, i, out_dir):
    mu = _draw_mu(rng, "generic")
    lmax = 1.2 / sum(mu)
    table = lib.sweep(lib.ErrorDensities(*mu), lmax, SWEEP_STEPS)
    want = [(r.length_km, r.concurrence, r.fidelity) for r in table.rows]

    def expect(res):
        curves = res["curves"]
        if len(curves) != 1 or _far(_mu_tuple(curves[0]["mu"]), mu, 0.0):
            return "sweep output has the wrong curves"
        got = [(r["length_km"], r["concurrence"], r["fidelity"]) for r in curves[0]["rows"]]
        if len(got) != len(want) or any(_far(g, w) for g, w in zip(got, want)):
            return "sweep rows differ from the library sweep"
        return None

    argv = ["--mu", _fmt(mu), "--lmax", repr(lmax), "--steps", str(SWEEP_STEPS)]
    return argv, expect


_CLI_BUILDERS = {
    "compose": _cli_compose,
    "transmit": _cli_transmit,
    "threshold": _cli_threshold,
    "estimate-mu": _cli_estimate_mu,
    "sweep": _cli_sweep,
}


def build_cli(seed, lib, out_dir):
    rng = random.Random(f"cli:{seed}")
    ops = []
    for i in range(CLI_CYCLES * len(CLI_CYCLE)):
        sub = CLI_CYCLE[i % len(CLI_CYCLE)]
        argv, expect = _CLI_BUILDERS[sub](rng, lib, i, out_dir)
        ops.append(CliOp(sub, argv, expect))
    return ops


BUILDERS = {
    "scan": build_scan,
    "crosscheck": build_crosscheck,
    "montecarlo": build_montecarlo,
    "cli": build_cli,
}

# Operations a traced run makes at least, so that every traced function of the
# workload is called: one regime cycle, one 3:1 mix, one config cycle, one
# subcommand cycle.
CYCLE_OPS = {
    "scan": len(REGIMES),
    "crosscheck": GENERAL_EVERY,
    "montecarlo": len(MC_FLIP_ORDER),
    "cli": len(CLI_CYCLE),
}
