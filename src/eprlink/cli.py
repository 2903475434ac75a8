"""Command-line front end.

Subcommands: compose | transmit | threshold | estimate-mu | sweep | montecarlo.
Each accepts ``--format {table,csv,json}`` and ``--output PATH`` (default
stdout), declared once in `_build_parser`.  Exit codes: 0 success,
2 argument/validation, 3 numeric/domain, 4 I/O (`_EXIT_CODES`).

Each ``cmd_*`` handler returns its answer as one `Report`, and `main`
renders that in the requested format with `_render`.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import namedtuple

from . import analysis, epr
from .channel import ErrorDensities, PauliProbs, at_length, decay_factors, iterate
from .errors import DomainError, NumericError, ValidationError

# The exit code of each error kind; the first kind that matches wins.
_EXIT_CODES = {ValidationError: 2, DomainError: 3, NumericError: 3, OSError: 4}

MEASUREMENT_HEADER = ("qber", "total_length_km")
SWEEP_HEADER = ("mu1", "mu2", "mu3", "length_km", "concurrence", "fidelity")

# Artifact defaults for the demo sweep (not measured values).
DEFAULT_SWEEP_MUS = (0.008, 0.016)


def _g6(x: float) -> str:
    return f"{x:.6g}"


def _threshold_text(result: analysis.ThresholdResult) -> str:
    return f"{_g6(result.length_km)} km" if result.is_finite else "never vanishes"


def _parse_values(cls, text: str, flag: str):
    """``cls`` built from the comma-separated numbers of ``flag``, one per field."""
    n = len(cls._fields)
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != n:
        raise ValidationError(f"{flag} needs {n} comma-separated values, got {len(parts)}")
    try:
        values = [float(s) for s in parts]
    except ValueError:
        raise ValidationError(f"{flag} has a non-numeric entry: {text!r}") from None
    return cls(*values)


def _parse_link(args) -> tuple[ErrorDensities, epr.LinkGeometry, dict]:
    """The densities and geometry of ``--mu``, ``--l1`` and ``--l2``, and their json inputs."""
    mu = _parse_values(ErrorDensities, args.mu, "--mu")
    geom = epr.LinkGeometry(args.l1, args.l2)
    return mu, geom, {"mu": mu._asdict(), "l1_km": geom.l1_km, "l2_km": geom.l2_km}


class Report(namedtuple("Report", "command inputs results lines header rows")):
    """One command's answer: the json document, the table lines and the csv rows.

    ``command`` is the subcommand, ``inputs`` and ``results`` are dicts, ``lines``
    the table's lines, ``header`` the csv header and ``rows`` its rows.
    """

    __slots__ = ()


def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        doc = {"command": report.command, "inputs": report.inputs, "results": report.results}
        return json.dumps(doc, indent=2)
    if fmt == "csv":
        lines = [",".join(report.header)]
        lines.extend(
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
            for row in report.rows
        )
        return "\n".join(lines)
    return "\n".join(report.lines)


def _write_output(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------- compose


def cmd_compose(args) -> Report:
    if args.p is not None and (args.mu is not None or args.length is not None):
        raise ValidationError("--p cannot be combined with --mu/--length")
    if args.p is not None:
        probs = _parse_values(PauliProbs, args.p, "--p")
        inputs = {"p": probs.as_tuple()}
    elif args.mu is not None:
        if args.length is None:
            raise ValidationError("--mu requires --length")
        mu = _parse_values(ErrorDensities, args.mu, "--mu")
        probs = at_length(mu, args.length)
        inputs = {"mu": mu._asdict(), "length_km": args.length}
    else:
        raise ValidationError("provide either --p or --mu with --length")
    if args.iterate is not None:
        probs = iterate(probs, args.iterate)
        inputs["iterate"] = args.iterate
    lam = decay_factors(probs)
    results = {
        "probs": probs._asdict(),
        "decay_factors": lam._asdict(),
    }
    values = results["probs"] | results["decay_factors"]
    lines = [f"{name}: {_g6(v)}" for name, v in values.items()]
    return Report("compose", inputs, results, lines, tuple(values), [values.values()])


# ---------------------------------------------------------------- transmit


def cmd_transmit(args) -> Report:
    explicit = args.r is not None or args.s is not None
    parametric = args.mu is not None or args.l1 is not None or args.l2 is not None
    if explicit and parametric:
        raise ValidationError("--r/--s cannot be combined with --mu/--l1/--l2")
    if explicit:
        if args.r is None or args.s is None:
            raise ValidationError("explicit channels need both --r and --s")
        r = _parse_values(PauliProbs, args.r, "--r")
        s = _parse_values(PauliProbs, args.s, "--s")
        state = epr.transmit(r, s)
        inputs = {"r": r.as_tuple(), "s": s.as_tuple()}
    else:
        if args.mu is None or args.l1 is None or args.l2 is None:
            raise ValidationError("provide --mu with --l1 and --l2 (or --r and --s)")
        mu, geom, inputs = _parse_link(args)
        r = at_length(mu, geom.l1_km)
        s = at_length(mu, geom.l2_km)
        state = epr.transmit_at_length(mu, geom)
    weights = state._asdict()
    fidelity = epr.fidelity_psi_plus(state)
    conc = epr.concurrence(state)
    dominant = epr.dominant_bell_state(state)
    results = {
        "weights": weights,
        "fidelity_psi_plus": fidelity,
        "concurrence": conc,
        "dominant_bell_state": dominant,
    }
    lines = [
        f"{name} ({label}): {_g6(w)}" for (name, w), label in zip(weights.items(), epr.BELL_LABELS)
    ]
    lines += [
        f"fidelity_psi_plus: {_g6(fidelity)}",
        f"concurrence: {_g6(conc)}",
        f"dominant_bell_state: {dominant}",
    ]
    if args.verify_oracle:
        from . import oracle

        rho = oracle.apply_two_sided(r, s, oracle.bell_state("psi+"))
        projected, residual = oracle.bell_diagonal_project(rho)
        deviation = max(abs(x - y) for x, y in zip(projected, state))
        results["oracle"] = {"max_weight_deviation": deviation, "bell_residual": residual}
        lines.append(f"oracle max weight deviation: {deviation:.3e}")
        lines.append(f"oracle Bell-basis residual: {residual:.3e}")
    header = ("a", "b", "c", "d", "fidelity", "concurrence")
    row = (*weights.values(), fidelity, conc)
    return Report("transmit", inputs, results, lines, header, [row])


# ---------------------------------------------------------------- threshold


def cmd_threshold(args) -> Report:
    mu = _parse_values(ErrorDensities, args.mu, "--mu")
    result = analysis.threshold_generic(mu)
    inputs = {"mu": mu._asdict()}
    results = {"kind": result.kind, "length_km": result.length_km}
    lines = [f"threshold: {_threshold_text(result)}"]
    row = (result.kind, result.length_km if result.is_finite else "")
    return Report("threshold", inputs, results, lines, ("kind", "length_km"), [row])


# ---------------------------------------------------------------- estimate-mu


def _read_measurements(path) -> list[analysis.MeasurementPoint]:
    # utf-8-sig also reads the byte-order mark that spreadsheet programs write first.
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError:
        raise ValidationError(f"measurement CSV {path} is not UTF-8 text") from None
    except csv.Error as exc:
        raise ValidationError(f"measurement CSV {path} cannot be parsed: {exc}") from None
    if not rows or tuple(h.strip() for h in rows[0][:2]) != MEASUREMENT_HEADER:
        raise ValidationError(
            f"measurement CSV must start with header {','.join(MEASUREMENT_HEADER)}"
        )
    points = []
    for row in rows[1:]:
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            qber, length = float(row[0]), float(row[1])
        except (ValueError, IndexError):
            raise ValidationError(f"bad measurement row: {row!r}") from None
        points.append(analysis.MeasurementPoint(qber, length))
    return points


def cmd_estimate_mu(args) -> Report:
    inline = args.qber is not None or args.length is not None
    if inline and args.input:
        raise ValidationError("--qber/--length cannot be combined with --input")
    if inline:
        if args.qber is None or args.length is None:
            raise ValidationError("inline estimation needs both --qber and --length")
        points = [analysis.MeasurementPoint(args.qber, args.length)]
        inputs = {"qber": args.qber, "total_length_km": args.length}
    elif args.input:
        points = _read_measurements(args.input)
        if not points:
            raise ValidationError(f"no measurement rows in {args.input}")
        inputs = {"input": args.input, "points": len(points)}
    else:
        raise ValidationError("provide --qber with --length, or --input CSV")
    per_point = [
        {"qber": p.qber, "total_length_km": p.total_length_km, "mu": analysis._finite_estimate(p)}
        for p in points
    ]
    mu_fit, rms = analysis.fit_mu(points)
    threshold = analysis.threshold_depolarizing(mu_fit)
    results = {
        "per_point": per_point,
        "fit": {"mu": mu_fit, "rms_residual": rms},
        "depolarizing_threshold_km": threshold.length_km,
    }
    lines = [
        f"qber {_g6(e['qber'])} at {_g6(e['total_length_km'])} km -> mu = {_g6(e['mu'])} /km"
        for e in per_point
    ]
    lines.append(f"fitted mu: {_g6(mu_fit)} /km (rms residual {rms:.3e})")
    lines.append(f"implied depolarizing threshold: {_threshold_text(threshold)}")
    header = (*MEASUREMENT_HEADER, "mu")
    return Report("estimate-mu", inputs, results, lines, header, [e.values() for e in per_point])


# ---------------------------------------------------------------- sweep


def cmd_sweep(args) -> Report:
    if args.mu:
        mus = [_parse_values(ErrorDensities, text, "--mu") for text in args.mu]
    else:
        mus = [ErrorDensities(m, m, m) for m in DEFAULT_SWEEP_MUS]
    inputs = {
        "mu": [m._asdict() for m in mus],
        "lmax_km": args.lmax,
        "steps": args.steps,
    }
    curves, lines, rows = [], [], []
    for m in mus:
        table = analysis.sweep(m, args.lmax, args.steps)
        curves.append({"mu": m._asdict(), "rows": [r._asdict() for r in table.rows]})
        lines.append(f"mu = ({', '.join(map(_g6, m))}) /km")
        lines.append("  length_km  concurrence  fidelity")
        for r in table.rows:
            lines.append(
                f"  {_g6(r.length_km):>9}  {_g6(r.concurrence):>11}  {_g6(r.fidelity):>8}"
            )
            rows.append((*m, *r))
    return Report("sweep", inputs, {"curves": curves}, lines, SWEEP_HEADER, rows)


# ---------------------------------------------------------------- montecarlo


def cmd_montecarlo(args) -> Report:
    from . import oracle

    mu, geom, inputs = _parse_link(args)
    estimate = oracle.monte_carlo_transmit(
        mu,
        geom,
        segments_per_km=args.segments_per_km,
        samples=args.samples,
        seed=args.seed,
    )
    # The reference is taken at the lengths the sampler discretized, which
    # differ from the requested ones where L * segments_per_km is not an integer.
    ref = epr.transmit_at_length(mu, estimate.geometry)
    est = estimate.bell_diagonal
    # A tally of 0 or of every sample has a zero standard error; z then uses
    # the binomial standard error of the reference weight instead.
    zscores = tuple(
        0.0 if e == r else (e - r) / (se or math.sqrt(r * (1.0 - r) / estimate.samples))
        for e, r, se in zip(est, ref, estimate.standard_errors)
    )
    inputs.update(samples=args.samples, segments_per_km=args.segments_per_km, seed=args.seed)
    results = {
        "estimate": est._asdict(),
        "standard_errors": list(estimate.standard_errors),
        "reference": ref._asdict(),
        "z_scores": list(zscores),
    }
    rows = list(zip("abcd", est, estimate.standard_errors, ref, zscores))
    lines = [
        f"samples: {args.samples}  segments/km: {args.segments_per_km}  seed: {args.seed}",
        "weight  estimate      std_error     reference     z",
    ]
    lines += [
        f"{name:6}  {e:<12.6g}  {se:<12.6g}  {r:<12.6g}  {z:+.3f}" for name, e, se, r, z in rows
    ]
    header = ("weight", "estimate", "std_error", "reference", "z")
    return Report("montecarlo", inputs, results, lines, header, rows)


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprlink",
        description="Entanglement of an EPR pair distributed through Pauli channels.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compose", help="concatenate Pauli channels")
    p.add_argument("--p", help="explicit channel probabilities p0,p1,p2,p3")
    p.add_argument("--mu", help="error densities mu1,mu2,mu3 in 1/km")
    p.add_argument("--length", type=float, help="channel length in km (with --mu)")
    p.add_argument("--iterate", type=int, help="concatenate the channel N times")
    p.set_defaults(handler=cmd_compose)

    p = subs.add_parser("transmit", help="Bell weights and concurrence of the received pair")
    p.add_argument("--mu", help="error densities mu1,mu2,mu3 in 1/km")
    p.add_argument("--l1", type=float, help="source to first receiver, km")
    p.add_argument("--l2", type=float, help="source to second receiver, km")
    p.add_argument("--r", help="explicit first-arm probabilities p0,p1,p2,p3")
    p.add_argument("--s", help="explicit second-arm probabilities p0,p1,p2,p3")
    p.add_argument(
        "--verify-oracle", action="store_true",
        help="cross-check against the dense density-matrix engine",
    )
    p.set_defaults(handler=cmd_transmit)

    p = subs.add_parser("threshold", help="length at which the concurrence vanishes")
    p.add_argument("--mu", required=True, help="error densities mu1,mu2,mu3 in 1/km")
    p.set_defaults(handler=cmd_threshold)

    p = subs.add_parser("estimate-mu", help="error density from QBER observations")
    p.add_argument("--qber", type=float, help="channel-attributed qubit error rate")
    p.add_argument("--length", type=float, help="total length L1+L2 in km")
    p.add_argument("--input", help="CSV of measurement points (qber,total_length_km)")
    p.set_defaults(handler=cmd_estimate_mu)

    p = subs.add_parser("sweep", help="concurrence/fidelity table over total length")
    p.add_argument(
        "--mu", action="append",
        help="error densities mu1,mu2,mu3 (repeatable; default demo curves)",
    )
    p.add_argument("--lmax", type=float, default=60.0, help="maximum total length, km")
    p.add_argument("--steps", type=int, default=120, help="number of grid intervals")
    p.set_defaults(handler=cmd_sweep, format="csv")

    p = subs.add_parser("montecarlo", help="stochastic validation of the Bell weights")
    p.add_argument("--mu", required=True, help="error densities mu1,mu2,mu3 in 1/km")
    p.add_argument("--l1", type=float, required=True, help="source to first receiver, km")
    p.add_argument("--l2", type=float, required=True, help="source to second receiver, km")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--segments-per-km", type=int, default=100, dest="segments_per_km")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(handler=cmd_montecarlo)

    # Last, so that each --help lists them after the subcommand's own options.
    for p in subs.choices.values():
        fmt = p.get_default("format") or "table"
        p.add_argument(
            "--format", choices=("table", "csv", "json"), default=fmt,
            help=f"output format (default: {fmt})",
        )
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
        _write_output(_render(report, args.format), args.output)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
