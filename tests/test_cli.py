import ast
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_corpus
import eprlink
from eprlink import ErrorDensities, LinkGeometry, analysis, channel, cli, epr, oracle
from eprlink.epr import transmit_at_length


def child_env() -> dict:
    """Environment for child interpreters: this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in(tmp_path, monkeypatch, capsys, argv, csv):
    """`run` from ``tmp_path``, which holds pts.csv with the bytes ``csv`` unless it is None."""
    monkeypatch.chdir(tmp_path)
    if csv is not None:
        (tmp_path / "pts.csv").write_bytes(csv)
    return run(capsys, *argv)


class TestTransmit:
    def test_depolarizing_concurrence(self, capsys):
        code, out, _ = run(
            capsys, "transmit", "--mu", "0.008,0.008,0.008", "--l1", "5", "--l2", "5",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        want = 0.5 * (3.0 * math.exp(-0.32) - 1.0)
        assert math.isclose(doc["results"]["concurrence"], want, rel_tol=1e-12)

    def test_single_flip_long_haul_stays_entangled(self, capsys):
        code, out, _ = run(
            capsys, "transmit", "--mu", "0.008,0,0", "--l1", "100", "--l2", "100",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["results"]["concurrence"], math.exp(-3.2), rel_tol=1e-10)

    def test_swapping_arms_is_identical(self, capsys):
        _, out1, _ = run(capsys, "transmit", "--mu", "0.01,0.02,0.03", "--l1", "2", "--l2", "9")
        _, out2, _ = run(capsys, "transmit", "--mu", "0.01,0.02,0.03", "--l1", "9", "--l2", "2")
        assert out1 == out2

    @pytest.mark.parametrize(
        "link",
        [
            ("--mu", "0.01,0.005,0.002", "--l1", "4", "--l2", "7"),
            ("--mu", "0.008,0.008,0.008", "--l1", "5", "--l2", "5"),  # depolarizing
            ("--mu", "0,0,0.02", "--l1", "3", "--l2", "9"),  # dephasing only
            ("--mu", "0.01,0.005,0.002", "--l1", "300", "--l2", "700"),  # long
            ("--r", "0.7,0.1,0.15,0.05", "--s", "0.6,0.2,0.1,0.1"),
        ],
    )
    def test_verify_oracle(self, capsys, link):
        # The deviations' digits depend on the BLAS build, so they are bounded, not pinned.
        code, out, _ = run(capsys, "transmit", *link, "--verify-oracle", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["oracle"]["max_weight_deviation"] < 1e-12
        assert doc["results"]["oracle"]["bell_residual"] < 1e-13


class TestThreshold:
    def test_method_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["threshold", "--mu", "0.008,0.004,0", "--method", "closed"])
        assert info.value.code == 2
        assert "unrecognized arguments: --method closed" in capsys.readouterr().err


class TestEstimateMu:
    # Spreadsheet programs write UTF-8 CSV with a byte-order mark first.
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order mark"])
    def test_csv_single_row_matches_inline(self, tmp_path, monkeypatch, capsys, bom):
        csv = bom + b"qber,total_length_km\n0.01,0.4\n"
        argv = ("estimate-mu", "--input", "pts.csv", "--format", "json")
        code, out, _ = run_in(tmp_path, monkeypatch, capsys, argv, csv)
        _, want, _ = run(
            capsys, "estimate-mu", "--qber", "0.01", "--length", "0.4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["results"] == json.loads(want)["results"]

    def test_measurement_csv_round_trips_exactly(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        src.write_text("qber,total_length_km\n0.01,0.4\n0.043,1.45\n")
        out = tmp_path / "out.csv"
        code, _, _ = run(
            capsys, "estimate-mu", "--input", str(src), "--format", "csv",
            "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("qber,total_length_km")
        parsed = [[float(v) for v in line.split(",")] for line in lines[1:]]
        points = [analysis.MeasurementPoint(q, l) for q, l, _ in parsed]
        assert [(p.qber, p.total_length_km) for p in points] == [(0.01, 0.4), (0.043, 1.45)]
        assert [row[2] for row in parsed] == [analysis.estimate_mu(p) for p in points]


class TestSweep:
    def test_csv_grid_contract_and_doubling_mu_halves_the_threshold(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--mu", "0.008,0.008,0.008", "--mu", "0.016,0.016,0.016",
            "--lmax", "40", "--steps", "80",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mu1,mu2,mu3,length_km,concurrence,fidelity"
        assert len(lines) == 1 + 2 * 81
        first = lines[1].split(",")
        assert float(first[3]) == 0.0 and float(first[4]) == 1.0
        last_positive = {}
        for line in lines[1:]:
            mu1, _, _, length, conc, _ = (float(v) for v in line.split(","))
            if conc > 0.0:
                last_positive[mu1] = length
        assert math.isclose(last_positive[0.008], 2 * last_positive[0.016], abs_tol=0.51)

    def test_csv_round_trips_exactly(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--mu", "0.011,0.007,0.003", "--lmax", "25", "--steps", "50",
            "--output", str(out_path),
        )
        assert code == 0
        table = analysis.sweep(ErrorDensities(0.011, 0.007, 0.003), 25.0, 50)
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 52
        for line, row in zip(lines[1:], table.rows):
            parsed = [float(v) for v in line.split(",")]
            assert parsed[3:] == [row.length_km, row.concurrence, row.fidelity]

    def test_default_curves(self, capsys):
        code, out, _ = run(capsys, "sweep")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 2 * 121
        assert lines[-1].split(",")[3] == "60"
        code, out, _ = run(capsys, "sweep", "--steps", "10", "--lmax", "20")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 2 * 11


class TestMonteCarlo:
    ARGS = (
        "montecarlo", "--mu", "0.008,0.008,0.008", "--l1", "3", "--l2", "2",
        "--samples", "20000", "--segments-per-km", "20", "--seed", "7",
    )

    def test_estimate_within_4_sigma(self, capsys):
        # Reproducible from the seed, and each weight within 4 sigma of the closed form.
        code, out, _ = run(capsys, *self.ARGS, "--format", "json")
        assert (code, out) == run(capsys, *self.ARGS, "--format", "json")[:2]
        assert code == 0
        assert all(abs(z) <= 4.0 for z in json.loads(out)["results"]["z_scores"])

    def test_reference_at_the_sampled_lengths(self, capsys):
        # 0.015 km at 100 segments/km rounds to 2 segments: 0.02 km is sampled
        code, out, _ = run(
            capsys, "montecarlo", "--mu", "0.5,0.5,0.5", "--l1", "0.015", "--l2", "0.015",
            "--samples", "200000", "--seed", "4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["l1_km"] == doc["inputs"]["l2_km"] == 0.015
        mu = ErrorDensities(0.5, 0.5, 0.5)
        sampled = transmit_at_length(mu, LinkGeometry(0.02, 0.02)).as_tuple()
        assert tuple(doc["results"]["reference"].values()) == sampled
        assert all(abs(z) <= 4.0 for z in doc["results"]["z_scores"])


class TestCliErrorMessages:
    """Every refusal of one CLI run: its exit code, empty stdout and exact stderr, in every format.

    A row is (argv, the bytes of pts.csv or None, exit code, message).  Each
    run starts in an empty directory, which holds pts.csv if the row gives
    it, so messages hold no temporary path.
    """

    CASES = {
        "compose-p-with-mu": (
            ("compose", "--p", "1,0,0,0", "--mu", "0.1,0.1,0.1"), None,
            2, "--p cannot be combined with --mu/--length"),
        "compose-p-with-mu-and-length": (
            ("compose", "--p", "1,0,0,0", "--mu", "0.01,0,0", "--length", "1"), None,
            2, "--p cannot be combined with --mu/--length"),
        "compose-mu-without-length": (
            ("compose", "--mu", "0.1,0.1,0.1"), None, 2, "--mu requires --length"),
        "compose-no-channel": (
            ("compose", "--length", "1"), None, 2, "provide either --p or --mu with --length"),
        "compose-bad-distribution": (
            ("compose", "--p", "0.5,0.5,0.5,0"), None,
            2, "channel probabilities must sum to 1, got 1.5"),
        "transmit-explicit-with-mu": (
            ("transmit", "--r", "1,0,0,0", "--l1", "1"), None,
            2, "--r/--s cannot be combined with --mu/--l1/--l2"),
        "transmit-explicit-pair-with-mu": (
            ("transmit", "--r", "1,0,0,0", "--s", "1,0,0,0", "--l1", "1"), None,
            2, "--r/--s cannot be combined with --mu/--l1/--l2"),
        "transmit-r-without-s": (
            ("transmit", "--r", "1,0,0,0"), None, 2, "explicit channels need both --r and --s"),
        "transmit-mu-without-l2": (
            ("transmit", "--mu", "0.1,0.1,0.1", "--l1", "1"), None,
            2, "provide --mu with --l1 and --l2 (or --r and --s)"),
        # Scaling sends the smaller density to 0.0; the length the loop would
        # print there (3.72567e-298 km for the first) is wrong.
        "threshold-densities-too-far-apart": (
            ("threshold", "--mu", "1e300,1e-300,0"), None,
            3, "error densities 1e+300 and 1e-300 /km are too far apart"),
        "threshold-subnormal-density-too-far-apart": (
            ("threshold", "--mu", "1e10,1e-315,0"), None,
            3, "error densities 10000000000.0 and 1e-315 /km are too far apart"),
        "estimate-inline-with-input": (
            ("estimate-mu", "--length", "1", "--input", "pts.csv"), None,
            2, "--qber/--length cannot be combined with --input"),
        "estimate-qber-without-length": (
            ("estimate-mu", "--qber", "0.1"), None,
            2, "inline estimation needs both --qber and --length"),
        "estimate-no-points": (
            ("estimate-mu",), None, 2, "provide --qber with --length, or --input CSV"),
        "estimate-qber-above-floor": (
            ("estimate-mu", "--qber", "0.8", "--length", "1.0"), None,
            3, "qber 0.8 exceeds the depolarizing fidelity floor (must be < 0.75)"),
        # a valid point whose implied mu passes the float range
        "estimate-overflowing-estimate": (
            ("estimate-mu", "--qber", "0.7499999999", "--length", "1e-320"), None,
            3, "implied error density overflows: qber 0.7499999999 at 1e-320 km"
            " needs more than 1.798e+308 /km"),
        "estimate-missing-file": (
            ("estimate-mu", "--input", "nope.csv"), None,
            4, "[Errno 2] No such file or directory: 'nope.csv'"),
        # Every slope term underflows at 5e-324 km: NumericError.
        "estimate-fit-without-a-bracket": (
            ("estimate-mu", "--input", "pts.csv"),
            b"qber,total_length_km\n1e-20,5e-324\n1e-20,5e-324\n",
            3, "could not bracket the least-squares optimum"),
        "float-list-count": (
            ("transmit", "--r", "0.9,0.1,0", "--s", "1,0,0,0"), None,
            2, "--r needs 4 comma-separated values, got 3"),
        "float-list-non-numeric": (
            ("threshold", "--mu", "0.1,x, 0"), None,
            2, "--mu has a non-numeric entry: '0.1,x, 0'"),
        "csv-header": (
            ("estimate-mu", "--input", "pts.csv"), b"x,y\n0.01,0.4\n",
            2, "measurement CSV must start with header qber,total_length_km"),
        "csv-bad-row": (
            ("estimate-mu", "--input", "pts.csv"), b"qber,total_length_km\n0.01,0.4\n0.02\n",
            2, "bad measurement row: ['0.02']"),
        "csv-no-rows": (
            ("estimate-mu", "--input", "pts.csv"), b"qber,total_length_km\n\n , \n",
            2, "no measurement rows in pts.csv"),
        "csv-latin-1-byte": (
            ("estimate-mu", "--input", "pts.csv"), b"qber,total_length_km\n0.01,0.4\n# caf\xe9\n",
            2, "measurement CSV pts.csv is not UTF-8 text"),
        "csv-oversized-field": (
            ("estimate-mu", "--input", "pts.csv"),
            b"qber,total_length_km\n0.01," + b"1" * 200_000 + b"\n",
            2, "measurement CSV pts.csv cannot be parsed: field larger than field limit (131072)"),
        # -2 (mu_i + mu_j) overflows to -inf for one or more rates, and -inf *
        # 0 km is nan in the first row.
        "sweep-every-rate-overflows": (
            ("sweep", "--mu", "1e308,1e308,1e308"), None,
            2, "Bell weight a must be a finite number, got nan"),
        "sweep-one-rate-overflows": (
            ("sweep", "--mu", "5e307,5e307,0"), None,
            2, "Bell weight a must be a finite number, got nan"),
        "sweep-two-rates-overflow": (
            ("sweep", "--mu", "0,0,1e308"), None,
            2, "Bell weight a must be a finite number, got nan"),
        "sweep-lengths-that-round-together": (
            ("sweep", "--mu", "0.01,0.02,0.03", "--lmax", "5e-324", "--steps", "4"), None,
            2, "sweep lengths must be strictly increasing"),
        "sweep-unwritable-output": (
            ("sweep", "--lmax", "10", "--steps", "5", "--output", "no/dir/out.csv"), None,
            4, "[Errno 2] No such file or directory: 'no/dir/out.csv'"),
        "montecarlo-sub-half-segment-arm": (
            ("montecarlo", "--mu", "0.008,0.008,0.008", "--l1", "0.004", "--l2", "0",
             "--samples", "100"), None,
            2, "arm length 0.004 km rounds to 0 segments at 100 segments/km;"
            " increase segments_per_km"),
        "montecarlo-infeasible-segmentation": (
            ("montecarlo", "--mu", "0.5,0.5,0.5", "--l1", "1", "--l2", "1", "--samples", "10",
             "--segments-per-km", "1", "--seed", "0"), None,
            3, "per-segment error probability 1.5 exceeds 1; increase segments_per_km above 2"),
        "montecarlo-overflowing-error-densities": (
            ("montecarlo", "--mu", "1e308,1e308,1e308", "--l1", "1", "--l2", "1",
             "--segments-per-km", "1"), None,
            3, "per-segment error probability exceeds 1 at every segments_per_km:"
            " the error densities sum to more than 1.798e+308 /km"),
        "montecarlo-2-64-segments": (
            ("montecarlo", "--mu", "0,0,0", "--l1", "1e308", "--l2", "1e308",
             "--segments-per-km", "10", "--samples", "1"), None,
            2, "arms of 1e+308 and 1e+308 km hold 2**64 or more segments at 10 segments/km;"
            " the sampler counts a sample's events in 64 bits"),
        "montecarlo-2-64-segments-in-one-arm": (
            ("montecarlo", "--mu", "0.1,0.1,0.1", "--l1", "1e300", "--l2", "0",
             "--segments-per-km", "1", "--samples", "1"), None,
            2, "arms of 1e+300 and 0.0 km hold 2**64 or more segments at 1 segments/km;"
            " the sampler counts a sample's events in 64 bits"),
        "montecarlo-segments-per-km-past-the-float-range": (
            ("montecarlo", "--mu", "0.1,0.1,0.1", "--l1", "1", "--l2", "1",
             "--segments-per-km", "1" + "0" * 320), None,
            2, "segments_per_km must be <= 1.79769e+308, got 1" + "0" * 320),
        # The tallies are int64.
        "montecarlo-2-63-samples": (
            ("montecarlo", "--mu", "0,0,0", "--l1", "1", "--l2", "1",
             "--samples", "9223372036854775808"), None,
            2, "samples must be <= 9223372036854775807, got 9223372036854775808"),
        "montecarlo-10-30-samples": (
            ("montecarlo", "--mu", "0,0,0", "--l1", "1", "--l2", "1", "--samples", "1" + "0" * 30),
            None, 2, "samples must be <= 9223372036854775807, got 1" + "0" * 30),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_exact_stderr(self, tmp_path, monkeypatch, capsys, case, fmt):
        argv, csv, code, message = self.CASES[case]
        got = run_in(tmp_path, monkeypatch, capsys, (*argv, "--format", fmt), csv)
        assert got == (code, "", f"error: {message}\n")


class TestCliAnswers:
    """The exact stdout of one CLI run that answers, with exit 0 and empty stderr.

    A row is (argv, the bytes of pts.csv or None, stdout); a dict stands for
    the JSON document, printed as the CLI prints it (indent 2).  Runs start
    as in `TestCliErrorMessages`.
    """

    CASES = {
        "compose-iterate": (
            ("compose", "--p", "0.7,0.3,0,0", "--iterate", "2"), None,
            "p0: 0.58\np1: 0.42\np2: 0\np3: 0\nlambda1: 1\nlambda2: 0.16\nlambda3: 0.16\n"),
        "compose-iterate-json": (
            ("compose", "--p", "0.7,0.3,0,0", "--iterate", "2", "--format", "json"), None,
            {"command": "compose", "inputs": {"p": [0.7, 0.3, 0.0, 0.0], "iterate": 2},
             "results": {
                 "probs": {"p0": 0.5800000000000001, "p1": 0.41999999999999993, "p2": 0.0,
                           "p3": 0.0},
                 "decay_factors": {"lambda1": 1.0, "lambda2": 0.16000000000000014,
                                   "lambda3": 0.16000000000000014}}}),
        "compose-length-zero-is-identity": (
            ("compose", "--mu", "0.008,0.008,0.008", "--length", "0"), None,
            "p0: 1\np1: 0\np2: 0\np3: 0\nlambda1: 1\nlambda2: 1\nlambda3: 1\n"),
        # 10**400 segments: float(10**400) overflows, the power must not
        "compose-iterate-past-the-float-range": (
            ("compose", "--mu", "0.01,0.02,0.03", "--length", "1", "--iterate", "1" + "0" * 400),
            None, "p0: 0.25\np1: 0.25\np2: 0.25\np3: 0.25\nlambda1: 0\nlambda2: 0\nlambda3: 0\n"),
        "transmit-explicit-channels-json": (
            ("transmit", "--r", "0,1,0,0", "--s", "1,0,0,0", "--format", "json"), None,
            {"command": "transmit",
             "inputs": {"r": [0.0, 1.0, 0.0, 0.0], "s": [1.0, 0.0, 0.0, 0.0]},
             "results": {"weights": {"a": 0.0, "b": 0.0, "c": 1.0, "d": 0.0},
                         "fidelity_psi_plus": 0.0, "concurrence": 1.0,
                         "dominant_bell_state": "phi+"}}),
        # Each arm sums to 1 + 9e-13 (accepted), their product to 1 + 1.8e-12 (rescaled).
        "transmit-explicit-channels-each-just-past-1": (
            ("transmit", "--r", "0.5000000000009,0.5,0,0", "--s", "0.5000000000009,0.5,0,0",
             "--format", "csv"), None, "a,b,c,d,fidelity,concurrence\n0.5,0,0.5,0,0.5,0\n"),
        # L1 + L2 = 2e308 km overflows.
        "transmit-past-the-float-range-noiseless": (
            ("transmit", "--mu", "0,0,0", "--l1", "1e308", "--l2", "1e308", "--format", "csv"),
            None, "a,b,c,d,fidelity,concurrence\n1,0,0,0,1,1\n"),
        "transmit-past-the-float-range-single-flip": (
            ("transmit", "--mu", "0.01,0,0", "--l1", "1e308", "--l2", "1e308", "--format", "csv"),
            None, "a,b,c,d,fidelity,concurrence\n0.5,0,0.5,0,0.5,0\n"),
        "transmit-past-the-float-range-subnormal": (
            ("transmit", "--mu", "5e-324,5e-324,5e-324", "--l1", "1e308", "--l2", "1e308",
             "--format", "csv"), None,
            "a,b,c,d,fidelity,concurrence\n"
            "0.99999999999999689,9.992007221626399e-16,9.992007221626397e-16,"
            "9.992007221626399e-16,0.99999999999999689,0.99999999999999378\n"),
        "threshold-depolarizing": (
            ("threshold", "--mu", "0.008,0.008,0.008"), None, "threshold: 34.3316 km\n"),
        "threshold-double-flip": (
            ("threshold", "--mu", "0.008,0.008,0"), None, "threshold: 55.0858 km\n"),
        "threshold-single-flip": (
            ("threshold", "--mu", "0.008,0,0"), None, "threshold: never vanishes\n"),
        "threshold-general-pattern-json": (
            ("threshold", "--mu", "0.008,0.004,0.002", "--format", "json"), None,
            {"command": "threshold", "inputs": {"mu": {"mu1": 0.008, "mu2": 0.004, "mu3": 0.002}},
             "results": {"kind": "finite", "length_km": 61.43627699575584}}),
        "threshold-huge-densities": (
            ("threshold", "--mu", "1e12,5e11,1e11"), None, "threshold: 5.53848e-13 km\n"),
        "threshold-largest-depolarizing": (
            ("threshold", "--mu", "1e308,1e308,1e308"), None, "threshold: 2.74653e-309 km\n"),
        "threshold-largest-double-flip": (
            ("threshold", "--mu", "1e308,1e308,0"), None, "threshold: 4.40687e-309 km\n"),
        "threshold-densities-20-decades-apart": (
            ("threshold", "--mu", "1,1e-20,0"), None, "threshold: 21.492 km\n"),
        "threshold-subnormal-density-that-scales": (
            ("threshold", "--mu", "1,1e-320,0"), None, "threshold: 365.463 km\n"),
        # ln(3) / (4 * 5e-324) overflows; beyond 2**1023 km both routes say never-vanishes
        "threshold-subnormal-density": (
            ("threshold", "--mu", "5e-324,5e-324,5e-324"), None, "threshold: never vanishes\n"),
        "threshold-subnormal-density-csv": (
            ("threshold", "--mu", "5e-324,5e-324,5e-324", "--format", "csv"), None,
            "kind,length_km\nnever-vanishes,\n"),
        "threshold-subnormal-density-json": (
            ("threshold", "--mu", "5e-324,5e-324,5e-324", "--format", "json"), None,
            {"command": "threshold",
             "inputs": {"mu": {"mu1": 5e-324, "mu2": 5e-324, "mu3": 5e-324}},
             "results": {"kind": "never-vanishes", "length_km": None}}),
        "estimate-inline-drift-observation": (
            ("estimate-mu", "--qber", "0.01", "--length", "0.4"), None,
            "qber 0.01 at 0.4 km -> mu = 0.00838939 /km\n"
            "fitted mu: 0.00838939 /km (rms residual 1.908e-17)\n"
            "implied depolarizing threshold: 32.7382 km\n"),
        "estimate-inline-qber-observation-json": (
            ("estimate-mu", "--qber", "0.043", "--length", "1.45", "--format", "json"), None,
            {"command": "estimate-mu", "inputs": {"qber": 0.043, "total_length_km": 1.45},
             "results": {
                 "per_point": [
                     {"qber": 0.043, "total_length_km": 1.45, "mu": 0.010179748385135067}],
                 "fit": {"mu": 0.010179748385135067, "rms_residual": 1.3877787807814457e-17},
                 "depolarizing_threshold_km": 26.98033996283134}}),
        "estimate-two-point-fit-json": (
            ("estimate-mu", "--input", "pts.csv", "--format", "json"),
            b"qber,total_length_km\n0.01,0.4\n0.043,1.45\n",
            {"command": "estimate-mu", "inputs": {"input": "pts.csv", "points": 2},
             "results": {
                 "per_point": [
                     {"qber": 0.01, "total_length_km": 0.4, "mu": 0.008389387707587913},
                     {"qber": 0.043, "total_length_km": 1.45, "mu": 0.010179748385135067}],
                 "fit": {"mu": 0.010042627595617196, "rms_residual": 0.0014383747436902282},
                 "depolarizing_threshold_km": 27.348726172709178}}),
        # mu = 6.8e307 /km, where 4 mu overflows; the threshold is subnormal, not 0 km.
        "estimate-huge-density-has-a-subnormal-threshold": (
            ("estimate-mu", "--qber", "0.7", "--length", "1e-308"), None,
            "qber 0.7 at 1e-308 km -> mu = 6.77013e+307 /km\n"
            "fitted mu: 6.77013e+307 /km (rms residual 0.000e+00)\n"
            "implied depolarizing threshold: 4.05684e-309 km\n"),
        # 4 L overflows; mu = ln(3) / 4e308 is subnormal but not zero
        "estimate-length-beyond-4l-overflow": (
            ("estimate-mu", "--qber", "0.5", "--length", "1e308"), None,
            "qber 0.5 at 1e+308 km -> mu = 2.74653e-309 /km\n"
            "fitted mu: 2.74653e-309 /km (rms residual 2.220e-16)\n"
            "implied depolarizing threshold: never vanishes\n"),
        # Each row's estimate is 0.0 and the optimum underflows: mu = 0 /km.
        "estimate-fit-of-estimates-that-round-to-zero": (
            ("estimate-mu", "--input", "pts.csv"),
            b"qber,total_length_km\n1e-20,1e308\n1e-20,1e308\n",
            "qber 1e-20 at 1e+308 km -> mu = 0 /km\nqber 1e-20 at 1e+308 km -> mu = 0 /km\n"
            "fitted mu: 0 /km (rms residual 1.000e-20)\n"
            "implied depolarizing threshold: never vanishes\n"),
        # -ln(1) / 4 / L is -0.0, which printed as "-0" and "-0.0"
        "estimate-zero-qber-gives-positive-zero": (
            ("estimate-mu", "--qber", "0", "--length", "1"), None,
            "qber 0 at 1 km -> mu = 0 /km\nfitted mu: 0 /km (rms residual 0.000e+00)\n"
            "implied depolarizing threshold: never vanishes\n"),
        "estimate-zero-qber-gives-positive-zero-csv": (
            ("estimate-mu", "--qber", "0", "--length", "1", "--format", "csv"), None,
            "qber,total_length_km,mu\n0,1,0\n"),
        "estimate-zero-qber-gives-positive-zero-json": (
            ("estimate-mu", "--qber", "0", "--length", "1", "--format", "json"), None,
            {"command": "estimate-mu", "inputs": {"qber": 0.0, "total_length_km": 1.0},
             "results": {"per_point": [{"qber": 0.0, "total_length_km": 1.0, "mu": 0.0}],
                         "fit": {"mu": 0.0, "rms_residual": 0.0},
                         "depolarizing_threshold_km": None}}),
        "montecarlo-reportable": (
            TestMonteCarlo.ARGS, None,
            "samples: 20000  segments/km: 20  seed: 7\n"
            "weight  estimate      std_error     reference     z\n"
            "a       0.88745       0.00223475    0.889108      -0.742\n"
            "b       0.03695       0.00133388    0.0369641     -0.011\n"
            "c       0.03895       0.00136808    0.0369641     +1.452\n"
            "d       0.03665       0.00132866    0.0369641     -0.236\n"),
        "montecarlo-noiseless-z-scores-are-zero-json": (
            ("montecarlo", "--mu", "0,0,0", "--l1", "5", "--l2", "5", "--samples", "1000",
             "--segments-per-km", "10", "--seed", "1", "--format", "json"), None,
            {"command": "montecarlo",
             "inputs": {"mu": {"mu1": 0.0, "mu2": 0.0, "mu3": 0.0}, "l1_km": 5.0, "l2_km": 5.0,
                        "samples": 1000, "segments_per_km": 10, "seed": 1},
             "results": {"estimate": {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0},
                         "standard_errors": [0.0, 0.0, 0.0, 0.0],
                         "reference": {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0},
                         "z_scores": [0.0, 0.0, 0.0, 0.0]}}),
        "montecarlo-defaults-json": (
            ("montecarlo", "--mu", "0,0,0", "--l1", "0", "--l2", "0", "--format", "json"), None,
            {"command": "montecarlo",
             "inputs": {"mu": {"mu1": 0.0, "mu2": 0.0, "mu3": 0.0}, "l1_km": 0.0, "l2_km": 0.0,
                        "samples": 1000000, "segments_per_km": 100, "seed": 1},
             "results": {"estimate": {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0},
                         "standard_errors": [0.0, 0.0, 0.0, 0.0],
                         "reference": {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0},
                         "z_scores": [0.0, 0.0, 0.0, 0.0]}}),
        # 200 samples of 200 segments at 3e-6 flips each: every tally but a's
        # is 0, and every z-score finite and nonzero.
        "montecarlo-empty-tally-gives-finite-z": (
            ("montecarlo", "--mu", "0.0001,0.0001,0.0001", "--l1", "1", "--l2", "1",
             "--samples", "200"), None,
            "samples: 200  segments/km: 100  seed: 1\n"
            "weight  estimate      std_error     reference     z\n"
            "a       1             0             0.9994        +0.346\n"
            "b       0             0             0.00019992    -0.200\n"
            "c       0             0             0.00019992    -0.200\n"
            "d       0             0             0.00019992    -0.200\n"),
        "montecarlo-empty-tally-gives-finite-z-csv": (
            ("montecarlo", "--mu", "0.0001,0.0001,0.0001", "--l1", "1", "--l2", "1",
             "--samples", "200", "--format", "csv"), None,
            "weight,estimate,std_error,reference,z\n"
            "a,1,0,0.99940023993601279,0.34644479848657167\n"
            "b,0,0,0.00019992002132906972,-0.19997999766776781\n"
            "c,0,0,0.00019992002132906972,-0.19997999766776781\n"
            "d,0,0,0.00019992002132906972,-0.19997999766776781\n"),
        "montecarlo-empty-tally-gives-finite-z-json": (
            ("montecarlo", "--mu", "0.0001,0.0001,0.0001", "--l1", "1", "--l2", "1",
             "--samples", "200", "--format", "json"), None,
            {"command": "montecarlo",
             "inputs": {"mu": {"mu1": 0.0001, "mu2": 0.0001, "mu3": 0.0001}, "l1_km": 1.0,
                        "l2_km": 1.0, "samples": 200, "segments_per_km": 100, "seed": 1},
             "results": {"estimate": {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0},
                         "standard_errors": [0.0, 0.0, 0.0, 0.0],
                         "reference": {"a": 0.9994002399360128, "b": 0.00019992002132906972,
                                       "c": 0.00019992002132906972, "d": 0.00019992002132906972},
                         "z_scores": [0.34644479848657167, -0.1999799976677678,
                                      -0.1999799976677678, -0.1999799976677678]}}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exact_stdout(self, tmp_path, monkeypatch, capsys, case):
        argv, csv, want = self.CASES[case]
        if isinstance(want, dict):
            want = json.dumps(want, indent=2) + "\n"
        assert run_in(tmp_path, monkeypatch, capsys, argv, csv) == (0, want, "")


class TestOutputContract:
    def test_json_reference_matches_library(self, capsys):
        _, out, _ = run(
            capsys, "montecarlo", "--mu", "0.01,0.01,0.01", "--l1", "2", "--l2", "2",
            "--samples", "5000", "--segments-per-km", "10", "--seed", "3",
            "--format", "json",
        )
        doc = json.loads(out)
        want = transmit_at_length(
            ErrorDensities(0.01, 0.01, 0.01), LinkGeometry(2.0, 2.0)
        )
        assert doc["results"]["reference"]["a"] == want.a

    def test_output_file_write(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "threshold", "--mu", "0.008,0.008,0.008", "--format", "json",
            "--output", str(path),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["results"]["kind"] == "finite"


class TestSubprocess:
    """Exit codes across a real interpreter boundary, as scripts see them."""

    def invoke(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "eprlink", *argv],
            capture_output=True, text=True, env=child_env(),
        )

    def test_success(self):
        proc = self.invoke("threshold", "--mu", "0.008,0.008,0.008")
        assert proc.returncode == 0
        assert "34.3316" in proc.stdout

    def test_validation_failure(self):
        proc = self.invoke("compose", "--p", "0.5,0.5,0.5,0")
        assert proc.returncode == 2
        assert "sum to 1" in proc.stderr

    def test_unknown_flag(self):
        proc = self.invoke("threshold", "--mu", "0.008,0.008,0.008", "--bogus")
        assert proc.returncode == 2

    def test_domain_failure(self):
        proc = self.invoke("estimate-mu", "--qber", "0.8", "--length", "1")
        assert proc.returncode == 3

    def test_cli_module_runs_as_a_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eprlink.cli", "compose", "--p", "0.5,0.5,0.5,0"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 2

    def test_densities_too_far_apart_fail_without_traceback(self):
        proc = self.invoke("threshold", "--mu", "1e300,1e-300,0")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("error: error densities 1e+300 and 1e-300 /km")
        assert "Traceback" not in proc.stderr


class TestLazyNumpy:
    """numpy loads only with the oracle and the sampler, each check in a fresh interpreter."""

    def python(self, code):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_closed_forms_and_cli_leave_numpy_unloaded(self):
        self.python(
            "import sys\n"
            "import eprlink\n"
            "from eprlink import cli\n"
            "mu = eprlink.ErrorDensities(0.008, 0.004, 0.002)\n"
            "eprlink.sweep(mu, 60.0, 10)\n"
            "eprlink.threshold_generic(mu)\n"
            "points = [eprlink.MeasurementPoint(0.01, 0.4), eprlink.MeasurementPoint(0.04, 1.5)]\n"
            "eprlink.fit_mu(points)\n"
            "eprlink.transmit_at_length(mu, eprlink.LinkGeometry(3.0, 4.0))\n"
            "for argv in (['compose', '--p', '0.7,0.3,0,0'], ['transmit', '--mu', '0.01,0,0',\n"
            "             '--l1', '1', '--l2', '2'], ['threshold', '--mu', '0.01,0.01,0'],\n"
            "             ['estimate-mu', '--qber', '0.02', '--length', '1.5'], ['sweep']):\n"
            "    assert cli.main(argv) == 0\n"
            "assert 'numpy' not in sys.modules\n"
        )

    def test_oracle_names_resolve_on_first_use(self):
        self.python(
            "import sys\n"
            "import eprlink\n"
            "from eprlink import oracle\n"
            "assert eprlink.monte_carlo_transmit is oracle.monte_carlo_transmit\n"
            "assert eprlink.McEstimate is oracle.McEstimate\n"
            "assert 'numpy' in sys.modules\n"
        )

    def test_bell_labels_join_the_surface(self):
        self.python(
            "import sys\n"
            "import eprlink\n"
            "assert eprlink.BELL_LABELS == ('psi+', 'psi-', 'phi+', 'phi-')\n"
            "assert 'numpy' not in sys.modules\n"
        )

    def test_star_import(self):
        self.python(
            "import eprlink\n"
            "from eprlink import *\n"
            "missing = [n for n in eprlink.__all__ if n not in globals()]\n"
            "assert not missing, missing\n"
            "assert monte_carlo_transmit is eprlink.oracle.monte_carlo_transmit\n"
        )

    def test_dir_lists_every_name(self):
        self.python(
            "import sys\n"
            "import eprlink\n"
            "names = dir(eprlink)\n"
            "missing = [n for n in eprlink.__all__ + ['oracle'] if n not in names]\n"
            "assert not missing, missing\n"
            "assert 'numpy' not in sys.modules\n"
        )


class TestPackageSurface:
    """Each module's __all__ is the one list of its public names."""

    def test_unknown_name_raises_the_module_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'eprlink' has no attribute 'nope'$"):
            eprlink.nope

    def test_all_is_the_union_of_the_module_lists(self):
        errors = ["DomainError", "NumericError", "ValidationError"]
        names = analysis.__all__ + channel.__all__ + epr.__all__ + oracle.__all__ + errors
        assert len(set(names)) == len(names)
        assert set(eprlink.__all__) == set(names)
        assert eprlink.__all__ == sorted(names)

    def test_the_benchmark_looks_up_only_public_names(self):
        # perfbench/workloads.py maps each attribute to (span, eprlink name)
        # in `_LIB_NAMES`; it is parsed here, not imported.  A name gone from
        # the package would stop every benchmark run that looks it up.
        source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        table = next(
            node.value
            for node in ast.parse(source.read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign)
            and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_LIB_NAMES"]
        )
        names = {entry.elts[1].value for entry in table.values}
        assert names and names <= set(eprlink.__all__)

    def test_readme_quickstart_runs_as_written(self, capsys):
        # A public name that the README's "Library quickstart" uses and that
        # is renamed or removed fails here, and so does a value its comments
        # show ("# 0.7946... 0.5892...", one per printed field) that drifts.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        shown = capsys.readouterr().out.splitlines()
        prints = [line for line in block.splitlines() if line.startswith("print(")]
        assert len(shown) == len(prints)
        checked = 0
        for line, out in zip(prints, shown):
            fields = out.split()
            for i, want in enumerate(re.findall(r"(\d+\.\d+)\.\.\.", line.partition("#")[2])):
                assert fields[i].startswith(want), (line, out)
                checked += 1
        assert checked >= 3


# Zero, signed zero, subnormals, the float range's edge and past it, non-finite
# values, half the float range (where pairwise rates overflow), 0.75 (the QBER
# floor) and its predecessor, and an integer of 400 digits.
_FUZZ_NUMBERS = (
    "0", "-0.0", "5e-324", "1e-310", "1e308", "1e309", "nan", "inf", "-inf", "4.5e307",
    "0.75", repr(math.nextafter(0.75, 0.0)), "1" + "0" * 399,
)
# The ones every numeric field accepts, drawn alone in half the runs so that
# more of them get past validation.
_FUZZ_IN_RANGE = tuple(v for v in _FUZZ_NUMBERS if 0.0 <= float(v) < math.inf)
_FUZZ_INTEGERS = ("0", "-1", "1", "3", "1" + "0" * 399)


def _fuzz_argv(draw):
    pool = draw(st.sampled_from((_FUZZ_IN_RANGE, _FUZZ_NUMBERS)))

    def number():
        return draw(st.sampled_from(pool))

    def numbers(n):
        return ",".join(number() for _ in range(n))

    def flag(name, value):
        # --name=value, so argparse reads "-inf" as a value, not an option.
        return [f"--{name}={value}"]

    command = draw(st.sampled_from(cli_corpus.SUBCOMMANDS))
    argv = [command]
    if command == "compose":
        if draw(st.booleans()):
            argv += flag("p", numbers(4))
        else:
            argv += flag("mu", numbers(3)) + flag("length", number())
        if draw(st.booleans()):
            argv += flag("iterate", draw(st.sampled_from(_FUZZ_INTEGERS)))
    elif command == "transmit":
        if draw(st.booleans()):
            argv += flag("mu", numbers(3)) + flag("l1", number()) + flag("l2", number())
        else:
            argv += flag("r", numbers(4)) + flag("s", numbers(4))
        if draw(st.booleans()):
            argv.append("--verify-oracle")
    elif command == "threshold":
        argv += flag("mu", numbers(3))
    elif command == "estimate-mu":
        argv += flag("qber", number()) + flag("length", number())
    elif command == "sweep":
        for _ in range(draw(st.integers(0, 2))):
            argv += flag("mu", numbers(3))
        argv += flag("lmax", number()) + flag("steps", draw(st.integers(-1, 12)))
    else:
        argv += flag("mu", numbers(3)) + flag("l1", number()) + flag("l2", number())
        argv += flag("samples", draw(st.integers(-1, 50)))
        argv += flag("segments-per-km", draw(st.sampled_from(_FUZZ_INTEGERS)))
        argv += flag("seed", draw(st.sampled_from(_FUZZ_INTEGERS)))
    return argv + ["--format", draw(st.sampled_from(cli_corpus.FORMATS))]


class TestFuzz:
    # Edge values on every numeric field of every subcommand and format: the
    # CLI keeps the output contract of the corpus, so it answers or refuses
    # with its own exit code, never with a traceback, and its json is strict.
    @settings(max_examples=150)
    @given(st.data())
    def test_every_subcommand_exits_cleanly(self, data):
        argv = _fuzz_argv(data.draw)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        cli_corpus.check_contract(argv, code, out.getvalue(), err.getvalue())
