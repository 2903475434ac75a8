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


class TestCompose:
    def test_iterate_hand_value(self, capsys):
        code, out, _ = run(capsys, "compose", "--p", "0.7,0.3,0,0", "--iterate", "2")
        assert code == 0
        assert "p0: 0.58" in out
        assert "p1: 0.42" in out

    def test_length_zero_is_identity(self, capsys):
        code, out, _ = run(capsys, "compose", "--mu", "0.008,0.008,0.008", "--length", "0")
        assert code == 0
        assert "p0: 1" in out
        assert "p1: 0" in out

    def test_bad_distribution_exits_2(self, capsys):
        code, _, err = run(capsys, "compose", "--p", "0.5,0.5,0.5,0")
        assert code == 2
        assert "probabilities must sum to 1" in err

    def test_conflicting_specs_exit_2(self, capsys):
        code, _, err = run(
            capsys, "compose", "--p", "1,0,0,0", "--mu", "0.01,0,0", "--length", "1"
        )
        assert code == 2
        assert "cannot be combined" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "compose", "--p", "0.7,0.3,0,0", "--iterate", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "compose"
        assert doc["inputs"]["iterate"] == 2
        assert math.isclose(doc["results"]["probs"]["p0"], 0.58, rel_tol=1e-12)
        assert math.isclose(doc["results"]["decay_factors"]["lambda2"], 0.16, rel_tol=1e-12)

    def test_iterate_past_the_float_range(self, capsys):
        # 10**400 segments: float(10**400) overflows, the power must not
        code, out, err = run(
            capsys, "compose", "--mu", "0.01,0.02,0.03", "--length", "1",
            "--iterate", "1" + "0" * 400,
        )
        assert (code, err) == (0, "")
        assert out.split("\n")[:4] == ["p0: 0.25", "p1: 0.25", "p2: 0.25", "p3: 0.25"]


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
        code, out, _ = run(capsys, "transmit", *link, "--verify-oracle", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["oracle"]["max_weight_deviation"] < 1e-12
        assert doc["results"]["oracle"]["bell_residual"] < 1e-13

    def test_explicit_channels(self, capsys):
        code, out, _ = run(
            capsys, "transmit", "--r", "0,1,0,0", "--s", "1,0,0,0", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["weights"] == {"a": 0.0, "b": 0.0, "c": 1.0, "d": 0.0}
        assert doc["results"]["dominant_bell_state"] == "phi+"

    def test_mixing_specs_exits_2(self, capsys):
        code, _, err = run(
            capsys, "transmit", "--r", "1,0,0,0", "--s", "1,0,0,0", "--l1", "1"
        )
        assert code == 2
        assert "cannot be combined" in err


class TestThreshold:
    def test_depolarizing(self, capsys):
        code, out, _ = run(capsys, "threshold", "--mu", "0.008,0.008,0.008")
        assert code == 0
        assert "34.3316 km" in out

    def test_single_flip(self, capsys):
        code, out, _ = run(capsys, "threshold", "--mu", "0.008,0,0")
        assert code == 0
        assert "never vanishes" in out

    def test_double_flip(self, capsys):
        code, out, _ = run(capsys, "threshold", "--mu", "0.008,0.008,0")
        assert code == 0
        assert "55.0858 km" in out

    def test_method_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["threshold", "--mu", "0.008,0.004,0", "--method", "closed"])
        assert info.value.code == 2
        assert "unrecognized arguments: --method closed" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_subnormal_density_never_vanishes(self, capsys, fmt):
        # ln(3) / (4 * 5e-324) overflows; beyond 2**1023 km both routes say never-vanishes
        code, out, err = run(
            capsys, "threshold", "--mu", "5e-324,5e-324,5e-324", "--format", fmt
        )
        assert code == 0, err
        if fmt == "json":
            assert json.loads(out)["results"]["kind"] == "never-vanishes"
        elif fmt == "csv":
            assert out.strip().split("\n")[1] == "never-vanishes,"
        else:
            assert out.strip() == "threshold: never vanishes"

    def test_general_pattern(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--mu", "0.008,0.004,0.002", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc["inputs"]) == {"mu"}
        assert set(doc["results"]) == {"kind", "length_km"}
        assert doc["results"]["length_km"] > 0

    @pytest.mark.parametrize(
        "mu, line",
        [
            ("1e12,5e11,1e11", "threshold: 5.53848e-13 km"),
            ("1e308,1e308,1e308", "threshold: 2.74653e-309 km"),
            ("1e308,1e308,0", "threshold: 4.40687e-309 km"),
            ("1,1e-20,0", "threshold: 21.492 km"),
            ("0.008,0.008,0.008", "threshold: 34.3316 km"),
            ("5e-324,5e-324,5e-324", "threshold: never vanishes"),
        ],
    )
    def test_probes(self, capsys, mu, line):
        assert run(capsys, "threshold", "--mu", mu) == (0, line + "\n", "")

    @pytest.mark.parametrize(
        "mu, densities",
        [("1e300,1e-300,0", "1e+300 and 1e-300"), ("1e10,1e-315,0", "10000000000.0 and 1e-315")],
    )
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_densities_too_far_apart_exit_3(self, capsys, mu, densities, fmt):
        # Scaling sends the smaller density to 0.0; the length the loop would
        # print there (3.72567e-298 km for the first) is wrong.
        message = f"error: error densities {densities} /km are too far apart\n"
        assert run(capsys, "threshold", "--mu", mu, "--format", fmt) == (3, "", message)

    def test_subnormal_density_that_scales_is_kept(self, capsys):
        assert run(capsys, "threshold", "--mu", "1,1e-320,0") == (0, "threshold: 365.463 km\n", "")


class TestEstimateMu:
    def test_inline_drift_observation(self, capsys):
        code, out, _ = run(capsys, "estimate-mu", "--qber", "0.01", "--length", "0.4")
        assert code == 0
        assert "0.00838939" in out
        assert "32.7382 km" in out

    def test_inline_qber_observation(self, capsys):
        code, out, _ = run(
            capsys, "estimate-mu", "--qber", "0.043", "--length", "1.45", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert 1.00e-2 <= doc["results"]["fit"]["mu"] <= 1.04e-2

    def test_huge_density_has_a_subnormal_threshold(self, capsys):
        # mu = 6.8e307 /km, where 4 mu overflows; the threshold is subnormal, not 0 km.
        code, out, err = run(capsys, "estimate-mu", "--qber", "0.7", "--length", "1e-308")
        assert (code, err) == (0, "")
        assert "(rms residual 0.000e+00)\n" in out
        assert "implied depolarizing threshold: 4.05684e-309 km\n" in out

    def test_csv_single_row_matches_inline(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("qber,total_length_km\n0.01,0.4\n")
        _, out_file, _ = run(capsys, "estimate-mu", "--input", str(path), "--format", "json")
        _, out_inline, _ = run(
            capsys, "estimate-mu", "--qber", "0.01", "--length", "0.4", "--format", "json"
        )
        assert json.loads(out_file)["results"] == json.loads(out_inline)["results"]

    def test_two_point_fit(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("qber,total_length_km\n0.01,0.4\n0.043,1.45\n")
        code, out, _ = run(capsys, "estimate-mu", "--input", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]["per_point"]) == 2
        assert 8.39e-3 <= doc["results"]["fit"]["mu"] <= 1.018e-2

    def test_fit_of_estimates_that_round_to_zero(self, tmp_path, capsys):
        # Each row's estimate is 0.0 and the optimum underflows: mu = 0 /km.
        path = tmp_path / "pts.csv"
        path.write_text("qber,total_length_km\n1e-20,1e308\n1e-20,1e308\n")
        code, out, err = run(capsys, "estimate-mu", "--input", str(path))
        assert (code, err) == (0, "")
        assert "fitted mu: 0 /km (rms residual 1.000e-20)\n" in out

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

    def test_length_beyond_4l_overflow(self, capsys):
        # 4 L overflows; mu = ln(3) / 4e308 is subnormal but not zero
        code, out, _ = run(capsys, "estimate-mu", "--qber", "0.5", "--length", "1e308")
        assert code == 0
        assert "-> mu = 2.74653e-309 /km" in out
        assert "fitted mu: 2.74653e-309 /km" in out

    def test_zero_qber_gives_positive_zero(self, capsys):
        # -ln(1) / 4 / L is -0.0, which printed as "-0" and "-0.0"
        argv = ("estimate-mu", "--qber", "0", "--length", "1")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[:2] == [
            "qber 0 at 1 km -> mu = 0 /km",
            "fitted mu: 0 /km (rms residual 0.000e+00)",
        ]
        _, out, _ = run(capsys, *argv, "--format", "json")
        results = json.loads(out)["results"]
        mus = (results["per_point"][0]["mu"], results["fit"]["mu"])
        assert [mu.hex() for mu in mus] == ["0x0.0p+0", "0x0.0p+0"]
        assert run(capsys, *argv, "--format", "csv") == (0, "qber,total_length_km,mu\n0,1,0\n", "")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_overflowing_estimate_exits_3(self, capsys, fmt):
        # a valid point whose implied mu passes the float range
        code, out, err = run(
            capsys, "estimate-mu", "--qber", "0.7499999999", "--length", "1e-320",
            "--format", fmt,
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: implied error density overflows: qber 0.7499999999 at 1e-320 km"
            " needs more than 1.798e+308 /km\n"
        )

    def test_qber_above_floor_exits_3(self, capsys):
        code, _, err = run(capsys, "estimate-mu", "--qber", "0.8", "--length", "1.0")
        assert code == 3
        assert "floor" in err

    def test_missing_file_exits_4(self, tmp_path, capsys):
        code, _, _ = run(capsys, "estimate-mu", "--input", str(tmp_path / "nope.csv"))
        assert code == 4

    def test_bad_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n0.01,0.4\n")
        code, _, err = run(capsys, "estimate-mu", "--input", str(path))
        assert code == 2
        assert "header" in err

    def test_byte_order_mark_is_read(self, tmp_path, capsys):
        # Spreadsheet programs write UTF-8 CSV with a byte-order mark first.
        path = tmp_path / "pts.csv"
        path.write_bytes(b"\xef\xbb\xbfqber,total_length_km\n0.01,0.4\n")
        code, out, _ = run(capsys, "estimate-mu", "--input", str(path), "--format", "json")
        _, want, _ = run(
            capsys, "estimate-mu", "--qber", "0.01", "--length", "0.4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["results"] == json.loads(want)["results"]

    def test_fit_without_a_bracket_exits_3(self, tmp_path, capsys):
        # Every slope term underflows at 5e-324 km: NumericError.
        path = tmp_path / "m.csv"
        path.write_text("qber,total_length_km\n1e-20,5e-324\n1e-20,5e-324\n")
        code, out, err = run(capsys, "estimate-mu", "--input", str(path))
        assert (code, out, err) == (3, "", "error: could not bracket the least-squares optimum\n")

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"qber,total_length_km\n0.01,0.4\n# caf\xe9\n", "is not UTF-8 text"),
            (
                b"qber,total_length_km\n0.01," + b"1" * 200_000 + b"\n",
                "cannot be parsed: field larger than field limit (131072)",
            ),
        ],
        ids=["latin-1 byte", "oversized field"],
    )
    def test_unreadable_file_exits_2(self, tmp_path, monkeypatch, capsys, data, reason):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pts.csv").write_bytes(data)
        code, out, err = run(capsys, "estimate-mu", "--input", "pts.csv")
        assert (code, out, err) == (2, "", f"error: measurement CSV pts.csv {reason}\n")


class TestSweep:
    def test_csv_grid_contract(self, capsys):
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

    def test_doubling_mu_halves_the_threshold(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "--mu", "0.008,0.008,0.008", "--mu", "0.016,0.016,0.016",
            "--lmax", "40", "--steps", "80",
        )
        last_positive = {}
        for line in out.strip().split("\n")[1:]:
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

    @pytest.mark.parametrize("mu", ["1e308,1e308,1e308", "5e307,5e307,0", "0,0,1e308"])
    def test_overflowing_density_sum_exits_2(self, capsys, mu):
        # -2 (mu_i + mu_j) overflows to -inf for one or more rates, and
        # -inf * 0 km is nan in the first row
        code, out, err = run(capsys, "sweep", "--mu", mu)
        assert code == 2
        assert out == ""
        assert err == "error: Bell weight a must be a finite number, got nan\n"

    def test_lengths_that_round_together_exit_2(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--mu", "0.01,0.02,0.03", "--lmax", "5e-324", "--steps", "4"
        )
        assert (code, out) == (2, "")
        assert err == "error: sweep lengths must be strictly increasing\n"

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "sweep", "--lmax", "10", "--steps", "5",
            "--output", str(tmp_path / "no" / "dir" / "out.csv"),
        )
        assert code == 4


class TestMonteCarlo:
    ARGS = (
        "montecarlo", "--mu", "0.008,0.008,0.008", "--l1", "3", "--l2", "2",
        "--samples", "20000", "--segments-per-km", "20", "--seed", "7",
    )

    def test_reportable_and_reproducible(self, capsys):
        code1, out1, _ = run(capsys, *self.ARGS)
        code2, out2, _ = run(capsys, *self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "z" in out1

    def test_noiseless_z_scores_are_zero(self, capsys):
        code, out, _ = run(
            capsys, "montecarlo", "--mu", "0,0,0", "--l1", "5", "--l2", "5",
            "--samples", "1000", "--segments-per-km", "10", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["z_scores"] == [0.0, 0.0, 0.0, 0.0]
        assert doc["results"]["estimate"] == {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0}

    def test_estimate_within_4_sigma(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert all(abs(z) <= 4.0 for z in doc["results"]["z_scores"])

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_empty_tally_gives_finite_z(self, capsys, fmt):
        # 200 samples of 200 segments at 3e-6 flips each: every tally but a's is 0
        code, out, err = run(
            capsys, "montecarlo", "--mu", "0.0001,0.0001,0.0001", "--l1", "1", "--l2", "1",
            "--samples", "200", "--format", fmt,
        )
        assert code == 0, err
        if fmt == "json":
            doc = json.loads(out)
            assert doc["results"]["standard_errors"] == [0.0, 0.0, 0.0, 0.0]
            zscores = doc["results"]["z_scores"]
        elif fmt == "csv":
            zscores = [float(line.split(",")[-1]) for line in out.strip().split("\n")[1:]]
        else:
            zscores = [float(line.split()[-1]) for line in out.strip().split("\n")[2:]]
        assert len(zscores) == 4
        assert all(math.isfinite(z) and z != 0.0 for z in zscores)

    def test_sub_half_segment_arm_exits_2(self, capsys):
        code, out, err = run(
            capsys, "montecarlo", "--mu", "0.008,0.008,0.008", "--l1", "0.004", "--l2", "0",
            "--samples", "100",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: arm length 0.004 km rounds to 0 segments at 100 segments/km;"
            " increase segments_per_km\n"
        )

    def test_defaults(self, capsys):
        code, out, _ = run(capsys, "montecarlo", "--mu", "0,0,0", "--l1", "0", "--l2", "0", "--format", "json")
        assert code == 0
        inputs = json.loads(out)["inputs"]
        assert (inputs["samples"], inputs["segments_per_km"], inputs["seed"]) == (1_000_000, 100, 1)

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

    def test_infeasible_segmentation_exits_3(self, capsys):
        code, _, err = run(
            capsys, "montecarlo", "--mu", "0.5,0.5,0.5", "--l1", "1", "--l2", "1",
            "--samples", "10", "--segments-per-km", "1", "--seed", "0",
        )
        assert code == 3
        assert "segments_per_km" in err


    def test_overflowing_error_densities_exit_3(self, capsys):
        code, out, err = run(
            capsys, "montecarlo", "--mu", "1e308,1e308,1e308", "--l1", "1", "--l2", "1",
            "--segments-per-km", "1",
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: per-segment error probability exceeds 1 at every segments_per_km:"
            " the error densities sum to more than 1.798e+308 /km\n"
        )

    @pytest.mark.parametrize(
        "mu, l1, l2, per_km",
        [("0,0,0", "1e308", "1e308", "10"), ("0.1,0.1,0.1", "1e300", "0", "1")],
    )
    def test_2_64_segments_or_more_exit_2(self, capsys, mu, l1, l2, per_km):
        code, out, err = run(
            capsys, "montecarlo", "--mu", mu, "--l1", l1, "--l2", l2,
            "--segments-per-km", per_km, "--samples", "1",
        )
        assert (code, out) == (2, "")
        assert "2**64 or more segments" in err

    def test_segments_per_km_past_the_float_range_exits_2(self, capsys):
        code, out, err = run(
            capsys, "montecarlo", "--mu", "0.1,0.1,0.1", "--l1", "1", "--l2", "1",
            "--segments-per-km", "1" + "0" * 320,
        )
        assert (code, out) == (2, "")
        assert err == f"error: segments_per_km must be <= 1.79769e+308, got 1{'0' * 320}\n"

    @pytest.mark.parametrize("samples", ["9223372036854775808", "1" + "0" * 30])
    def test_2_63_samples_or_more_exit_2(self, capsys, samples):
        # The tallies are int64.
        code, out, err = run(
            capsys, "montecarlo", "--mu", "0,0,0", "--l1", "1", "--l2", "1",
            "--samples", samples,
        )
        assert (code, out) == (2, "")
        assert err == f"error: samples must be <= 9223372036854775807, got {samples}\n"


class TestCliErrorMessages:
    """The exact stderr of every error that only the CLI raises: exit 2, empty stdout.

    Cases that read ``pts.csv`` run in a directory holding that file with
    the given contents.
    """

    CASES = {
        "compose-p-with-mu": (
            ("compose", "--p", "1,0,0,0", "--mu", "0.1,0.1,0.1"),
            None,
            "--p cannot be combined with --mu/--length",
        ),
        "compose-mu-without-length": (
            ("compose", "--mu", "0.1,0.1,0.1"),
            None,
            "--mu requires --length",
        ),
        "compose-no-channel": (
            ("compose", "--length", "1"),
            None,
            "provide either --p or --mu with --length",
        ),
        "transmit-explicit-with-mu": (
            ("transmit", "--r", "1,0,0,0", "--l1", "1"),
            None,
            "--r/--s cannot be combined with --mu/--l1/--l2",
        ),
        "transmit-r-without-s": (
            ("transmit", "--r", "1,0,0,0"),
            None,
            "explicit channels need both --r and --s",
        ),
        "transmit-mu-without-l2": (
            ("transmit", "--mu", "0.1,0.1,0.1", "--l1", "1"),
            None,
            "provide --mu with --l1 and --l2 (or --r and --s)",
        ),
        "estimate-inline-with-input": (
            ("estimate-mu", "--length", "1", "--input", "pts.csv"),
            None,
            "--qber/--length cannot be combined with --input",
        ),
        "estimate-qber-without-length": (
            ("estimate-mu", "--qber", "0.1"),
            None,
            "inline estimation needs both --qber and --length",
        ),
        "estimate-no-points": (
            ("estimate-mu",),
            None,
            "provide --qber with --length, or --input CSV",
        ),
        "float-list-count": (
            ("transmit", "--r", "0.9,0.1,0", "--s", "1,0,0,0"),
            None,
            "--r needs 4 comma-separated values, got 3",
        ),
        "float-list-non-numeric": (
            ("threshold", "--mu", "0.1,x, 0"),
            None,
            "--mu has a non-numeric entry: '0.1,x, 0'",
        ),
        "csv-header": (
            ("estimate-mu", "--input", "pts.csv"),
            "x,y\n0.01,0.4\n",
            "measurement CSV must start with header qber,total_length_km",
        ),
        "csv-bad-row": (
            ("estimate-mu", "--input", "pts.csv"),
            "qber,total_length_km\n0.01,0.4\n0.02\n",
            "bad measurement row: ['0.02']",
        ),
        "csv-no-rows": (
            ("estimate-mu", "--input", "pts.csv"),
            "qber,total_length_km\n\n , \n",
            "no measurement rows in pts.csv",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_exact_stderr(self, tmp_path, monkeypatch, capsys, case, fmt):
        argv, csv_text, message = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        if csv_text is not None:
            (tmp_path / "pts.csv").write_text(csv_text, encoding="utf-8")
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {message}\n")


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


class TestTotalLengthPastTheFloatRange:
    @pytest.mark.parametrize(
        "mu, row",
        [
            ("0,0,0", "1,0,0,0,1,1"),
            ("0.01,0,0", "0.5,0,0.5,0,0.5,0"),
            (
                "5e-324,5e-324,5e-324",
                "0.99999999999999689,9.992007221626399e-16,9.992007221626397e-16,"
                "9.992007221626399e-16,0.99999999999999689,0.99999999999999378",
            ),
        ],
    )
    def test_transmit(self, capsys, mu, row):
        code, out, err = run(
            capsys, "transmit", "--mu", mu, "--l1", "1e308", "--l2", "1e308", "--format", "csv"
        )
        assert (code, out, err) == (0, f"a,b,c,d,fidelity,concurrence\n{row}\n", "")


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
