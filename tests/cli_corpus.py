"""A seeded corpus of in-process ``eprlink.cli.main`` runs and their digests.

This is the one place that pins CLI output.  Each run is one argv,
identified by the argv joined with spaces.  Its digest is the sha256 of its
stdout, stderr and exit code, and of the text of the ``--output`` file where
it writes one.  ``cli_corpus.json`` pins the digest of every run;
``test_cli_corpus.py`` checks them.  Every run also keeps the output contract
of `check_contract`.  Runs that read a measurement CSV name one of the files
in `FILES`, which are written to the working directory first, so error
messages hold no temporary path.

Runs with ``--verify-oracle`` that reach the oracle are left out (their
deviation digits depend on the BLAS build), and so are errors that argparse
raises before eprlink sees the arguments.

After a change that moves output on purpose, rewrite the JSON with

    PYTHONPATH=src python tests/cli_corpus.py

and ``git diff tests/cli_corpus.json`` lists the runs that moved.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from eprlink import cli

DIGESTS = Path(__file__).with_name("cli_corpus.json")
SUBCOMMANDS = tuple(next(a.choices for a in cli._build_parser()._actions if a.dest == "command"))
SEED = 20261018
FORMATS = ("table", "csv", "json")
OUTPUT = "out.txt"

FILES = {
    "one.csv": b"qber,total_length_km\n0.01,0.4\n",
    "two.csv": b"qber,total_length_km\n0.01,0.4\n0.043,1.45\n",
    "zeros.csv": b"qber,total_length_km\n0,1\n0,2\n",
    "bom.csv": b"\xef\xbb\xbfqber,total_length_km\n0.01,0.4\n",
    "spaced.csv": b" qber , total_length_km ,extra\n0.02,1.5,x\n\n , \n0.03,2\n",
    "latin1.csv": b"qber,total_length_km\n0.01,0.4 \xb5\n",
    "nul.csv": b"qber,total_length_km\n0.01,\x000.4\n",
    "header.csv": b"x,y\n0.01,0.4\n",
    "short-row.csv": b"qber,total_length_km\n0.01,0.4\n0.02\n",
    "text-row.csv": b"qber,total_length_km\n0.01,abc\n",
    "no-rows.csv": b"qber,total_length_km\n\n , \n",
    "empty.csv": b"",
    "floor.csv": b"qber,total_length_km\n0.75,1\n",
    "negative.csv": b"qber,total_length_km\n-0.01,1\n",
    "zero-length.csv": b"qber,total_length_km\n0.01,0\n",
    "overflow.csv": b"qber,total_length_km\n0.7499999999,1e-320\n0.01,1\n",
}

# Densities in range, past the float range once summed or scaled, subnormal,
# non-finite or negative, and malformed lists.
MUS = (
    "0.008,0.008,0.008", "0.01,0.02,0.03", "0.008,0,0", "0,0.008,0.008", "0.008,0.004,0.002",
    "0,0,0", "0.5,0.5,0.5", "1e308,1e308,1e308", "1e308,0,0", "0,0,1e308", "5e307,5e307,0",
    "1e300,1e-300,0", "5e-324,5e-324,5e-324", "1e-310,0,2.2250738585072014e-308",
    "nan,0,0", "inf,0,0", "0,-inf,0", "-0.01,0,0", "-0.0,0,0", "1e309,0,0",
    "0.1,0.1", "0.1,x,0", "", "0.1,0.1,0.1,0.1",
)
PROBS = (
    "0.7,0.3,0,0", "1,0,0,0", "0.25,0.25,0.25,0.25", "1.0000000000001,-1e-13,0,0",
    "0.5,0.5,0.5,0", "1.1,-0.1,0,0", "nan,0,0,1", "0,0,inf,1", "1,0,0,1e-11", "0.9,0.1,0",
    "0.5,y,0.5,0",
)
LENGTHS = ("0", "1", "5e-324", "1e308", "-1", "inf", "nan")


def _mu(mu):
    # argparse reads "-0.01,0,0" after a space as an option of its own.
    return (f"--mu={mu}",) if mu.startswith("-") else ("--mu", mu)


def _transmit():
    for mu in MUS:
        yield ("transmit", *_mu(mu), "--l1", "4", "--l2", "7")
    for mu in ("0.008,0.008,0.008", "0.01,0.02,0.03", "0,0,0", "0.008,0,0", "0.01,0,0",
               "0,0.008,0.008", "1e308,0,0", "5e-324,5e-324,5e-324"):
        for l1, l2 in (("0", "0"), ("1e308", "1e308"), ("5e-324", "0"), ("1e308", "0")):
            yield ("transmit", "--mu", mu, "--l1", l1, "--l2", l2)
    for l1, l2 in (("-1", "1"), ("1", "inf"), ("nan", "0")):
        yield ("transmit", "--mu", "0.01,0.01,0.01", "--l1", l1, "--l2", l2)
    for r in PROBS:
        yield ("transmit", "--r", r, "--s", "0.9,0.05,0.03,0.02")
    yield ("transmit", "--r", "1,0,0,0", "--s", "0,0,0,1")
    yield ("transmit", "--r", "1,0,0,0")
    yield ("transmit", "--s", "1,0,0,0", "--mu", "0.01,0.01,0.01")
    yield ("transmit", "--mu", "0.01,0.01,0.01", "--l1", "1")
    yield ("transmit",)
    yield ("transmit", "--mu", "nan,0,0", "--l1", "1", "--l2", "1", "--verify-oracle")


def _compose():
    for p in PROBS:
        yield ("compose", "--p", p)
    for p, n in (("0.7,0.3,0,0", "2"), ("0,0,0,1", "3"), ("0,1,0,0", "0"),
                 ("0.9,0.05,0.03,0.02", "100000000000000000000000000"), ("1,0,0,0", "-1")):
        yield ("compose", "--p", p, "--iterate", n)
    for mu in MUS[::2]:
        yield ("compose", *_mu(mu), "--length", "5")
    for length in LENGTHS:
        yield ("compose", "--mu", "0.01,0.02,0.03", "--length", length)
    yield ("compose", "--mu", "0.01,0.02,0.03", "--length", "5", "--iterate", "3")
    yield ("compose", "--p", "1,0,0,0", "--mu", "0.1,0.1,0.1")
    yield ("compose", "--mu", "0.1,0.1,0.1")
    yield ("compose", "--length", "1")


def _threshold():
    for mu in MUS:
        yield ("threshold", *_mu(mu))


def _estimate_mu():
    for qber, length in (("0.01", "0.4"), ("0.043", "1.45"), ("0", "5"), ("0.7", "1e-308"),
                         ("0.5", "1e308"), ("0.7499999999", "1e-320"), ("0.75", "1"),
                         ("0.8", "1"), ("-0.01", "1"), ("0.01", "0"), ("0.01", "-1"),
                         ("nan", "1"), ("0.01", "inf"), ("1e-12", "1")):
        yield ("estimate-mu", "--qber", qber, "--length", length)
    for name in FILES:
        yield ("estimate-mu", "--input", name)
    yield ("estimate-mu", "--input", "missing.csv")
    yield ("estimate-mu", "--qber", "0.1", "--input", "one.csv")
    yield ("estimate-mu", "--qber", "0.1")
    yield ("estimate-mu",)


def _sweep():
    yield ("sweep", "--steps", "4")
    for mu in MUS:
        yield ("sweep", *_mu(mu), "--lmax", "60", "--steps", "6")
    for lmax, steps in (("1e308", "4"), ("5e-324", "4"), ("0", "4"), ("-1", "4"),
                        ("inf", "4"), ("10", "1"), ("10", "2")):
        yield ("sweep", "--mu", "0.01,0.02,0.03", "--lmax", lmax, "--steps", steps)
    yield ("sweep", "--mu", "0.008,0.008,0.008", "--mu", "0.016,0.016,0.016", "--lmax", "40",
           "--steps", "8")


def _montecarlo():
    base = ("--samples", "300", "--segments-per-km", "5", "--seed", "7")
    for mu in ("0.008,0.008,0.008", "0.01,0.02,0.03", "0,0,0", "0.5,0.5,0.5", "0.0001,0,0",
               "1e308,1e308,1e308", "nan,0,0", "0.1,0.1"):
        yield ("montecarlo", "--mu", mu, "--l1", "3", "--l2", "2", *base)
    for seed in range(1, 13):
        yield ("montecarlo", "--mu", "0.02,0.01,0.005", "--l1", "2", "--l2", "3.1",
               "--samples", "200", "--segments-per-km", "4", "--seed", str(seed))
    yield ("montecarlo", "--mu", "0.5,0.5,0.5", "--l1", "1", "--l2", "1", "--samples", "10",
           "--segments-per-km", "1")
    yield ("montecarlo", "--mu", "0.008,0.008,0.008", "--l1", "0.004", "--l2", "0",
           "--samples", "100")
    yield ("montecarlo", "--mu", "0.01,0,0", "--l1", "1e308", "--l2", "1", "--samples", "1")
    yield ("montecarlo", "--mu", "0.01,0.01,0.01", "--l1", "1", "--l2", "1", "--samples", "0")
    yield ("montecarlo", "--mu", "0.01,0.01,0.01", "--l1", "-1", "--l2", "1")


def _outputs():
    yield ("threshold", "--mu", "0.008,0.008,0.008", "--output", OUTPUT)
    yield ("sweep", "--lmax", "10", "--steps", "3", "--output", OUTPUT)
    yield ("estimate-mu", "--input", "two.csv", "--output", OUTPUT)
    yield ("compose", "--p", "0.7,0.3,0,0", "--output", "no/dir/out.txt")
    yield ("threshold", "--mu", "nan,0,0", "--output", OUTPUT)


def _every_format():
    # Typical runs of each subcommand, in each format.
    for argv in (
        ("compose", "--p", "0.7,0.3,0,0"),
        ("compose", "--mu", "0.01,0.02,0.03", "--length", "5", "--iterate", "3"),
        ("transmit", "--mu", "0.01,0.01,0.01", "--l1", "1", "--l2", "2"),
        ("transmit", "--mu", "0.01,0.005,0.002", "--l1", "4", "--l2", "7"),
        ("threshold", "--mu", "0.01,0.01,0.01"),
        ("threshold", "--mu", "0.008,0.004,0.002"),
        ("threshold", "--mu", "0.008,0.008,0.008"),
        ("estimate-mu", "--qber", "0.02", "--length", "1.5"),
        ("estimate-mu", "--qber", "0.043", "--length", "1.45"),
        ("sweep", "--steps", "2"),
        ("sweep", "--mu", "0.01,0.01,0.01", "--lmax", "10", "--steps", "4"),
        ("sweep", "--mu", "0.011,0.007,0.003", "--lmax", "200", "--steps", "120"),
        ("montecarlo", "--mu", "0.01,0.01,0.01", "--l1", "1", "--l2", "1", "--samples", "100",
         "--segments-per-km", "5", "--seed", "2"),
        ("montecarlo", "--mu", "0.008,0.008,0.008", "--l1", "3", "--l2", "2", "--samples", "2000"),
    ):
        for fmt in FORMATS:
            yield (*argv, "--format", fmt)


def _seeded(rng: random.Random):
    # Log-uniform densities and lengths, some of them zero.
    def density():
        return "0" if rng.random() < 0.2 else repr(10.0 ** rng.uniform(-12.0, 2.0))

    for _ in range(30):
        mu = ",".join(density() for _ in range(3))
        length = repr(10.0 ** rng.uniform(-3.0, 4.0))
        yield ("threshold", "--mu", mu)
        yield ("transmit", "--mu", mu, "--l1", length, "--l2", repr(rng.uniform(0.0, 50.0)))
        yield ("sweep", "--mu", mu, "--lmax", length, "--steps", str(rng.randint(2, 12)))
        qber = repr(rng.uniform(0.0, 0.74))
        yield ("estimate-mu", "--qber", qber, "--length", length)


def runs() -> list[tuple[str, ...]]:
    """Every argv of the corpus, in order, each once.

    Each ends with ``--format`` and one of the three formats.  Where the
    argv does not name one, it is picked by a checksum of the argv, so adding
    or removing a run renames no other.  One run costs a few milliseconds,
    mostly in building the argument parser, so most argvs run in one format,
    not all three.
    """
    argvs = [
        *_transmit(), *_compose(), *_threshold(), *_estimate_mu(), *_sweep(), *_montecarlo(),
        *_outputs(), *_every_format(), *_seeded(random.Random(SEED)),
    ]
    return list(dict.fromkeys(
        argv if argv[-2:-1] == ("--format",) else
        (*argv, "--format", FORMATS[zlib.crc32(run_id(argv).encode()) % 3])
        for argv in argvs
    ))


def run_id(argv) -> str:
    return " ".join(argv)


def digest(argv) -> str:
    """sha256 of one run's stdout, stderr, exit code and ``--output`` text.

    Runs in the working directory, which must hold `FILES`.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit:
            raise AssertionError(f"argparse rejected {run_id(argv)!r}") from None
    written = None
    if os.path.exists(OUTPUT):
        written = Path(OUTPUT).read_text(encoding="utf-8")
        os.remove(OUTPUT)
    check_contract(argv, code, out.getvalue(), err.getvalue(), written)
    record = json.dumps([out.getvalue(), err.getvalue(), code, written])
    return hashlib.sha256(record.encode()).hexdigest()


def _no_constant(name):
    raise ValueError(f"json output holds {name}")


def check_contract(argv, code, out, err, written=None) -> None:
    """Raise AssertionError where a run that ends in ``--format X`` breaks the output contract.

    The exit code is documented; no run prints a traceback; an error prints
    only ``error: ...`` on stderr; json is strict and holds exactly command, inputs and results;
    csv has a header and rows as wide as it.  ``written`` is the text of the
    ``--output`` file, which the format checks read in place of stdout.
    """
    where = f"{run_id(argv)}: exit {code}, stderr {err!r}"
    assert code in (0, 2, 3, 4) and "Traceback" not in err, where
    if code:
        assert out == "" and err.startswith("error: "), where
        return
    text = out if written is None else written
    if argv[-1] == "json":
        try:
            doc = json.loads(text, parse_constant=_no_constant)
        except ValueError as exc:
            raise AssertionError(f"{where}: {exc}") from None
        assert list(doc) == ["command", "inputs", "results"] and doc["command"] == argv[0], where
    elif argv[-1] == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows), where


def digests(workdir) -> dict[str, str]:
    """The digest of every run, keyed by run id, run from ``workdir``."""
    workdir = Path(workdir)
    for name, data in FILES.items():
        (workdir / name).write_bytes(data)
    old = os.getcwd()
    os.chdir(workdir)
    try:
        return {run_id(argv): digest(argv) for argv in runs()}
    finally:
        os.chdir(old)


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        table = digests(workdir)
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
