"""Every run of the CLI corpus prints what ``cli_corpus.json`` pins, and keeps the output contract.

See ``cli_corpus.py`` for the runs and for how to rewrite the digests after
a declared output change.
"""

import json
import time

import pytest

import cli_corpus

JSON = ("transmit", "--format", "json")
CSV = ("transmit", "--format", "csv")
TABLE = ("transmit", "--format", "table")
GOOD_JSON = '{"command": "transmit", "inputs": {"l1_km": 1.0}, "results": {"a": 0.5}}\n'


def test_corpus_is_large_and_covers_every_subcommand_and_format():
    argvs = cli_corpus.runs()
    assert len(argvs) >= 300
    ids = [cli_corpus.run_id(argv) for argv in argvs]
    assert len(set(ids)) == len(ids)
    covered = {(argv[0], argv[-1]) for argv in argvs}
    subcommands = cli_corpus.SUBCOMMANDS
    assert covered == {(sub, fmt) for sub in subcommands for fmt in cli_corpus.FORMATS}


def test_every_run_matches_its_digest(tmp_path):
    want = json.loads(cli_corpus.DIGESTS.read_text(encoding="utf-8"))
    start = time.perf_counter()
    got = cli_corpus.digests(tmp_path)
    elapsed = time.perf_counter() - start
    moved = sorted(run for run in got.keys() & want.keys() if got[run] != want[run])
    assert moved == [], "runs that moved:\n" + "\n".join(moved)
    assert sorted(got.keys() - want.keys()) == []
    assert sorted(want.keys() - got.keys()) == []
    assert elapsed < 2.0, f"the corpus took {elapsed:.2f} s"


# (argv, exit code, stdout, stderr, --output text): runs that break the
# contract, one for each branch of the check.  The corpus runs show that it passes
# the CLI's real output.
BROKEN = {
    "undocumented-exit-code": (TABLE, 1, "", "error: x\n", None),
    "error-without-prefix": (TABLE, 3, "", "x must be >= 0\n", None),
    "traceback-on-success": (TABLE, 0, "a  0.5\n", "Traceback (most recent call last):\n", None),
    "json-nan": (JSON, 0, GOOD_JSON.replace("0.5", "NaN"), "", None),
    "csv-ragged-output-file": (CSV, 0, "a,b\n0.5,0.25\n", "", "a,b\n0.5\n"),
}


@pytest.mark.parametrize("run", BROKEN.values(), ids=BROKEN)
def test_the_contract_check_refuses_a_run_that_breaks_it(run):
    with pytest.raises(AssertionError):
        cli_corpus.check_contract(*run)
