"""Every run of the CLI corpus prints what ``cli_corpus.json`` pins.

See ``cli_corpus.py`` for the runs and for how to rewrite the digests after
a declared output change.
"""

import json
import time

import cli_corpus


def test_corpus_is_large_and_covers_every_subcommand_and_format():
    argvs = cli_corpus.runs()
    assert len(argvs) >= 300
    ids = [cli_corpus.run_id(argv) for argv in argvs]
    assert len(set(ids)) == len(ids)
    covered = {(argv[0], argv[-1]) for argv in argvs}
    subcommands = ("compose", "transmit", "threshold", "estimate-mu", "sweep", "montecarlo")
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
