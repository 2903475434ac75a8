"""Mutation testing for eprlink: which tier-1 tests catch which faults.

Run by hand from the repository root, stdlib only, after tier-1 passes:

    python tools/mutate.py list [FILE ...]
    python tools/mutate.py run --out DIR [FILE ...]
    python tools/mutate.py report --out DIR

FILE names modules of ``src/eprlink`` (``epr.py``); the default is all of
them.  ``list`` prints one line per mutant.  The operators are: swap + with -
and * with /, step each comparison (< to <=, == to !=, is to is not, ...),
add 1 to each numeric constant, and, per ``raise`` statement, delete it,
replace its message, and swap its error class (ValidationError with
DomainError, NumericError with ValidationError, a builtin with its base).

``run`` copies the checkout into DIR and never writes to it.  It first runs
tier-1 once under ``sys.settrace`` to learn which test functions execute
each line of ``src/eprlink``.  Each mutant is then written into a copy and
tier-1 is run there on the test functions that execute the mutated lines,
or on the whole suite when the site runs at import time or no traced test
reaches it (subprocesses are not traced).  A mutant that survives a partial
run is run again on the whole suite, so the selection can miss a killer (one
that reaches the line in a subprocess or through a cache an earlier test
filled) but never a kill.  `JOBS` runs go at once, and a run past `TIMEOUT`
seconds plus `HANG_S` for each test function it runs is a hang, not a kill:
a mutant whose every test runs into the suite's watchdog is killed.  Last,
every kill is confirmed by re-running its failing test functions with no
other run in parallel; only those that fail again count, so contention
cannot turn a wall-clock gate into a killer.  Results go to
DIR/results.jsonl, one JSON line per mutant, and a second ``run`` with the
same DIR resumes.  Parametrized cases fold into their function.

``report`` prints the counts, every survivor and hang, and the greedy prune:
a test function that no pattern of `PROTECTED` matches is deleted when
every mutant it kills is also killed by a test still kept, largest (in
lines) first, recomputing after each deletion.  A test that kills nothing is
kept and listed: it checks what the operators cannot reach.
"""

from __future__ import annotations

import argparse
import ast
import copy
import fnmatch
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "eprlink"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "out")

BINOPS = {ast.Add: (ast.Sub, "-"), ast.Sub: (ast.Add, "+"), ast.Mult: (ast.Div, "/"), ast.Div: (ast.Mult, "*")}
SYMBOLS = {ast.Add: r"\+", ast.Sub: "-", ast.Mult: r"\*", ast.Div: "/"}
COMPARES = {
    ast.Lt: (ast.LtE, "<", "<="), ast.LtE: (ast.Lt, "<=", "<"),
    ast.Gt: (ast.GtE, ">", ">="), ast.GtE: (ast.Gt, ">=", ">"),
    ast.Eq: (ast.NotEq, "==", "!="), ast.NotEq: (ast.Eq, "!=", "=="),
    ast.Is: (ast.IsNot, "is", "is not"), ast.IsNot: (ast.Is, r"is\s+not", "is"),
    ast.In: (ast.NotIn, "in", "not in"), ast.NotIn: (ast.In, r"not\s+in", "in"),
}
# Each raised class and the one its mutant raises instead; an eprlink error is
# named through __import__ so the swap needs no import in the mutated module.
ERRORS = "__import__('eprlink.errors').errors."
SWAPS = {
    "ValidationError": ERRORS + "DomainError",
    "DomainError": ERRORS + "ValidationError",
    "NumericError": ERRORS + "ValidationError",
    "AttributeError": "LookupError",
}
MESSAGE = "'mutated message'"
# Suite runs at once (each in its own copy of the checkout), and the seconds
# a run may take besides `HANG_S` per test function: a whole tier-1 run takes
# 12-17 s on 2 cores.
JOBS = 2
TIMEOUT = 120.0
# The seconds after which tests/conftest.py's watchdog fails a test.
HANG_S = next(
    ast.literal_eval(node.value)
    for node in ast.parse((ROOT / "tests" / "conftest.py").read_text(encoding="utf-8")).body
    if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "HANG_S"
)
# Test functions `report` never deletes, as fnmatch patterns.
PROTECTED = (
    # The acceptance gates, the CLI corpus, the signature-checked tables and
    # the written-out references of the fast paths.
    "tests/test_acceptance.py::*",
    "tests/test_cli_corpus.py::*",
    "tests/test_values.py::*",
    "tests/test_fast_paths.py::*",
    "tests/test_mutate.py::*",
    # The numpy-floor CI job runs these under a numpy the matrix never runs.
    "tests/test_sampler.py::*",
    "tests/test_oracle.py::*",
    # Properties, subprocesses, imports and the public surface.
    "tests/test_cli.py::TestFuzz::*",
    "tests/test_cli.py::TestSubprocess::*",
    "tests/test_cli.py::TestLazyNumpy::*",
    "tests/test_cli.py::TestPackageSurface::*",
    # The CLI's literal contract: every refusal's stderr and every pinned answer.
    "tests/test_cli.py::TestCliErrorMessages::*",
    "tests/test_cli.py::TestCliAnswers::*",
    # The symbolic proofs of the closed form's identities.
    "tests/test_proofs.py::*",
    # A route against an independent one: mpmath, brute force, the dense
    # oracle, the sampler or a reference written out in the test module.
    "tests/test_analysis.py::*mpmath*",
    "tests/test_analysis.py::*reference*",
    "tests/test_analysis.py::TestThresholdDepolarizing::test_densities_past_4_5e307_have_subnormal_thresholds",
    "tests/test_analysis.py::TestThresholdGeneric::test_densities_too_far_apart_to_scale_raise",
    "tests/test_analysis.py::TestThresholdGeneric::test_subnormal_density_that_scales_is_kept",
    "tests/test_analysis.py::TestEstimateMu::test_lengths_where_4l_overflows",
    "tests/test_analysis.py::TestSweep::test_matches_per_row_checks",
    "tests/test_channel.py::*brute*",
    "tests/test_channel.py::TestIterate::test_negative_decay_factor_channel",
    "tests/test_channel.py::TestUnitDistributionPredicate::test_matches_field_by_field_check",
    "tests/test_cli.py::TestTransmit::test_verify_oracle",
    "tests/test_cli.py::TestMonteCarlo::test_estimate_within_4_sigma",
    "tests/test_cli.py::TestMonteCarlo::test_reference_at_the_sampled_lengths",
    "tests/test_cli.py::TestOutputContract::test_json_reference_matches_library",
    # repr.
    "tests/test_analysis.py::TestSweep::test_rows_are_named_tuples",
)


class Site:
    """One mutant: replace text[start:end] of a module with `new`."""

    def __init__(self, file, text, node, start, end, new, what, import_time):
        self.file, self.start, self.end, self.new = file, start, end, new
        self.lines = range(node.lineno, node.end_lineno + 1)
        self.import_time = import_time
        line, column = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
        self.id = f"{file}:{line}:{column}:{what}"

    def apply(self, text: str) -> str:
        return text[: self.start] + self.new + text[self.end :]


def _runtime_nodes(tree):
    """Map id(node) -> whether it runs only inside a function call (not at import)."""
    inside = {}

    def visit(node, runtime):
        inside[id(node)] = runtime
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in ast.iter_child_nodes(node):
                visit(child, runtime or child in body)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, runtime)

    visit(tree, False)
    return inside


def _offsets(text):
    """Convert an ast (line, utf-8 byte column) position to an index into `text`."""
    starts, lines = [0], text.splitlines(keepends=True)
    for line in lines:
        starts.append(starts[-1] + len(line))
    return lambda line, col: starts[line - 1] + len(lines[line - 1].encode()[:col].decode())


def _mutations(node, text, at):
    """Yield (start, end, new text, kind, change, pattern) for each mutant of one ast node.

    `change` mutates a copy of the node into the mutant's (None: delete the
    statement); `pattern` finds an operator in the span between its operands.
    """
    span = lambda n: (at(n.lineno, n.col_offset), at(n.end_lineno, n.end_col_offset))
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOPS:
        left, right = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
        new_op, sym = BINOPS[type(node.op)]
        gap = (span(left)[1], span(right)[0])
        yield (*gap, sym, "binop", lambda n: setattr(n, "op", new_op()), SYMBOLS[type(node.op)])
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            new_op, pattern, new = COMPARES[type(op)]
            gap = (span([node.left, *node.comparators][i])[1], span(node.comparators[i])[0])

            def swap(n, i=i, new_op=new_op):
                n.ops[i] = new_op()

            yield (*gap, new, "compare", swap, pattern)
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        if node.value + 1 != node.value:
            yield (*span(node), repr(node.value + 1), "const", lambda n: setattr(n, "value", n.value + 1), None)
    elif isinstance(node, ast.Raise):
        yield (*span(node), "pass", "raise-delete", None, None)
        exc = node.exc
        if isinstance(exc, ast.Call) and exc.args and isinstance(exc.args[0], (ast.Constant, ast.JoinedStr)):
            yield (*span(exc.args[0]), MESSAGE, "raise-message",
                   lambda n: n.exc.args.__setitem__(0, ast.Constant("mutated message")), None)
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name) and exc.func.id in SWAPS:
            swap = SWAPS[exc.func.id]
            yield (*span(exc.func), swap, "raise-class",
                   lambda n: setattr(n.exc, "func", ast.parse(swap, mode="eval").body), None)


def sites(file: str, text: str | None = None) -> list[Site]:
    """Every mutant of ``src/eprlink/<file>``, each checked to parse to the intended tree."""
    text = (ROOT / PACKAGE / file).read_text(encoding="utf-8") if text is None else text
    tree = ast.parse(text)
    runtime = _runtime_nodes(tree)
    at = _offsets(text)
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)} - {
        id(f) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
    }
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if id(node) in in_fstring:
            continue
        for start, end, new, kind, change, pattern in _mutations(node, text, at):
            if pattern is not None:  # an operator: find it in the gap between its operands
                gap = text[start:end]
                match = next(m for m in re.finditer(rf"#[^\n]*|\b{pattern}\b" if pattern[0].isalpha()
                                                    else rf"#[^\n]*|{pattern}", gap) if m[0][0] != "#")
                start, end = start + match.start(), start + match.end()
            old = text[start:end]
            site = Site(file, text, node, start, end, new, f"{kind}:{' '.join(old.split())[:40]}->{new}", not runtime[id(node)])
            expected = copy.deepcopy(tree)
            target = list(ast.walk(expected))[index]
            if isinstance(node, ast.Raise) and change is None:
                _replace_statement(expected, target)
            else:
                change(target)
            mutant = site.apply(text)
            if ast.dump(ast.parse(mutant)) != ast.dump(expected) or mutant == text:
                raise AssertionError(f"mutant {site.id} does not parse to its intended tree")
            found.append(site)
    return sorted(found, key=lambda s: s.start)


def _replace_statement(tree, stmt):
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            if isinstance(value, list) and any(v is stmt for v in value):
                value[[i for i, v in enumerate(value) if v is stmt][0]] = ast.Pass()


def all_sites(files):
    return [s for f in files for s in sites(f)]


# --- the line trace: loaded into pytest with -p mutate ---------------------

_TRACE = {"test": None, "lines": {}}


def _local(frame, event, arg):
    if event == "line":
        _TRACE["lines"].setdefault((frame.f_code.co_filename, frame.f_lineno), set()).add(_TRACE["test"])
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_TRACE["src"]):
        return _local(frame, "line", arg)
    return None


def pytest_runtest_logstart(nodeid, location):
    if os.environ.get("MUTATE_TRACE"):
        _TRACE["src"] = str(Path.cwd() / PACKAGE)
        _TRACE["test"] = nodeid.split("[")[0]
        threading.settrace(_global)
        sys.settrace(_global)


def pytest_runtest_logfinish(nodeid, location):
    sys.settrace(None)
    threading.settrace(None)


def pytest_sessionfinish(session):
    out = os.environ.get("MUTATE_TRACE")
    if out:
        table = {}
        for (path, line), tests in _TRACE["lines"].items():
            table.setdefault(Path(path).name, {})[str(line)] = sorted(tests)
        Path(out).write_text(json.dumps(table), encoding="utf-8")


# --- running mutants -------------------------------------------------------


def _limit():
    os.setsid()
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def run_tests(work: Path, tests, timeout, trace=None):
    """Run tier-1 (or `tests`) in `work`: (exit code, failing test functions), or
    ("hung", the eprlink frames of faulthandler's dump) after `timeout` seconds."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    if trace:
        env.update(MUTATE_TRACE=str(trace), PYTHONPATH=f"{work / 'src'}{os.pathsep}{Path(__file__).parent}")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
            "--continue-on-collection-errors", *(["-p", "mutate"] if trace else []), *tests]
    proc = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, preexec_fn=_limit)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out = proc.communicate()[0]
        return "hung", sorted({line.split("src/")[-1] for line in out.splitlines() if "src/eprlink/" in line})
    failed = {line.split()[1].split("[")[0] for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, sorted(failed)


def _copy(out: Path, name: str) -> Path:
    work = out / name
    shutil.copytree(ROOT, work, ignore=IGNORE, dirs_exist_ok=True)
    return work


def run(args):
    out = Path(args.out).resolve()
    if out == ROOT or ROOT in out.parents:
        raise SystemExit("--out must be outside the checkout")
    out.mkdir(parents=True, exist_ok=True)
    trace = out / "trace.json"
    if not trace.exists():
        code, failed = run_tests(_copy(out, "trace"), [], None, trace=trace)
        if code not in (0, 1):
            raise SystemExit(f"traced tier-1 did not run: exit {code}")
        # Tracing slows tests down, so a wall-clock gate may fail; its lines still count.
        print("failed under the trace:", *failed)
    covered = json.loads(trace.read_text(encoding="utf-8"))
    results_path = out / "results.jsonl"
    done = {}
    if results_path.exists():
        done = {r["id"]: r for r in map(json.loads, results_path.read_text(encoding="utf-8").splitlines())}
    every = all_sites(args.files)
    todo = [s for s in every if s.id not in done]
    every_test = test_functions()
    works = [_copy(out, f"work{i}") for i in range(JOBS)]
    free, lock = list(works), threading.Lock()

    def attempt(site, tests):
        with lock:
            work = free.pop()
        path = work / PACKAGE / site.file
        original = path.read_text(encoding="utf-8")
        try:
            path.write_text(site.apply(original), encoding="utf-8")
            return run_tests(work, tests, TIMEOUT + HANG_S * len(tests or every_test))
        finally:
            path.write_text(original, encoding="utf-8")
            with lock:
                free.append(work)

    def one(site):
        tests = set()
        if not site.import_time:
            for line in site.lines:
                tests.update(covered.get(site.file, {}).get(str(line), ()))
        code, failed = attempt(site, sorted(tests))
        if code == 0 and tests:  # survived a partial run: run the whole suite
            code, failed, tests = *attempt(site, []), set()
        status = "hung" if code == "hung" else "killed" if failed else "survived" if code == 0 else f"exit {code}"
        return {"id": site.id, "status": status, "failed": failed, "selected": len(tests)}

    with open(results_path, "a", encoding="utf-8") as log, ThreadPoolExecutor(JOBS) as pool:
        for n, result in enumerate(pool.map(one, todo), 1):
            done[result["id"]] = result
            log.write(json.dumps(result) + "\n")
            log.flush()
            print(f"[{n}/{len(todo)}] {result['status']:9} {result['id']}", flush=True)
    # Confirm each kill alone: only test functions that fail again count.
    by_id = {s.id: s for s in every}
    with open(results_path, "a", encoding="utf-8") as log:
        for result in list(done.values()):
            if result["status"] == "killed" and "killers" not in result and result["id"] in by_id:
                _, again = attempt(by_id[result["id"]], result["failed"])
                result["killers"] = [t for t in result["failed"] if t in again]
                if not result["killers"]:
                    result["status"] = "survived"
                log.write(json.dumps(result) + "\n")
                print(f"confirmed {len(result['killers'])}/{len(result['failed'])} {result['id']}", flush=True)


def load(out):
    results = {}
    for line in (Path(out) / "results.jsonl").read_text(encoding="utf-8").splitlines():
        r = json.loads(line)
        results[r["id"]] = r
    return results


def report(args):
    results = load(args.out)
    status = {}
    for r in results.values():
        status.setdefault(r["status"], []).append(r["id"])
    print(" ".join(f"{k}={len(v)}" for k, v in sorted(status.items())), f"sites={len(results)}")
    for key in sorted(status):
        if key != "killed":
            print(f"\n{key}:", *status[key], sep="\n  ")
    kills = {}
    for r in results.values():
        for test in r.get("killers", ()):
            kills.setdefault(test, set()).add(r["id"])
    sizes = test_functions()
    print("\nkill no mutant, kept:", *sorted(set(sizes) - set(kills)), sep="\n  ")
    kept = set(kills)
    for test in sorted(kills, key=lambda t: (-sizes.get(t, 0), t)):
        if test not in sizes or any(fnmatch.fnmatchcase(test, p) for p in PROTECTED):
            continue
        if kills[test] <= set().union(*(kills[t] for t in kept if t != test)):
            kept.discard(test)
            cover = sorted({t for m in kills[test] for t in kept if m in kills[t]})
            print(f"\ndelete {test} ({sizes[test]} lines, {len(kills[test])} kills), kept killers:", *cover, sep="\n  ")


def test_functions():
    """Each test function id of tests/test_*.py and its length in lines, decorators included."""
    sizes = {}
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            prefix, body = (f"{node.name}::", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
            for fn in body:
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("test"):
                    first = min([d.lineno for d in fn.decorator_list] + [fn.lineno])
                    sizes[f"tests/{path.name}::{prefix}{fn.name}"] = fn.end_lineno - first + 1
    return sizes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    files = sorted(p.name for p in (ROOT / PACKAGE).glob("*.py"))
    for name in ("list", "run", "report"):
        p = sub.add_parser(name)
        if name != "list":
            p.add_argument("--out", required=True, help="results directory, outside the checkout")
        if name != "report":
            p.add_argument("files", nargs="*", default=files, help="modules of src/eprlink")
    args = parser.parse_args(argv)
    if args.command == "list":
        for site in all_sites(args.files):
            print(site.id)
    else:
        (run if args.command == "run" else report)(args)


if __name__ == "__main__":
    main()
