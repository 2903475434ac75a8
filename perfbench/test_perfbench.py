"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q`` from the checkout root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from calibration import python_kernel, scale
from worker import _import_us, _window_tail, measure
from workloads import BUILDERS, Lib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = HERE / "out"


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_tiny_run_emits_every_metric_without_failures(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_scan(ops, monkeypatch):
    real = workloads._exps
    monkeypatch.setattr(workloads, "_exps", lambda mu, l: tuple(v * (1 + 1e-6) for v in real(mu, l)))


def _corrupt_crosscheck(ops, monkeypatch):
    op = next(op for op in ops if isinstance(op, workloads.GeneralCrossOp))
    op.reference += 1e-6
    ops[:] = [op]


def _corrupt_montecarlo(ops, monkeypatch):
    a, b, c, d = ops[0].expect
    ops[0].expect = (a - 0.2, b + 0.2, c, d)


def _corrupt_cli(ops, monkeypatch):
    # The reference of another compose invocation does not match this output.
    first, second = [op for op in ops if op.sub == "compose"][:2]
    first.expect = second.expect


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("scan", _corrupt_scan),
        ("crosscheck", _corrupt_crosscheck),
        ("montecarlo", _corrupt_montecarlo),
        ("cli", _corrupt_cli),
    ],
)
def test_corrupted_reference_counts_as_failure(workload, corrupt, monkeypatch):
    lib = Lib(ROOT)
    OUT.mkdir(exist_ok=True)
    ops = BUILDERS[workload](5, lib, OUT)
    assert measure(ops[:1], lib, 0.0, 1, python_kernel()).failures == []
    corrupt(ops, monkeypatch)
    m = measure(ops[:1], lib, 0.0, 1, python_kernel())
    assert len(m.latencies) == 1 and len(m.failures) == 1


def test_raising_operation_is_counted_not_fatal():
    lib = Lib(ROOT)
    op = BUILDERS["scan"](5, lib, OUT)[0]
    op.mu = (-1.0, 0.0, 0.0)
    m = measure([op], lib, 0.0, 2, python_kernel())
    assert len(m.latencies) == 2 and len(m.failures) == 2
    assert m.failures[0].startswith("ValidationError")


def test_harness_never_touches_sampler_internals():
    forbidden = ("backend=", "EPRLINK_BACKEND", "_mc", "HAS_NUMBA", "active_backend", "as_array")
    for path in sorted(HERE.iterdir()):
        if path.suffix not in (".py", ".md") or path.name == Path(__file__).name:
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            assert not any(word in line for word in forbidden), f"{path.name}: {line}"


# Imports the harness, then sets up and runs a few operations of the scan and
# cli workloads behind a spy on the eprlink package.  Fails if the harness
# imports numpy itself, looks up an oracle name, or makes eprlink import numpy
# after `import eprlink` (as it would once eprlink loads the oracle lazily).
_NO_NUMPY = """
import sys, types
sys.path.insert(0, "src")
sys.path.insert(0, "perfbench")
import worker
from pathlib import Path
from workloads import BUILDERS, Lib
assert "numpy" not in sys.modules, "the harness imports numpy"
import eprlink
before = set(sys.modules)
accessed = set()

class Spy(types.ModuleType):
    def __getattr__(self, name):
        accessed.add(name)
        return getattr(eprlink, name)

sys.modules["eprlink"] = Spy("eprlink")
lib = Lib(Path.cwd())
for name in ("scan", "cli"):
    ops = BUILDERS[name](1, lib, Path("perfbench/out"))
    if name == "scan":
        for op in ops[:5]:
            assert op.check(op.run(lib)) is None
oracle = sorted(n for n in accessed if getattr(eprlink, n).__module__ == "eprlink.oracle")
assert not oracle, f"looked up oracle names {oracle}"
numpy = sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy")
assert not numpy, f"numpy imported after eprlink: {numpy[:3]}"
"""


def test_scan_and_cli_harness_import_no_numpy():
    OUT.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert _window_tail(list(range(1, 201))) == (95.0, 190)
    assert _window_tail([3, 1, 2]) == (100.0, 3)


def test_scale_divides_by_the_kernel_times_around_each_operation():
    # The host at half the reference speed, then speeding up.
    assert scale([4.0, 4.0, 3.0], [2.0, 2.0, 2.0, 1.0], 1.0) == [2.0, 2.0, 2.0]
    assert scale([3.0], [1.0, 1.0], 0.5) == [1.5]
    with pytest.raises(ValueError):
        scale([1.0], [1.0], 1.0)


def test_import_time_adds_top_level_imports():
    log = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   _io\n"
        "import time:       500 |        600 | site\n"
        "import time:       900 |     150000 | eprlink\n"
        "import time:      1000 |     120000 |   numpy\n"
    )
    assert _import_us(log) == (150600, 120000)


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
