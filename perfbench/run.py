#!/usr/bin/env python3
"""eprlink benchmark: run one workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Each workload runs in a fresh worker process (perfbench/worker.py).  With
``--trace 0`` the last stdout line holds the end-to-end metrics listed in
BENCHMARK.json.  Times are scaled to a reference host speed
(perfbench/calibration.py); ``setup_s`` is the median over several
set-up-only workers.  With ``--trace 1`` it holds the per-layer metrics from
a traced worker.  A run record with the machine, the source
version and the sample counts goes to perfbench/out.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import PYTHON_REF_S
from workloads import BUILDERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_ONLY_WORKERS = 11
# Every worker of one run must have finished this long after the run starts.
DEADLINE_S = 170


class RunError(RuntimeError):
    pass


def spawn(args, deadline) -> tuple[float, dict]:
    """Run one worker; return its start time and the JSON of its last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.monotonic()
    timeout = max(1.0, deadline - spawned)
    with subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The worker's own children share its process group.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def _package_version(name):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    # A checkout without .git may sit inside another repository.
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eprlink").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _package_version("numpy"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
    }


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # `crosscheck` and `cli` are not in BENCHMARK.json (too unsteady on a shared
    # host to gate on; see README.md) but still run by hand.
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eprlink" / "__init__.py").is_file():
        print(f"error: no eprlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    raw_setups, setups = [], []
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not args.trace:
            for _ in range(SETUP_ONLY_WORKERS):
                spawned, res = spawn(common + ["--setup-only"], deadline)
                raw_setups.append(res["setup_end"] - spawned)
                setups.append(raw_setups[-1] * PYTHON_REF_S / res["setup_kernel_s"])
        spawned, res = spawn(common, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raw_setups.append(res["setup_end"] - spawned)
    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")

    kind = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[kind]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        print(f"error: metrics differ from BENCHMARK.json {kind}: "
              f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
              f"units {sorted(n for n in set(want) & set(got) if want[n] != got[n])}",
              file=sys.stderr)
        return 1

    attempted = res["attempted"]
    failed = min(len(res["failures"]), attempted)
    record = run_record(args)
    record.update(
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        failures=res["failures"][:20],
        import_s=res["import_s"],
        setup_s_samples=setups,
        raw_setup_s_samples=raw_setups,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    for key in ("latency", "calibration", "wall_s", "untraced_ops_per_s", "traced_ops_per_s",
                "workload_calls", "cli_numpy_import_us", "spans", "spans_file"):
        if key in res:
            record[key] = res[key]
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for reason in res["failures"][:5]:
        print(f"failed: {reason}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed "
          f"(failed_frac {failed / attempted:.4g}); record in {record_path.relative_to(ROOT)}")
    if args.trace:
        print(f"tracing overhead: {res['untraced_ops_per_s']:.4g} ops/s untraced, "
              f"{res['traced_ops_per_s']:.4g} ops/s traced; {res['spans']} spans")
    else:
        lat = res["latency"]
        print(f"op_p50_ms {lat['p50_ms']:.4g} over {lat['samples']} samples; "
              f"op_tail_ms {lat['tail_ms']:.4g}, the median over {lat['tail_windows']} windows "
              f"of at least {lat['tail_window_samples']} samples of p{lat['tail_percentile']:.4g}; "
              f"setup_s median of {len(setups)} set-ups")
        cal = res["calibration"]
        print(f"host at {cal['host_speed']:.3g} of the reference speed ({cal['kernel']} kernel); "
              f"raw ops_per_s {cal['raw_ops_per_s']:.4g}, op_p50_ms {cal['raw_p50_ms']:.4g}, "
              f"op_tail_ms {cal['raw_tail_ms']:.4g}, setup_s {statistics.median(raw_setups):.4g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
