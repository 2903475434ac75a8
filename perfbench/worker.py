"""Run one workload in this fresh process and print its measurements as one JSON line.

Started by run.py, never by hand.  The process imports eprlink from the
checkout's ``src``, builds the workload's inputs from the seed, warms up with
one operation and one run of its host-speed calibration kernel, and then
either stops (``--setup-only``, for set-up timing) or runs the timed loop.
With ``--trace 1`` it runs half the time untraced and
half traced, probes the functions and layers the workload never reaches, and
writes the spans to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from calibration import numpy_kernel, python_kernel, scale
from tracing import PROBE, SUBCOMMANDS, Tracer, layer_metrics, workload_calls
from workloads import BUILDERS, CYCLE_OPS, Lib, child_env

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# A window's tail is its highest percentile that still has TAIL_BEYOND samples
# beyond it: the (TAIL_BEYOND + 1)-th largest latency, p95 in a window of 200.
# op_tail_ms is the median of the window tails over equal consecutive windows
# of at least TAIL_WINDOW_OPS operations (one window if the run is shorter), so
# a slow spell of the host moves a few windows rather than the whole run.  On
# a shared 2-core VM the 11th-largest latency of a whole 20 s crosscheck run
# spread 0.29 (IQR/median) over five seeds; the median of 200-op windows, 0.08.
TAIL_BEYOND = 10
TAIL_WINDOW_OPS = 200
# Each other workload's operations run traced for at least this long, and at
# least one cycle, to time what the workload itself never reaches.
PROBE_S = 1.0
# (metric, code for ``python -c``, repeats; the median is reported)
STARTUP_PROBES = (("python_start_ms", "pass", 5), ("import_ms", "import eprlink", 3))
IMPORTTIME_REPEATS = 3
# Set-up-only workers time the pure-Python kernel this often after set-up
# (the median counts), so that run.py can scale their set-up time.
SETUP_KERNEL_REPEATS = 9
# The host-speed calibration kernel of each workload (see calibration.py): the
# sampler's whole-array hashing slows down differently from pure Python.
KERNELS = {
    "scan": python_kernel,
    "crosscheck": python_kernel,
    "montecarlo": numpy_kernel,
    "cli": python_kernel,
}


class Measured(NamedTuple):
    latencies: list  # seconds at the kernel's reference speed
    raw: list  # seconds as measured
    failures: list
    wall: float
    host_speed: float  # median of ref_s over the kernel times


def measure(ops, lib, seconds, min_ops, kernel, tracer=None, label="") -> Measured:
    """Cycle through ``ops`` until ``seconds`` have passed and ``min_ops`` were attempted.

    Times ``kernel`` before the first operation and after each one, and
    scales each operation's latency to the kernel's reference speed.  Returns
    the latencies of all operations (also of failed ones), scaled and raw, the
    reasons of failed operations, and the wall time of the loop.
    """
    run_op = tracer.wrap("op", lambda op, lib: op.run(lib)) if tracer else None
    latencies, failures = [], []
    host = [kernel.time()]
    start = time.perf_counter()
    deadline = start + seconds
    for i, op in enumerate(itertools.cycle(ops)):
        if tracer:
            tracer.op = f"{label}{i}"
        t0 = time.perf_counter()
        try:
            result = run_op(op, lib) if tracer else op.run(lib)
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(time.perf_counter() - t0)
            failures.append(f"{type(exc).__name__}: {exc}")
        else:
            latencies.append(time.perf_counter() - t0)
            try:
                reason = op.check(result)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                failures.append(reason)
        host.append(kernel.time())
        if i + 1 >= min_ops and time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    return Measured(
        scale(latencies, host, kernel.ref_s), latencies, failures, wall,
        statistics.median(kernel.ref_s / c for c in host),
    )


def verify(ops, lib) -> list[str]:
    return [reason for reason in (op.verify(lib) for op in ops) if reason]


def _window_tail(latencies) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples beyond it.

    A window of at most TAIL_BEYOND samples has no such percentile; its tail
    is then its largest sample, p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - 1 - TAIL_BEYOND]


def latency_summary(latencies) -> dict:
    """Median and tail latency with the sample counts behind them."""
    n = len(latencies)
    k = max(1, n // TAIL_WINDOW_OPS)
    windows = [latencies[i * n // k:(i + 1) * n // k] for i in range(k)]
    tails = [_window_tail(w) for w in windows]
    return {
        "samples": n,
        "p50_ms": 1e3 * statistics.median(latencies),
        "tail_ms": 1e3 * statistics.median(value for _, value in tails),
        "tail_windows": k,
        "tail_window_samples": min(len(w) for w in windows),
        "tail_percentile": statistics.median(p for p, _ in tails),
    }


def _wall(cmd, env) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return time.perf_counter() - start, proc


def _import_us(importtime_log: str) -> tuple[int, int]:
    """(all imports, numpy's import) in microseconds, from a ``-X importtime`` log.

    Lines read "import time: <self us> | <cumulative us> | <module>", the
    module name indented by two spaces per nesting level; the cumulative
    times of the top-level imports add up to all the process imports.
    """
    total = numpy = 0
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        if not name.startswith("  "):
            total += int(parts[1])
        if name.strip() == "numpy":
            numpy = int(parts[1])
    return total, numpy


def startup_metrics(cli_ops) -> tuple[dict, dict]:
    """Interpreter start, ``import eprlink``, and import time in each subcommand.

    Returns the metrics and numpy's part of each subcommand's import time
    (0 when the subcommand does not import numpy), which goes to the run
    record only, as it would read 0 on every run.
    """
    env = child_env(ROOT)
    out, numpy_us = {}, {}
    for name, code, repeats in STARTUP_PROBES:
        walls = [_wall([sys.executable, "-c", code], env)[0] for _ in range(repeats)]
        out[f"cli.{name}"] = (1e3 * statistics.median(walls), "ms")
    for sub in SUBCOMMANDS:
        op = next(op for op in cli_ops if op.sub == sub)
        cmd = [sys.executable, "-X", "importtime", "-m", "eprlink", sub, *op.argv, "--format", "json"]
        times = [_import_us(_wall(cmd, env)[1].stderr) for _ in range(IMPORTTIME_REPEATS)]
        out[f"cli.{sub}.import_us"] = (statistics.median(t for t, _ in times), "us")
        numpy_us[sub] = statistics.median(n for _, n in times)
    return out, numpy_us


def _rate(m: Measured) -> float:
    """Completed operations per second of operation time at the reference speed."""
    return (len(m.latencies) - len(m.failures)) / sum(m.latencies)


def traced_run(workload, seed, seconds, ops, lib, kernel) -> dict:
    cycle = CYCLE_OPS[workload]
    plain = measure(ops, lib, seconds / 2, cycle, kernel)
    tracer = Tracer()
    traced_lib = Lib(ROOT, tracer)
    traced = measure(ops, traced_lib, seconds / 2, cycle, kernel, tracer, "")
    attempted = len(plain.latencies) + len(traced.latencies)
    failures = plain.failures + traced.failures
    probe_ops = {workload: ops}
    for other, build in BUILDERS.items():
        if other == workload:
            continue
        probe_ops[other] = build(seed, lib, OUT)
        probe = measure(
            probe_ops[other], traced_lib, PROBE_S, CYCLE_OPS[other], kernel, tracer,
            f"{PROBE}{other}:",
        )
        attempted += len(probe.latencies)
        failures += probe.failures
    failures += verify(ops, lib)
    metrics = layer_metrics(tracer.spans)
    startup, numpy_import_us = startup_metrics(probe_ops["cli"])
    metrics.update(startup)
    plain_rate = _rate(plain)
    traced_rate = _rate(traced)
    metrics["trace.slowdown"] = (plain_rate / traced_rate, "ratio")
    spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl"
    tracer.write(spans_path)
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "untraced_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate,
        "workload_calls": workload_calls(tracer.spans),
        "cli_numpy_import_us": numpy_import_us,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def timed_run(workload, seconds, ops, lib, kernel) -> dict:
    m = measure(ops, lib, seconds, 1, kernel)
    failures = m.failures + verify(ops, lib)
    completed = len(m.latencies) - len(failures)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    summary = latency_summary(m.latencies)
    raw = latency_summary(m.raw)
    return {
        "attempted": len(m.latencies),
        "failures": failures,
        "wall_s": m.wall,
        "latency": summary,
        "calibration": {
            "kernel": kernel.name,
            "ref_s": kernel.ref_s,
            "host_speed": m.host_speed,
            "raw_ops_per_s": completed / sum(m.raw),
            "raw_p50_ms": raw["p50_ms"],
            "raw_tail_ms": raw["tail_ms"],
        },
        "metrics": {
            "ops_per_s": (completed / sum(m.latencies), "1/s"),
            "op_p50_ms": (summary["p50_ms"], "ms"),
            "op_tail_ms": (summary["tail_ms"], "ms"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import eprlink

    import_s = time.perf_counter() - start
    if not Path(eprlink.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported eprlink from {eprlink.__file__}, not this checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    lib = Lib(ROOT)
    ops = BUILDERS[args.workload](args.seed, lib, OUT)
    ops[0].run(lib)  # warm-up, untimed and unchecked
    kernel = KERNELS[args.workload]()
    kernel.time()
    result = {"setup_end": time.monotonic(), "import_s": import_s}
    if args.setup_only:
        # The host speed at the end of set-up, for scaling the set-up time.
        result["setup_kernel_s"] = python_kernel().median_time(SETUP_KERNEL_REPEATS)
    else:
        if args.trace:
            result.update(traced_run(args.workload, args.seed, args.seconds, ops, lib, kernel))
        else:
            result.update(timed_run(args.workload, args.seconds, ops, lib, kernel))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
