"""Spans around the benchmark's calls into eprlink, and the per-layer metrics built from them.

Spans are recorded from the benchmark's own files: every eprlink call a
workload makes goes through a wrapper that appends one span, and every
operation is itself a span named ``op``.  A span is the tuple
``(name, start, end, parent, op, args)``: ``parent`` is the index of the
enclosing span (-1 for none) and ``op`` the id of the operation it belongs to.
Spans stay in memory and are written out when the run ends.

The first component of a span name is its layer.  The layers are the package
modules ``channel``, ``epr``, ``analysis``, ``oracle``, the sampler module and
``cli``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

# Label of the sampler layer in span and metric names (names in BENCHMARK.json
# start with a letter).  The benchmark reaches the sampler only through
# oracle.monte_carlo_transmit and never imports its module.
MC_LAYER = "mc"

LAYERS = ("channel", "epr", "analysis", "oracle", MC_LAYER, "cli")

# Traced library functions that report `<name>.calls` and `<name>.us`.
FUNCTIONS = (
    "channel.at_length",
    "channel.compose",
    "channel.iterate",
    "epr.transmit_at_length",
    "epr.transmit",
    "epr.concurrence",
    "analysis.threshold_generic",
    "analysis.sweep",
    "analysis.fit_mu",
    "oracle.apply_two_sided",
    "oracle.bell_diagonal_project",
    "oracle.wootters_concurrence.bell",
    "oracle.wootters_concurrence.general",
)

# `eprlink montecarlo` is not among them: see CLI_CYCLE in workloads.py.
SUBCOMMANDS = ("compose", "transmit", "threshold", "estimate-mu", "sweep")

MC_SPAN = MC_LAYER + ".call"

# Operations whose id starts with this run only to time the functions and
# layers that the workload itself never reaches.
PROBE = "probe:"


class Tracer:
    """Collects spans in memory for one traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, args)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    The benchmark is single-threaded, so children of one span never overlap
    and the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, covered)]


def _is_probe(op) -> bool:
    return isinstance(op, str) and op.startswith(PROBE)


def _sampler_shape(args) -> tuple[int, int, float]:
    """(samples, segments per sample, expected flips per sample) of one sampler call."""
    mu, geom, segments_per_km, samples, _ = args
    segments = round(geom.l1_km * segments_per_km) + round(geom.l2_km * segments_per_km)
    flips = segments * (mu.mu1 + mu.mu2 + mu.mu3) / segments_per_km
    return samples, segments, flips


def workload_calls(spans) -> dict[str, int]:
    """Calls per span name made by the workload's own operations, probes left out."""
    counts = defaultdict(int)
    for span in spans:
        if not _is_probe(span[4]):
            counts[span[0]] += 1
    return dict(counts)


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-function, per-layer and sampler metrics as ``{name: (value, unit)}``.

    Every metric comes from the workload's own operations, or from the probe
    operations when the workload never reaches that function or layer, so none
    is 0.  ``.calls`` is the number of calls behind ``.us``.
    """
    selfs = self_times(spans)
    work = defaultdict(list)
    probe = defaultdict(list)
    for span, own in zip(spans, selfs):
        (probe if _is_probe(span[4]) else work)[span[0]].append((span, own))

    def sample(name):
        found = work[name] or probe[name]
        if not found:
            raise RuntimeError(f"traced run recorded no span named {name!r}")
        return found

    out = {}
    for name in FUNCTIONS:
        found = sample(name)
        out[f"{name}.calls"] = (len(found), "count")
        out[f"{name}.us"] = (1e6 * statistics.fmean(own for _, own in found), "us")

    sweeps = sample("analysis.sweep")
    rows = sum(span[5][2] + 1 for span, _ in sweeps)
    out["analysis.sweep.rows_per_s"] = (rows / sum(own for _, own in sweeps), "1/s")

    calls = [(_sampler_shape(span[5]), own) for span, own in sample(MC_SPAN)]
    for regime, keep in (("sparse", lambda f: f < 1.0), ("dense", lambda f: f >= 1.0)):
        part = [(shape, own) for shape, own in calls if keep(shape[2])]
        if not part:
            raise RuntimeError(f"traced run made no {regime} sampler call")
        out[f"{MC_LAYER}.{regime}.samples_per_s"] = (
            sum(s for (s, _, _), _ in part) / sum(own for _, own in part),
            "1/s",
        )
    busy = sum(own for _, own in calls)
    out[f"{MC_LAYER}.call_ms"] = (1e3 * busy / len(calls), "ms")
    out[f"{MC_LAYER}.segment_draws_per_s"] = (sum(s * n for (s, n, _), _ in calls) / busy, "1/s")
    out[f"{MC_LAYER}.expected_flips_per_s"] = (sum(s * f for (s, _, f), _ in calls) / busy, "1/s")

    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.ms"] = (1e3 * statistics.fmean(own for _, own in sample(f"cli.{sub}")), "ms")

    # op id -> wall time, and layer -> op id -> self time spent in that layer
    op_wall = {span[4]: span[2] - span[1] for span in spans if span[0] == "op"}
    in_layer = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, selfs):
        if span[0] != "op":
            in_layer[span[0].split(".", 1)[0]][span[4]] += own
    work_ops = [op for op in op_wall if not _is_probe(op)]
    for layer in LAYERS:
        busy = in_layer[layer]
        if not busy:
            raise RuntimeError(f"traced run never reached layer {layer!r}")
        if any(not _is_probe(op) for op in busy):
            ops = work_ops  # the layer's share of the whole workload
        else:
            ops = list(busy)  # its share of the probe operations that reach it
        out[f"{layer}.share"] = (
            sum(busy.get(op, 0.0) for op in ops) / sum(op_wall[op] for op in ops),
            "fraction",
        )
    return out
