"""Host-time benchmark of the ℓ-NN library: end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload knn-paper-1d --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --workload serve-mixed --trace 1   # per-layer numbers

Workloads (see ``workloads.py`` for why each was chosen):
``knn-paper-1d``, ``serve-mixed``, ``serve-churn``.  ``BENCHMARK.json``
gates the two serve workloads; ``knn-paper-1d``'s host time swings too
much on a shared host to gate (see ``RESULTS.md``).  Every answer is
checked against the ``repro.sequential`` brute-force oracle; a wrong
answer, an error or a refused op counts as a failed op and makes the
command exit with code 1.

``--trace 0`` measures the end-to-end metrics for ``--seconds``: it
serves a fixed set of repetitions in passes, at least two, and keeps
each call's fastest replay, rescaled to a reference host speed by
``probe.py`` (see ``workloads.py``; the report states the scale).
Query latency percentiles are the median over repetitions of each
one's own.  Rounds, messages and modelled latencies come from the
first pass, so they are exact for a seed.
``--trace 1`` alternates untraced and traced passes over the
repetitions (calls of ``knn-paper-1d``, replays or streams of the serve
workloads) for ``--seconds``.  The traced ones' spans give the per-layer metrics and
are written to ``perfbench/out/<workload>-seed<seed>.trace.json``
(Chrome trace format).  ``trace.overhead_fraction`` is the untraced
passes' ops per second over the traced ones', minus one.
``knn-paper-1d`` then serves the untraced calls' queries again with the
simple method, untimed, for at most another ``--seconds / 2``;
``core.fig2_modelled_ratio`` is the median modelled simple ÷ sampled
time.

The human-readable report comes first; the last line of standard
output is one JSON object with the metrics ``BENCHMARK.json`` names
for the chosen mode.  Metrics a workload cannot produce print as
``n/a`` and read 0 in that JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_s.p50", "s"),
    ("query_s.p90", "s"),
    ("latency_rounds.p50", "rounds"),
    ("latency_rounds.p90", "rounds"),
    ("modelled_query_ms.p50", "ms"),
    ("rounds_per_op", "rounds"),
    ("messages_per_op", "count"),
    ("op_failure_rate", "fraction"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit) of every per-layer metric of a traced run.
PER_LAYER = [
    ("points.make_dataset.s", "s"),
    ("points.make_dataset.calls", "count"),
    ("points.shard_dataset.s", "s"),
    ("kmachine.simulator.s", "s"),
    ("kmachine.network.submit.s", "s"),
    ("kmachine.network.submit.calls", "count"),
    ("kmachine.network.step.s", "s"),
    ("kmachine.network.step.calls", "count"),
    ("kmachine.sizing.payload_bits.s", "s"),
    ("kmachine.sizing.payload_bits.calls", "count"),
    ("kmachine.stepping.self_s", "s"),
    ("kmachine.leader_ingest_share", "fraction"),
    ("kmachine.comm_ms", "ms"),
    ("kmachine.compute_ms", "ms"),
    ("core.local_candidates.s", "s"),
    ("core.local_candidates.calls", "count"),
    ("core.fig2_modelled_ratio", "ratio"),
    ("serve.session.run_batch.s", "s"),
    ("serve.batch_size.mean", "count"),
    ("serve.queue_wait.p50", "tick"),
    ("serve.cache.exact_hit_rate", "fraction"),
    ("serve.cache.warm_start_rate", "fraction"),
    ("serve.cache.warm_fallback_rate", "fraction"),
    ("serve.cache.s", "s"),
    ("serve.scheduler.s", "s"),
    ("dyn.insert.s", "s"),
    ("dyn.delete.s", "s"),
    ("dyn.rebalance.s", "s"),
    ("dyn.messages_per_update", "count"),
    ("dyn.rebalances", "count"),
    ("dyn.moved_points", "count"),
    ("points.self_s", "s"),
    ("kmachine.self_s", "s"),
    ("core.self_s", "s"),
    ("serve.self_s", "s"),
    ("dyn.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_fraction", "fraction"),
]

#: per-layer metrics read off one span name: ``<span name>.<s|calls>``,
#: inclusive seconds or call count over the traced half
SPAN_METRICS = [
    name
    for name, _ in PER_LAYER
    if name.endswith((".s", ".calls")) and name != "trace.wall_s"
]


def _median(values):
    return float(np.median(values)) if len(values) else None


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else None


def end_to_end(phase) -> dict:
    counted = max(phase.first_ops, 1)
    # Median over repetitions of their own percentiles, so a few slow
    # repetitions move it less than pooled percentiles; one-query
    # repetitions (knn-paper-1d) are pooled.
    query_s = (
        np.median(phase.rep_query_s, axis=0).tolist()
        if phase.rep_query_s
        else [_percentile(phase.query_s, 50), _percentile(phase.query_s, 90)]
    )
    return {
        "setup_s": _median(phase.setup_s),
        "ops_per_s": _median(phase.rep_rates),
        "query_s.p50": query_s[0],
        "query_s.p90": query_s[1],
        "latency_rounds.p50": _percentile(phase.latency_rounds, 50),
        "latency_rounds.p90": _percentile(phase.latency_rounds, 90),
        "modelled_query_ms.p50": _median(phase.modelled_ms),
        "rounds_per_op": phase.rounds / counted,
        "messages_per_op": phase.messages / counted,
        "op_failure_rate": phase.failed / max(phase.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced, traced, recorder) -> dict:
    """Layer readings of the traced half, plus the untraced half's model numbers."""
    from spans import LAYERS, layer_of

    totals = recorder.totals()
    out: dict = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        out[name] = totals.get(span, {}).get(field, 0)
    # the simulator's own round loop: its span minus every child span
    out["kmachine.stepping.self_s"] = totals.get("kmachine.simulator", {}).get("self_s", 0.0)
    for layer in (*LAYERS, "other"):
        out[f"{layer}.self_s"] = sum(
            t["self_s"] for name, t in totals.items() if layer_of(name) == layer
        )
    by_op: dict[int, dict[int, int]] = {}
    for (op, dst), count in recorder.ingress.items():
        by_op.setdefault(op, {})[dst] = count
    out["kmachine.leader_ingest_share"] = _median(
        [max(c.values()) / sum(c.values()) for c in by_op.values()]
    )
    out["kmachine.comm_ms"] = _median(untraced.comm_ms)
    out["kmachine.compute_ms"] = _median(untraced.compute_ms)
    out["core.fig2_modelled_ratio"] = _median(untraced.fig2_ratio)

    records = traced.records
    served = [r for r in records if r.source != "cache"]
    warm = [r for r in records if r.source == "warm"]

    def share(part: list, whole: list) -> float | None:
        return len(part) / len(whole) if whole else None

    out["serve.batch_size.mean"] = (
        sum(r.batch_size for r in served) / len(served) if served else None
    )
    out["serve.queue_wait.p50"] = _median([r.queue_wait for r in served])
    out["serve.cache.exact_hit_rate"] = share([r for r in records if r.source == "cache"], records)
    out["serve.cache.warm_start_rate"] = share(warm, records)
    out["serve.cache.warm_fallback_rate"] = share([r for r in warm if r.fallback], warm)

    updates = [m for m in traced.mutations if m.kind == "update"]
    rebalances = [m for m in traced.mutations if m.kind == "rebalance"]
    out["dyn.messages_per_update"] = (
        sum(m.messages for m in updates) / len(updates) if updates else None
    )
    out["dyn.rebalances"] = len(rebalances)
    out["dyn.moved_points"] = sum(m.moved_points for m in rebalances)

    out["trace.wall_s"] = recorder.wall_s()
    out["trace.spans"] = len(recorder.start)
    fast = untraced.ops / untraced.busy_s
    slow = traced.ops / traced.busy_s
    out["trace.overhead_fraction"] = fast / slow - 1.0
    return out


def stamp(args, workload: str) -> dict:
    """Where and how a result was measured, so hosts are never mixed up."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "smoke" if args.smoke else "full",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(),
    }


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _format(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(name: str, args, sizes) -> tuple[dict, dict]:
    """Run and report one workload; returns (op summary, metrics by name)."""
    from spans import LAYERS, SpanRecorder, traced
    from workloads import WORKLOADS, Harness, Phase

    workload = WORKLOADS[name](args.seed, sizes)
    if not args.trace:
        phase = Phase()
        workload.run(Harness(phase), args.seconds, passes=2)
        values, names, phases = end_to_end(phase), END_TO_END, [phase]
    else:
        # Untraced and traced passes alternate, so both see the
        # same host: the overhead reading does not follow host drift.
        untraced, traced_phase = Phase(), Phase()
        recorder = SpanRecorder()
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline:
            workload.run(Harness(untraced), 0)
            with traced(recorder):
                workload.run(Harness(traced_phase, recorder), 0)
        if hasattr(workload, "fig2"):
            workload.fig2(untraced, args.seconds / 2)
        values, names = per_layer(untraced, traced_phase, recorder), PER_LAYER
        phases = [untraced, traced_phase]
        path = HERE / "out" / f"{name}-seed{args.seed}.trace.json"
        recorder.write_chrome(path)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"== {name}")
    print("   " + json.dumps(stamp(args, name)))
    print(
        f"   ops attempted {attempted}, succeeded {attempted - failed}, failed {failed} "
        f"(wrong {sum(p.wrong for p in phases)}, errors {sum(p.errors for p in phases)}, "
        f"refused {sum(p.refused for p in phases)})"
    )
    if not args.trace:
        print(
            f"   host times are scaled to the probe's reference speed; median scale "
            f"{_format(_median(phase.scales))} (host seconds x scale = scaled seconds)"
        )
    for metric, unit in names:
        print(f"   {metric:<36} {_format(values[metric]):>14} {unit}")
    if args.trace:
        layers = sum(values[f"{layer}.self_s"] for layer in (*LAYERS, "other"))
        print(
            f"   layer self times + other.self_s = {layers:.6f} s"
            f" (trace.wall_s {values['trace.wall_s']:.6f} s); spans written to {path}"
        )
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    return summary, {m: (values[m], unit) for m, unit in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (the benchmark's own test)")
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"no library source under {SOURCE}; run from a full checkout", file=sys.stderr)
        return 2
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from workloads import FULL, SMOKE, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        summary, metrics = run_workload(name, args, SMOKE if args.smoke else FULL)
        result["correct"] &= summary["correct"]
        result["attempted"] += summary["attempted"]
        result["failed"] += summary["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric in wanted:
            value, unit = metrics[metric]
            result["metrics"][prefix + metric] = {
                "value": 0.0 if value is None else value,
                "unit": unit,
            }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
