"""Smoke test of the benchmark itself, on tiny inputs.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, *argv: str) -> tuple[list[str], dict, int]:
    code = run.main(["--smoke", "--seconds", "1", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1]), code


def test_spec_matches_the_metrics_the_code_defines():
    for key, defined in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        units = dict(defined)
        for metric in SPEC[key]:
            assert units[metric["name"]] == metric["unit"], metric
    # knn-paper-1d alone produces these, and it is not a listed workload
    paper_only = {"kmachine.comm_ms", "kmachine.compute_ms", "core.fig2_modelled_ratio"}
    assert {m["name"] for m in SPEC["per_layer"]} == {n for n, _ in run.PER_LAYER} - paper_only
    assert {w["name"] for w in SPEC["workloads"]} <= {
        "knn-paper-1d", "serve-mixed", "serve-churn"
    }


@pytest.mark.parametrize("trace, defined, key", [
    ("0", run.END_TO_END, "end_to_end"),
    ("1", run.PER_LAYER, "per_layer"),
])
def test_every_metric_is_emitted_with_its_unit(capsys, trace, defined, key):
    report, result, code = _run(capsys, "--workload", "all", "--trace", trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    for workload in ("knn-paper-1d", "serve-mixed", "serve-churn"):
        start = report.index(f"== {workload}") + 1
        ends = [i for i, line in enumerate(report) if line.startswith("== ") and i >= start]
        block = report[start:ends[0] if ends else len(report)]
        for name, unit in defined:
            assert any(
                line.split()[0] == name and line.split()[-1] == unit
                for line in block if line.strip()
            ), (workload, name)
        for metric in SPEC[key]:
            emitted = result["metrics"][f"{workload}/{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))


def test_layer_self_times_sum_to_traced_wall(capsys):
    _, result, _ = _run(capsys, "--workload", "serve-churn", "--trace", "1")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    layers = ("points", "kmachine", "core", "serve", "dyn", "other")
    total = sum(metrics[f"{layer}.self_s"] for layer in layers)
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["dyn.insert.s"] > 0 and metrics["dyn.delete.s"] > 0


def test_ingest_share_matches_the_profiled_metric():
    """The submit-boundary count equals Metrics.ingress_share()."""
    sys.path.insert(0, str(run.SOURCE))
    from repro.core.driver import distributed_knn
    from spans import SpanRecorder, traced

    points = np.random.default_rng(3).uniform(0, 1, 2048)
    recorder = SpanRecorder()
    with traced(recorder):
        index = recorder.open_root("op.distributed_knn")
        result = distributed_knn(points, 0.5, 32, 8, seed=5, profile=True)
        recorder.close_root(index)
    counts = [c for (op, _), c in recorder.ingress.items() if op == 0]
    assert max(counts) / sum(counts) == pytest.approx(result.metrics.ingress_share())


@pytest.mark.parametrize("workload", ["serve-mixed", "serve-churn"])
def test_a_wrong_answer_fails_the_run(capsys, monkeypatch, workload):
    """The oracle check catches an answer that lost one neighbour."""
    sys.path.insert(0, str(run.SOURCE))
    from dataclasses import replace

    from repro.serve.service import KNNService

    poll = KNNService.poll

    def short_poll(self, qid):
        answer = poll(self, qid)
        return None if answer is None else replace(answer, ids=answer.ids[:-1])

    monkeypatch.setattr(KNNService, "poll", short_poll)
    _, result, code = _run(capsys, "--workload", workload, "--trace", "0")
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    import subprocess

    (tmp_path / "perfbench").mkdir()
    for path in Path(run.HERE).glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
