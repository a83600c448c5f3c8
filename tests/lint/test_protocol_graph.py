"""Protocol-graph layer: graph construction, budget inference, CLI modes.

These tests pin the cross-file analysis the KM006+ rules ride: the
send/recv flow graph over the real tree, the symbolic message-budget
inference against the conformance monitor's declared classes, and the
``graph`` / ``--strict`` / SARIF CLI surfaces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import Baseline, LintEngine, ProjectIndex, get_rules
from repro.lint.budgets import (
    DECLARED_ENTRY_CLASSES,
    ENTRY_POINTS,
    Budget,
    infer_repo_budgets,
    parse_class,
)
from repro.lint.cli import main
from repro.lint.protocol import ProtocolAnalyzer

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def build_analyzer(*paths: Path) -> ProtocolAnalyzer:
    engine = LintEngine([], root=REPO)
    modules, errors = engine.load_modules(engine.discover(paths or [SRC]))
    assert not errors
    return ProtocolAnalyzer(modules, ProjectIndex(modules))


# ----------------------------------------------------------------------
# graph structure
# ----------------------------------------------------------------------
def test_selection_graph_matches_hand_count() -> None:
    """Edge count for core/selection.py alone, verified by hand.

    Sends (13): the leader roles emit 8 foldable ``sel/q`` sites
    (init/iterate/finish across the plain and byz paths), 1 wildcard
    broadcast (the byz ``strike`` suspicion notice), and the worker
    roles emit 3 ``sel/r`` replies plus 1 ``sel/pv/*`` pivot reply.
    Recvs (5): 2 worker ``sel/q`` op loops, 3 leader ``sel/r`` gathers.

    Edges: each worker ``sel/q`` recv pairs with the 8 literal leader
    senders plus the wildcard broadcast (2 x 9 = 18); each leader
    ``sel/r`` recv pairs with the 3 worker reply sites (3 x 3 = 9) —
    the wildcard sender is leader-role, and leader->leader edges are
    excluded (the leader is a singleton).  Total 27.
    """
    analyzer = build_analyzer(SRC / "repro" / "core" / "selection.py")
    graph = analyzer.build_graph()
    sends = [s for s in graph.sites if s.kind == "send"]
    recvs = [s for s in graph.sites if s.kind == "recv"]
    assert len(sends) == 13
    assert len(recvs) == 5
    assert len(graph.edges) == 27


def test_selection_sites_all_spanned() -> None:
    analyzer = build_analyzer(SRC / "repro" / "core" / "selection.py")
    graph = analyzer.build_graph()
    assert graph.sites, "graph should not be empty"
    assert all(s.span is not None for s in graph.sites)


def test_graph_json_shape() -> None:
    analyzer = build_analyzer(SRC / "repro" / "core" / "selection.py")
    payload = analyzer.build_graph().to_json()
    assert payload["version"] == 1
    assert payload["summary"]["sends"] == 13
    assert payload["summary"]["recvs"] == 5
    for edge in payload["edges"]:
        assert set(edge) == {"send", "recv"}


# ----------------------------------------------------------------------
# budget inference vs the conformance monitor's declared classes
# ----------------------------------------------------------------------
def test_inferred_budgets_match_declared_classes() -> None:
    """Every entry infers exactly its declared class, both regimes."""
    analyzer = build_analyzer(SRC)
    results = infer_repo_budgets(analyzer)
    assert results, "no entries inferred — ENTRY_POINTS resolution broke"
    seen = set()
    for graded in results:
        seen.add((graded.entry, graded.regime))
        declared = graded.declared
        assert not graded.inferred.exceeds(declared), (
            f"{graded.entry}/{graded.regime}: inferred "
            f"{graded.inferred.classname} exceeds declared {declared.classname}"
        )
    expected = {
        (entry, regime)
        for entry in ENTRY_POINTS
        for regime in ("f0", "byz")
    }
    assert seen == expected


def test_f0_regime_is_identity_for_selection() -> None:
    """At f=0 the byz machinery prices out: algorithm1 stays O(k log)."""
    analyzer = build_analyzer(SRC)
    by_key = {
        (g.entry, g.regime): g for g in infer_repo_budgets(analyzer)
    }
    f0 = by_key[("algorithm1", "f0")]
    assert f0.inferred.k_pow <= 1
    assert not f0.inferred.unbounded
    byz = by_key[("algorithm1", "byz")]
    assert byz.inferred.k_pow >= 2, "quorum echo traffic must price in at f>0"


def test_declared_tables_agree_with_conformance() -> None:
    """The obs side declares no table of its own: it is the lint table."""
    conformance = pytest.importorskip("repro.obs.conformance")
    assert DECLARED_ENTRY_CLASSES is conformance.DECLARED_MESSAGE_CLASSES


def test_declared_classes_match_numeric_budget_growth() -> None:
    """The numeric budget functions grow with the declared k-exponent.

    Doubling k at fixed n should scale each budget by ~2^k_pow; the
    log factor is constant across the probe so it divides out.
    """
    conformance = pytest.importorskip("repro.obs.conformance")
    probes = {
        "algorithm1": lambda k: conformance.selection_message_bound(2**20, k),
        "algorithm2": lambda k: conformance.knn_message_budget(1024, k),
        "update": lambda k: conformance.update_message_budget(k),
        "rebalance": lambda k: conformance.rebalance_message_budget(2**20, k),
    }
    for entry, budget_fn in probes.items():
        declared = parse_class(DECLARED_ENTRY_CLASSES[entry]["f0"])
        assert declared is not None
        lo, hi = budget_fn(64), budget_fn(128)
        ratio = hi / lo
        expected = 2.0 ** declared.k_pow
        # Additive lower-order terms skew the ratio below the leading
        # exponent, never above it (all terms have k_pow <= declared).
        assert ratio == pytest.approx(expected, rel=0.35), (
            f"{entry}: budget ratio {ratio:.2f} vs 2^{declared.k_pow}"
        )


def test_budget_lattice_operations() -> None:
    k_log = parse_class("k log")
    k2 = parse_class("k^2")
    assert k_log is not None and k2 is not None
    assert k_log.join(k2) == Budget(k_pow=2, log_pow=1)
    assert k_log.times(k_log) == Budget(k_pow=2, log_pow=2)
    assert k2.exceeds(k_log)
    # k and log n are independent parameters, so `k log` and `k^2` are
    # incomparable — each exceeds the other (fail-closed for KM007).
    assert k_log.exceeds(k2)
    k2_log = parse_class("k^2 log")
    assert k2_log is not None
    assert not k_log.exceeds(k2_log)
    assert parse_class("O(k^2 * log)") == Budget(k_pow=2, log_pow=1)
    assert parse_class("nonsense") is None


# ----------------------------------------------------------------------
# KM005 narrowing: per-scope, not per-module
# ----------------------------------------------------------------------
def test_km005_judges_other_functions_despite_dynamic_send(tmp_path: Path) -> None:
    """One function's dynamic tag no longer blinds the whole module."""
    mod = tmp_path / "core" / "split.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(
        "def relay(ctx, prefix):\n"
        "    ctx.send(0, prefix + '/x', 1)\n"
        "    yield\n"
        "\n"
        "\n"
        "def listen(ctx):\n"
        "    msg = yield from ctx.recv_one('never/sent')\n"
        "    return msg\n"
    )
    engine = LintEngine(get_rules({"KM005"}), root=tmp_path)
    report = engine.run([mod])
    assert [v.scope for v in report.violations] == ["listen"]


# ----------------------------------------------------------------------
# stale-baseline handling and --strict
# ----------------------------------------------------------------------
def _write_rng_module(root: Path) -> Path:
    mod = root / "experiments" / "bad.py"
    mod.parent.mkdir(parents=True, exist_ok=True)
    mod.write_text("import random\n")
    return mod


def test_stale_baseline_entries_reported(tmp_path: Path) -> None:
    mod = _write_rng_module(tmp_path)
    engine = LintEngine(get_rules(), root=tmp_path)
    baseline = Baseline.from_violations(engine.run([mod]).violations)
    mod.write_text("x = 1\n")  # debt paid down; baseline now stale
    report = engine.run([mod], baseline=baseline)
    assert report.violations == []
    assert len(report.stale_fingerprints) == 1


def test_strict_fails_on_stale_baseline(tmp_path: Path, capsys) -> None:
    mod = _write_rng_module(tmp_path)
    bl_path = tmp_path / "lint-baseline.json"
    assert main([str(mod), "--update-baseline", "--baseline", str(bl_path)]) == 0
    mod.write_text("x = 1\n")
    assert main([str(mod), "--baseline", str(bl_path)]) == 0
    out = capsys.readouterr().out
    assert "stale" in out and "warning" in out
    assert main([str(mod), "--baseline", str(bl_path), "--strict"]) == 1


def test_update_baseline_prunes_stale_entries(tmp_path: Path) -> None:
    mod = _write_rng_module(tmp_path)
    bl_path = tmp_path / "lint-baseline.json"
    assert main([str(mod), "--update-baseline", "--baseline", str(bl_path)]) == 0
    assert len(Baseline.load(bl_path)) == 1
    mod.write_text("x = 1\n")
    assert main([str(mod), "--update-baseline", "--baseline", str(bl_path)]) == 0
    assert len(Baseline.load(bl_path)) == 0


# ----------------------------------------------------------------------
# graph CLI
# ----------------------------------------------------------------------
def test_graph_cli_json(capsys) -> None:
    target = SRC / "repro" / "core" / "selection.py"
    assert main(["graph", str(target)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["edges"] == 27


def test_graph_cli_dot(capsys) -> None:
    target = SRC / "repro" / "core" / "selection.py"
    assert main(["graph", "--dot", str(target)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph protocol {")
    assert out.rstrip().endswith("}")
    assert out.count(" -> ") == 27


def test_sarif_output_lists_rules_and_results(tmp_path: Path, capsys) -> None:
    mod = _write_rng_module(tmp_path)
    assert main([str(mod), "--no-baseline", "--format", "sarif"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert {r["ruleId"] for r in run["results"]} == {"KM002"}
    region = run["results"][0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 1
