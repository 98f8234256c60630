"""Tests of the benchmark itself: span arithmetic, statistics, checks, tracing.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import lecollapse.runner  # noqa: E402
from lecollapse.engine import EnsembleResult, RunResult  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Span,
    Tracer,
    category_time,
    layer_metrics,
    op_totals,
    self_times,
)
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Outcome,
    Workload,
    born_checks,
    born_martingale,
    born_op,
    diffusion_op,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: [1, 6] is covered once
        Span("a.child", 2.0, 3.0, parent=1),
        Span("late", 9.5, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 2.5])


def test_category_time_counts_nested_spans_once():
    spans = [
        Span("exact.observe", 0.0, 4.0),
        Span("other", 1.0, 3.0, parent=0),
        Span("exact.observe", 1.5, 2.5, parent=1),  # inside the outer one
        Span("exact.observe", 5.0, 6.0),
    ]
    assert category_time(spans, ["exact.observe"]) == pytest.approx(5.0)
    assert category_time(spans, ["exact.observe"], idx=[2, 3]) == 1.0


def test_op_totals_and_layer_metrics_on_a_hand_built_tree():
    spans = []
    for index, (t0, draws) in enumerate([(0.0, 1000), (20.0, 3000)]):
        base = len(spans)
        spans += [
            Span("op", t0, t0 + 10.0, op=index),
            Span("engine.run", t0 + 1.0, t0 + 9.0, parent=base, op=index,
                 work=400, extra={"trajectories": 4, "absorbed": 3,
                                  "simplex_drift": 1e-15 * (index + 1)}),
            Span("engine.poisson", t0 + 2.0, t0 + 5.0, parent=base + 1,
                 op=index, work=draws),
        ]
    totals = op_totals(spans)
    assert totals[0]["engine.run_s"] == pytest.approx(8.0)
    assert totals[0]["engine.self_s"] == pytest.approx(5.0)
    assert totals[1]["engine.poisson_draws"] == 3000
    per_op = []
    for i in (0, 1):
        t = {"runner.files_written": 0, "runner.bytes_written": 0,
             **totals[i]}
        t["core_s"] = t["engine.run_s"]
        per_op.append(t)
    metrics, spreads = layer_metrics(per_op, PER_LAYER)
    # every per-layer metric of BENCHMARK.json is made; the run loop adds
    # the harness ones
    assert set(metrics) | {"trace.overhead"} == {n for n, _ in PER_LAYER}
    assert metrics["engine.poisson_draws"]["value"] == 2000
    assert metrics["engine.ns_per_draw"]["value"] == pytest.approx(
        6.0 / 4000 * 1e9)
    assert metrics["engine.absorbed_frac"]["value"] == pytest.approx(0.75)
    assert metrics["engine.simplex_drift_max"]["value"] == 2e-15
    assert metrics["trace.core_share"]["value"] == pytest.approx(0.8)
    assert metrics["wave.ns_per_cell_step"]["value"] == 0.0  # idle layer
    assert spreads["engine.run_s"] == 0.0


@pytest.mark.parametrize("n, expected", [
    (1, []), (19, []), (20, [50]), (10000, [50]),
])
def test_percentile_rule_keeps_ten_samples_beyond(n, expected):
    assert bench.reportable_percentiles(n) == expected


def test_timed_phase_runs_until_p50_is_reportable(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    fake = Workload("fake", lambda s, i, d: Outcome("x"), lambda t: 0.0)
    result = bench.untraced(fake, seed=1, seconds=0.0, import_s=0.0,
                            imports=1, warmups=1)
    assert result["attempted"] == 20
    assert result["correct"] is True


def test_forced_check_failures_show_in_ok_frac(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)

    def op(seed, index, workdir):
        time.sleep(0.005)
        return Outcome("x", ["forced failure"] if index % 2 else [])

    fake = Workload("fake", op, lambda t: 0.0)
    result = bench.untraced(fake, seed=1, seconds=0.2, import_s=0.0,
                            imports=1, warmups=1)
    n = result["attempted"]
    assert n >= 20
    assert result["failed"] == n // 2
    assert result["metrics"]["ok_frac"]["value"] == (n - n // 2) / n
    assert result["correct"] is False
    assert list(tmp_path.iterdir()) == []  # every scratch dir removed


def test_born_checks_flag_a_biased_ensemble():
    p0 = (0.2, 0.3, 0.5)
    results = [RunResult(winner=0, collapse_time=1.0, slip_count=1, seed=0,
                         p0=p0, status="collapsed") for _ in range(50)]
    snaps = np.zeros((3, 50, 3))
    snaps[:, :, 0] = 1.0
    snaps[0, 0, 0] = 1.0 + 1e-8
    problems = born_checks(EnsembleResult(results, (1, 2, 3), snaps), p0)
    assert any("chi-square" in p for p in problems)
    assert any("|sum p - 1|" in p for p in problems)


def _tally(snaps):
    return len(snaps), np.tile(snaps.sum(0), (3, 1)), \
        np.tile((snaps**2).sum(0), (3, 1))


def test_pooled_martingale_check_catches_a_bias_of_a_few_errors():
    p0 = np.array([0.2, 0.3, 0.5])
    rng = np.random.default_rng(5)
    # absorbed runs: a vertex of the simplex, drawn with the Born weights
    fair = np.eye(3)[rng.choice(3, size=1500, p=p0)]
    assert born_martingale([_tally(fair)]) == []
    # 6.6 standard errors on channel 0, under the 0.07 that a worst-case
    # Bernstein bound lets pass at this size
    assert born_martingale([_tally(fair + np.array([0.068, -0.068, 0.0]))])
    # and the test holds its false-alarm rate on many fair pools
    alarms = sum(bool(born_martingale(
        [_tally(np.eye(3)[rng.choice(3, size=250, p=p0)])]))
        for _ in range(200))
    assert alarms == 0


def test_traced_op_reproduces_the_untraced_op(tmp_path):
    def small_born(seed, index, workdir):
        return born_op(seed, index, workdir, n_runs=10)

    def small_diffusion(seed, index, workdir):
        return diffusion_op(seed, index, workdir, steps_2d=20, steps_1d=50)

    tracer = Tracer()
    for op in (small_born, small_diffusion):
        plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
        plain_dir.mkdir()
        traced_dir.mkdir()
        plain = op(3, 0, plain_dir)
        with tracer.installed(), tracer.span("op", op=0):
            traced = op(3, 0, traced_dir)
        shutil.rmtree(plain_dir)
        shutil.rmtree(traced_dir)
        assert plain.problems == traced.problems == []
        assert plain.fingerprint == traced.fingerprint
    names = {s.name for s in tracer.spans}
    assert {"engine.run", "engine.poisson", "fokker_planck.fp_step",
            "fokker_planck.boundary_current", "config.load",
            "runner.run_experiment"} <= names
    assert lecollapse.runner.fp_step.__module__ == "lecollapse.fokker_planck"
    assert not hasattr(lecollapse.runner.fp_step, "__wrapped__")


def test_every_workload_core_is_a_known_total():
    t = {k: 1.0 for k in ("engine.run_s", "runner.run_experiment_s",
                          "plotting.emit_s", "fokker_planck.total_s",
                          "exact.total_s")}
    assert {w.name for w in WORKLOADS.values()} == set(bench.WORKLOAD_NAMES)
    for w in WORKLOADS.values():
        assert w.core(t) >= 0.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "born",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
