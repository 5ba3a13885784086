"""Tiny-size smoke runs of every workload.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = list(workloads.WORKLOADS)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == {k: u for k, (u, _) in run.END_TO_END.items()}
    assert _declared("per_layer") == {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        workloads.WORKLOADS[n].why for n in NAMES
    ]


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_run(name):
    result, report = run.run(name, seed=7, seconds=0, trace=0, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_frac"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("end_to_end")
    for key, m in metrics.items():
        assert math.isfinite(m["value"]) and m["value"] > 0, key


@pytest.mark.parametrize("name", NAMES)
def test_traced_run(name):
    result, report = run.run(name, seed=7, seconds=0, trace=1, tiny=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("per_layer")
    assert metrics["dynamics.integrate_calls"]["value"] > 0
    with open(report["spans"], encoding="utf-8") as fh:
        spans = [
            tracing.Span(s["name"], s["start"], s["end"], s["parent"], s["op"], {})
            for s in json.load(fh)
        ]
    self_times = tracing.exclusive_times(spans)
    assert min(self_times) >= 0.0
    assert sum(self_times) <= sum(report["traced_passes_s"]) + 1e-9
    with open(report["profile"], encoding="utf-8") as fh:
        assert "tottime" in fh.read()


def test_request_times_are_scaled_by_the_reference_loop(monkeypatch):
    # every block reads twice as slow as the reference speed
    monkeypatch.setattr(run.calibration, "block",
                        lambda mode, calls: (0.02 * calls, 0.01 * calls))
    _, pkg, wl, requests, out_dir = run.set_up("trajectory", 7, tiny=True)
    measured = run.measure(pkg, wl, requests, 0, out_dir, scaled=True)
    assert measured.ref_latencies == pytest.approx([t / 2 for t in measured.latencies])
    assert measured.ref_passes == pytest.approx([t / 2 for t in measured.passes])


def test_exclusive_times_split_overlapping_children():
    spans = [
        tracing.Span("scan", 0.0, 10.0, None, 1, {}),
        tracing.Span("point", 1.0, 5.0, 0, 1, {}),
        tracing.Span("point", 3.0, 7.0, 0, 1, {}),
        tracing.Span("diag", 4.0, 5.0, 1, 1, {}),
    ]
    assert tracing.exclusive_times(spans) == pytest.approx([4.0, 2.5, 3.0, 0.5])


@pytest.mark.parametrize("name", ["delay-scan", "trajectory"])
def test_corrupted_result_is_a_failed_op(name, monkeypatch):
    pkg = run.load_package()
    integrate = pkg.dynamics.integrate

    def off_by_a_bit(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        traj.states[-1] += 0.01
        return traj

    monkeypatch.setattr(pkg.dynamics, "integrate", off_by_a_bit)
    result, report = run.run(name, seed=7, seconds=0, trace=0, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert report["failed_frac"] == 1.0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
