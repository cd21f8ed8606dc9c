"""Toy-size self-test of the benchmark: every workload, untraced and traced.

Runs ``run.py --scale toy`` (the seconds-scale smoke presets) and checks
that each run is correct and prints exactly the metrics BENCHMARK.json
names, with their units, and that the traced run covers its window.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

# Toy trials are ~30 ms, so fixed per-trial bookkeeping outside any
# layer span weighs more than at bench scale (0.98-0.99 there).  Toy
# trials cover 0.94-0.96, and 0.86 without the model-call wrapper; the
# toy search, whose parent starts the pool outside any span, 0.84-0.87.
TOY_MIN_COVERAGE = {"trial-fast": 0.9, "trial-reference": 0.9,
                    "search-layer-bits": 0.8}


def run_benchmark(workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(run_benchmark(workload, trace=0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name in ("setup_s", "wall_s", "train_samples_per_s", "peak_rss_mb",
                 "completed_trials_frac"):
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload):
    result = result_of(run_benchmark(workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    units = {name: metric["unit"] for name, metric in metrics.items()}
    assert units == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert metrics["trace.coverage_frac"]["value"] >= TOY_MIN_COVERAGE[workload]
    assert metrics["core.epochs"]["value"] >= 1
    assert metrics["backend.matmul_calls"]["value"] >= 1
    if workload == "search-layer-bits":
        assert metrics["orchestration.bets_speculated"]["value"] >= 1
        assert metrics["cli.out_writes"]["value"] >= 1


def test_coverage_excludes_envelope_self_time():
    """Work done in an envelope span's own body is not covered."""
    tracer = spans.Tracer()
    kernel = tracer.wrap("backend.matmul", time.sleep)
    epoch = tracer.wrap("core.train_epoch", lambda work: work(0.05))
    start = time.perf_counter()
    epoch(kernel)      # the work inside a layer span
    epoch(time.sleep)  # the same work with its wrapper missed
    summary = tracer.summary(time.perf_counter() - start)
    assert summary["spanned_s"] / summary["window_s"] > 0.95
    assert 0.3 < spans.coverage(summary) < 0.7


def test_harness_timeout_prints_no_result():
    """A run past its time limit kills its child and prints no result."""
    script = ("import sys, run; run.MIN_RUN_LIMIT_S = 0.5; "
              "run.RUN_LIMIT_FACTOR = 0; sys.exit(run.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", script, "--workload", "search-layer-bits",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--scale", "toy"],
        cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "harness timeout" in proc.stderr


def test_refuses_without_program(tmp_path):
    """A checkout holding only the benchmark prints no result, exits non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
