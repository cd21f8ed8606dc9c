#!/usr/bin/env python3
"""perfbench: time repro's trial and search workloads and check their outputs.

Run from the repository root::

    python3 perfbench/run.py --workload trial-fast --seed 1 --seconds 10 --trace 0

Every repetition runs in a fresh process (``child.py``) so set-up is
measured from launch.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs half as many seeds, each untraced and then traced,
and prints the per-layer metrics.  The last line of standard output is
the result JSON; the line before it is the run record (host, versions,
probe).  A run that outlives its time limit is a harness timeout: it
prints no result and exits 3.  See ``perfbench/README.md`` for the
workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostinfo
import spans
from checks import PINNED_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

# The repetition count is max(min_reps, ceil(--seconds / nominal_s)),
# where nominal_s is one repetition's length on a quiet 2-core host, so
# a run's inputs depend on --seed and --seconds only, never on how fast
# the host is today.  A trial run keeps a second repetition, at a seed
# drawn from --seed, because it narrows the spread of the times across
# runs; a search repetition already runs ten trials.
WORKLOADS = {
    "trial-fast": {"kind": "trial", "backend": "fast", "min_reps": 2,
                   "nominal_s": {"bench": 3.4, "toy": 0.5}},
    "trial-reference": {"kind": "trial", "backend": "reference",
                        "min_reps": 2,
                        "nominal_s": {"bench": 10.4, "toy": 0.5}},
    "search-layer-bits": {"kind": "search", "backend": "fast", "min_reps": 1,
                          "nominal_s": {"bench": 20.0, "toy": 2.0}},
}
SETUP_LAUNCHES = 4
# One BLAS/OpenMP thread everywhere: in this process (the host probe)
# and, through the inherited environment, in every child and search
# worker, always before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# A run's time limit is RUN_LIMIT_FACTOR times the nominal length of its
# full repetitions, and at least MIN_RUN_LIMIT_S: a --seconds 10 run,
# which took up to 47 s in a slow host phase, keeps over three times
# that and still ends within 180 s.
RUN_LIMIT_FACTOR = 4
MIN_RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "samples/s",
    "trials_per_min": "trials/min",
    "peak_rss_mb": "MB",
    "final_accuracy": "fraction",
    "energy_efficiency": "x",
    "pim_energy_reduction": "x",
    "train_complexity": "x",
    "completed_trials_frac": "fraction",
}

# ArrayBackend methods the three workloads call; each gets a self-time
# and a call-count metric.
BACKEND_METHODS = (
    "asarray", "zeros", "ones", "rng_array", "matmul", "im2col", "col2im",
    "fake_quant", "adam_update", "batchnorm_train", "batchnorm_eval",
    "batchnorm_bwd", "cross_entropy_fwd", "cross_entropy_bwd", "linear_fwd",
    "linear_bwd", "maxpool_fwd", "maxpool_bwd",
)

PER_LAYER = [
    "api.build_context_s",
    "phase.data_wait_s", "data.batches",
    "core.epochs", "core.train_samples", "core.steps", "core.loop_self_s",
    "phase.eval_s",
    "phase.forward_s", "nn.forward_self_s", "phase.optimizer_s",
    "phase.backward_s", "autograd.backward_self_s",
    "phase.fake_quant_s", "quant.fake_quant_calls",
    "phase.density_s", "density.update_calls",
    "phase.energy_s", "pim.network_energy_s",
    *[f"backend.{m}{suffix}" for m in BACKEND_METHODS
      for suffix in ("_s", "_calls")],
    "orchestration.scheduler_s", "orchestration.drive_s",
    "orchestration.cache_load_s", "orchestration.cache_store_s",
    "orchestration.executor_wait_s", "orchestration.trial_s_p50",
    "orchestration.trial_s_max", "orchestration.worker_busy_frac",
    "orchestration.cpu_s", "orchestration.bets_speculated",
    "orchestration.bets_confirmed", "orchestration.wasted_trials",
    "orchestration.bet_confirm_ratio",
    "cli.out_write_s", "cli.out_writes",
    "trace.overhead_frac", "trace.coverage_frac",
]


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith("_p50") or name.endswith("_max"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "fraction"
    return "count"


class HarnessTimeout(Exception):
    """The run outlived its time limit, so it has no result to print."""


def config_seeds(seed: int, count: int) -> list[int]:
    """Config seeds of a run's repetitions: the presets' own, then drawn.

    The first repetition of every run uses the presets' seed, so the
    pinned output checks run, and the quality metrics are measured, on
    the same trial in every run.
    """
    return [PINNED_SEED] + [100 * seed + rep for rep in range(1, count)]


class Launcher:
    """Starts child repetitions and collects what each one reports."""

    def __init__(self, workload: str, scale: str, work: Path, deadline: float):
        self.spec = WORKLOADS[workload]
        self.scale = scale
        self.work = work
        self.deadline = deadline
        path = [str(ROOT / "src"), str(HERE), os.environ.get("PYTHONPATH", "")]
        # Temporary files (the C compiler's included) stay in the run's
        # own directory inside the checkout.
        (work / "tmp").mkdir()
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join(filter(None, path)),
                        REPRO_CKERNEL_CACHE=str(STATE / "ckernels"),
                        TMPDIR=str(work / "tmp"))
        for name in ("REPRO_NO_CKERNELS", "REPRO_DISABLE_KERNELS"):
            self.env.pop(name, None)
        self.launches = 0

    def __call__(self, mode: str, seed: int = PINNED_SEED) -> dict:
        """Run one child in ``mode`` at config seed ``seed``; its result."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise HarnessTimeout(f"no time left for a {mode} repetition")
        self.launches += 1
        rep_dir = self.work / f"{self.launches:03d}-{mode}"
        rep_dir.mkdir()
        result_path = rep_dir / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--kind", self.spec["kind"], "--backend", self.spec["backend"],
               "--scale", self.scale, "--config-seed", str(seed),
               "--work", str(rep_dir), "--result", str(result_path)]
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=sys.stderr,
                                start_new_session=True)
        usage, expired = _wait(proc, left)
        if expired:
            raise HarnessTimeout(f"a {mode} repetition was killed at the "
                                 "run's time limit")
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = {"status": "failed",
                      "error": f"child exited with code {proc.returncode}"}
        if result["status"] == "failed":
            print(f"perfbench: {mode} repetition failed:\n{result.get('error')}",
                  file=sys.stderr)
        result.update(
            launched=launched,
            peak_rss_mb=usage.ru_maxrss / 1024,
            cpu_s=usage.ru_utime + usage.ru_stime,
        )
        return result


def _wait(proc, timeout: float):
    """Reap ``proc`` (killing its process group after ``timeout``).

    Returns the resource usage of the child and every descendant it
    reaped, whose ``ru_maxrss`` is the largest resident set among them,
    and whether the timeout killed it.
    """
    expired = []

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def expire():
        expired.append(True)
        kill()

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill()  # nothing the child started may outlive it
    return usage, bool(expired)


def wall(rep: dict) -> float:
    return rep["end"] - rep["setup_end"]


def tally(reps: list[dict]) -> tuple[int, int]:
    """Trials attempted and failed; a crashed child fails what it attempted."""
    attempted = sum(rep.get("attempted", 1) for rep in reps)
    failed = sum(rep.get("failed", rep.get("attempted", 1)) for rep in reps)
    return attempted, failed


def end_to_end_metrics(timed: list[dict], setups: list[dict]) -> dict:
    """Times as medians over the repetitions; quality of the first."""
    ok = [rep for rep in timed if rep["status"] == "ok"]
    setup = [rep["setup_end"] - rep["launched"]
             for rep in setups + ok if "setup_end" in rep]
    metrics = dict.fromkeys(END_TO_END, 0.0)
    if ok:
        metrics.update(
            setup_s=statistics.median(setup),
            wall_s=statistics.median(wall(rep) for rep in ok),
            train_samples_per_s=statistics.median(
                rep["train_samples"] / wall(rep) for rep in ok),
            trials_per_min=statistics.median(
                60 * rep["kept_trials"] / wall(rep) for rep in ok),
            peak_rss_mb=statistics.median(rep["peak_rss_mb"] for rep in ok),
        )
    if timed[0]["status"] == "ok":  # the presets' seed
        metrics.update(timed[0]["quality"])
    return metrics


def layer_metrics(rep: dict, kind: str) -> dict:
    """Per-layer metrics of one traced repetition."""
    trace = rep["trace"]
    totals, phases, counters = trace["spans"], trace["phases"], trace["counters"]

    def own(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    metrics = {
        "api.build_context_s": own("api.build_context"),
        "phase.data_wait_s": phases.get("data_wait", 0.0),
        "data.batches": counters.get("data.batches", 0),
        "core.epochs": calls("core.train_epoch"),
        "core.train_samples": counters.get("core.train_samples", 0),
        "core.steps": calls("nn.optimizer_step"),
        "core.loop_self_s": own("core.train_epoch"),
        "phase.eval_s": phases.get("eval", 0.0),
        "phase.forward_s": phases.get("forward", 0.0),
        "nn.forward_self_s": own("nn.forward"),
        "phase.optimizer_s": phases.get("optimizer", 0.0),
        "phase.backward_s": phases.get("backward", 0.0),
        "autograd.backward_self_s": own("autograd.backward"),
        "phase.fake_quant_s": phases.get("fake_quant", 0.0),
        "quant.fake_quant_calls": calls("quant.fake_quant"),
        "phase.density_s": phases.get("density", 0.0),
        "density.update_calls": calls("density.update"),
        "phase.energy_s": phases.get("energy", 0.0),
        "pim.network_energy_s": own("pim.network_energy"),
        "cli.out_write_s": own("cli.out_write"),
        "cli.out_writes": calls("cli.out_write"),
        "trace.coverage_frac": spans.coverage(trace),
    }
    for method in BACKEND_METHODS:
        metrics[f"backend.{method}_s"] = own(f"backend.{method}")
        metrics[f"backend.{method}_calls"] = calls(f"backend.{method}")
    for part in ("scheduler", "drive", "cache_load", "cache_store"):
        metrics[f"orchestration.{part}_s"] = own(f"orchestration.{part}")
    metrics["orchestration.executor_wait_s"] = own("orchestration.executor_wait")
    if kind == "search":
        stats = rep["stats"]
        durations = rep["trial_durations"]
        metrics.update({
            "orchestration.trial_s_p50": statistics.median(durations),
            "orchestration.trial_s_max": max(durations),
            "orchestration.worker_busy_frac": rep["worker_busy_frac"],
            "orchestration.cpu_s": rep["cpu_s"],
            "orchestration.bets_speculated": stats.get("speculated", 0),
            "orchestration.bets_confirmed": stats.get("confirmed", 0),
            "orchestration.wasted_trials": stats.get("wasted_trials", 0),
            "orchestration.bet_confirm_ratio": (
                stats.get("confirmed", 0) / stats["speculated"]
                if stats.get("speculated") else 0.0),
        })
    return metrics


def per_layer_metrics(pairs: list[tuple[dict, dict]], kind: str) -> dict:
    ok = [(plain, traced) for plain, traced in pairs
          if plain["status"] == "ok" and traced["status"] == "ok"]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if not ok:
        return metrics
    per_rep = [layer_metrics(traced, kind) for _, traced in ok]
    for name in per_rep[0]:
        metrics[name] = statistics.median(rep[name] for rep in per_rep)
    metrics["trace.overhead_frac"] = statistics.median(
        wall(traced) / wall(plain) - 1 for plain, traced in ok)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the config seeds of every repetition "
                             "after the first, which runs the presets' seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "toy"), default="bench",
                        help="toy runs the seconds-scale smoke presets")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    started = time.monotonic()
    spec = WORKLOADS[args.workload]
    reps = max(spec["min_reps"],
               math.ceil(args.seconds / spec["nominal_s"][args.scale]))
    pairs = max(1, reps // 2)
    full_launches = 2 * pairs if args.trace else reps
    limit = max(MIN_RUN_LIMIT_S, RUN_LIMIT_FACTOR * full_launches
                * spec["nominal_s"][args.scale])
    STATE.mkdir(exist_ok=True)
    work = STATE / f"run-{os.getpid()}-{time.time_ns()}"
    work.mkdir()
    try:
        launch = Launcher(args.workload, args.scale, work, started + limit)
        record = {"workload": args.workload, "seed": args.seed,
                  "scale": args.scale, "trace": args.trace,
                  **hostinfo.fingerprint(ROOT)}
        warm = launch("warmup")
        if warm["status"] != "ok":
            print("perfbench: the program does not load", file=sys.stderr)
            return 2
        record["program"] = {k: warm[k] for k in
                             ("python", "numpy", "blas", "kernel_tiers")}
        record["probe_before"] = hostinfo.probe()
        if args.trace:
            traced = [(launch("full", seed), launch("traced", seed))
                      for seed in config_seeds(args.seed, pairs)]
            ran = [rep for pair in traced for rep in pair]
            metrics = per_layer_metrics(traced, spec["kind"])
            units = {name: layer_unit(name) for name in PER_LAYER}
        else:
            setups = [launch("setup") for _ in range(SETUP_LAUNCHES)]
            timed = [launch("full", seed)
                     for seed in config_seeds(args.seed, reps)]
            metrics = end_to_end_metrics(timed, setups)
            units = END_TO_END
            ran = timed + [rep for rep in setups if rep["status"] != "setup"]
        record["probe_after"] = hostinfo.probe()
    except HarnessTimeout as exc:
        print(f"perfbench: harness timeout after {limit:.0f} s: {exc}",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = tally(ran)
    if not args.trace:
        metrics["completed_trials_frac"] = (attempted - failed) / attempted
    record["repetitions"] = [{
        "setup_s": rep["setup_end"] - rep["launched"] if "setup_end" in rep else None,
        "wall_s": wall(rep) if rep["status"] == "ok" else None,
        **{key: rep.get(key)
           for key in ("status", "checks", "quality", "facts", "stats")},
    } for rep in ran]
    record["seconds_elapsed"] = time.monotonic() - started
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
