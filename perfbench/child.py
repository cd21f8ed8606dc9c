"""One repetition of a perfbench workload, run in a fresh process.

``run.py`` launches this script once per repetition, with the BLAS
pools already pinned to one thread by the environment, and reads the
JSON it writes to ``--result``.  Time stamps come from the system-wide
monotonic clock, so the parent can measure set-up from its own launch
time.

Modes:

* ``warmup`` loads (and if needed compiles) the C kernels into the
  benchmark's kernel cache and reports what the program resolved:
  library versions, the BLAS runtime and the tier of each fast kernel.
* ``setup`` stops at the end of set-up: the first training epoch of a
  trial, or the first trial handed to the search's worker pool.
* ``full`` runs the workload and checks its outputs.
* ``traced`` is ``full`` with every layer's entry points timed (see
  :mod:`spans`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

import checks
import spans

PRESETS = {
    "bench": {"trial": "vgg19-cifar10-quant", "search": "search-vgg19-layer-bits"},
    "toy": {"trial": "vgg11-micro-smoke", "search": "search-smoke-layer-bits"},
}
SEARCH_JOBS = 2
SEARCH_SPECULATE = 3


class SetupDone(Exception):
    """Stops a ``setup`` launch once set-up has been timed."""


def trial_config(scale: str, backend: str, seed: int):
    """The trial preset on ``backend``, seeded, with PIM accounting on."""
    from repro.api import experiments

    return experiments.get_config(PRESETS[scale]["trial"]).evolve(
        backend=backend, energy={"pim": True},
        model={"seed": seed}, data={"seed": seed},
    )


def search_config(scale: str, seed: int):
    """The search preset with its base seeded and PIM accounting on."""
    from repro.api import experiments

    preset = experiments.get_search(PRESETS[scale]["search"])
    base = experiments.get_config(preset.preset).evolve(
        energy={"pim": True}, model={"seed": seed}, data={"seed": seed},
    )
    return preset.evolve(base=base, preset="")


def warmup() -> dict:
    import numpy as np

    from repro.backend import _ckernels, _numba

    names = sorted(set(_ckernels._WRAPPERS) | {"sgd_momentum"})
    tiers = {
        name: ("numba" if _numba.get_kernel(name) is not None
               else "c" if _ckernels.get_kernel(name) is not None
               else "numpy")
        for name in names
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "status": "ok",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "build_config": blas.get("openblas configuration"),
            **_openblas_runtime(),
        },
        "kernel_tiers": tiers,
    }


def _openblas_runtime() -> dict:
    """Thread count and core type OpenBLAS actually runs with."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype = ctypes.c_int
            threads.argtypes = []
            config.restype = ctypes.c_char_p
            config.argtypes = []
            return {"threads": threads(), "runtime_config": config().decode()}
    return {}


def run_trial(args, marks: dict, tracer) -> dict:
    from repro.api import PipelineCallback, experiments

    config = trial_config(args.scale, args.backend, args.config_seed)

    class MarkSetup(PipelineCallback):
        def on_pipeline_start(self, ctx):
            marks["setup_end"] = time.monotonic()
            if args.mode == "setup":
                raise SetupDone

    start = time.perf_counter()
    experiment = experiments.Experiment(config)
    report = experiment.run(callbacks=[MarkSetup()])
    marks["end"] = time.monotonic()
    window = time.perf_counter() - start
    facts = checks.trial_facts(report, experiment.artifacts)
    verdicts = checks.check_trial(facts, config, args.backend, args.scale)
    train_size = config.data.train_per_class * config.data.num_classes
    result = {
        "status": "ok",
        "attempted": 1,
        "failed": 0 if all(verdicts.values()) else 1,
        "checks": verdicts,
        "kept_trials": 1,
        "train_samples": sum(facts["epochs"]) * train_size,
        "quality": {
            "final_accuracy": facts["accuracy"],
            "energy_efficiency": facts["efficiency"],
            "pim_energy_reduction": facts["pim_reduction"],
            "train_complexity": facts["complexity"],
        },
        "facts": facts,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(window)
    return result


def run_search(args, marks: dict, tracer, trace_dir: Path | None) -> dict:
    from repro import cli
    from repro.orchestration import executor
    from repro.orchestration import search as search_module

    work = Path(args.work)
    config_path = work / "search-config.json"
    out_path = work / "search-out.json"
    search = search_config(args.scale, args.config_seed)
    search.to_json(config_path)

    handed = executor.ProcessExecutor.submit

    def submit(self, task):
        if "setup_end" not in marks:
            marks["setup_end"] = time.monotonic()
            if args.mode == "setup":
                raise SetupDone
        return handed(self, task)

    executor.ProcessExecutor.submit = submit
    returned = []
    run = search_module.run_search

    def run_and_keep(*a, **kw):
        returned.append(run(*a, **kw))
        return returned[-1]

    search_module.run_search = run_and_keep
    start = time.perf_counter()
    code = cli.main([
        "search", "--config", str(config_path), "--backend", args.backend,
        "--jobs", str(SEARCH_JOBS), "--speculate", str(SEARCH_SPECULATE),
        "--cache-dir", str(work / "cache"), "--out", str(out_path), "--quiet",
    ])
    marks["end"] = time.monotonic()
    window = time.perf_counter() - start
    if code != 0 or not returned:
        raise RuntimeError(f"repro search exited with code {code}")
    result_obj = returned[0]
    verdicts = checks.check_search(result_obj, json.loads(out_path.read_text()),
                                   args.scale)
    kept = [p for p in result_obj.points if p.status == "ok"]
    train_size = search.base.data.train_per_class * search.base.data.num_classes
    best = result_obj.best
    best_rows = best.payload["report"]["rows"] if best is not None else []
    attempted = len(result_obj.points)
    failed = attempted - len(kept)
    if not all(verdicts.values()):
        failed = attempted
    result = {
        "status": "ok",
        "attempted": attempted,
        "failed": failed,
        "checks": verdicts,
        "kept_trials": len(kept),
        "train_samples": sum(
            row["epochs"] for p in kept for row in p.payload["report"]["rows"]
        ) * train_size,
        "quality": {
            "final_accuracy": best_rows[-1]["test_accuracy"],
            "energy_efficiency": best_rows[-1]["energy_efficiency"],
            "pim_energy_reduction":
                best.payload["artifacts"]["pim_energy"]["reduction"],
            "train_complexity": best_rows[-1]["train_complexity"],
        },
        "stats": result_obj.stats,
        "trial_durations": [p.duration for p in kept],
    }
    if tracer is not None:
        workers = spans.load_worker_summaries(trace_dir)
        result["trace"] = spans.merge([tracer.summary(window)] + workers)
        result["worker_busy_frac"] = (
            sum(w["window_s"] for w in workers) / (SEARCH_JOBS * window))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("warmup", "setup", "full", "traced"),
                        required=True)
    parser.add_argument("--kind", choices=("trial", "search"))
    parser.add_argument("--backend", choices=("reference", "fast"))
    parser.add_argument("--scale", choices=sorted(PRESETS), default="bench")
    parser.add_argument("--config-seed", type=int, default=checks.PINNED_SEED)
    parser.add_argument("--work", help="scratch directory of this repetition")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    marks: dict = {}
    try:
        if args.mode == "warmup":
            result = warmup()
        else:
            tracer = trace_dir = None
            if args.mode == "traced":
                trace_dir = Path(args.work) / "trace"
                trace_dir.mkdir()
                tracer = spans.install(str(trace_dir))
            if args.kind == "trial":
                result = run_trial(args, marks, tracer)
            else:
                result = run_search(args, marks, tracer, trace_dir)
    except SetupDone:
        result = {"status": "setup"}
    except Exception:  # reported to the parent, which counts the failure
        result = {"status": "failed", "error": traceback.format_exc()}
    result.update(marks)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
