"""E15 — Speculative search wall-clock speedup on the bench search.

Drives the real ``search-vgg19-layer-bits`` stack — the layer-bits
scheduler over the Table II(a) vgg19 config, wrapped in
``SpeculativeScheduler``, through the real ``SweepRunner`` and
executors with live confirm/cancel traffic — twice: strictly
sequentially (``jobs=1``) and speculatively (``--jobs 4 --speculate
3``, racing the eqn.-3 step, its fallbacks, and the energy-ranked
layer moves on idle workers).

Trials are *fixed-latency surrogates*: each sleeps ``TRIAL_SECONDS``
and returns a deterministic payload that is a pure function of its
config (the same landscape family the bit-identity regression uses,
widened to a 17-layer vgg19-shaped vector).  Surrogates rather than
real compute because speculation's entire win is overlap — racing
predicted trials on otherwise-idle workers — and real trials are
CPU-bound, so measuring them benchmarks the host's core count, not
the orchestration (the bench container pins to a single core, where
CPU-bound overlap is physically zero).  Fixed-latency trials overlap
on any host, so the number below is the pipelining win of the
speculation machinery itself; on a multi-core host the same overlap
applies to real fast-backend trials, which is what ``--speculate``
ships for.

Each mode is timed ``REPRO_BENCH_REPEATS`` times (the *minimum* is
the honest cost) and the measured pair is written to
``.bench/BENCH_PR9.json`` (gitignored; the committed ``BENCH_PR9.json``
at the repo root is the historical record).  The test fails if
speculation drops under 1.3x (the CI floor).

Speculation is an execution knob, not a search knob, so the test also
asserts the two runs chose the *same trials* and the same winning bit
vector — a speedup that changed the search's answer would be a bug,
not a win.
"""

import os
import time

from repro.api import experiments
from repro.orchestration.search import run_search

from common import write_bench_record

TRIAL_SECONDS = 0.75
LAYERS = tuple(f"layer{i:02d}" for i in range(17))
# Geometrically decaying per-layer energy weights: the decay factor
# stays under (bits-1)/bits for every reachable width, so one-bit
# moves never reorder the energy ranking and the layer search's
# accept-guess bets (ranked with stale incumbent energies) line up
# with the sequential moves — the landscape rewards speculation the
# way a clearly-separated real energy profile does.
WEIGHTS = {name: 40.0 * 0.6 ** i for i, name in enumerate(LAYERS)}
FEASIBLE_MEAN_BITS = 3.75
WORKLOAD = {
    "preset": "search-vgg19-layer-bits",
    "trial_model": "fixed-latency surrogate (see module docstring)",
    "trial_seconds": TRIAL_SECONDS,
    "layers": len(LAYERS),
    "jobs": 4,
    "speculate": 3,
}
MIN_SPEEDUP = 1.3


def _vector_of(config_dict: dict) -> dict:
    quant = config_dict["quant"]
    pinned = quant.get("layer_bits") or {}
    return {
        name: pinned.get(name, quant["initial_bits"]) for name in LAYERS
    }


def surrogate_execute(task: dict) -> dict:
    """A trial of fixed latency whose outcome is pure in the config.

    Module-level so it pickles into process-pool workers.  The sleep
    stands in for training; the payload mirrors real runs closely
    enough for the search machinery (report row with bit widths /
    accuracy / total AD, analytical per-layer energies).
    """
    time.sleep(TRIAL_SECONDS)
    vector = _vector_of(task["config"])
    mean_bits = sum(vector.values()) / len(vector)
    accuracy = 0.9 if mean_bits >= FEASIBLE_MEAN_BITS else 0.6
    total_ad = min(0.95, max(0.05, 0.55 + 0.02 * (mean_bits - 8)))
    per_layer = {name: bits * WEIGHTS[name] for name, bits in vector.items()}
    model_pj = sum(per_layer.values())
    baseline_pj = 16 * sum(WEIGHTS.values())
    return {
        "index": task["index"],
        "status": "ok",
        "payload": {
            "report": {
                "architecture": "bench-vgg19",
                "dataset": "bench-data",
                "layer_names": list(LAYERS),
                "rows": [{
                    "iteration": 1,
                    "label": "bench",
                    "bit_widths": [vector[name] for name in LAYERS],
                    "channel_counts": None,
                    "test_accuracy": accuracy,
                    "total_ad": total_ad,
                    "energy_efficiency": baseline_pj / model_pj,
                    "epochs": 1,
                    "train_complexity": 1.0,
                }],
            },
            "artifacts": {
                "analytical_energy": {
                    "model_total_pj": model_pj,
                    "baseline_total_pj": baseline_pj,
                    "per_layer_pj": per_layer,
                },
            },
        },
        "duration": TRIAL_SECONDS,
    }


def _bench_search(speculation: int):
    search = experiments.get_search(WORKLOAD["preset"])
    base = experiments.get_config(search.preset)
    return search.evolve(base=base, preset="", speculation=speculation)


def _timed_run(speculation: int, jobs: int):
    start = time.perf_counter()
    result = run_search(_bench_search(speculation), jobs=jobs,
                        execute=surrogate_execute)
    seconds = time.perf_counter() - start
    return seconds, result


def test_speculative_search_speedup():
    repeats = max(1, int(os.environ.get("REPRO_BENCH_REPEATS", "2")))
    sequential_times, speculative_times = [], []
    for _ in range(repeats):
        seconds, sequential = _timed_run(0, jobs=1)
        sequential_times.append(seconds)
        seconds, speculative = _timed_run(
            WORKLOAD["speculate"], jobs=WORKLOAD["jobs"])
        speculative_times.append(seconds)
    sequential_seconds = min(sequential_times)
    speculative_seconds = min(speculative_times)
    speedup = sequential_seconds / speculative_seconds
    stats = speculative.stats

    bench_path = write_bench_record("BENCH_PR9.json", {
        "workload": WORKLOAD,
        "repeats": repeats,
        "sequential_seconds": round(sequential_seconds, 3),
        "speculative_seconds": round(speculative_seconds, 3),
        "speedup": round(speedup, 2),
        "trials": len(sequential.points),
        "speculated": stats["speculated"],
        "confirmed": stats["confirmed"],
        "cancelled": stats["cancelled"],
        "wasted_trials": stats["wasted_trials"],
    })

    print()
    print(f"sequential:  {sequential_seconds:6.2f}s  "
          f"({len(sequential.points)} trials)")
    print(f"speculative: {speculative_seconds:6.2f}s  "
          f"({stats['confirmed']}/{stats['speculated']} bets confirmed, "
          f"{stats['wasted_trials']} wasted)")
    print(f"speedup:     {speedup:.2f}x  -> {bench_path}")

    # Bit-identity first: the races must not change the search's answer.
    assert [p.label for p in speculative.points] \
        == [p.label for p in sequential.points]
    assert (speculative.best.key if speculative.best else None) \
        == (sequential.best.key if sequential.best else None)
    assert stats["speculated"] == stats["confirmed"] + stats["cancelled"]
    assert speedup >= MIN_SPEEDUP, (
        f"speculative search is only {speedup:.2f}x over sequential "
        f"(floor {MIN_SPEEDUP}x)"
    )
