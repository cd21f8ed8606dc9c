"""E14/E18 — Fast-backend wall-clock speedup on the bench search trial.

Times one quantization-schedule trial (the ``vgg19-cifar10-quant``
search base at bench width 0.5 / 32x32 inputs, one iteration) on two
configurations from the same seeds:

* ``fused fast`` — the float32 backend as shipped: fused elementwise
  chains (relu / batchnorm / softmax / losses / maxpool) on the
  compiled C kernels where they load, their numpy fallbacks elsewhere;
* ``reference`` — the float64 reference engine.

Each leg is timed ``REPRO_BENCH_REPEATS`` times (the host is shared, so
the *minimum* is the honest cost of the code) and the measured pair is
written to ``.bench/BENCH_PR10.json`` (gitignored; the committed
``BENCH_PR10.json`` at the repo root is the historical record).  The
test fails if the fast backend drops under 5x over the reference.

The fast run must also land in the reference run's accuracy
neighbourhood: a speedup bought with a broken training loop is a bug,
not a win.
"""

import os
import time

from repro.api import experiments

from common import write_bench_record

WORKLOAD = {
    "preset": "vgg19-cifar10-quant",
    "width_multiplier": 0.5,
    "image_size": 32,
    "max_iterations": 1,
    "epochs_per_iteration": 1,
}
MIN_FUSED_OVER_REFERENCE = 5.0


def _trial(backend: str):
    config = experiments.get_config(WORKLOAD["preset"]).evolve(
        backend=backend,
        model={"width_multiplier": WORKLOAD["width_multiplier"],
               "image_size": WORKLOAD["image_size"]},
        data={"image_size": WORKLOAD["image_size"]},
        quant={"max_iterations": WORKLOAD["max_iterations"],
               "max_epochs_per_iteration": WORKLOAD["epochs_per_iteration"],
               "min_epochs_per_iteration": WORKLOAD["epochs_per_iteration"]},
    )
    start = time.perf_counter()
    report = experiments.Experiment(config).run()
    seconds = time.perf_counter() - start
    return seconds, report.rows[-1].test_accuracy


def test_fused_fast_backend_speedup_on_bench_trial():
    repeats = max(1, int(os.environ.get("REPRO_BENCH_REPEATS", "2")))
    _trial("fast")  # warmup: kernel builds, allocator growth, BLAS init
    fused_times, reference_times = [], []
    for _ in range(repeats):
        seconds, fused_accuracy = _trial("fast")
        fused_times.append(seconds)
        seconds, reference_accuracy = _trial("reference")
        reference_times.append(seconds)
    fused_seconds = min(fused_times)
    reference_seconds = min(reference_times)
    fused_over_reference = reference_seconds / fused_seconds

    bench_path = write_bench_record("BENCH_PR10.json", {
        "workload": WORKLOAD,
        "repeats": repeats,
        "reference_seconds": round(reference_seconds, 3),
        "fused_fast_seconds": round(fused_seconds, 3),
        "fused_over_reference": round(fused_over_reference, 2),
        "reference_accuracy": round(reference_accuracy, 4),
        "fused_accuracy": round(fused_accuracy, 4),
    })

    print()
    print(f"reference:  {reference_seconds:6.2f}s  "
          f"(acc {reference_accuracy:.3f})")
    print(f"fused fast: {fused_seconds:6.2f}s  (acc {fused_accuracy:.3f})")
    print(f"fused/reference: {fused_over_reference:.2f}x  -> {bench_path}")

    assert abs(fused_accuracy - reference_accuracy) <= 0.15
    assert fused_over_reference >= MIN_FUSED_OVER_REFERENCE, (
        f"fused fast is only {fused_over_reference:.2f}x over reference "
        f"(floor {MIN_FUSED_OVER_REFERENCE}x)"
    )
