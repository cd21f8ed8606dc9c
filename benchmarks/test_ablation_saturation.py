"""Ablation — saturation-detector sensitivity (README, "Scale and substitutions").

Algorithm 1 re-quantizes when AD "saturates"; the window/tolerance of
the detector controls how long each iteration trains.  The bench runs
the registered ``ablation-saturation`` sweep preset through the
orchestration layer's :class:`SweepRunner` (the same grid as
``repro sweep --preset ablation-saturation``) and reports
epochs-per-iteration and final efficiency, verifying the intuitive
monotonicity: looser tolerance -> earlier re-quantization -> fewer
epochs per iteration.
"""

from repro.api import experiments
from repro.orchestration import SweepRunner
from repro.utils import format_table


def run_sweep():
    sweep = experiments.get_sweep("ablation-saturation")
    result = SweepRunner(jobs=1).run(sweep)
    assert result.ok, [p.error for p in result.points if p.status == "failed"]
    return result


def test_ablation_saturation_tolerance(benchmark):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report = result.aggregate()

    print()
    rows = []
    first_iter_epochs = {}
    for point, entry in zip(result.points, report.entries):
        tolerance = point.config.quant.saturation_tolerance
        epochs = [row.epochs for row in entry.report.rows]
        first_iter_epochs[tolerance] = epochs[0]
        final = entry.report.rows[-1]
        rows.append(
            [
                f"{tolerance:g}",
                str(epochs),
                f"{final.total_ad:.3f}",
                f"{final.test_accuracy * 100:.1f}%",
            ]
        )
    print(
        format_table(
            ["Tolerance", "Epochs per iter", "Final total AD", "Final acc"],
            rows,
            title="Ablation — saturation tolerance sweep",
        )
    )

    # Looser tolerance never trains longer before re-quantizing.
    assert (
        first_iter_epochs[0.5]
        <= first_iter_epochs[0.05]
        <= first_iter_epochs[0.005]
    )
    # Loosest setting fires at the window bound.
    assert first_iter_epochs[0.5] == 3
