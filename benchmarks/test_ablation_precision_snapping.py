"""Ablation — PIM design choices (README, "Scale and substitutions").

1. Hardware precision snapping {2,4,8,16} vs ideal per-bit widths: how
   much efficiency does the restricted precision set cost?
2. Operand-precision accounting: operand-max (bit-serial input at the
   producer's width) vs weight-only (idealized).
"""

from repro.energy import profile_model, trace_geometry
from repro.models import vgg19
from repro.pim import PIMEnergyModel
from repro.quant import LayerQuantSpec, QuantizationPlan
from repro.utils import format_table

from common import PAPER_VGG19_BITS_ITER2


def interpolated_energy_table():
    """A fictional PIM supporting every integer precision 1..16.

    Per-MAC energy interpolated from Table IV with the observed
    super-linear exponent."""
    table = {}
    # Fit E = a * k^p through (2, 2.942) and (16, 276.676).
    import math

    p = math.log(276.676 / 2.942) / math.log(16 / 2)
    a = 2.942 / (2**p)
    for bits in range(1, 17):
        table[bits] = a * bits**p
    return table


def run():
    model = vgg19(num_classes=10, width_multiplier=1.0)
    trace_geometry(model, (3, 32, 32))
    names = model.layer_handles().names()
    plan = QuantizationPlan(
        [LayerQuantSpec(n, b) for n, b in zip(names, PAPER_VGG19_BITS_ITER2)]
    )
    baseline = profile_model(model, default_bits=16)
    mixed = profile_model(model, plan=plan)

    snapped = PIMEnergyModel()  # {2,4,8,16}, operand-max
    ideal_grid = PIMEnergyModel(interpolated_energy_table())  # every width
    weight_only = PIMEnergyModel(precision_rule="weight-only")

    return {
        "snapped + operand-max": snapped.energy_reduction(baseline, mixed),
        "ideal per-bit grid": ideal_grid.energy_reduction(baseline, mixed),
        "snapped + weight-only": weight_only.energy_reduction(baseline, mixed),
    }


def test_ablation_precision_snapping_and_rule(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["Configuration", "Energy reduction (VGG19 mixed)"],
            [[name, f"{value:.2f}x"] for name, value in results.items()],
            title="Ablation — precision snapping and operand accounting",
        )
    )
    # Supporting arbitrary widths would only help (snapping rounds up).
    assert results["ideal per-bit grid"] >= results["snapped + operand-max"]
    # Ignoring input-activation width inflates the estimated benefit.
    assert results["snapped + weight-only"] > results["snapped + operand-max"]
