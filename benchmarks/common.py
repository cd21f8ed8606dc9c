"""Shared paper reference vectors for the benchmark harnesses.

Scaling note (see README, "Scale and substitutions"): the trained benchmarks run the *paper
topologies* (VGG19 = 16 conv + FC; ResNet18 = stem + 16 block convs +
FC) at reduced channel width and input resolution so that CPU-only
numpy training completes in minutes.  Those scale knobs live in the
experiment registry presets (``src/repro/api/experiments.py``), which
every trained bench — tables, figures and ablations alike — now
resolves through (the figure/ablation benches evolve the Table II(a)
preset; the saturation ablation runs the registered
``ablation-saturation`` sweep).  The hardware-energy benches (Tables
IV-VI) run at the paper's full width since they need no training; the
constants below are the paper's own bit/channel vectors they evaluate.

The timing benches write their measurements through
:func:`write_bench_record` into the gitignored ``.bench/`` directory;
the committed ``BENCH_PR*.json`` files at the repo root are history
and no run rewrites them.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / ".bench"


def write_bench_record(name: str, payload: dict) -> Path:
    """Write ``payload`` as ``.bench/<name>`` and return the path."""
    BENCH_DIR.mkdir(exist_ok=True)
    path = BENCH_DIR / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path

# Table II(a) iteration 2 bit-widths for VGG19/CIFAR-10 (17 layers).
PAPER_VGG19_BITS_ITER2 = [16, 4, 5, 4, 3, 2, 2, 2, 3, 3, 3, 4, 3, 3, 3, 3, 16]

# Table III(a) iteration 2 channel counts for VGG19 (16 conv layers).
PAPER_VGG19_PRUNED_CHANNELS = [
    19, 22, 38, 24, 45, 37, 44, 54, 103, 126, 150, 125, 122, 112, 111, 8,
]

# ResNet18 18-layer bit vector assembled from Table II(b) iteration 3:
# stem + 8 blocks x (conv1, conv2) + fc.
PAPER_RESNET18_BITS_ITER3 = [
    16, 5, 3, 3, 5, 1, 1, 8, 4, 4, 6, 4, 4, 8, 3, 3, 9, 16,
]

# Table III(b) iteration 2 channel counts (stem + 16 block convs).
PAPER_RESNET18_PRUNED_CHANNELS = [
    21, 12, 44, 6, 47, 34, 87, 34, 89, 58, 156, 50, 146, 110, 192, 59, 59,
]

PAPER_TABLE_V = {
    "VGG19/CIFAR-10": {"mixed_uj": 21.506, "full_uj": 110.154, "reduction": 5.12},
    "ResNet18/CIFAR-100": {"mixed_uj": 33.186, "full_uj": 159.501, "reduction": 4.81},
}

PAPER_TABLE_VI = {
    "VGG19/CIFAR-10": {"pruned_uj": 0.558, "full_uj": 110.154, "reduction": 197.55},
    "ResNet18/CIFAR-100": {"pruned_uj": 3.630, "full_uj": 159.501, "reduction": 43.941},
}
