"""Weight initialization: Kaiming/He normal, and constants.

All initializers take an explicit ``rng`` so experiments are reproducible
end to end; the paper initializes models "with random weights" and we fix
seeds per experiment config.

Random draws always happen in float64 — the generator stream is therefore
identical on every backend — and are then narrowed to the active
backend's dtype, so a float32 run cannot mix float64 parameters.
"""

from __future__ import annotations

import numpy as np

from repro.backend import active_backend


def _fan_in_fan_out(shape: tuple) -> tuple[int, int]:
    """Compute fan-in/fan-out for linear (O, I) and conv (O, I, k, k) shapes."""
    if len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 4:
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        raise ValueError(f"unsupported weight shape {shape}")
    return fan_in, fan_out


def kaiming_normal(shape: tuple, rng: np.random.Generator, gain: float = np.sqrt(2.0)) -> np.ndarray:
    """He-normal initialization suited to ReLU networks."""
    fan_in, _ = _fan_in_fan_out(shape)
    std = gain / np.sqrt(fan_in)
    return active_backend().rng_array(rng.normal(0.0, std, size=shape))


def zeros(shape: tuple) -> np.ndarray:
    return active_backend().zeros(shape)


def ones(shape: tuple) -> np.ndarray:
    return active_backend().ones(shape)
