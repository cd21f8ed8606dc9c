"""Uniform min-max quantization (paper eqn. 1).

    x_q = round((x - x_min) * (2^k - 1) / (x_max - x_min))

maps ``x`` onto the integer grid {0, ..., 2^k - 1}; dequantization maps
the grid back onto the original range.  Fake quantization composes the
two, producing float values restricted to 2^k levels.
"""

from __future__ import annotations

import numpy as np


def quantize(x: np.ndarray, bits: int, x_min: float | None = None,
             x_max: float | None = None, dtype=np.float64) -> np.ndarray:
    """Quantize ``x`` to integer codes on {0, ..., 2^bits - 1} (eqn. 1).

    ``x_min``/``x_max`` default to the data's own range (dynamic
    quantization, as used by the paper's in-training method).  A
    degenerate range (x_max == x_min) maps everything to code 0.  The
    arithmetic runs in ``dtype``: float64 as in the seed, or an array
    backend's own.
    """
    if bits < 1:
        raise ValueError("bit-width must be >= 1")
    x = np.asarray(x, dtype=dtype)
    lo = float(x.min()) if x_min is None else float(x_min)
    hi = float(x.max()) if x_max is None else float(x_max)
    if hi < lo:
        raise ValueError("x_max must be >= x_min")
    levels = (1 << bits) - 1
    if hi == lo:
        return np.zeros(x.shape, dtype=np.int64)
    scaled = (np.clip(x, lo, hi) - lo) * (levels / (hi - lo))
    return np.round(scaled).astype(np.int64)


def dequantize(codes: np.ndarray, bits: int, x_min: float, x_max: float,
               dtype=np.float64) -> np.ndarray:
    """Map integer codes back to ``dtype`` values on [x_min, x_max]."""
    if bits < 1:
        raise ValueError("bit-width must be >= 1")
    levels = (1 << bits) - 1
    if x_max == x_min:
        return np.full(np.asarray(codes).shape, x_min, dtype=dtype)
    return np.asarray(codes, dtype=dtype) * ((x_max - x_min) / levels) + x_min


class UniformQuantizer:
    """Stateful uniform quantizer with optional frozen calibration range.

    Parameters
    ----------
    bits:
        Bit-width ``k``; the grid has ``2^k`` levels.
    dynamic:
        When True (default) the range is recomputed from each input
        (matching the paper's training-time quantization); when False,
        :meth:`calibrate` must be called first and the stored range is
        reused — this mode feeds the PIM simulator, which needs fixed
        integer codes.
    """

    def __init__(self, bits: int, dynamic: bool = True):
        if bits < 1:
            raise ValueError("bit-width must be >= 1")
        self.bits = int(bits)
        self.dynamic = dynamic
        self.x_min: float | None = None
        self.x_max: float | None = None

    @property
    def num_levels(self) -> int:
        return 1 << self.bits

    def calibrate(self, x: np.ndarray) -> "UniformQuantizer":
        """Record the min/max range of ``x`` for static quantization."""
        x = np.asarray(x)
        self.x_min = float(x.min())
        self.x_max = float(x.max())
        return self

    def _range_for(self, x: np.ndarray) -> tuple[float, float]:
        if self.dynamic:
            return float(x.min()), float(x.max())
        if self.x_min is None or self.x_max is None:
            raise RuntimeError("static quantizer used before calibrate()")
        return self.x_min, self.x_max

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Return integer codes for ``x``."""
        lo, hi = self._range_for(np.asarray(x))
        return quantize(x, self.bits, lo, hi)

    def decode(self, codes: np.ndarray, reference: np.ndarray | None = None) -> np.ndarray:
        """Map codes back to floats using the stored/derived range."""
        if self.dynamic:
            if reference is None:
                raise ValueError("dynamic decode requires the reference input")
            lo, hi = float(np.min(reference)), float(np.max(reference))
        else:
            lo, hi = self._range_for(np.empty(0))
        return dequantize(codes, self.bits, lo, hi)

    def fake_quant(self, x: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Quantize-dequantize: ``dtype`` output restricted to 2^bits levels."""
        x = np.asarray(x, dtype=dtype)
        lo, hi = self._range_for(x)
        return dequantize(quantize(x, self.bits, lo, hi, dtype), self.bits,
                          lo, hi, dtype)

    def __repr__(self) -> str:
        mode = "dynamic" if self.dynamic else "static"
        return f"UniformQuantizer(bits={self.bits}, {mode})"
