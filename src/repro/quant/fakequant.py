"""Fake quantization as a differentiable graph node (STE).

The paper trains with quantized weights and activations in the forward
pass while updating float "master" weights in the backward pass.  That is
exactly a straight-through estimator: the quantize-dequantize step is
treated as identity for gradient purposes (within the clipping range,
which for dynamic min-max quantization is the whole input).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.backend import active_backend
from repro.quant.quantizer import UniformQuantizer


def STEQuantFunction(x: Tensor, quantizer: UniformQuantizer) -> Tensor:
    """Apply ``quantizer.fake_quant`` with a straight-through gradient.

    The quantize-dequantize kernel is backend-dispatched: each backend
    runs the quantizer's int-code round-trip in its own dtype (float64
    on the reference backend, float32 on the fast one), as one C loop
    in the same op order where the compiled tier loads.
    """
    out_data = active_backend().fake_quant(x.data, quantizer)

    def backward(grad):
        return (grad,)

    return Tensor.from_op(out_data, (x,), backward, f"fakequant[{quantizer.bits}b]")


class FakeQuantize:
    """Callable module-style wrapper installing eqn.-(1) fake quantization.

    Instances are attached to ``Conv2d.weight_fake_quant`` /
    ``Linear.weight_fake_quant`` and to the activation-quant slots of the
    model blocks.  ``bits`` is mutable: Algorithm 1 lowers it between
    quantization iterations without rebuilding the model.

    Parameters
    ----------
    bits:
        Initial bit-width.
    enabled:
        When False the wrapper is identity (used for the excluded first
        and last layers, which the paper keeps at full precision).
    """

    def __init__(self, bits: int, enabled: bool = True):
        self._quantizer = UniformQuantizer(bits, dynamic=True)
        self.enabled = enabled

    @property
    def bits(self) -> int:
        return self._quantizer.bits

    @bits.setter
    def bits(self, value: int) -> None:
        if value < 1:
            raise ValueError("bit-width must be >= 1")
        self._quantizer = UniformQuantizer(int(value), dynamic=True)

    def __call__(self, x: Tensor) -> Tensor:
        if not self.enabled:
            return x
        return STEQuantFunction(x, self._quantizer)

    def fake_quant_array(self, x: np.ndarray) -> np.ndarray:
        """Numpy-level fake quantization (no autograd), for analysis."""
        backend = active_backend()
        if not self.enabled:
            return backend.asarray(x)
        return backend.fake_quant(x, self._quantizer)

    def __repr__(self) -> str:
        state = f"{self.bits}b" if self.enabled else "disabled"
        return f"FakeQuantize({state})"
