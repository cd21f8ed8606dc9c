"""Layers required by the paper's VGG19/ResNet18 experiments.

Quantization hook
-----------------
``Conv2d`` and ``Linear`` expose a ``weight_fake_quant`` attribute
(default ``None``).  The quantization machinery in :mod:`repro.quant`
installs a :class:`~repro.quant.fakequant.FakeQuantize` there; when set,
the weight is passed through it on every forward, implementing the
paper's in-training quantized forward propagation (W_q used in forward,
float master weights updated in backward — a straight-through estimator).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.autograd import conv as conv_ops
from repro.autograd import functional as F
from repro.backend import active_backend
from repro.nn import init
from repro.nn.module import Module, Parameter


class Conv2d(Module):
    """2-D convolution with square kernels.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts; ``weight`` has shape (O, I, k, k).
    kernel_size, stride, padding:
        Spatial hyper-parameters (square/symmetric only).
    bias:
        Whether to add a per-output-channel bias.
    rng:
        Generator for Kaiming-normal weight init (fresh default if None).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.weight_fake_quant = None

    def effective_weight(self) -> Tensor:
        """Weight as used in forward: fake-quantized when configured."""
        if self.weight_fake_quant is not None:
            return self.weight_fake_quant(self.weight)
        return self.weight

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.conv2d(
            x,
            self.effective_weight(),
            self.bias,
            stride=self.stride,
            padding=self.padding,
        )

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class Linear(Module):
    """Fully connected layer: ``y = x W^T + b`` with weight (O, I)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_normal((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.weight_fake_quant = None

    def effective_weight(self) -> Tensor:
        if self.weight_fake_quant is not None:
            return self.weight_fake_quant(self.weight)
        return self.weight

    def forward(self, x: Tensor) -> Tensor:
        weight = self.effective_weight()
        if x.data.ndim == 2:
            backend = active_backend()
            bias = self.bias
            out = backend.linear_fwd(
                x.data, weight.data, None if bias is None else bias.data
            )
            parents = (x, weight) if bias is None else (x, weight, bias)

            def backward(grad):
                gx, gw, gb = backend.linear_bwd(
                    grad, x.data, weight.data, bias is not None
                )
                return (gx, gw) if bias is None else (gx, gw, gb)

            return Tensor.from_op(out, parents, backward, "linear")
        out = x @ weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class BatchNorm2d(Module):
    """Batch normalization over (N, H, W) per channel, fused fwd/bwd.

    Tracks running statistics with exponential averaging for eval mode.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        backend = active_backend()
        self.gamma = Parameter(backend.ones(num_features))
        self.beta = Parameter(backend.zeros(num_features))
        # Running stats follow the backend dtype: float64 buffers would
        # otherwise promote every eval-mode forward under a float32 run.
        self.register_buffer("running_mean", backend.zeros(num_features))
        self.register_buffer("running_var", backend.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return self.forward_fused(x, fuse_relu=False)

    def forward_fused(self, x: Tensor, fuse_relu: bool = False) -> Tensor:
        """Forward pass, optionally folding a trailing relu into the node.

        ``fuse_relu`` is how :class:`~repro.models.blocks.ConvUnit`
        collapses its bn -> relu pair into one graph node; plain
        ``forward`` never fuses, so standalone BatchNorm2d semantics are
        unchanged.
        """
        if x.data.ndim != 4:
            raise ValueError("BatchNorm2d expects (N, C, H, W) input")
        if x.data.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} channels, got {x.data.shape[1]}"
            )
        gamma, beta = self.gamma, self.beta
        backend = active_backend()
        training = self.training
        if training:
            out, mean, var, residual = backend.batchnorm_train(
                x.data, gamma.data, beta.data, self.eps, fuse_relu
            )
            m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
            unbiased = var * m / max(m - 1, 1)
            self._set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * mean,
            )
            self._set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * unbiased,
            )
        else:
            out, residual = backend.batchnorm_eval(
                x.data, gamma.data, beta.data, self.running_mean,
                self.running_var, self.eps, fuse_relu,
            )

        def backward(grad):
            return backend.batchnorm_bwd(grad, gamma.data, residual, training)

        op = "batchnorm2d_relu" if fuse_relu else "batchnorm2d"
        return Tensor.from_op(out, (x, gamma, beta), backward, op)

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class ReLU(Module):
    """Rectified linear unit — the source of activation sparsity (AD)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(k={self.kernel_size}, s={self.stride})"


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.global_avg_pool2d(x)

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"


class Flatten(Module):
    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten_from(self.start_dim)

    def __repr__(self) -> str:
        return f"Flatten(start_dim={self.start_dim})"


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:
        return "Identity()"
