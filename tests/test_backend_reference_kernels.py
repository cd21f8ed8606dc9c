"""The compiled chains of both backends against the seed.

``ReferenceBackend`` runs eqn. 1's quantize -> dequantize chain, the
Adam update, training-mode batchnorm and max pooling as float64 C loops
where the C tier loads and takes the operands, and as the seed's numpy
chains otherwise; ``FastBackend`` runs the float32 instances of the
same loops.  The seed chains live on here as the oracle, verbatim but
for the dtype, which the seed fixed at float64 and which here is the
operands'.  Over grids of the bench trial's shapes, input and gradient
layouts, bit-widths, signed zeros, degenerate and non-finite values,
and Adam steps, with and without the C kernels on the reference
backend, and with them on the fast backend (fake-quant, Adam and
batchnorm):

1. every output — the fake-quantized array, the new parameter and the
   in-place moment buffers, batchnorm's output, statistics, residual
   and gradients, and both pooled arrays — has the seed's bytes and the
   seed's strides on every axis longer than one (a length-1 axis is
   never stepped);
2. the C loop ran exactly where it should: a dynamic quantizer with a
   finite, non-degenerate range over a dense input, Adam operands that
   are dense arrays of the backend's dtype laid out alike, and
   batchnorm and pooling operands with positive strides and contiguous
   rows, all aligned and in native byte order.  Static quantizers,
   non-finite or degenerate ranges, empty, misaligned or non-dense
   inputs, an F-ordered, big-endian or broadcast gradient and reversed,
   F-ordered, misaligned, big-endian or broadcast images take the seed
   path;
3. a hypothesis search over small shapes and those layouts finds no
   batchnorm, pooling, fake-quant or Adam input on which the two tiers
   differ, in bytes or strides: fake-quant over dynamic and static
   quantizers of 1-62 bits with signed zeros and NaN as extremes, Adam
   over operands laid out alike and not, with and without weight decay.
"""

import collections
import contextlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.fast import FastBackend
from repro.backend.reference import ReferenceBackend
from repro.quant import UniformQuantizer


# ----------------------------------------------------------------------
# The seed oracle: repro.quant.quantizer's quantize/dequantize as
# UniformQuantizer.fake_quant composes them, in ``dtype``, and the
# seed's Adam.
# ----------------------------------------------------------------------
def seed_fake_quant(x, bits, x_min=None, x_max=None, dtype=np.float64):
    x = np.asarray(x, dtype=dtype)
    lo = float(x.min()) if x_min is None else float(x_min)
    hi = float(x.max()) if x_max is None else float(x_max)
    levels = (1 << bits) - 1
    if hi == lo:
        codes = np.zeros(x.shape, dtype=np.int64)
    else:
        scaled = (np.clip(x, lo, hi) - lo) * (levels / (hi - lo))
        codes = np.round(scaled).astype(np.int64)
    if hi == lo:
        return np.full(np.asarray(codes).shape, lo, dtype=dtype)
    return np.asarray(codes, dtype=dtype) * ((hi - lo) / levels) + lo


def seed_adam(param, grad, m, v, lr, beta1, beta2, eps, weight_decay,
              bias1, bias2):
    if weight_decay:
        grad = grad + weight_decay * param
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / bias1
    v_hat = v / bias2
    return param - lr * m_hat / (np.sqrt(v_hat) + eps)


# The seed's batchnorm (BatchNorm2d.forward with its statistics and a
# relu node after it) and max pooling, over arrays.
def seed_batchnorm_train(x, gamma, beta, eps, fuse_relu):
    axes = (0, 2, 3)
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
    mask = None
    if fuse_relu:
        mask = out > 0
        out = out * mask
    return out, mean, var, (x_hat, inv_std, mask)


def seed_batchnorm_bwd(grad, gamma, residual):
    x_hat, inv_std, mask = residual
    if mask is not None:
        grad = grad * mask
    axes = (0, 2, 3)
    grad_gamma = (grad * x_hat).sum(axis=axes)
    grad_beta = grad.sum(axis=axes)
    scale = (gamma * inv_std)[None, :, None, None]
    mean_dy = grad.mean(axis=axes)[None, :, None, None]
    mean_dy_xhat = (grad * x_hat).mean(axis=axes)[None, :, None, None]
    grad_x = scale * (grad - mean_dy - x_hat * mean_dy_xhat)
    return grad_x, grad_gamma, grad_beta


def seed_max_pool(x, kernel, grad):
    n, c, h, w = x.shape
    out_h, out_w = h // kernel, w // kernel
    reshaped = x.reshape(n, c, out_h, kernel, out_w, kernel)
    windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, out_h, out_w, kernel * kernel
    )
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
    grad_windows = np.zeros_like(windows)
    np.put_along_axis(grad_windows, argmax[..., None], grad[..., None], axis=-1)
    g = grad_windows.reshape(n, c, out_h, out_w, kernel, kernel)
    return out, g.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _backends():
    """The reference backend as shipped (C where it loads) and with none."""
    shipped, numpy_only = ReferenceBackend(), ReferenceBackend()
    numpy_only._kernels = {}
    return [pytest.param(shipped, id="reference"),
            pytest.param(numpy_only, id="reference-numpy")]


BACKENDS = _backends()
C_TIER, NUMPY_TIER = (param.values[0] for param in BACKENDS)
# The fast backend runs the float32 instances of the same loops.
WITH_FAST = BACKENDS + [pytest.param(FastBackend(), id="fast")]


@contextlib.contextmanager
def counted(backend):
    """Count the C kernel calls that ran (returned True) on ``backend``."""
    calls = collections.Counter()

    def counting(name, kernel):
        def run(*args):
            ran = kernel(*args)
            calls[name] += ran
            return ran
        return run

    table = {name: counting(name, kernel)
             for name, kernel in backend._kernels.items()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "_kernels", table)
        yield calls


def _long_axis_strides(a):
    return tuple(s for s, d in zip(a.strides, a.shape) if d > 1)


def assert_seed_array(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), f"{what}: bytes differ"
    assert _long_axis_strides(got) == _long_axis_strides(want), (
        f"{what}: strides {got.strides} != seed {want.strides}")


def misaligned(a):
    """``a`` copied into a view one byte off an aligned buffer."""
    view = np.zeros(a.nbytes + 1, np.uint8)[1:].view(a.dtype).reshape(a.shape)
    view[...] = a
    return view


def channel_major(x):
    """``x`` laid out as a conv output: the (C, N, H, W) buffer, transposed."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def layouts(x):
    """``x`` in the layouts a fake-quant input arrives in, and whether
    each is dense (the C loop's precondition)."""
    yield "C", x, True
    if x.ndim == 4:
        yield "channel-major", channel_major(x), True
        yield "channel-major, every other channel", channel_major(x)[:, ::2], False
    yield "F", np.asfortranarray(x), True
    yield "reversed", x[::-1], False


# The bench trial's (vgg19-cifar10-quant, batch 25) weights and
# activations; its activations arrive channel-major.
WEIGHT_SHAPES = [(8, 3, 3, 3), (64, 64, 3, 3), (10, 64)]
ACTIVATION_SHAPES = [(25, 8, 16, 16), (25, 64, 2, 2), (25, 64, 1, 1)]
BITS = [*range(1, 17), 32, 62]


# ----------------------------------------------------------------------
# Fake quantization
# ----------------------------------------------------------------------
def check_fake_quant(backend, x, quantizer, runs_c, oracle_range=(None, None)):
    want = seed_fake_quant(x, quantizer.bits, *oracle_range,
                           dtype=backend.dtype)
    with counted(backend) as calls:
        got = backend.fake_quant(x, quantizer)
    assert_seed_array(got, want, f"fake_quant {x.shape} {quantizer}")
    expected = int(runs_c and "fake_quant" in backend._kernels)
    assert calls["fake_quant"] == expected, (
        f"C fake-quant ran {calls['fake_quant']} times, "
        f"expected {expected}")


# Per dtype: a range whose width overflows it, one whose width is
# subnormal (so levels / width overflows), and a value near the top of
# the dtype which, with the next value up, spans a range whose scales
# are both finite.
EXTREMES = {
    np.dtype(np.float64): ([-1.5e308, 0.0, 1.5e308], [0.0, 5e-324, 1e-323],
                           1e300),
    np.dtype(np.float32): ([-2e38, 0.0, 2e38], [0.0, 1e-45, 3e-45], 1e30),
}


@pytest.mark.parametrize("backend", WITH_FAST)
class TestFakeQuantMatchesSeed:
    @pytest.mark.parametrize("shape", WEIGHT_SHAPES + ACTIVATION_SHAPES)
    def test_bench_shapes_and_layouts(self, backend, shape):
        x = np.random.default_rng(0).normal(size=shape) * 0.3
        for _name, arr, dense in layouts(x.astype(backend.dtype)):
            for bits in (2, 8, 16):
                check_fake_quant(backend, arr, UniformQuantizer(bits), dense)

    @pytest.mark.parametrize("bits", BITS)
    def test_bits(self, backend, bits):
        rng = np.random.default_rng(bits)
        x = channel_major(rng.normal(size=(25, 8, 4, 4)) * 2.0 + 0.5)
        check_fake_quant(backend, x.astype(backend.dtype),
                         UniformQuantizer(bits), True)
        if bits <= 12:
            # Every half-way point between two codes (scale 1): exact
            # ties, which round half to even.
            levels = (1 << bits) - 1
            ties = np.arange(2 * levels + 1, dtype=backend.dtype) / 2.0
            check_fake_quant(backend, ties, UniformQuantizer(bits), True)

    @pytest.mark.parametrize("shape", ACTIVATION_SHAPES)
    def test_relu_outputs_carry_negative_zero(self, backend, shape):
        rng = np.random.default_rng(1)
        for seed_x in (rng.normal(size=shape), -np.abs(rng.normal(size=shape))):
            seed_x = seed_x.astype(backend.dtype)
            relu = seed_x * (seed_x > 0)  # -0.0 wherever seed_x < 0
            for _name, arr, dense in layouts(relu):
                degenerate = not arr.any()
                check_fake_quant(backend, arr, UniformQuantizer(4),
                                 dense and not degenerate)

    @pytest.mark.parametrize("values", [
        [3.0] * 12,
        [0.0] * 12,
        [-0.0] * 12,
        [0.0, -0.0] * 6,
        [-0.0, 0.0] * 6,
        [5e-324],
    ], ids=["constant", "zeros", "negative-zeros", "mixed-zeros",
            "mixed-zeros-negative-first", "one-subnormal"])
    def test_degenerate_ranges_take_the_seed_path(self, backend, values):
        check_fake_quant(backend, np.array(values, dtype=backend.dtype),
                         UniformQuantizer(8), False)

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_take_the_seed_path(self, backend, special):
        x = np.random.default_rng(2).normal(size=(4, 8, 3, 3))
        x = x.astype(backend.dtype)
        x[1, 2, 0, 1] = special
        with np.errstate(invalid="ignore"):
            check_fake_quant(backend, x, UniformQuantizer(8), False)

    def test_extreme_ranges(self, backend):
        dtype = backend.dtype
        wide, narrow, top = EXTREMES[dtype]
        with np.errstate(invalid="ignore", over="ignore"):
            # hi - lo overflows to inf: scale 0, inverse scale inf.
            check_fake_quant(backend, np.array(wide, dtype=dtype),
                             UniformQuantizer(8), False)
            # hi - lo is subnormal: levels / (hi - lo) overflows to inf.
            check_fake_quant(backend, np.array(narrow, dtype=dtype),
                             UniformQuantizer(16), False)
        # One ulp apart near the top of the range: both scales finite.
        top = dtype.type(top)
        top = np.array([top, np.nextafter(top, dtype.type(np.inf))] * 4)
        check_fake_quant(backend, top, UniformQuantizer(16), True)

    def test_misaligned_input_takes_the_seed_path(self, backend):
        x = np.random.default_rng(4).normal(size=(25, 8, 4, 4))
        check_fake_quant(backend, misaligned(x.astype(backend.dtype)),
                         UniformQuantizer(8), False)

    def test_empty_input_raises_numpys_error(self, backend):
        with counted(backend) as calls, pytest.raises(ValueError,
                                                      match="zero-size"):
            backend.fake_quant(np.empty((0, 4), backend.dtype),
                               UniformQuantizer(8))
        assert calls["fake_quant"] == 0

    def test_static_quantizer_takes_the_seed_path(self, backend):
        rng = np.random.default_rng(3)
        quantizer = UniformQuantizer(4, dynamic=False)
        quantizer.calibrate(rng.normal(size=100))
        x = channel_major(rng.normal(size=(25, 8, 4, 4)) * 3.0)
        check_fake_quant(backend, x.astype(backend.dtype), quantizer, False,
                         (quantizer.x_min, quantizer.x_max))


# ----------------------------------------------------------------------
# Adam
# ----------------------------------------------------------------------
ADAM_SHAPES = [(8, 3, 3, 3), (64, 64, 3, 3), (64,), (10, 64), (10,)]


def adam_operands(shape, seed, grad_order="C", dtype=np.float64):
    rng = np.random.default_rng(seed)
    param = rng.normal(size=shape) * 0.1
    grad = np.asarray(rng.normal(size=shape) * 0.01, order=grad_order)
    m = rng.normal(size=shape) * 1e-3
    v = np.abs(rng.normal(size=shape)) * 1e-5
    return tuple(a.astype(dtype) for a in (param, grad, m, v))


def check_adam(backend, operands, step, weight_decay, runs_c):
    beta1, beta2 = 0.9, 0.999
    hyper = (1e-3, beta1, beta2, 1e-8, weight_decay,
             1.0 - beta1**step, 1.0 - beta2**step)
    param, grad, m, v = operands
    seed_m, seed_v = m.copy(order="K"), v.copy(order="K")
    want = seed_adam(param, grad, seed_m, seed_v, *hyper)
    with counted(backend) as calls:
        got = backend.adam_update(param, grad, m, v, *hyper)
    what = f"adam {param.shape} step {step} decay {weight_decay}"
    assert_seed_array(got, want, f"{what}: param")
    assert_seed_array(m, seed_m, f"{what}: m")
    assert_seed_array(v, seed_v, f"{what}: v")
    assert got is param
    expected = int(runs_c and "adam_update" in backend._kernels)
    assert calls["adam_update"] == expected, (
        f"C Adam ran {calls['adam_update']} times, expected {expected}")


@pytest.mark.parametrize("backend", WITH_FAST)
class TestAdamMatchesSeed:
    @pytest.mark.parametrize("shape", ADAM_SHAPES)
    @pytest.mark.parametrize("step", [1, 10_000])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_bench_shapes(self, backend, shape, step, weight_decay):
        check_adam(backend, adam_operands(shape, step, dtype=backend.dtype),
                   step, weight_decay, True)

    def test_repeated_steps_track_the_seed(self, backend):
        param, grad, m, v = adam_operands((64, 32, 3, 3), 0,
                                          dtype=backend.dtype)
        seed_param, seed_m, seed_v = param.copy(), m.copy(), v.copy()
        for step in range(1, 6):
            hyper = (1e-3, 0.9, 0.999, 1e-8, 1e-4,
                     1.0 - 0.9**step, 1.0 - 0.999**step)
            param = backend.adam_update(param, grad, m, v, *hyper)
            seed_param = seed_adam(seed_param, grad, seed_m, seed_v, *hyper)
            grad = grad * -0.5
        for got, want in ((param, seed_param), (m, seed_m), (v, seed_v)):
            assert_seed_array(got, want, "five Adam steps")

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_f_ordered_grad_takes_the_seed_path(self, backend, weight_decay):
        # The linear layer's weight gradient is a transposed GEMM output.
        check_adam(backend, adam_operands((10, 64), 4, grad_order="F",
                                          dtype=backend.dtype),
                   3, weight_decay, False)

    def test_layouts_alike_run_compiled(self, backend):
        # A parameter with its moments and gradient in one non-C layout.
        operands = tuple(channel_major(a) for a in adam_operands(
            (8, 16, 3, 3), 5, dtype=backend.dtype))
        check_adam(backend, operands, 2, 0.0, True)

    @pytest.mark.parametrize("mismatch", ["other-dtype grad", "sliced grad",
                                          "F-ordered m", "big-endian grad",
                                          "misaligned m", "broadcast grad",
                                          "reversed grad"])
    def test_mismatched_operands_take_the_seed_path(self, backend, mismatch):
        param, grad, m, v = adam_operands((16, 8), 6, dtype=backend.dtype)
        if mismatch == "other-dtype grad":
            other = np.float32 if backend.dtype == np.float64 else np.float64
            grad = grad.astype(other)
        elif mismatch == "sliced grad":
            grad = np.repeat(grad, 2, axis=1)[:, ::2]
        elif mismatch == "F-ordered m":
            m = np.asfortranarray(m)
        elif mismatch == "big-endian grad":
            grad = grad.astype(grad.dtype.newbyteorder(">"))
        elif mismatch == "misaligned m":
            m = misaligned(m)
        elif mismatch == "broadcast grad":
            grad = np.broadcast_to(grad[:1], grad.shape)
        else:
            grad = np.ascontiguousarray(grad[::-1])[::-1]
        check_adam(backend, (param, grad, m, v), 7, 5e-4, False)

    def test_read_only_moments_are_not_written(self, backend):
        for moment in "mv":
            operands = dict(zip("pgmv", adam_operands((16, 8), 8,
                                                      dtype=backend.dtype)))
            target = operands[moment]
            operands[moment] = np.lib.stride_tricks.as_strided(
                target, writeable=False)
            before = target.copy()
            with counted(backend) as calls, pytest.raises(ValueError):
                backend.adam_update(*operands.values(), 1e-3, 0.9, 0.999,
                                    1e-8, 0.0, 0.1, 0.001)
            assert calls["adam_update"] == 0, moment
            assert target.tobytes() == before.tobytes(), moment


# ----------------------------------------------------------------------
# Batchnorm and max pooling
# ----------------------------------------------------------------------
def padded_view(a):
    """``a`` as col2im hands it on: the interior of a zero-padded buffer."""
    n, c, h, w = a.shape
    padded = np.zeros((n, c, h + 2, w + 2), dtype=a.dtype)
    padded[:, :, 1:-1, 1:-1] = a
    return padded[:, :, 1:-1, 1:-1]


def pooled_view(a):
    """``a`` laid out as the seed's pool backward returns it for a
    channel-major image whose width is the window: a view with the
    window buffer's twisted strides (channel-major for 2x2 -> 1x1)."""
    n, c, h, w = a.shape
    image = channel_major(np.zeros(a.shape, a.dtype))
    view = seed_max_pool(image, w, np.zeros((n, c, h // w, 1), a.dtype))[1]
    view[...] = a
    return view


def image_layouts(a):
    """``a`` in the layouts an image or its gradient arrives in."""
    yield "C", a
    yield "channel-major", channel_major(a)
    yield "padded", padded_view(a)
    yield "F", np.asfortranarray(a)
    yield "reversed", a[::-1]


def plane_addressable(*arrays):
    """The C loops' precondition: aligned float or bool images in native
    byte order with positive strides and contiguous rows."""
    for a in arrays:
        if a is None:
            continue
        steps = [s for s, d in zip(a.strides, a.shape) if d > 1]
        if not (a.dtype in (np.float32, np.float64, np.bool_)
                and a.flags.aligned
                and min(steps, default=1) > 0
                and (a.shape[3] == 1 or a.strides[3] == a.itemsize)):
            return False
    return True


def assert_tier_ran(backend, calls, names, runs_c):
    for name in names:
        expected = int(runs_c and name in backend._kernels)
        assert calls[name] == expected, (
            f"C {name} ran {calls[name]} times, expected {expected}")


def check_batchnorm(backend, x, gamma, beta, relu, grad):
    """Forward and backward against the seed; ``grad(out)`` makes the
    upstream gradient."""
    want = seed_batchnorm_train(x, gamma, beta, 1e-5, relu)
    with counted(backend) as calls:
        got = backend.batchnorm_train(x, gamma, beta, 1e-5, relu)
    assert_tier_ran(backend, calls, ("bn_centre", "bn_normalize"),
                    plane_addressable(x))
    for name, g, s in zip(("out", "mean", "var"), got, want):
        assert_seed_array(g, s, f"batchnorm {name} {x.strides}")
    for name, g, s in zip(("x_hat", "inv_std", "mask"), got[3], want[3]):
        if s is None:
            assert g is None, name
        else:
            assert_seed_array(g, s, f"batchnorm {name} {x.strides}")
    grad = grad(want[0])
    residual = got[3]
    want = seed_batchnorm_bwd(grad, gamma, want[3])
    with counted(backend) as calls:
        got = backend.batchnorm_bwd(grad, gamma, residual, True)
    x_hat, _, mask = residual
    assert_tier_ran(backend, calls, ("bn_grad_terms", "bn_grad_input"),
                    plane_addressable(grad, x_hat, mask))
    for name, g, s in zip(("gx", "ggamma", "gbeta"), got, want):
        assert_seed_array(g, s, f"batchnorm {name} grad {grad.strides}")


def _draws(rng, dtype):
    """Normal draws from ``rng`` (float64, as the seed drew them) in ``dtype``."""
    return lambda size: rng.normal(size=size).astype(dtype)


# A finite factor whose square overflows the dtype.
HUGE = {np.dtype(np.float64): 1e300, np.dtype(np.float32): 1e30}
# The bench trial's batchnorm inputs: conv outputs, channel-major.
BN_SHAPES = [(25, 8, 16, 16), (25, 16, 8, 8), (25, 32, 4, 4), (25, 64, 2, 2),
             (25, 64, 1, 1)]
GRAD_LAYOUTS = {
    "C": np.ascontiguousarray,
    "padded": padded_view,
    "F": np.asfortranarray,
    "reversed": lambda a: np.ascontiguousarray(a[::-1])[::-1],
}


@pytest.mark.parametrize("backend", WITH_FAST)
class TestBatchnormMatchesSeed:
    @pytest.mark.parametrize("shape", BN_SHAPES)
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("grad_layout", list(GRAD_LAYOUTS))
    def test_bench_shapes(self, backend, shape, relu, grad_layout):
        rng = np.random.default_rng(shape[1])
        draw = _draws(rng, backend.dtype)
        x = channel_major(draw(shape) * 2.0 + 0.5)
        gamma, beta = draw(shape[1]), draw(shape[1])
        check_batchnorm(backend, x, gamma, beta, relu,
                        lambda out: GRAD_LAYOUTS[grad_layout](draw(shape)))

    @pytest.mark.parametrize("relu", [True, False])
    def test_pooled_grad_at_the_last_pool(self, backend, relu):
        # The 2x2 -> 1x1 pool's backward hands its twisted view on.
        draw = _draws(np.random.default_rng(1), backend.dtype)
        shape = (25, 64, 2, 2)
        x = channel_major(draw(shape))
        grad = pooled_view(draw(shape))
        assert not grad.flags.c_contiguous and plane_addressable(grad)
        check_batchnorm(backend, x, draw(64), draw(64), relu,
                        lambda out: grad)

    @pytest.mark.parametrize("layout", ["C", "channel-major", "padded", "F",
                                        "reversed"])
    def test_input_layouts(self, backend, layout):
        draw = _draws(np.random.default_rng(2), backend.dtype)
        x = dict(image_layouts(draw((3, 4, 5, 6))))[layout]
        check_batchnorm(backend, x, draw(4), draw(4), True,
                        lambda out: draw(out.shape))

    @pytest.mark.parametrize("layout", ["F", "reversed", "misaligned",
                                        "big-endian", "broadcast"])
    def test_f_ordered_and_reversed_images_take_the_seed_path(self, backend,
                                                             layout):
        draw = _draws(np.random.default_rng(3), backend.dtype)
        x = draw((4, 3, 5, 6))
        x = {"misaligned": misaligned,
             "big-endian": lambda a: a.astype(a.dtype.newbyteorder(">")),
             "broadcast": lambda a: np.broadcast_to(a[:1], a.shape),
             }.get(layout, lambda a: dict(image_layouts(a))[layout])(x)
        assert not plane_addressable(x)
        check_batchnorm(backend, x, draw(3), draw(3), True,
                        lambda out: draw(out.shape))

    @pytest.mark.parametrize("relu", [True, False])
    def test_non_finite_values_and_signed_zeros(self, backend, relu):
        dtype = backend.dtype
        draw = _draws(np.random.default_rng(4), dtype)
        shape = (6, 5, 3, 4)
        values = draw(shape)
        values[0, 0, 0, 0] = np.nan         # channel 0: all NaN
        values[1, 1, 0, 1] = np.inf         # channel 1: inf - inf = NaN
        values[2, 2, 1, 1] = -np.inf
        values[:, 3] = -0.0                  # channel 3: var 0, x_hat NaN
        values[:, 4, 0] *= dtype.type(HUGE[dtype])  # channel 4: huge, finite
        grad = draw(shape)
        grad[0, 4, 0, 0] = np.nan
        grad[1, 4, 1, 1] = -np.inf
        grad[2, 4] = -0.0
        gamma = np.array([1.0, -2.0, 0.5, 3.0, -0.0], dtype=dtype)
        beta = np.array([0.0, 1.0, -1.0, -0.0, 2.0], dtype=dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            check_batchnorm(backend, channel_major(values), gamma, beta, relu,
                            lambda out: padded_view(grad))

    def test_eval_mode_backward_takes_the_seed_path(self, backend):
        draw = _draws(np.random.default_rng(5), backend.dtype)
        x = channel_major(draw((4, 3, 2, 2)))
        gamma = draw(3)
        _, _, _, residual = backend.batchnorm_train(x, gamma, gamma, 1e-5, True)
        grad = draw(x.shape)
        with counted(backend) as calls:
            got = backend.batchnorm_bwd(grad, gamma, residual, False)
        assert not calls["bn_grad_terms"]
        x_hat, inv_std, mask = residual
        masked = grad * mask
        want = (masked * (gamma * inv_std)[None, :, None, None],
                (masked * x_hat).sum(axis=(0, 2, 3)), masked.sum(axis=(0, 2, 3)))
        for g, s in zip(got, want):
            assert_seed_array(g, s, "eval-mode backward")


POOL_SHAPES = [(25, 8, 16, 16), (25, 16, 8, 8), (25, 32, 4, 4), (25, 64, 2, 2),
               (3, 2, 6, 6)]


def check_max_pool(backend, x, kernel, grad):
    """Forward and backward against the seed."""
    out_shape = x.shape[:2] + (x.shape[2] // kernel, x.shape[3] // kernel)
    grad = grad(out_shape)
    want_out, want_gx = seed_max_pool(x, kernel, grad)
    with counted(backend) as calls:
        out, residual = backend.maxpool_fwd(x, kernel)
        gx = backend.maxpool_bwd(grad, residual)
    assert_seed_array(out, want_out, f"max pool out {x.strides} k={kernel}")
    assert_seed_array(gx, want_gx, f"max pool gx {grad.strides} k={kernel}")
    assert_tier_ran(backend, calls, ("maxpool_fwd",), plane_addressable(x))
    # The backward fills an array laid out as the seed's gradient.
    assert_tier_ran(backend, calls, ("maxpool_bwd",),
                    plane_addressable(grad, want_gx))


@pytest.mark.parametrize("backend", BACKENDS)
class TestMaxPoolMatchesSeed:
    @pytest.mark.parametrize("shape", POOL_SHAPES)
    @pytest.mark.parametrize("grad_layout", list(GRAD_LAYOUTS))
    def test_bench_shapes(self, backend, shape, grad_layout):
        rng = np.random.default_rng(shape[1])
        x = channel_major(rng.normal(size=shape))
        for kernel in (1, 2, 3):
            if shape[2] % kernel == 0:
                check_max_pool(backend, x, kernel,
                               lambda s: GRAD_LAYOUTS[grad_layout](
                                   rng.normal(size=s)))

    @pytest.mark.parametrize("layout", ["C", "channel-major", "padded", "F",
                                        "reversed"])
    def test_input_layouts(self, backend, layout):
        rng = np.random.default_rng(6)
        for shape in ((3, 4, 6, 6), (3, 4, 2, 2), (2, 3, 6, 3)):
            x = dict(image_layouts(rng.normal(size=shape)))[layout]
            for kernel in (1, 3):
                if shape[3] % kernel == 0:
                    check_max_pool(backend, x, kernel,
                                   lambda s: rng.normal(size=s))

    def test_non_finite_windows_and_signed_zero_ties(self, backend):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 4, 4))
        x[0, 0, 0, 1] = np.nan              # NaN after the first tap
        x[0, 1, :2, :2] = np.nan            # all NaN
        x[0, 2, 0, 0] = np.nan              # NaN first
        x[1, 0, :2, :2] = [[-np.inf, np.inf], [np.inf, 1.0]]
        x[1, 1, :2, :2] = -np.inf
        x[1, 2, :2, :2] = [[-0.0, 0.0], [-1.0, 0.0]]
        x[1, 2, 2:, 2:] = [[0.0, -0.0], [-0.0, -1.0]]
        for image in (x, channel_major(x)):
            check_max_pool(backend, image, 2, lambda s: rng.normal(size=s))


    @pytest.mark.parametrize("shift", [-1, 4])
    def test_offsets_outside_their_window_take_the_seed_path(self, backend,
                                                             shift):
        # numpy reads -1 as the last tap and rejects 4; the kernel takes
        # neither.
        x = np.random.default_rng(8).normal(size=(2, 3, 4, 4))
        out, (argmax, *layout) = backend.maxpool_fwd(x, 2)
        residual = (argmax + shift, *layout)
        grad = np.ones(out.shape)
        with counted(backend) as calls:
            if shift < 0:
                assert_seed_array(backend.maxpool_bwd(grad, residual),
                                  NUMPY_TIER.maxpool_bwd(grad, residual),
                                  "offset -1")
            else:
                with pytest.raises(IndexError):
                    backend.maxpool_bwd(grad, residual)
        assert calls["maxpool_bwd"] == 0


# ----------------------------------------------------------------------
# The property: on any small image, in any layout, both tiers agree.
# ----------------------------------------------------------------------
# Derandomized under CI, so a CI failure replays.
settings.register_profile("reference-kernels", max_examples=40, deadline=None,
                          derandomize=bool(os.environ.get("CI")))
LAYOUT_NAMES = ["C", "channel-major", "padded", "F", "reversed", "pooled"]
SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0]


def arrange(values, layout):
    if layout == "pooled":
        # A pool backward hands this view on only when w divides h.
        n, c, h, w = values.shape
        return pooled_view(values) if h % w == 0 else channel_major(values)
    return dict(image_layouts(values))[layout]


@st.composite
def images(draw, kernel=1):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
             kernel * draw(st.integers(1, 3)), kernel * draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=shape)
    for special in draw(st.lists(st.sampled_from(SPECIALS), max_size=3)):
        values[tuple(rng.integers(0, d) for d in shape)] = special
    return values, rng


def assert_same(got, want, what):
    if want is None:
        assert got is None, what
    else:
        assert_seed_array(got, want, what)


# Each dtype's (C, numpy) tier pair.
FAST_C, FAST_NUMPY = FastBackend(), FastBackend()
FAST_NUMPY._kernels = {}
TIER_PAIRS = [(C_TIER, NUMPY_TIER), (FAST_C, FAST_NUMPY)]
FLAT_LAYOUTS = ["C", "F", "channel-major", "reversed", "sliced"]


def flat_layout(values, layout):
    """``values`` (4-D) laid out for a flat loop: dense in one of three
    orders, or not dense."""
    return {"C": np.ascontiguousarray, "F": np.asfortranarray,
            "channel-major": channel_major, "reversed": lambda a: a[::-1],
            "sliced": lambda a: np.repeat(a, 2, axis=3)[..., ::2],
            }[layout](values)


@pytest.mark.skipif(not C_TIER._kernels, reason="the C kernel tier cannot load here")
class TestTiersAgree:
    @settings.get_profile("reference-kernels")
    @given(images(), st.sampled_from(["mixed", "non-negative", "non-positive"]),
           st.integers(1, 62), st.booleans(), st.sampled_from(TIER_PAIRS))
    def test_fake_quant(self, image, sign, bits, dynamic, tiers):
        # Signed inputs with SPECIALS placed make a zero of either sign,
        # or a NaN, an extreme of the range.
        values, rng = image
        finite = np.isfinite(values)
        if sign != "mixed":
            values[finite] = np.abs(values[finite]) * (
                1.0 if sign == "non-negative" else -1.0)
        quantizer = UniformQuantizer(bits, dynamic=dynamic)
        if not dynamic:
            quantizer.calibrate(rng.normal(size=7))
        x = values.astype(tiers[0].dtype)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for name, arr, _ in layouts(x):
                got, want = (backend.fake_quant(arr, quantizer)
                             for backend in tiers)
                assert_same(got, want, f"fake_quant {name} {quantizer}")

    @settings.get_profile("reference-kernels")
    @given(images(), st.booleans(), st.lists(st.sampled_from(FLAT_LAYOUTS),
                                             min_size=4, max_size=4),
           st.sampled_from([0.0, 5e-4]), st.sampled_from(TIER_PAIRS))
    def test_adam(self, image, alike, layouts_drawn, weight_decay, tiers):
        values, rng = image
        dtype = tiers[0].dtype
        if alike:
            layouts_drawn = layouts_drawn[:1] * 4
        arrays = [values, rng.normal(size=values.shape) * 0.01,
                  rng.normal(size=values.shape) * 1e-3,
                  np.abs(rng.normal(size=values.shape)) * 1e-5]
        results = []
        with np.errstate(invalid="ignore", over="ignore"):
            for backend in tiers:
                param, grad, m, v = (flat_layout(a.astype(dtype), layout)
                                     for a, layout in zip(arrays,
                                                          layouts_drawn))
                new = backend.adam_update(param, grad, m, v, 1e-3, 0.9, 0.999,
                                          1e-8, weight_decay, 0.1, 0.001)
                results.append((new, m, v))
        for name, got, want in zip(("param", "m", "v"), *results):
            assert_same(got, want, f"adam {name} {layouts_drawn}")

    @settings.get_profile("reference-kernels")
    @given(images(), st.sampled_from(LAYOUT_NAMES), st.sampled_from(LAYOUT_NAMES),
           st.booleans())
    def test_batchnorm(self, image, x_layout, grad_layout, relu):
        values, rng = image
        x = arrange(values, x_layout)
        gamma, beta = rng.normal(size=x.shape[1]), rng.normal(size=x.shape[1])
        grad = arrange(rng.normal(size=x.shape), grad_layout)
        results = []
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for backend in (C_TIER, NUMPY_TIER):
                out, mean, var, residual = backend.batchnorm_train(
                    x, gamma, beta, 1e-5, relu)
                results.append((out, mean, var, *residual,
                                *backend.batchnorm_bwd(grad, gamma, residual,
                                                       True)))
        names = ("out", "mean", "var", "x_hat", "inv_std", "mask", "gx",
                 "ggamma", "gbeta")
        for name, got, want in zip(names, *results):
            assert_same(got, want, name)

    @settings.get_profile("reference-kernels")
    @given(st.integers(1, 3).flatmap(
        lambda k: st.tuples(st.just(k), images(k))),
        st.sampled_from(LAYOUT_NAMES), st.sampled_from(LAYOUT_NAMES))
    def test_max_pool(self, case, x_layout, grad_layout):
        kernel, (values, rng) = case
        x = arrange(values, x_layout)
        n, c, h, w = x.shape
        grad = arrange(rng.normal(size=(n, c, h // kernel, w // kernel)),
                       grad_layout)
        results = []
        for backend in (C_TIER, NUMPY_TIER):
            out, residual = backend.maxpool_fwd(x, kernel)
            results.append((out, backend.maxpool_bwd(grad, residual)))
        for name, got, want in zip(("out", "gx"), *results):
            assert_same(got, want, name)
