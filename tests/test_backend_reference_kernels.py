"""The reference backend's compiled fake-quant and Adam against the seed.

``ReferenceBackend`` runs eqn. 1's quantize -> dequantize chain and the
Adam update as single float64 C loops where the C tier loads and takes
the operands, and as the seed's numpy chains otherwise.  The seed
chains live on here, verbatim, as the oracle.  Over a grid of the bench
trial's shapes, input layouts, bit-widths, signed zeros, degenerate and
non-finite ranges, and Adam steps, with and without the C kernels:

1. every output — the fake-quantized array, the new parameter and the
   in-place moment buffers — has the seed's bytes and the seed's
   strides on every axis longer than one (a length-1 axis is never
   stepped);
2. the C loop ran exactly where it should: a dynamic quantizer with a
   finite, non-degenerate range over a dense input, and Adam operands
   that are dense float64 arrays laid out alike.  Static quantizers,
   non-finite or degenerate ranges, non-dense inputs and an F-ordered
   gradient take the seed path.
"""

import collections
import contextlib

import numpy as np
import pytest

from repro.backend.reference import ReferenceBackend
from repro.quant import UniformQuantizer


# ----------------------------------------------------------------------
# The seed oracle, verbatim: repro.quant.quantizer's quantize/dequantize
# as UniformQuantizer.fake_quant composes them, and the seed's Adam.
# ----------------------------------------------------------------------
def seed_fake_quant(x, bits, x_min=None, x_max=None):
    x = np.asarray(x, dtype=np.float64)
    lo = float(x.min()) if x_min is None else float(x_min)
    hi = float(x.max()) if x_max is None else float(x_max)
    levels = (1 << bits) - 1
    if hi == lo:
        codes = np.zeros(x.shape, dtype=np.int64)
    else:
        scaled = (np.clip(x, lo, hi) - lo) * (levels / (hi - lo))
        codes = np.round(scaled).astype(np.int64)
    if hi == lo:
        return np.full(np.asarray(codes).shape, lo, dtype=np.float64)
    return np.asarray(codes, dtype=np.float64) * ((hi - lo) / levels) + lo


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
    want = seed_fake_quant(x, quantizer.bits, *oracle_range)
    with counted(backend) as calls:
        got = backend.fake_quant(x, quantizer)
    assert_seed_array(got, want, f"fake_quant {x.shape} {quantizer}")
    expected = int(runs_c and "fake_quant_f64" in backend._kernels)
    assert calls["fake_quant_f64"] == expected, (
        f"C fake-quant ran {calls['fake_quant_f64']} times, "
        f"expected {expected}")


@pytest.mark.parametrize("backend", BACKENDS)
class TestFakeQuantMatchesSeed:
    @pytest.mark.parametrize("shape", WEIGHT_SHAPES + ACTIVATION_SHAPES)
    def test_bench_shapes_and_layouts(self, backend, shape):
        x = np.random.default_rng(0).normal(size=shape) * 0.3
        for _name, arr, dense in layouts(x):
            for bits in (2, 8, 16):
                check_fake_quant(backend, arr, UniformQuantizer(bits), dense)

    @pytest.mark.parametrize("bits", BITS)
    def test_bits(self, backend, bits):
        rng = np.random.default_rng(bits)
        x = channel_major(rng.normal(size=(25, 8, 4, 4)) * 2.0 + 0.5)
        check_fake_quant(backend, x, UniformQuantizer(bits), True)
        if bits <= 12:
            # Every half-way point between two codes (scale 1): exact
            # ties, which round half to even.
            levels = (1 << bits) - 1
            ties = np.arange(2 * levels + 1) / 2.0
            check_fake_quant(backend, ties, UniformQuantizer(bits), True)

    @pytest.mark.parametrize("shape", ACTIVATION_SHAPES)
    def test_relu_outputs_carry_negative_zero(self, backend, shape):
        rng = np.random.default_rng(1)
        for seed_x in (rng.normal(size=shape), -np.abs(rng.normal(size=shape))):
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
        check_fake_quant(backend, np.array(values), UniformQuantizer(8), False)

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_take_the_seed_path(self, backend, special):
        x = np.random.default_rng(2).normal(size=(4, 8, 3, 3))
        x[1, 2, 0, 1] = special
        with np.errstate(invalid="ignore"):
            check_fake_quant(backend, x, UniformQuantizer(8), False)

    def test_extreme_ranges(self, backend):
        with np.errstate(invalid="ignore", over="ignore"):
            # hi - lo overflows to inf: scale 0, inverse scale inf.
            check_fake_quant(backend, np.array([-1.5e308, 0.0, 1.5e308]),
                             UniformQuantizer(8), False)
            # hi - lo is subnormal: levels / (hi - lo) overflows to inf.
            check_fake_quant(backend, np.array([0.0, 5e-324, 1e-323]),
                             UniformQuantizer(16), False)
        # One ulp apart near the top of the range: both scales finite.
        top = np.array([1e300, np.nextafter(1e300, np.inf)] * 4)
        check_fake_quant(backend, top, UniformQuantizer(16), True)

    def test_static_quantizer_takes_the_seed_path(self, backend):
        rng = np.random.default_rng(3)
        quantizer = UniformQuantizer(4, dynamic=False)
        quantizer.calibrate(rng.normal(size=100))
        x = channel_major(rng.normal(size=(25, 8, 4, 4)) * 3.0)
        check_fake_quant(backend, x, quantizer, False,
                         (quantizer.x_min, quantizer.x_max))


# ----------------------------------------------------------------------
# Adam
# ----------------------------------------------------------------------
ADAM_SHAPES = [(8, 3, 3, 3), (64, 64, 3, 3), (64,), (10, 64), (10,)]


def adam_operands(shape, seed, grad_order="C"):
    rng = np.random.default_rng(seed)
    param = rng.normal(size=shape) * 0.1
    grad = np.asarray(rng.normal(size=shape) * 0.01, order=grad_order)
    m = rng.normal(size=shape) * 1e-3
    v = np.abs(rng.normal(size=shape)) * 1e-5
    return param, grad, m, v


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
    assert got is not param and not np.shares_memory(got, param)
    expected = int(runs_c and "adam_update_f64" in backend._kernels)
    assert calls["adam_update_f64"] == expected, (
        f"C Adam ran {calls['adam_update_f64']} times, expected {expected}")


@pytest.mark.parametrize("backend", BACKENDS)
class TestAdamMatchesSeed:
    @pytest.mark.parametrize("shape", ADAM_SHAPES)
    @pytest.mark.parametrize("step", [1, 10_000])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_bench_shapes(self, backend, shape, step, weight_decay):
        check_adam(backend, adam_operands(shape, step), step, weight_decay,
                   True)

    def test_repeated_steps_track_the_seed(self, backend):
        param, grad, m, v = adam_operands((64, 32, 3, 3), 0)
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
        check_adam(backend, adam_operands((10, 64), 4, grad_order="F"), 3,
                   weight_decay, False)

    def test_layouts_alike_run_compiled(self, backend):
        # A parameter with its moments and gradient in one non-C layout.
        operands = tuple(channel_major(a) for a in adam_operands((8, 16, 3, 3), 5))
        check_adam(backend, operands, 2, 0.0, True)

    @pytest.mark.parametrize("mismatch", ["float32 grad", "sliced grad",
                                          "F-ordered m"])
    def test_mismatched_operands_take_the_seed_path(self, backend, mismatch):
        param, grad, m, v = adam_operands((16, 8), 6)
        if mismatch == "float32 grad":
            grad = grad.astype(np.float32)
        elif mismatch == "sliced grad":
            grad = np.repeat(grad, 2, axis=1)[:, ::2]
        else:
            m = np.asfortranarray(m)
        check_adam(backend, (param, grad, m, v), 7, 5e-4, False)

    def test_read_only_moments_are_not_written(self, backend):
        param, grad, m, v = adam_operands((16, 8), 8)
        frozen = np.lib.stride_tricks.as_strided(v, writeable=False)
        before = v.copy()
        with counted(backend) as calls, pytest.raises(ValueError):
            backend.adam_update(param, grad, m, frozen, 1e-3, 0.9, 0.999,
                                1e-8, 0.0, 0.1, 0.001)
        assert calls["adam_update_f64"] == 0
        assert v.tobytes() == before.tobytes()
