"""The fast backend's two kernel tiers: compiled C against the numpy fallback.

Three guarantees:

1. every C kernel computes what its numpy fallback computes on the same
   float32 inputs, bit for bit: the data movement (im2col, col2im, and
   max pooling, whose kernel picks a window's tap by numpy argmax's
   rule: the first maximum, or the first NaN) and the arithmetic
   (batchnorm, Adam, fake-quant), whose loops run the numpy chain's ops
   in its order, each rounded on its own;
2. an operand a C kernel cannot take leaves the op to its numpy
   fallback: each kernel's entry point checks every operand in C,
   through the buffer protocol, and on any misfit (another dtype or
   byte order, a read-only output, a misaligned view, strides or a
   shape its loop does not address, an empty operand, a non-bool mask,
   an object that is not an array) returns False, raises nothing and
   writes nothing, in either dtype; a wrong argument count raises
   TypeError;
3. the on-disk kernel cache never serves a partial build, nor one
   compiled from other source, flags or macros; a build whose dispatch
   module does not import yields no kernels at all, never part of the
   table.  A process killed mid-build leaves nothing a later process
   would load.

The first two and the killed build skip where the C tier cannot load
(no cffi or no C compiler).  ``tests/test_backend_conv_lowering.py``
holds both backends' im2col/col2im, in both dtypes, to the seed's
lowering, and ``tests/test_backend_reference_kernels.py`` both
backends' fake-quant, Adam and batchnorm, and the reference backend's
max pooling, to the seed's chains.
"""

import importlib
import os
import shutil
import subprocess
import sys
import sysconfig
import types
from pathlib import Path

import numpy as np
import pytest

from repro.backend import _ckernels
from repro.backend.fast import FastBackend
from repro.quant import UniformQuantizer

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def tiers():
    """``(c, numpy)``: a fresh backend per tier, the second with no C table."""
    c_tier = FastBackend()
    if not c_tier._kernels:
        pytest.skip("the C kernel tier cannot load here")
    numpy_tier = FastBackend()
    numpy_tier._kernels = {}
    return c_tier, numpy_tier


def _data(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def assert_bit_equal(c_out, numpy_out):
    assert c_out.dtype == numpy_out.dtype == np.float32
    assert c_out.shape == numpy_out.shape
    assert c_out.tobytes() == numpy_out.tobytes()


# Max-pool windows in tap order (ki*k + kj), padded with -1.0 up to
# k*k taps; windows cycle through a case's list.  numpy's argmax takes
# the first maximum, and the first NaN, which then wins the window.
POOL_WINDOWS = {
    "random": None,
    "nan-first": [[np.nan, 1.0, 3.0, 2.0]],
    "nan-later": [[1.0, np.nan, 3.0, 2.0], [3.0, 2.0, 1.0, np.nan]],
    "all-nan": [[np.nan] * 9],
    "inf": [[-np.inf, 2.0, np.inf, np.inf], [-np.inf] * 9,
            [np.inf, -np.inf, np.inf]],
    "signed-zero-ties": [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0],
                         [-0.0] * 9, [-1.0, 0.0, -0.0]],
}


def _pool_input(case, kernel):
    """A (2, 3, 6, 6) float32 image whose k x k windows follow ``case``."""
    if POOL_WINDOWS[case] is None:
        return _data(2, 3, 6, 6)
    taps = kernel * kernel
    rows = [(row + [-1.0] * taps)[:taps] for row in POOL_WINDOWS[case]]
    out = 6 // kernel
    count = 2 * 3 * out * out
    windows = np.array([rows[i % len(rows)] for i in range(count)],
                       dtype=np.float32).reshape(2, 3, out, out, kernel, kernel)
    return np.ascontiguousarray(
        windows.transpose(0, 1, 2, 4, 3, 5).reshape(2, 3, 6, 6))


class TestTierParity:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_im2col_col2im(self, tiers, stride, padding):
        c_tier, numpy_tier = tiers
        x = _data(2, 3, 7, 6)
        c_cols, c_h, c_w = c_tier.im2col(x, 3, stride, padding)
        np_cols, np_h, np_w = numpy_tier.im2col(x, 3, stride, padding)
        assert (c_h, c_w) == (np_h, np_w)
        assert_bit_equal(c_cols, np.ascontiguousarray(np_cols))
        grad_cols = _data(*c_cols.shape, seed=1)
        assert_bit_equal(
            c_tier.col2im(grad_cols, x.shape, 3, stride, padding),
            numpy_tier.col2im(grad_cols, x.shape, 3, stride, padding),
        )

    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("windows", list(POOL_WINDOWS))
    def test_maxpool(self, tiers, kernel, windows):
        c_tier, numpy_tier = tiers
        x = _pool_input(windows, kernel)
        c_out, c_residual = c_tier.maxpool_fwd(x, kernel)
        np_out, np_residual = numpy_tier.maxpool_fwd(x, kernel)
        assert_bit_equal(c_out, np_out)
        grad = _data(*c_out.shape, seed=1)
        c_gx = c_tier.maxpool_bwd(grad, c_residual)
        assert_bit_equal(c_gx, numpy_tier.maxpool_bwd(grad, np_residual))
        # Both tiers keep one residual, so either backward takes either.
        assert_bit_equal(c_gx, numpy_tier.maxpool_bwd(grad, c_residual))
        assert_bit_equal(c_gx, c_tier.maxpool_bwd(grad, np_residual))

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm(self, tiers, relu, training):
        x = _data(4, 3, 5, 5) * 2.0 + 0.5
        gamma = _data(3, seed=1)
        beta = _data(3, seed=2)
        outs = []
        for backend in tiers:
            if training:
                out, mean, var, residual = backend.batchnorm_train(
                    x, gamma, beta, 1e-5, relu)
                stats = (mean, var)
            else:
                running_mean = _data(3, seed=3)
                running_var = np.abs(_data(3, seed=4)) + 0.5
                out, residual = backend.batchnorm_eval(
                    x, gamma, beta, running_mean, running_var, 1e-5, relu)
                stats = ()
            grad = _data(*x.shape, seed=5)
            outs.append((out, *stats,
                         *backend.batchnorm_bwd(grad, gamma, residual,
                                                training)))
        for c_array, numpy_array in zip(*outs):
            assert_bit_equal(c_array, numpy_array)

    def test_adam(self, tiers):
        results = []
        for backend in tiers:
            param, m = _data(64, seed=0), _data(64, seed=1) * 0.1
            v = np.abs(_data(64, seed=2)) * 0.01
            grad = _data(64, seed=3)
            param = backend.adam_update(param, grad, m, v, 1e-3, 0.9, 0.999,
                                        1e-8, 1e-4, 0.1, 0.001)
            results.append((param, m, v))
        for c_array, numpy_array in zip(*results):
            assert_bit_equal(c_array, numpy_array)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_fake_quant(self, tiers, bits):
        c_tier, numpy_tier = tiers
        x = _data(3, 4, 5, 5)
        quantizer = UniformQuantizer(bits)
        assert_bit_equal(c_tier.fake_quant(x, quantizer),
                         numpy_tier.fake_quant(x, quantizer))


class TestOperandsAKernelCannotTake:
    """An operand a C kernel cannot take leaves the op to its fallback.

    The float32 instances read every operand through a ``float *``; a
    float64 one would be read as garbage, so the entry point checks each
    operand's dtype, size and layout first and the backend falls back
    when it declines.
    """

    @staticmethod
    def _same(c_outputs, numpy_outputs):
        for c_array, numpy_array in zip(c_outputs, numpy_outputs):
            assert c_array.dtype == numpy_array.dtype
            assert c_array.tobytes() == numpy_array.tobytes()

    def test_adam_with_a_float64_grad(self, tiers):
        results = []
        for backend in tiers:
            param, m = _data(8, seed=0), _data(8, seed=1) * 0.1
            v = np.abs(_data(8, seed=2)) * 0.01
            grad = _data(8, seed=3).astype(np.float64)
            param = backend.adam_update(param, grad, m, v, 1e-2, 0.9, 0.999,
                                        1e-8, 0.0, 0.1, 0.001)
            results.append((param, m, v))
        self._same(*results)

    @pytest.mark.parametrize("relu", [False, True])
    def test_batchnorm_train_with_float64_affine(self, tiers, relu):
        x = _data(4, 3, 5, 5) * 2.0 + 0.5
        gamma = _data(3, seed=1).astype(np.float64)
        beta = _data(3, seed=2).astype(np.float64)
        grad = _data(*x.shape, seed=5)
        results = []
        for backend in tiers:
            out, mean, var, residual = backend.batchnorm_train(
                x, gamma, beta, 1e-5, relu)
            results.append((out, mean, var, *backend.batchnorm_bwd(
                grad, gamma, residual, True)))
        self._same(*results)

    def test_batchnorm_eval_with_a_float64_gamma(self, tiers):
        x = _data(4, 3, 5, 5)
        gamma = _data(3, seed=1).astype(np.float64)
        beta = _data(3, seed=2)
        running_mean = _data(3, seed=3)
        running_var = np.abs(_data(3, seed=4)) + 0.5
        results = []
        for backend in tiers:
            out, _ = backend.batchnorm_eval(x, gamma, beta, running_mean,
                                            running_var, 1e-5)
            results.append((out,))
        self._same(*results)

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_bwd_with_a_float64_gamma(self, tiers, training):
        c_tier, numpy_tier = tiers
        x = _data(4, 3, 5, 5)
        gamma, beta = _data(3, seed=1), _data(3, seed=2)
        _, _, _, residual = c_tier.batchnorm_train(x, gamma, beta, 1e-5)
        grad = _data(*x.shape, seed=5)
        wide_gamma = gamma.astype(np.float64)
        self._same(
            c_tier.batchnorm_bwd(grad, wide_gamma, residual, training),
            numpy_tier.batchnorm_bwd(grad, wide_gamma, residual, training),
        )


# ----------------------------------------------------------------------
# Guarantee 2, entry point by entry point: the misfit grid.
# ----------------------------------------------------------------------
SENTINEL = 12345.0
OTHER_FLOAT = {np.dtype(np.float32): np.float64, np.dtype(np.float64): np.float32}


def fitting_call(name, dtype):
    """``(args, roles)``: a call the entry point ``name`` takes, in ``dtype``.

    ``roles[i]`` is None for a scalar and otherwise ``(kind, written)``:
    kind "float" for an operand of the kernel's dtype, "conv" for a conv
    image (its loops take any plane strides), "bool" for a mask and
    "int64" for window offsets.  Written arrays hold a sentinel.
    """
    rng = np.random.default_rng(0)

    def draw(*shape):
        return rng.normal(size=shape).astype(dtype)

    def out(*shape):
        return np.full(shape, SENTINEL, dtype)

    read, written = ("float", False), ("float", True)
    if name in ("im2col", "col2im"):
        image, cols = (draw(2, 3, 5, 5), out(27, 50)) if name == "im2col" else (
            out(2, 3, 5, 5), draw(27, 50))
        conv = ("conv", name == "col2im")
        arrays = [(image, conv), (cols, written if name == "im2col" else read)]
        if name == "col2im":
            arrays.reverse()
        return [a for a, _ in arrays] + [3, 1, 1, 5, 5], [
            r for _, r in arrays] + [None] * 5
    if name == "maxpool_fwd":
        return ([draw(2, 3, 4, 4), out(2, 3, 2, 2),
                 np.full((2, 3, 2, 2), -7, np.int64), 2],
                [read, written, ("int64", True), None])
    if name == "maxpool_bwd":
        return ([draw(2, 3, 2, 2), rng.integers(0, 4, (2, 3, 2, 2)),
                 out(2, 3, 4, 4), 2],
                [read, ("int64", False), written, None])
    if name == "fake_quant":
        return [draw(3, 4, 5), out(3, 4, 5), 8], [read, written, None]
    if name == "adam_update":
        return ([draw(4, 3), draw(4, 3), draw(4, 3), np.abs(draw(4, 3)),
                 out(4, 3), 1e-3, 0.9, 0.999, 1e-8, 1e-4, 0.1, 0.001],
                [read, read, written, written, written] + [None] * 7)
    if name == "bn_centre":
        return ([draw(2, 3, 4, 5), draw(3), out(2, 3, 4, 5), out(2, 3, 4, 5)],
                [read, read, written, written])
    if name == "bn_normalize":
        mask = np.zeros((2, 3, 4, 5), np.bool_)
        mask.view(np.uint8)[...] = 2  # a byte the kernel never writes
        return ([draw(2, 3, 4, 5), draw(3), draw(3), draw(3), out(2, 3, 4, 5),
                 mask], [written, read, read, read, written, ("bool", True)])
    if name == "bn_grad_terms":
        return ([draw(2, 3, 4, 5), rng.random((2, 3, 4, 5)) > 0.5,
                 draw(2, 3, 4, 5), out(2, 3, 4, 5), out(2, 3, 4, 5)],
                [read, ("bool", False), read, written, written])
    assert name == "bn_grad_input"
    return ([draw(2, 3, 4, 5), draw(2, 3, 4, 5), draw(3), draw(3), draw(3),
             out(2, 3, 4, 5)], [read, read, read, read, read, written])


def _misaligned(a):
    """``a`` copied into a view one byte off an aligned buffer."""
    view = np.zeros(a.nbytes + 1, np.uint8)[1:].view(a.dtype).reshape(a.shape)
    view[...] = a
    return view


def _misaligned_buffer(a):
    """``a`` as a memoryview one byte off an aligned buffer, in ``a``'s
    format: numpy marks its own misaligned views in the format ("=d"),
    other exporters need not."""
    view = memoryview(np.zeros(a.nbytes + 1, np.uint8))[1:]
    view[:] = a.tobytes()
    return view.cast(a.dtype.char, a.shape)


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


def _rows_apart(a):
    """``a`` with its innermost axis strided: an F-ordered image, else
    every other element of a doubled array."""
    if a.ndim == 4:
        return np.asfortranarray(a)
    return np.repeat(a, 2, axis=-1)[..., ::2]


def _other_dtype(a):
    if a.dtype.kind == "f":
        return a.astype(OTHER_FLOAT[a.dtype])
    return a.astype(np.float32 if a.dtype == np.bool_ else np.int32)


# Each misfit: (name, applies to (kind, written), operand -> misfit).
MISFITS = [
    ("another dtype", lambda kind, w: True, _other_dtype),
    ("big-endian", lambda kind, w: kind != "bool",
     lambda a: a.astype(a.dtype.newbyteorder(">"))),
    ("read-only", lambda kind, w: w, _read_only),
    ("misaligned", lambda kind, w: kind != "bool", _misaligned),
    ("misaligned buffer", lambda kind, w: kind != "bool", _misaligned_buffer),
    ("zero stride", lambda kind, w: kind != "conv",
     lambda a: np.lib.stride_tricks.as_strided(a, strides=(0,) + a.strides[1:])),
    ("negative stride", lambda kind, w: kind != "conv", lambda a: a[::-1]),
    ("rows apart", lambda kind, w: True, _rows_apart),
    ("zero-size", lambda kind, w: True,
     lambda a: np.empty((0,) + a.shape[1:], a.dtype)),
    ("wrong shape", lambda kind, w: True,
     lambda a: np.zeros((a.shape[0] + 1,) + a.shape[1:], a.dtype)),
    ("bytearray", lambda kind, w: True, lambda a: bytearray(a.nbytes)),
]


def misfit_calls(name, dtype):
    """``(label, args)`` of every misfit call of entry point ``name``:
    one operand at a time replaced by each misfit that applies to it,
    and the entry point's own cases."""
    args, roles = fitting_call(name, dtype)
    for misfit, applies, make in MISFITS:
        for i, role in enumerate(roles):
            if role is not None and applies(*role):
                yield (f"{misfit} argument {i}",
                       args[:i] + [make(args[i])] + args[i + 1:])
    if name == "bn_grad_terms":
        yield "masked without mask", [args[0], None] + args[2:]
        yield "mask without masked", args[:3] + [None, args[4]]
    if name == "fake_quant":
        for bits in (0, 63):
            yield f"{bits} bits", args[:2] + [bits]


needs_c_tier = pytest.mark.skipif(not _ckernels.kernels(),
                                  reason="the C kernel tier cannot load here")


@needs_c_tier
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("name", _ckernels._WRAPPERS)
class TestMisfitGrid:
    def test_fitting_call_runs(self, name, dtype):
        args, _ = fitting_call(name, np.dtype(dtype))
        assert _ckernels.kernels()[name](*args) is True

    def test_misfits_return_false_and_write_nothing(self, name, dtype):
        kernel = _ckernels.kernels()[name]

        def snapshot(args):
            return [a if a is None or np.isscalar(a) else
                    memoryview(a).tobytes() for a in args]

        for label, args in misfit_calls(name, np.dtype(dtype)):
            before = snapshot(args)
            assert kernel(*args) is False, label
            assert snapshot(args) == before, f"{label}: an operand was written"

    def test_wrong_argument_count_raises(self, name, dtype):
        args, _ = fitting_call(name, np.dtype(dtype))
        kernel = _ckernels.kernels()[name]
        for wrong in (args[:-1], args + [0]):
            with pytest.raises(TypeError):
                kernel(*wrong)


def _c_toolchain_present() -> bool:
    try:
        importlib.import_module("cffi")
    except ImportError:
        return False
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    return shutil.which(compiler) is not None


KILLED_BUILD = """
import os, sys
sys.path.insert(0, sys.argv[1])
import cffi

real_compile = cffi.FFI.compile

def compile_then_die(self, *args, **kwargs):
    # A worker killed while the shared object was still being written.
    built = real_compile(self, *args, **kwargs)
    with open(built, "r+b") as handle:
        handle.truncate(64)
    os._exit(9)

cffi.FFI.compile = compile_then_die
from repro.backend import _ckernels
_ckernels.get_kernel("im2col")
"""

FRESH_LOAD = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from repro.backend import _ckernels
from repro.backend._im2col import im2col_strided
kernel = _ckernels.get_kernel("im2col")
assert kernel is not None, "the C tier did not load"
x = np.arange(2 * 3 * 5 * 5, dtype=np.float32).reshape(2, 3, 5, 5)
cols = np.empty((27, 50), dtype=np.float32)
kernel(x, cols, 3, 1, 1, 5, 5)
assert np.array_equal(cols, im2col_strided(x, 3, 1, 1)[0])
print("ok")
"""


def test_build_cache_key_covers_compile_flags(monkeypatch):
    """A build under other flags or macros is other code: it gets its own
    cache entry.  Without its macro cffi builds against the limited API."""
    modname, sofile = _ckernels._build_path()
    for setting, other in (("_COMPILE_ARGS", _ckernels._COMPILE_ARGS + ("-g",)),
                           ("_MACROS", ())):
        with monkeypatch.context() as patch:
            patch.setattr(_ckernels, setting, other)
            other_modname, other_sofile = _ckernels._build_path()
        assert other_modname != modname, setting
        assert os.path.dirname(other_sofile) != os.path.dirname(sofile), setting


@needs_c_tier
def test_every_kernel_name_resolves():
    for name in _ckernels._WRAPPERS:
        assert callable(_ckernels.get_kernel(name)), name
    assert set(_ckernels.kernels()) == set(_ckernels._WRAPPERS)


@needs_c_tier
@pytest.mark.parametrize("failure", ["import raises", "entry point missing"])
def test_a_broken_dispatch_module_yields_no_kernels(monkeypatch, failure):
    """The shared object builds but its dispatch module does not serve
    every kernel: the table is empty, never half full."""
    module = _ckernels._load()
    if failure == "import raises":
        # The built object has no init function under this name, so
        # importing it raises ImportError.
        monkeypatch.setattr(_ckernels, "_DISPATCH", "_repro_no_such_module")
    else:
        monkeypatch.setattr(_ckernels, "_load", lambda: types.SimpleNamespace(
            **{name: getattr(module, name) for name in _ckernels._WRAPPERS[1:]}))
    monkeypatch.setattr(_ckernels, "_KERNELS", None)
    assert _ckernels.kernels() == {}
    assert _ckernels.get_kernel("im2col") is None


@pytest.mark.skipif(not _c_toolchain_present(),
                    reason="needs cffi and a C compiler")
def test_killed_build_leaves_no_partial_kernel(tmp_path):
    env = dict(os.environ, REPRO_CKERNEL_CACHE=str(tmp_path / "ckernels"))

    def run(script):
        return subprocess.run([sys.executable, "-c", script, SRC], env=env,
                              capture_output=True, text=True, timeout=300)

    killed = run(KILLED_BUILD)
    assert killed.returncode == 9, killed.stderr
    fresh = run(FRESH_LOAD)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == "ok"
