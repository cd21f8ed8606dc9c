"""The fast backend's two kernel tiers: compiled C against the numpy fallback.

Two guarantees:

1. every C kernel computes what its numpy fallback computes on the same
   float32 inputs — bit for bit for the pure data movement (im2col,
   col2im, max pooling), within float32 round-off for the arithmetic
   (batchnorm, Adam, fake-quant);
2. the on-disk kernel cache never serves a partial build: a process
   killed mid-build leaves nothing a later process would load.

Both skip where the C tier cannot load (no cffi or no C compiler).
"""

import importlib
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from repro.backend.fast import FastBackend
from repro.quant import UniformQuantizer

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The measured worst case over these inputs is ~1e-5 absolute, in
# batchnorm: the C kernel accumulates statistics in double, the
# fallback in float32.
RTOL = 1e-4
ATOL = 5e-5


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


def assert_close(c_out, numpy_out):
    assert c_out.dtype == numpy_out.dtype == np.float32
    np.testing.assert_allclose(c_out, numpy_out, rtol=RTOL, atol=ATOL)


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
    def test_maxpool(self, tiers, kernel):
        c_tier, numpy_tier = tiers
        x = _data(2, 3, 6, 6)
        c_out, c_residual = c_tier.maxpool_fwd(x, kernel)
        np_out, np_residual = numpy_tier.maxpool_fwd(x, kernel)
        assert_bit_equal(c_out, np_out)
        grad = _data(*c_out.shape, seed=1)
        c_gx = c_tier.maxpool_bwd(grad, c_residual)
        assert_bit_equal(c_gx, numpy_tier.maxpool_bwd(grad, np_residual))
        # The int8-offset residual also has a numpy backward of its own.
        assert_bit_equal(c_gx, numpy_tier.maxpool_bwd(grad, c_residual))

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
            assert_close(c_array, numpy_array)

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
            assert_close(c_array, numpy_array)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_fake_quant(self, tiers, bits):
        c_tier, numpy_tier = tiers
        x = _data(3, 4, 5, 5)
        quantizer = UniformQuantizer(bits)
        c_out = c_tier.fake_quant(x, quantizer)
        np_out = numpy_tier.fake_quant(x, quantizer)
        assert_close(c_out, np_out)
        # Both tiers must also pick the same grid level for every input.
        lo, hi = float(x.min()), float(x.max())
        scale = ((1 << bits) - 1) / (hi - lo)
        np.testing.assert_array_equal(np.rint((c_out - lo) * scale),
                                      np.rint((np_out - lo) * scale))


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
