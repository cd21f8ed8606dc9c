"""Differential tests: the fast float32 backend against the reference.

Every backend-dispatched operation runs forward *and* backward on both
backends from identical float64 inputs; the fast path must agree with
the float64 reference within float32 round-off.  The fast backend is
additionally held to the same finite-difference gradient contract as
the reference (``grad_check`` with float32-sized tolerances), so a
fused kernel whose analytic gradient silently drifts fails here, not
in a days-later accuracy regression.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.autograd.conv import conv2d, global_avg_pool2d, max_pool2d
from repro.autograd.functional import cross_entropy
from repro.autograd.gradcheck import grad_check
from repro.backend import use_backend
from repro.quant.fakequant import FakeQuantize, STEQuantFunction

# float32 has ~7 significant digits; sums over the small test tensors
# lose a couple more, so 1e-3 relative is the honest contract.
RTOL = 1e-3
ATOL = 1e-3

ARRAYS = st.integers(min_value=0, max_value=2**31 - 1).map(
    lambda seed: np.random.default_rng(seed)
)


def _run_on(backend_name, func, arrays):
    """``(output, grads)`` of ``func(*arrays)`` executed on one backend."""
    with use_backend(backend_name):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = func(*tensors)
        out.sum().backward()
        return out.data.copy(), [t.grad.copy() for t in tensors]


def assert_backends_agree(func, arrays, rtol=RTOL, atol=ATOL):
    ref_out, ref_grads = _run_on("reference", func, arrays)
    fast_out, fast_grads = _run_on("fast", func, arrays)
    assert ref_out.dtype == np.float64
    assert fast_out.dtype == np.float32
    np.testing.assert_allclose(fast_out, ref_out, rtol=rtol, atol=atol)
    for index, (fast, ref) in enumerate(zip(fast_grads, ref_grads)):
        np.testing.assert_allclose(
            fast, ref, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch on input {index}",
        )


class TestElementwiseDifferential:
    @given(ARRAYS)
    @settings(max_examples=20, deadline=None)
    def test_arithmetic_chain(self, rng):
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(4, 5)) + 2.0
        assert_backends_agree(lambda x, y: x * y + x + y * y * 0.5, [a, b])

    @given(ARRAYS)
    @settings(max_examples=20, deadline=None)
    def test_broadcasting(self, rng):
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(5,))
        assert_backends_agree(lambda x, y: x * y + y, [a, b])

    @given(ARRAYS)
    @settings(max_examples=20, deadline=None)
    def test_nonlinearities(self, rng):
        a = rng.normal(size=(6, 7))
        assert_backends_agree(lambda x: x.relu() * x + x.relu(), [a])

    @given(ARRAYS)
    @settings(max_examples=20, deadline=None)
    def test_reductions(self, rng):
        a = rng.normal(size=(4, 6))
        assert_backends_agree(
            lambda x: x.sum(axis=1) + x.sum(axis=0).sum() + x.sum(), [a]
        )

    @given(ARRAYS)
    @settings(max_examples=20, deadline=None)
    def test_shape_ops(self, rng):
        a = rng.normal(size=(2, 3, 4))
        assert_backends_agree(
            lambda x: x.reshape(6, 4).transpose(1, 0).reshape(2, 12), [a]
        )


class TestMatmulDifferential:
    @given(ARRAYS)
    @settings(max_examples=20, deadline=None)
    def test_matmul_2d(self, rng):
        a = rng.normal(size=(6, 8))
        b = rng.normal(size=(8, 5))
        assert_backends_agree(lambda x, y: x @ y, [a, b])

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_matmul_batched(self, rng):
        a = rng.normal(size=(3, 4, 6))
        b = rng.normal(size=(3, 6, 5))
        assert_backends_agree(lambda x, y: x @ y, [a, b])


class TestConvPoolDifferential:
    @given(ARRAYS,
           st.sampled_from([(3, 1, 1), (3, 2, 1), (2, 2, 0), (5, 1, 2)]))
    @settings(max_examples=15, deadline=None)
    def test_conv2d(self, rng, ksp):
        kernel, stride, padding = ksp
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, kernel, kernel)) * 0.5
        b = rng.normal(size=(4,))
        assert_backends_agree(
            lambda xx, ww, bb: conv2d(xx, ww, bb, stride=stride,
                                      padding=padding),
            [x, w, b], rtol=5e-3, atol=5e-3,
        )

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_pooling(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        assert_backends_agree(lambda xx: max_pool2d(xx, 2), [x])
        assert_backends_agree(lambda xx: global_avg_pool2d(xx), [x])


class TestFunctionalDifferential:
    @given(ARRAYS)
    @settings(max_examples=20, deadline=None)
    def test_softmax_cross_entropy(self, rng):
        logits = rng.normal(size=(8, 5)) * 3.0
        targets = rng.integers(0, 5, size=8)
        assert_backends_agree(lambda x: cross_entropy(x, targets), [logits])


class TestFakeQuantDifferential:
    @given(ARRAYS, st.integers(min_value=2, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_ste_fake_quant(self, rng, bits):
        x = rng.normal(size=(6, 6)) * 4.0
        fq = FakeQuantize(bits)
        assert_backends_agree(
            lambda xx: STEQuantFunction(xx, fq._quantizer), [x]
        )

    @given(ARRAYS, st.integers(min_value=2, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_fake_quant_array(self, rng, bits):
        x = rng.normal(size=(5, 7)) * 2.0
        fq = FakeQuantize(bits)
        with use_backend("reference") as backend:
            ref = backend.fake_quant(x, fq._quantizer)
        with use_backend("fast") as backend:
            fast = backend.fake_quant(x, fq._quantizer)
        assert ref.dtype == np.float64 and fast.dtype == np.float32
        np.testing.assert_allclose(fast, ref, rtol=RTOL, atol=ATOL)

    def test_fake_quant_degenerate_constant_input(self):
        fq = FakeQuantize(4)
        x = np.full((3, 3), 2.5)
        with use_backend("fast") as backend:
            out = backend.fake_quant(x, fq._quantizer)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, 2.5)


class TestOptimizerDifferential:
    def _updates(self, backend_name, optimizer_cls, steps=5, **kwargs):
        from repro.nn.module import Parameter

        rng = np.random.default_rng(7)
        data = rng.normal(size=(4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(steps)]
        with use_backend(backend_name):
            param = Parameter(data)
            optimizer = optimizer_cls([param], **kwargs)
            for grad in grads:
                param.grad = np.asarray(grad, dtype=param.data.dtype)
                optimizer.step()
            return param.data.copy()

    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.1},
        {"lr": 0.1, "momentum": 0.9},
        {"lr": 0.1, "momentum": 0.9, "weight_decay": 1e-3},
    ])
    def test_sgd(self, kwargs):
        from repro.nn.optim import SGD

        ref = self._updates("reference", SGD, **kwargs)
        fast = self._updates("fast", SGD, **kwargs)
        assert ref.dtype == np.float64 and fast.dtype == np.float32
        np.testing.assert_allclose(fast, ref, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("kwargs", [
        {"lr": 1e-3},
        {"lr": 1e-3, "weight_decay": 1e-4},
    ])
    def test_adam(self, kwargs):
        from repro.nn.optim import Adam

        ref = self._updates("reference", Adam, **kwargs)
        fast = self._updates("fast", Adam, **kwargs)
        np.testing.assert_allclose(fast, ref, rtol=1e-4, atol=1e-5)


class TestFastBackendGradcheck:
    """The fast path honours the tape's finite-difference contract.

    float32 central differences are noisy, so eps/tolerances are widened
    accordingly; the point is catching *wrong* fused gradients (orders
    of magnitude off), not re-measuring float32 round-off.
    """

    def test_conv2d_gradcheck_fast(self):
        rng = np.random.default_rng(3)
        with use_backend("fast"):
            x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5,
                       requires_grad=True)
            assert grad_check(
                lambda a, b: conv2d(a, b, stride=1, padding=1), [x, w],
                eps=1e-2, atol=2e-2, rtol=2e-2,
            )

    def test_matmul_gradcheck_fast(self):
        rng = np.random.default_rng(4)
        with use_backend("fast"):
            a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            b = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
            assert grad_check(lambda x, y: x @ y, [a, b],
                              eps=1e-2, atol=2e-2, rtol=2e-2)

    def test_pooling_gradcheck_fast(self):
        rng = np.random.default_rng(5)
        with use_backend("fast"):
            x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
            assert grad_check(lambda a: max_pool2d(a, 2), [x],
                              eps=1e-2, atol=2e-2, rtol=2e-2)
