"""Fused elementwise-kernel contract tests.

Three guarantees, one file:

1. on the **reference** backend every fused chain is *bit-identical* to
   the per-primitive seed graph it replaced, so pinned trajectories and
   cache keys cannot move.  The library builds only the fused graph;
   the seed formulas live here as a test-local oracle
   (:func:`seed_graph`) that the exact-equality tests patch over the
   library ops;
2. on the **fast** backend every fused kernel agrees with the reference
   within float32 round-off, forward and backward, contiguous or not
   (hypothesis-driven differential tests);
3. fused chains save only their minimal backward residual — the
   cross-entropy closure keeps the log-probabilities, not the softmax
   matrix, for the graph's lifetime — and the per-iteration graph gets
   smaller.
"""

import collections
import contextlib
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.autograd import conv as conv_ops
from repro.autograd import functional as F
from repro.autograd.gradcheck import grad_check
from repro.autograd.tensor import Node
from repro.backend import active_backend, use_backend
from repro.nn.layers import BatchNorm2d, Linear
from repro.nn.loss import CrossEntropyLoss
from repro.nn.optim import SGD

RTOL = 1e-3
ATOL = 1e-3

ARRAYS = st.integers(min_value=0, max_value=2**31 - 1).map(
    lambda seed: np.random.default_rng(seed)
)


# ----------------------------------------------------------------------
# The seed oracle: the per-primitive formulas each fused op replaced,
# one graph node and one temporary per primitive, verbatim.
# ----------------------------------------------------------------------
def _seed_relu(self):
    mask = self.data > 0
    out_data = self.data * mask

    def backward(grad):
        return (grad * mask,)

    return Tensor.from_op(out_data, (self,), backward, "relu")


def _seed_cross_entropy(logits, targets):
    targets = np.asarray(targets)
    n = logits.data.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_sum
    loss = -log_probs[np.arange(n), targets].mean()
    soft = np.exp(log_probs)

    def backward(grad):
        g = soft.copy()
        g[np.arange(n), targets] -= 1.0
        return (g * (grad / n),)

    return Tensor.from_op(np.asarray(loss), (logits,), backward, "cross_entropy")


_LIBRARY_MAX_POOL = conv_ops.max_pool2d


def _seed_max_pool2d(x, kernel, stride=None):
    stride = stride or kernel
    n, c, h, w = x.data.shape
    if not (stride == kernel and h % kernel == 0 and w % kernel == 0):
        # Overlapping windows never had a fused path.
        return _LIBRARY_MAX_POOL(x, kernel, stride)
    out_h, out_w = h // kernel, w // kernel
    reshaped = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
    windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, out_h, out_w, kernel * kernel
    )
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]

    def backward(grad):
        grad_windows = np.zeros_like(windows)
        np.put_along_axis(grad_windows, argmax[..., None], grad[..., None], axis=-1)
        g = grad_windows.reshape(n, c, out_h, out_w, kernel, kernel)
        return (g.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w),)

    return Tensor.from_op(out, (x,), backward, "max_pool2d")


def _seed_linear_forward(self, x):
    out = x @ self.effective_weight().transpose()
    if self.bias is not None:
        out = out + self.bias
    return out


def _seed_batchnorm_forward(self, x, fuse_relu=False):
    gamma, beta = self.gamma, self.beta
    axes = (0, 2, 3)
    if self.training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
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
        mean = self.running_mean
        var = self.running_var

    inv_std = 1.0 / np.sqrt(var + self.eps)
    x_hat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * x_hat + beta.data[None, :, None, None]
    training = self.training

    def backward(grad):
        grad_gamma = (grad * x_hat).sum(axis=axes)
        grad_beta = grad.sum(axis=axes)
        scale = (gamma.data * inv_std)[None, :, None, None]
        if not training:
            return (grad * scale, grad_gamma, grad_beta)
        mean_dy = grad.mean(axis=axes)[None, :, None, None]
        mean_dy_xhat = (grad * x_hat).mean(axis=axes)[None, :, None, None]
        grad_x = scale * (grad - mean_dy - x_hat * mean_dy_xhat)
        return (grad_x, grad_gamma, grad_beta)

    out = Tensor.from_op(out, (x, gamma, beta), backward, "batchnorm2d")
    return out.relu() if fuse_relu else out


SEED_OPS = (
    (Tensor, "relu", _seed_relu),
    (F, "cross_entropy", _seed_cross_entropy),
    (conv_ops, "max_pool2d", _seed_max_pool2d),
    (Linear, "forward", _seed_linear_forward),
    (BatchNorm2d, "forward_fused", _seed_batchnorm_forward),
)


@contextlib.contextmanager
def seed_graph():
    """Patch the seed oracle over the library ops; yields per-op call counts."""
    calls = collections.Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for owner, name, func in SEED_OPS:
            patch.setattr(owner, name, counted(func.__name__, func))
        yield calls


def _run(backend_name, func, arrays):
    """``(output, grads)`` of ``func(*arrays)`` on one backend."""
    with use_backend(backend_name):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = func(*tensors)
        out.sum().backward()
        return out.data.copy(), [t.grad.copy() for t in tensors]


def _stepped_strides(a):
    """Strides of the axes longer than one: the only ones ever stepped."""
    return tuple(s for s, d in zip(a.strides, a.shape) if d > 1)


def assert_fused_matches_seed_exactly(func, arrays):
    """On the reference backend, fused == the seed oracle down to the last
    bit, laid out as the seed laid it out."""
    fused_out, fused_grads = _run("reference", func, arrays)
    with seed_graph() as calls:
        seed_out, seed_grads = _run("reference", func, arrays)
    assert calls, "the seed oracle was not in effect"
    assert fused_out.tobytes() == seed_out.tobytes()
    assert _stepped_strides(fused_out) == _stepped_strides(seed_out)
    for index, (fused, seed) in enumerate(zip(fused_grads, seed_grads)):
        assert fused.tobytes() == seed.tobytes(), (
            f"fused reference gradient moved for input {index}"
        )
        assert _stepped_strides(fused) == _stepped_strides(seed), (
            f"fused reference gradient layout moved for input {index}"
        )


def _channel_major(x):
    """``x`` laid out as a conv output hands it on: the (C, N, H, W)
    buffer, transposed back to NCHW."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def assert_fast_matches_reference(func, arrays, rtol=RTOL, atol=ATOL):
    ref_out, ref_grads = _run("reference", func, arrays)
    fast_out, fast_grads = _run("fast", func, arrays)
    assert fast_out.dtype == np.float32
    np.testing.assert_allclose(fast_out, ref_out, rtol=rtol, atol=atol)
    for index, (fast, ref) in enumerate(zip(fast_grads, ref_grads)):
        np.testing.assert_allclose(
            fast, ref, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch on input {index}",
        )


def _micro_vgg_iteration(backend_name, steps=1):
    """Losses / grads / buffers / params / graph size of a tiny VGG train loop."""
    from repro.models import vgg11

    with use_backend(backend_name):
        rng = np.random.default_rng(7)
        model = vgg11(num_classes=4, width_multiplier=0.0625, image_size=8,
                      rng=np.random.default_rng(42))
        model.train()
        criterion = CrossEntropyLoss()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        losses, nodes = [], 0
        for _ in range(steps):
            x = Tensor(rng.normal(size=(4, 3, 8, 8)))
            y = rng.integers(0, 4, size=4)
            for p in model.parameters():
                p.grad = None
            loss = criterion(model(x), y)
            nodes = _graph_size(loss)
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        grads = {name: p.grad.copy() for name, p in model.named_parameters()
                 if p.grad is not None}
        buffers = {}
        for name, module in model.named_modules():
            for buf in ("running_mean", "running_var"):
                if hasattr(module, buf):
                    buffers[f"{name}.{buf}"] = getattr(module, buf).copy()
        params = {name: p.data.copy() for name, p in model.named_parameters()}
        return losses, grads, buffers, params, nodes


def assert_vgg_run_matches_seed(steps):
    """Fused vs seed-oracle VGG run: losses, grads, BN buffers, params."""
    fused = _micro_vgg_iteration("reference", steps=steps)
    with seed_graph():
        seed = _micro_vgg_iteration("reference", steps=steps)
    assert fused[0] == seed[0], "loss trajectory moved"
    for index, what in ((1, "gradient"), (2, "buffer"), (3, "parameter")):
        assert fused[index].keys() == seed[index].keys()
        for name in seed[index]:
            assert fused[index][name].tobytes() == seed[index][name].tobytes(), (
                f"{what} {name} moved"
            )
    return fused, seed


def _graph_size(tensor):
    """Number of recorded (backward-carrying) nodes reachable from ``tensor``."""
    seen, stack, count = set(), [tensor._node], 0
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Node):
            count += 1
            stack.extend(node.parents)
    return count


class TestReferenceBitIdentity:
    """Fused reference kernels replay the seed op sequence exactly."""

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_relu_exact(self, rng):
        x = rng.normal(size=(5, 6))
        assert_fused_matches_seed_exactly(lambda a: a.relu(), [x])

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_cross_entropy_exact(self, rng):
        logits = rng.normal(size=(8, 5)) * 2.0
        targets = rng.integers(0, 5, size=8)
        assert_fused_matches_seed_exactly(
            lambda a: F.cross_entropy(a, targets), [logits]
        )

    @given(ARRAYS, st.sampled_from([(8, 2), (6, 3), (2, 2)]))
    @settings(max_examples=15, deadline=None)
    def test_max_pool_exact(self, rng, geometry):
        # (2, 2) hits the w == kernel edge where the seed's window
        # expansion is a no-copy view and the pool gradient comes back
        # as a non-contiguous view — the layout, not just the values,
        # must be reproduced for downstream reductions to agree.
        size, kernel = geometry
        x = rng.normal(size=(2, 3, size, size))
        assert_fused_matches_seed_exactly(
            lambda a: conv_ops.max_pool2d(a, kernel), [x]
        )

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_linear_exact(self, rng):
        x = rng.normal(size=(5, 4))

        def apply(a):
            layer = Linear(4, 3, rng=np.random.default_rng(11))
            return layer(a)

        assert_fused_matches_seed_exactly(apply, [x])

    @given(ARRAYS, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_batchnorm_exact(self, rng, training):
        x = rng.normal(size=(3, 4, 5, 5))
        mean = rng.normal(size=4)
        var = np.abs(rng.normal(size=4)) + 0.5

        def apply(a):
            layer = BatchNorm2d(4)
            layer.train(training)
            if not training:
                backend = active_backend()
                layer._set_buffer("running_mean", backend.asarray(mean))
                layer._set_buffer("running_var", backend.asarray(var))
            return layer(a)

        # C-ordered, and channel-major as every conv hands it on.
        for layout in (x, _channel_major(x)):
            assert_fused_matches_seed_exactly(apply, [layout])

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_batchnorm_fused_relu_exact(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))

        def apply(a):
            layer = BatchNorm2d(3)
            layer.train(True)
            return layer.forward_fused(a, fuse_relu=True)

        for layout in (x, _channel_major(x)):
            assert_fused_matches_seed_exactly(apply, [layout])

    def test_vgg_iteration_exact_and_smaller_graph(self):
        fused, seed = assert_vgg_run_matches_seed(steps=2)
        # The acceptance criterion: fused chains record strictly fewer
        # graph nodes than the per-primitive composition — which also
        # proves the oracle was patched in.
        assert fused[4] < seed[4], (fused[4], seed[4])


class TestFusedDifferential:
    """Fast fused kernels agree with the float64 reference, fwd + bwd."""

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_relu(self, rng):
        x = rng.normal(size=(6, 7))
        assert_fast_matches_reference(lambda a: a.relu(), [x])

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_cross_entropy(self, rng):
        logits = rng.normal(size=(8, 5)) * 3.0
        targets = rng.integers(0, 5, size=8)
        assert_fast_matches_reference(
            lambda a: F.cross_entropy(a, targets), [logits]
        )

    @given(ARRAYS, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_batchnorm_train(self, rng, fuse_relu):
        x = rng.normal(size=(3, 4, 6, 6))

        def apply(a):
            layer = BatchNorm2d(4)
            layer.train(True)
            return layer.forward_fused(a, fuse_relu=fuse_relu)

        assert_fast_matches_reference(apply, [x], rtol=5e-3, atol=5e-3)

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_batchnorm_eval(self, rng):
        x = rng.normal(size=(3, 4, 6, 6))
        mean = rng.normal(size=4)
        var = np.abs(rng.normal(size=4)) + 0.5

        def apply(a):
            layer = BatchNorm2d(4)
            layer.train(False)
            backend = active_backend()
            layer._set_buffer("running_mean", backend.asarray(mean))
            layer._set_buffer("running_var", backend.asarray(var))
            return layer(a)

        assert_fast_matches_reference(apply, [x], rtol=5e-3, atol=5e-3)

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_linear(self, rng):
        x = rng.normal(size=(5, 6))

        def apply(a):
            return Linear(6, 4, rng=np.random.default_rng(13))(a)

        assert_fast_matches_reference(apply, [x], rtol=5e-3, atol=5e-3)

    @given(ARRAYS, st.sampled_from([(8, 2), (6, 3), (2, 2)]))
    @settings(max_examples=15, deadline=None)
    def test_max_pool(self, rng, geometry):
        size, kernel = geometry
        x = rng.normal(size=(2, 3, size, size))
        assert_fast_matches_reference(lambda a: conv_ops.max_pool2d(a, kernel), [x])

    @given(ARRAYS)
    @settings(max_examples=15, deadline=None)
    def test_bias_add(self, rng):
        x = rng.normal(size=(2, 5, 3, 3))
        bias = rng.normal(size=5)
        with use_backend("reference"):
            backend = active_backend()
            ref = backend.bias_add(backend.asarray(x), backend.asarray(bias))
        with use_backend("fast"):
            backend = active_backend()
            fast = backend.bias_add(backend.asarray(x), backend.asarray(bias))
        assert fast.dtype == np.float32
        np.testing.assert_allclose(fast, ref, rtol=RTOL, atol=ATOL)


class TestNonContiguousInputs:
    """Fused kernels accept strided views, not just fresh C-order arrays."""

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_relu_on_view(self, rng):
        base = rng.normal(size=(7, 6))
        view = base.T  # non-contiguous float64 view
        assert_fast_matches_reference(lambda a: a.relu(), [view])

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_cross_entropy_on_view(self, rng):
        base = rng.normal(size=(5, 8)) * 3.0
        view = base.T  # (8, 5) logits, non-contiguous
        targets = rng.integers(0, 5, size=8)
        assert_fast_matches_reference(
            lambda a: F.cross_entropy(a, targets), [view]
        )

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_linear_on_view(self, rng):
        base = rng.normal(size=(6, 5))
        view = base.T  # (5, 6) input, non-contiguous

        def apply(a):
            return Linear(6, 4, rng=np.random.default_rng(13))(a)

        assert_fast_matches_reference(apply, [view], rtol=5e-3, atol=5e-3)

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_batchnorm_on_view(self, rng):
        base = rng.normal(size=(6, 6, 4, 3))
        view = base.transpose(0, 3, 2, 1)  # (6, 3, 4, 6), non-contiguous

        def apply(a):
            layer = BatchNorm2d(3)
            layer.train(True)
            return layer(a)

        assert_fast_matches_reference(apply, [view], rtol=5e-3, atol=5e-3)

    @given(ARRAYS)
    @settings(max_examples=10, deadline=None)
    def test_max_pool_on_view(self, rng):
        base = rng.normal(size=(2, 8, 8, 3))
        view = base.transpose(0, 3, 1, 2)  # NCHW view, non-contiguous
        assert_fast_matches_reference(lambda a: conv_ops.max_pool2d(a, 2), [view])


class TestFusedBatchNormGradcheck:
    """The fused analytic batchnorm gradient matches finite differences."""

    @pytest.mark.parametrize("backend_name,eps,tol", [
        ("reference", 1e-6, 1e-4),
        ("fast", 1e-2, 2e-2),
    ])
    def test_batchnorm_train_gradcheck(self, backend_name, eps, tol):
        rng = np.random.default_rng(17)
        with use_backend(backend_name):
            layer = BatchNorm2d(3)
            layer.train(True)
            x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
            assert grad_check(lambda a: layer(a), [x],
                              eps=eps, atol=tol, rtol=tol)


class TestBatchNormTrainEvalParity:
    """With running stats pinned to one batch, eval tracks train mode."""

    @pytest.mark.parametrize("backend_name", ["reference", "fast"])
    def test_parity(self, backend_name):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 3, 8, 8))
        with use_backend(backend_name):
            layer = BatchNorm2d(3, momentum=1.0)
            layer.train(True)
            train_out = layer(Tensor(x)).data.copy()
            layer.train(False)
            eval_out = layer(Tensor(x)).data.copy()
        # Running variance is the unbiased estimate, batch normalization
        # uses the biased one: outputs differ by ~m/(m-1) in inv_std.
        np.testing.assert_allclose(eval_out, train_out, rtol=2e-2, atol=2e-2)


class TestResidualRelease:
    """The documented leak fix: cross-entropy does not pin its softmax.

    The seed closure kept ``soft = np.exp(log_probs)`` alive for the
    whole graph lifetime; the fused kernel recomputes ``exp`` in
    backward, so every forward ``exp`` temporary must be collectable
    while the graph is still alive.
    """

    def test_fused_releases_forward_exp_temporaries(self):
        real_exp = np.exp
        refs = []

        def spying_exp(*args, **kwargs):
            out = real_exp(*args, **kwargs)
            if isinstance(out, np.ndarray):
                refs.append(weakref.ref(out))
            return out

        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(64, 10)), requires_grad=True)
        targets = rng.integers(0, 10, size=64)
        np.exp = spying_exp
        try:
            out = F.cross_entropy(x, targets)
        finally:
            np.exp = real_exp
        gc.collect()
        assert refs, "np.exp was never called in forward"
        assert not any(r() is not None for r in refs), (
            "fused cross_entropy retained a forward exp array"
        )
        assert out is not None  # graph kept alive through the assertion


class TestEndToEndTrajectory:
    """Short training runs: exact on reference, within float32 on fast."""

    def test_reference_trajectory_unchanged(self):
        assert_vgg_run_matches_seed(steps=3)

    def test_fast_trajectory_tracks_reference(self):
        fast = _micro_vgg_iteration("fast", steps=3)
        ref = _micro_vgg_iteration("reference", steps=3)
        np.testing.assert_allclose(fast[0], ref[0], rtol=5e-2, atol=5e-2)


class TestJobTableConfirmRates:
    """`repro status` surfaces per-bet speculation confirm rates."""

    def test_speculation_stats_in_points_cell(self):
        from repro.core.report import format_job_table

        jobs = [
            {"id": 1, "state": "done", "priority": 0, "kind": "search",
             "name": "s", "summary": {"stats": {
                 "total": 6, "executed": 5, "cached": 1, "failed": 0,
                 "speculated": 4, "confirmed": 3, "head_starts": 2,
                 "cancelled": 1, "wasted_trials": 1}}},
            {"id": 2, "state": "done", "priority": 0, "kind": "sweep",
             "name": "w", "summary": {"stats": {
                 "total": 3, "executed": 3, "cached": 0, "failed": 0}}},
        ]
        table = format_job_table(jobs)
        assert "3/4 bets confirmed (2 with a head start)" in table
        # Non-speculative jobs keep the original cell format.
        assert "3 (3 run, 0 cached, 0 failed)" in table
