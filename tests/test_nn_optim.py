"""Optimizer math and checkpointed optimizer state."""

import numpy as np
import pytest

from repro.backend import use_backend
from repro.nn import SGD, Adam
from repro.nn.module import Parameter


def make_param(values):
    param = Parameter(np.array(values, dtype=np.float64))
    param.grad = np.ones_like(param.data)
    return param


class TestSGD:
    def test_plain_step(self):
        p = make_param([1.0, 2.0])
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [0.9, 1.9])

    def test_momentum_accumulates(self):
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()  # v = 1 -> p = -1
        p.grad = np.ones(1)
        opt.step()  # v = 1.9 -> p = -2.9
        assert np.allclose(p.data, [-2.9])

    def test_weight_decay_adds_l2_grad(self):
        p = make_param([2.0])
        p.grad = np.zeros(1)
        SGD([p], lr=0.5, weight_decay=0.1).step()
        assert np.allclose(p.data, [2.0 - 0.5 * 0.2])

    def test_none_grad_skipped(self):
        p = Parameter(np.ones(2))
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0, 1.0])

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.1, momentum=1.0)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.0)

    def test_zero_grad(self):
        p = make_param([1.0])
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_state_round_trip_resumes_identically(self):
        run = _run_steps(lambda ps: SGD(ps, lr=0.05, momentum=0.9), steps=6)
        resumed = _run_steps(lambda ps: SGD(ps, lr=0.05, momentum=0.9),
                             steps=6, resume_after=3)
        assert np.array_equal(resumed, run)

    def test_matches_reference_on_fast_backend(self):
        # sgd_update in float32 tracks the float64 reference.
        results = []
        for name in ("reference", "fast"):
            with use_backend(name):
                results.append(_run_steps(
                    lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=0.01),
                    steps=5))
        assert results[1].dtype == np.float32
        np.testing.assert_allclose(results[1], results[0], rtol=1e-5, atol=1e-6)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # With bias correction, |step 1| == lr for any constant gradient.
        p = make_param([0.0])
        Adam([p], lr=0.01).step()
        assert np.allclose(p.data, [-0.01], atol=1e-8)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        p = Parameter(rng.normal(size=5))
        reference = p.data.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        opt = Adam([p], lr=0.004, betas=(0.9, 0.999), eps=1e-8)
        for t in range(1, 6):
            grad = rng.normal(size=5)
            p.grad = grad.copy()
            opt.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            reference -= 0.004 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.allclose(p.data, reference, atol=1e-12)

    def test_weight_decay(self):
        p = make_param([1.0])
        p.grad = np.zeros(1)
        Adam([p], lr=0.1, weight_decay=1.0).step()
        assert p.data[0] < 1.0

    def test_adaptive_scaling_shrinks_large_grad_dims(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1)
        for _ in range(50):
            p.grad = np.array([1.0, 100.0])
            opt.step()
        # Adam normalizes per-dimension: both coordinates move similarly.
        assert abs(p.data[0] - p.data[1]) < abs(p.data[0]) * 0.2

    def test_none_grad_skipped(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=0.1)
        opt.step()
        assert np.array_equal(p.data, [1.0, 1.0])
        assert opt.state_meta() == {"step_count": 1}

    def test_state_round_trip_resumes_identically(self):
        run = _run_steps(lambda ps: Adam(ps, lr=0.01), steps=6)
        resumed = _run_steps(lambda ps: Adam(ps, lr=0.01), steps=6,
                             resume_after=3)
        assert np.array_equal(resumed, run)

    def test_load_state_missing_slot_raises(self):
        opt = Adam([make_param([1.0]), make_param([2.0, 3.0])], lr=0.1)
        arrays = opt.state_arrays()
        del arrays["v.1"]
        with pytest.raises(KeyError, match="v.1"):
            Adam([make_param([1.0]), make_param([2.0, 3.0])], lr=0.1).load_state(
                arrays, {"step_count": 1})

    def test_load_state_shape_mismatch_raises(self):
        opt = Adam([make_param([1.0, 2.0])], lr=0.1)
        arrays = dict(opt.state_arrays(), **{"m.0": np.zeros(3)})
        with pytest.raises(ValueError, match="m.0"):
            Adam([make_param([1.0, 2.0])], lr=0.1).load_state(arrays, {})


def _run_steps(make_optimizer, steps, resume_after=None):
    """Parameters after ``steps`` steps on a fixed gradient stream.

    With ``resume_after``, the optimizer's state is saved after that
    many steps and the rest run on a fresh optimizer that loads it, as
    a checkpoint resume does.
    """
    rng = np.random.default_rng(0)
    params = [Parameter(rng.normal(size=(3, 2))), Parameter(rng.normal(size=4))]
    grads = [[rng.normal(size=p.shape) for p in params] for _ in range(steps)]
    opt = make_optimizer(params)
    for step, step_grads in enumerate(grads):
        if step == resume_after:
            arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
            meta = dict(opt.state_meta())
            opt = make_optimizer(params)
            opt.load_state(arrays, meta)
        for param, grad in zip(params, step_grads):
            param.grad = grad.astype(param.data.dtype)
        opt.step()
    return np.concatenate([p.data.ravel() for p in params])
