"""Cross-entropy tests."""

import numpy as np
import pytest

from repro.autograd import Tensor, grad_check
from repro.autograd.functional import cross_entropy
from repro.backend import use_backend


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.normal(size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        loss = cross_entropy(Tensor(logits), targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), targets].mean()
        assert np.isclose(loss.item(), expected)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -20.0)
        logits[0, 1] = logits[1, 2] = 20.0
        loss = cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-6

    def test_uniform_logits_log_k(self):
        loss = cross_entropy(Tensor(np.zeros((4, 10))), np.zeros(4, dtype=int))
        assert np.isclose(loss.item(), np.log(10))

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        targets = np.array([0, 1, 3])
        cross_entropy(logits, targets).backward()
        exp = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        expected = exp / exp.sum(axis=1, keepdims=True)
        expected[np.arange(3), targets] -= 1
        assert np.allclose(logits.grad, expected / 3)

    def test_gradient_numerically(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        targets = np.array([0, 2, 1, 1])
        assert grad_check(lambda l: cross_entropy(l, targets), [logits], atol=1e-6)

    def test_batch_mismatch_raises(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

    def test_2d_targets_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((2, 1), dtype=int))


def _loss_and_grad(logits, targets, upstream=None):
    """``(loss, dloss/dlogits)`` on the active backend."""
    x = Tensor(logits, requires_grad=True)
    loss = cross_entropy(x, targets)
    loss.backward(None if upstream is None else np.asarray(upstream))
    return loss.item(), x.grad


@pytest.mark.parametrize("backend_name", ["reference", "fast"])
class TestCrossEntropyProperties:
    """Softmax identities the fused kernel must keep, on both backends."""

    def test_shift_invariance(self, rng, backend_name):
        logits = rng.normal(size=(5, 4)) * 2.0
        targets = np.array([0, 3, 1, 2, 3])
        shift = rng.normal(size=(5, 1)) * 50.0
        with use_backend(backend_name):
            loss, grad = _loss_and_grad(logits, targets)
            shifted_loss, shifted_grad = _loss_and_grad(logits + shift, targets)
        assert np.isclose(shifted_loss, loss, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(shifted_grad, grad, rtol=1e-3, atol=1e-5)

    def test_extreme_logits_stay_finite(self, backend_name):
        logits = np.array([[1e4, -1e4, 0.0], [-1e4, 0.0, 1e4]])
        with use_backend(backend_name):
            right, right_grad = _loss_and_grad(logits, np.array([0, 2]))
            wrong, wrong_grad = _loss_and_grad(logits, np.array([1, 0]))
        assert right == 0.0
        assert np.all(right_grad == 0.0)
        # Both wrong targets sit 2e4 below their row's maximum.
        assert wrong == 2e4
        assert np.isfinite(wrong_grad).all()
        expected = np.array([[0.5, -0.5, 0.0], [-0.5, 0.0, 0.5]])
        np.testing.assert_array_equal(wrong_grad, expected)

    def test_gradient_rows_sum_to_zero(self, rng, backend_name):
        logits = rng.normal(size=(6, 5)) * 3.0
        targets = rng.integers(0, 5, size=6)
        with use_backend(backend_name):
            _, grad = _loss_and_grad(logits, targets)
        # softmax rows sum to one, the one-hot rows too.
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-6)
        assert np.all(grad[np.arange(6), targets] < 0)

    def test_gradient_scales_with_upstream(self, rng, backend_name):
        logits = rng.normal(size=(4, 3))
        targets = np.array([2, 0, 1, 1])
        with use_backend(backend_name):
            _, unit = _loss_and_grad(logits, targets)
            _, scaled = _loss_and_grad(logits, targets, upstream=-2.5)
        np.testing.assert_allclose(scaled, -2.5 * unit, rtol=1e-6)

    def test_loss_is_the_batch_mean(self, rng, backend_name):
        logits = rng.normal(size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        with use_backend(backend_name):
            whole, _ = _loss_and_grad(logits, targets)
            rows = [_loss_and_grad(logits[i:i + 1], targets[i:i + 1])[0]
                    for i in range(6)]
        assert np.isclose(whole, np.mean(rows), rtol=1e-5)
