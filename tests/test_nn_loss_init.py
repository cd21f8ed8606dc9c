"""Loss modules and weight initializers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.functional import cross_entropy
from repro.backend import use_backend
from repro.nn import CrossEntropyLoss
from repro.nn import init


class TestLosses:
    def test_cross_entropy_module(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        loss = CrossEntropyLoss()(logits, np.array([0, 1, 2, 0]))
        loss.backward()
        assert logits.grad is not None
        assert loss.item() > 0

    def test_cross_entropy_module_matches_functional(self, rng):
        logits = rng.normal(size=(5, 3))
        targets = np.array([2, 0, 1, 1, 0])
        module = CrossEntropyLoss()
        assert repr(module) == "CrossEntropyLoss()"
        expected = cross_entropy(Tensor(logits), targets).item()
        assert module(Tensor(logits), targets).item() == expected


class TestFanComputation:
    def test_linear_fans(self):
        fan_in, fan_out = init._fan_in_fan_out((10, 20))
        assert (fan_in, fan_out) == (20, 10)

    def test_conv_fans(self):
        fan_in, fan_out = init._fan_in_fan_out((8, 4, 3, 3))
        assert fan_in == 4 * 9
        assert fan_out == 8 * 9

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            init._fan_in_fan_out((5,))


class TestInitializers:
    def test_kaiming_normal_std(self, rng):
        w = init.kaiming_normal((256, 128, 3, 3), rng)
        expected_std = np.sqrt(2.0 / (128 * 9))
        assert abs(w.std() - expected_std) / expected_std < 0.05

    def test_kaiming_normal_std_linear(self, rng):
        w = init.kaiming_normal((512, 200), rng)
        expected_std = np.sqrt(2.0 / 200)
        assert abs(w.std() - expected_std) / expected_std < 0.05
        assert abs(w.mean()) < 0.1 * expected_std

    def test_kaiming_normal_gain_scales_std(self):
        unit = init.kaiming_normal((64, 32), np.random.default_rng(3), gain=1.0)
        doubled = init.kaiming_normal((64, 32), np.random.default_rng(3), gain=2.0)
        assert np.allclose(doubled, 2.0 * unit)

    def test_zeros_ones(self):
        assert np.all(init.zeros((3, 3)) == 0)
        assert np.all(init.ones((3, 3)) == 1)

    def test_deterministic_given_rng(self):
        a = init.kaiming_normal((4, 4), np.random.default_rng(5))
        b = init.kaiming_normal((4, 4), np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("backend_name,dtype",
                             [("reference", np.float64), ("fast", np.float32)])
    def test_dtype_follows_backend(self, backend_name, dtype):
        with use_backend(backend_name):
            arrays = [init.kaiming_normal((3, 2, 3, 3), np.random.default_rng(0)),
                      init.zeros((4,)), init.ones((4,))]
        assert [a.dtype for a in arrays] == [dtype] * 3

    def test_same_draws_on_both_backends(self):
        # Draws happen in float64 and are then narrowed, so the fast
        # backend's weights are the reference weights rounded to float32.
        with use_backend("reference"):
            ref = init.kaiming_normal((8, 4, 3, 3), np.random.default_rng(7))
        with use_backend("fast"):
            fast = init.kaiming_normal((8, 4, 3, 3), np.random.default_rng(7))
        assert np.array_equal(fast, ref.astype(np.float32))
