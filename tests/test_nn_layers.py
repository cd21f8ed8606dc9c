"""Layer behaviour: shapes, gradients, quant hooks, BN statistics."""

import numpy as np
import pytest

from repro.autograd import Tensor, grad_check
from repro.autograd.conv import max_pool2d
from repro.backend import use_backend
from repro.nn import BatchNorm2d, Conv2d, GlobalAvgPool2d, Linear, MaxPool2d
from repro.quant import FakeQuantize


class TestConv2dLayer:
    def test_output_shape(self, rng):
        layer = Conv2d(3, 8, 3, padding=1, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 3, 16, 16))))
        assert out.shape == (2, 8, 16, 16)

    def test_stride_halves(self, rng):
        layer = Conv2d(3, 4, 3, stride=2, padding=1, rng=rng)
        out = layer(Tensor(rng.normal(size=(1, 3, 16, 16))))
        assert out.shape == (1, 4, 8, 8)

    def test_no_bias_option(self, rng):
        layer = Conv2d(2, 2, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_invalid_channels(self, rng):
        with pytest.raises(ValueError):
            Conv2d(0, 4, 3, rng=rng)

    def test_weight_fake_quant_hook_applied(self, rng):
        layer = Conv2d(2, 2, 3, rng=rng)
        layer.weight_fake_quant = FakeQuantize(2)
        effective = layer.effective_weight()
        assert len(np.unique(effective.data)) <= 4  # 2 bits -> 4 levels

    def test_weight_fake_quant_none_passthrough(self, rng):
        layer = Conv2d(2, 2, 3, rng=rng)
        assert layer.effective_weight() is layer.weight

    def test_gradients_flow_to_master_weights_through_quant(self, rng):
        layer = Conv2d(2, 2, 3, rng=rng)
        layer.weight_fake_quant = FakeQuantize(4)
        out = layer(Tensor(rng.normal(size=(1, 2, 5, 5))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.weight.grad.shape == layer.weight.data.shape


class TestLinearLayer:
    def test_matches_manual(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        out = layer(Tensor(x))
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(out.data, expected)

    def test_quant_hook(self, rng):
        layer = Linear(8, 8, rng=rng)
        layer.weight_fake_quant = FakeQuantize(1)
        assert len(np.unique(layer.effective_weight().data)) <= 2

    def test_invalid_features(self, rng):
        with pytest.raises(ValueError):
            Linear(4, 0, rng=rng)

    def test_non_2d_input_rejected(self, rng):
        # The classifiers flatten to (N, C) before the linear layer.
        with pytest.raises(ValueError, match="expects"):
            Linear(4, 3, rng=rng)(Tensor(rng.normal(size=(2, 5, 4))))

    def test_gradients_numerical(self, rng):
        layer = Linear(4, 3, rng=rng)
        layer.bias.data = rng.normal(size=3)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        # grad_check perturbs the parameters in place, so the layer sees it.
        assert grad_check(lambda x_, w_, b_: layer(x_),
                          [x, layer.weight, layer.bias], atol=1e-6)

    def test_no_bias_option(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        out = layer(x)
        assert np.allclose(out.data, x.data @ layer.weight.data.T)
        out.sum().backward()
        assert np.allclose(x.grad, np.ones((2, 3)) @ layer.weight.data)
        assert np.allclose(layer.weight.grad, np.ones((3, 2)) @ x.data)

    def test_gradients_flow_to_master_weights_through_quant(self, rng):
        layer = Linear(4, 3, rng=rng)
        layer.weight_fake_quant = FakeQuantize(2)
        x = rng.normal(size=(5, 4))
        layer(Tensor(x)).sum().backward()
        # Straight-through: the master weight gets the quantized
        # weight's gradient, which does not depend on the weight.
        assert np.allclose(layer.weight.grad, np.ones((3, 5)) @ x)


class TestBatchNorm2d:
    def test_normalizes_batch(self, rng):
        bn = BatchNorm2d(3)
        x = rng.normal(loc=5.0, scale=2.0, size=(8, 3, 4, 4))
        out = bn(Tensor(x))
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated(self, rng):
        bn = BatchNorm2d(2, momentum=1.0)  # full replacement for testing
        x = rng.normal(loc=3.0, size=(16, 2, 4, 4))
        bn(Tensor(x))
        assert np.allclose(bn.running_mean, x.mean(axis=(0, 2, 3)), atol=1e-7)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        for _ in range(10):
            bn(Tensor(rng.normal(loc=1.0, size=(8, 2, 3, 3))))
        bn.eval()
        x = rng.normal(loc=1.0, size=(4, 2, 3, 3))
        out = bn(Tensor(x))
        inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
        expected = (x - bn.running_mean[None, :, None, None]) * inv[None, :, None, None]
        assert np.allclose(out.data, expected, atol=1e-7)

    def test_train_gradients_numerical(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)

        def f(x_, g_, b_):
            bn.gamma, bn.beta = g_, b_
            return bn(x_)

        gamma = Tensor(rng.normal(size=2) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=2), requires_grad=True)
        # BatchNorm recomputes batch stats each call, so grad_check works.
        assert grad_check(f, [x, gamma, beta], atol=1e-5)

    def test_eval_gradients_numerical(self, rng):
        bn = BatchNorm2d(2)
        bn(Tensor(rng.normal(size=(8, 2, 3, 3))))
        bn.eval()
        x = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        assert grad_check(lambda x_: bn(x_), [x], atol=1e-5)

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3)(Tensor(np.zeros((2, 3))))

    def test_wrong_channels_raises(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3)(Tensor(np.zeros((2, 4, 5, 5))))

    def test_running_var_is_unbiased(self, rng):
        bn = BatchNorm2d(2, momentum=1.0)
        x = rng.normal(scale=3.0, size=(4, 2, 3, 3))
        bn(Tensor(x))
        assert np.allclose(bn.running_var, x.var(axis=(0, 2, 3), ddof=1))

    def test_momentum_blends_running_mean(self, rng):
        bn = BatchNorm2d(2, momentum=0.1)
        x = rng.normal(loc=4.0, size=(4, 2, 3, 3))
        bn(Tensor(x))
        assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=(0, 2, 3)))
        assert np.allclose(bn.running_var,
                           0.9 + 0.1 * x.var(axis=(0, 2, 3), ddof=1))

    def test_eval_leaves_running_stats_unchanged(self, rng):
        bn = BatchNorm2d(2)
        bn(Tensor(rng.normal(size=(4, 2, 3, 3))))
        mean, var = bn.running_mean.copy(), bn.running_var.copy()
        bn.eval()
        bn(Tensor(rng.normal(loc=9.0, size=(4, 2, 3, 3))))
        assert np.array_equal(bn.running_mean, mean)
        assert np.array_equal(bn.running_var, var)

    @pytest.mark.parametrize("training", [True, False])
    def test_fused_relu_is_relu_of_forward(self, rng, training):
        bn = BatchNorm2d(3)
        bn.gamma.data = rng.normal(size=3)
        bn.beta.data = rng.normal(size=3)
        bn.train(training)
        x = rng.normal(size=(2, 3, 4, 4))
        plain = bn(Tensor(x)).data
        fused = bn.forward_fused(Tensor(x), fuse_relu=True).data
        assert np.allclose(fused, np.maximum(plain, 0.0))

    @pytest.mark.parametrize("backend_name,dtype",
                             [("reference", np.float64), ("fast", np.float32)])
    def test_running_stats_keep_the_backend_dtype(self, rng, backend_name, dtype):
        with use_backend(backend_name):
            bn = BatchNorm2d(2)
            bn(Tensor(rng.normal(size=(4, 2, 3, 3))))
            bn.eval()
            out = bn(Tensor(rng.normal(size=(4, 2, 3, 3))))
        assert bn.running_mean.dtype == bn.running_var.dtype == dtype
        assert out.data.dtype == dtype


class TestSimpleLayers:
    def test_maxpool_layer(self, rng):
        out = MaxPool2d(2)(Tensor(rng.normal(size=(1, 2, 8, 8))))
        assert out.shape == (1, 2, 4, 4)

    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 2)])
    def test_maxpool_layer_matches_functional(self, rng, kernel, stride):
        layer = MaxPool2d(kernel, stride)
        assert layer.stride == (stride or kernel)
        x = rng.normal(size=(1, 2, 7, 7))
        expected = max_pool2d(Tensor(x), kernel, stride).data
        assert np.array_equal(layer(Tensor(x)).data, expected)

    def test_global_avg_pool(self, rng):
        out = GlobalAvgPool2d()(Tensor(rng.normal(size=(2, 5, 7, 7))))
        assert out.shape == (2, 5, 1, 1)

    def test_global_avg_pool_values(self, rng):
        x = rng.normal(size=(2, 5, 3, 4))
        out = GlobalAvgPool2d()(Tensor(x))
        assert np.allclose(out.data[..., 0, 0], x.mean(axis=(2, 3)))


@pytest.mark.parametrize("make,text", [
    (lambda: Conv2d(3, 8, 3, stride=2, padding=1), "Conv2d(3, 8, k=3, s=2, p=1)"),
    (lambda: Linear(4, 3), "Linear(4, 3)"),
    (lambda: BatchNorm2d(16), "BatchNorm2d(16)"),
    (lambda: MaxPool2d(2), "MaxPool2d(k=2, s=2)"),
    (lambda: GlobalAvgPool2d(), "GlobalAvgPool2d()"),
], ids=["conv", "linear", "batchnorm", "maxpool", "gap"])
def test_layer_repr(make, text):
    assert repr(make()) == text
