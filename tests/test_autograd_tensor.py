"""Unit tests for the autograd Tensor: forward values and gradients."""

import numpy as np
import pytest

from repro.autograd import Tensor, grad_check, is_grad_enabled, no_grad
from repro.autograd.tensor import unbroadcast


class TestConstruction:
    def test_data_converted_to_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_zeros_ones(self):
        assert np.all(Tensor.zeros((2, 3)).data == 0)
        assert np.all(Tensor.ones((2, 3)).data == 1)

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24
        assert len(t) == 2

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_repr_names_op_and_grad_flag(self):
        leaf = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert repr(leaf) == "Tensor(shape=(2, 3), requires_grad=True, op=leaf)"
        assert repr(leaf.relu()) == "Tensor(shape=(2, 3), requires_grad=True, op=relu)"
        assert repr(Tensor([1.0])) == "Tensor(shape=(1,), op=leaf)"

    def test_numpy_returns_data_without_copy(self):
        t = Tensor([1.0, 2.0])
        assert t.numpy() is t.data

    def test_op_on_tensors_without_grad_records_no_node(self):
        out = Tensor([1.0, 2.0]) * 3.0
        assert not out.requires_grad
        assert out._node is None


class TestArithmetic:
    def test_add_values_and_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = a + b
        out.backward(np.array([1.0, 1.0]))
        assert np.allclose(out.data, [4.0, 6.0])
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_radd_with_scalar(self):
        a = Tensor([1.0], requires_grad=True)
        out = 2.0 + a
        out.backward(np.array([1.0]))
        assert np.allclose(out.data, [3.0])
        assert np.allclose(a.grad, [1.0])

    def test_mul_grads(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        (a * b).backward(np.array([1.0]))
        assert np.allclose(a.grad, [5.0])
        assert np.allclose(b.grad, [2.0])

    def test_matmul_2d(self):
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
        out = a @ b
        out.backward(np.array([[1.0]]))
        assert np.allclose(out.data, [[11.0]])
        assert np.allclose(a.grad, [[3.0, 4.0]])
        assert np.allclose(b.grad, [[1.0], [2.0]])

    def test_matmul_batched(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (4, 2, 5)
        out.sum().backward()
        assert a.grad.shape == (4, 2, 3)
        assert b.grad.shape == (4, 3, 5)

    def test_rmul_with_scalar(self):
        a = Tensor([2.0, -1.0], requires_grad=True)
        out = 3.0 * a
        out.backward(np.ones(2))
        assert np.allclose(out.data, [6.0, -3.0])
        assert np.allclose(a.grad, [3.0, 3.0])

    def test_array_operand_gets_no_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        const = np.array([10.0, 20.0])
        out = a * const + const
        out.backward(np.ones(2))
        assert np.allclose(out.data, [20.0, 60.0])
        assert np.allclose(a.grad, const)

    def test_array_on_the_left_defers_to_tensor(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = np.array([3.0, 4.0]) * a + np.array([1.0, 1.0])
        assert isinstance(out, Tensor)
        out.backward(np.ones(2))
        assert np.allclose(a.grad, [3.0, 4.0])


class TestBroadcasting:
    def test_add_broadcast_bias(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, [4.0, 4.0, 4.0])

    def test_mul_broadcast_scalar_tensor(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        s = Tensor(3.0, requires_grad=True)
        (x * s).sum().backward()
        assert np.allclose(s.grad, 4.0)

    def test_unbroadcast_prepended_axes(self):
        grad = np.ones((5, 3))
        assert unbroadcast(grad, (3,)).shape == (3,)
        assert np.allclose(unbroadcast(grad, (3,)), 5.0)

    def test_unbroadcast_singleton_axes(self):
        grad = np.ones((4, 3))
        out = unbroadcast(grad, (4, 1))
        assert out.shape == (4, 1)
        assert np.allclose(out, 3.0)

    def test_unbroadcast_noop(self):
        grad = np.ones((2, 2))
        assert unbroadcast(grad, (2, 2)) is grad


class TestBackwardSemantics:
    def test_backward_requires_scalar_without_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_grad_shape_mismatch_raises(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            t.backward(np.ones(3))

    def test_gradient_accumulates_across_backward_calls(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward(np.array([1.0]))
        (a * 2).backward(np.array([1.0]))
        assert np.allclose(a.grad, [4.0])

    def test_diamond_graph_accumulation(self):
        # f = a*a + a*a should give grad 4a.
        a = Tensor([3.0], requires_grad=True)
        b = a * a
        c = a * a
        (b + c).backward(np.array([1.0]))
        assert np.allclose(a.grad, [12.0])

    def test_reused_node_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3
        (b + b).backward(np.array([1.0]))
        assert np.allclose(a.grad, [6.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward(np.array([1.0]))
        a.zero_grad()
        assert a.grad is None

    def test_deep_chain_no_recursion_error(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 1.0
        x.backward(np.array([1.0]))
        assert np.allclose(a.grad, [1.0])

    def test_intermediate_grads_freed(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2
        c = b * 3
        c.backward(np.array([1.0]))
        assert b.grad is None  # non-leaf grad released
        assert np.allclose(a.grad, [6.0])


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nesting(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()


class TestElementwise:
    def test_relu_values_and_mask_grad(self):
        a = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        out = a.relu()
        out.backward(np.ones(3))
        assert np.allclose(out.data, [0.0, 0.0, 2.0])
        assert np.allclose(a.grad, [0.0, 0.0, 1.0])


class TestReductions:
    def test_sum_all(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.backward(np.ones((2, 1)))
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_sum_axis_tuple(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = a.sum(axis=(0, 2))
        assert np.allclose(out.data, a.data.sum(axis=(0, 2)))
        upstream = np.array([1.0, 2.0, 3.0])
        out.backward(upstream)
        assert np.allclose(a.grad, np.broadcast_to(upstream[None, :, None], (2, 3, 4)))

    def test_sum_negative_axis(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=-1).backward(np.array([2.0, 5.0]))
        assert np.allclose(a.grad, [[2.0] * 3, [5.0] * 3])


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)

    def test_reshape_accepts_tuple(self):
        a = Tensor(np.arange(6.0))
        assert a.reshape((3, 2)).shape == (3, 2)

    def test_transpose_default_reverses(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.transpose().shape == (4, 3, 2)

    def test_transpose_axes_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.transpose(1, 0).sum().backward()
        assert a.grad.shape == (2, 3)

    def test_flatten_from(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.flatten_from(1).shape == (2, 12)

    def test_transpose_accepts_tuple(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.transpose((1, 2, 0)).shape == (3, 4, 2)

    def test_transpose_grad_inverts_permutation(self):
        a = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        out = a.transpose(2, 0, 1)
        upstream = np.arange(24.0).reshape(4, 2, 3)
        out.backward(upstream)
        assert np.array_equal(a.grad, upstream.transpose(1, 2, 0))

    def test_flatten_from_grad_restores_shape(self):
        a = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        upstream = np.arange(24.0).reshape(2, 12)
        a.flatten_from(1).backward(upstream)
        assert np.array_equal(a.grad, upstream.reshape(2, 3, 4))


# Compositions of the ops the models record, each finite-differenced.
COMPOSITES = {
    "mul_add": (lambda a, b: a * b + a, [(3, 4), (3, 4)]),
    "broadcast_mul": (lambda a, b: a * b + b, [(2, 3, 4), (4,)]),
    "matmul_relu": (lambda a, b: (a @ b).relu(), [(3, 5), (5, 2)]),
    "batched_matmul": (lambda a, b: a @ b, [(2, 3, 4), (2, 4, 2)]),
    "reshape_transpose_sum": (
        lambda a: (a.reshape(4, 6).transpose() * a.reshape(6, 4)).sum(axis=0),
        [(2, 3, 4)],
    ),
}


class TestGradCheck:
    @pytest.mark.parametrize("name", sorted(COMPOSITES))
    def test_composite_gradients(self, rng, name):
        func, shapes = COMPOSITES[name]
        inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        assert grad_check(func, inputs, atol=1e-6)

    def test_detects_a_wrong_gradient(self, rng):
        def doubled_grad(x):
            def backward(grad):
                return (2.0 * grad,)

            return Tensor.from_op(x.data.copy(), (x,), backward, "wrong")

        x = Tensor(rng.normal(size=4), requires_grad=True)
        with pytest.raises(AssertionError, match="gradient mismatch on input 0"):
            grad_check(doubled_grad, [x])

    def test_flags_an_input_without_gradient(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        with pytest.raises(AssertionError, match="input 1 received no gradient"):
            grad_check(lambda a_, b_: a_ * 2.0, [a, b])

    def test_skips_inputs_without_requires_grad(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        c = Tensor(rng.normal(size=3))
        assert grad_check(lambda a_, c_: a_ * c_, [a, c])
        assert c.grad is None
