"""Module system: registration, traversal, modes, state dicts."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.backend import use_backend
from repro.nn import BatchNorm2d, Conv2d, Linear, Module, Parameter
from repro.nn.module import ModuleList


class Leaf(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones(3))

    def forward(self, x):
        return x + self.weight


class Nested(Module):
    def __init__(self):
        super().__init__()
        self.a = Leaf()
        self.b = Leaf()

    def forward(self, x):
        return self.b(self.a(x))


class TestRegistration:
    def test_parameter_registered(self):
        leaf = Leaf()
        assert "weight" in leaf._parameters

    def test_module_registered(self):
        nested = Nested()
        assert set(nested._modules) == {"a", "b"}

    def test_reassignment_to_plain_value_unregisters(self):
        leaf = Leaf()
        leaf.weight = None
        assert "weight" not in leaf._parameters

    def test_reassigning_a_module_to_a_plain_value_unregisters(self):
        nested = Nested()
        nested.a = None
        assert list(nested._modules) == ["b"]
        assert [n for n, _ in nested.named_parameters()] == ["b.weight"]

    def test_buffer_registration(self):
        bn = BatchNorm2d(4)
        names = dict(bn.named_buffers())
        assert "running_mean" in names
        assert "running_var" in names

    def test_set_buffer_unknown_name_raises(self):
        bn = BatchNorm2d(4)
        with pytest.raises(KeyError):
            bn._set_buffer("nope", np.zeros(4))


class TestTraversal:
    def test_named_parameters_nested_prefixes(self):
        nested = Nested()
        names = [n for n, _ in nested.named_parameters()]
        assert names == ["a.weight", "b.weight"]

    def test_parameters_count(self):
        nested = Nested()
        assert sum(p.size for p in nested.parameters()) == 6

    def test_modules_yields_all(self):
        nested = Nested()
        assert len(list(nested.modules())) == 3

    def test_named_modules_prefixes(self):
        nested = Nested()
        named = list(nested.named_modules())
        assert [n for n, _ in named] == ["", "a", "b"]
        assert named[1][1] is nested.a

    def test_named_buffers_nested_prefixes(self):
        class Holder(Module):
            def __init__(self):
                super().__init__()
                self.bn = BatchNorm2d(2)

        names = [n for n, _ in Holder().named_buffers()]
        assert names == ["bn.running_mean", "bn.running_var"]


class TestModes:
    def test_train_eval_propagates(self):
        nested = Nested()
        nested.eval()
        assert not nested.training
        assert not nested.a.training
        nested.train()
        assert nested.a.training

    def test_zero_grad_clears(self):
        leaf = Leaf()
        out = leaf(Tensor(np.zeros(3)))
        out.sum().backward()
        assert leaf.weight.grad is not None
        leaf.zero_grad()
        assert leaf.weight.grad is None


class TestStateDict:
    def test_roundtrip(self, rng):
        src = Conv2d(2, 3, 3, rng=rng)
        dst = Conv2d(2, 3, 3, rng=rng)
        dst.load_state_dict(src.state_dict())
        assert np.allclose(src.weight.data, dst.weight.data)
        assert np.allclose(src.bias.data, dst.bias.data)

    def test_buffers_roundtrip(self, rng):
        src = BatchNorm2d(3)
        src(Tensor(rng.normal(size=(4, 3, 5, 5))))  # populate running stats
        dst = BatchNorm2d(3)
        dst.load_state_dict(src.state_dict())
        assert np.allclose(src.running_mean, dst.running_mean)
        assert np.allclose(src.running_var, dst.running_var)

    def test_shape_mismatch_raises(self, rng):
        src = Linear(4, 5, rng=rng)
        dst = Linear(4, 6, rng=rng)
        with pytest.raises((ValueError, KeyError)):
            dst.load_state_dict(src.state_dict())

    def test_buffer_shape_mismatch_raises(self):
        bn = BatchNorm2d(4)
        state = bn.state_dict()
        state["running_mean"] = np.zeros(7)
        with pytest.raises(ValueError, match="running_mean"):
            bn.load_state_dict(state)
        assert bn.running_mean.shape == (4,)

    def test_rejected_state_changes_nothing(self, rng):
        src = Linear(4, 5, rng=rng)
        dst = Linear(4, 5, rng=rng)
        before = dst.weight.data.copy()
        state = src.state_dict()
        state["bias"] = np.zeros(6)
        with pytest.raises(ValueError, match="bias"):
            dst.load_state_dict(state)
        assert np.array_equal(dst.weight.data, before)

    def test_unknown_key_raises(self, rng):
        dst = Linear(4, 5, rng=rng)
        state = dst.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            dst.load_state_dict(state)

    def test_state_dict_copies_data(self, rng):
        layer = Linear(3, 3, rng=rng)
        state = layer.state_dict()
        state["weight"][:] = 0
        assert not np.allclose(layer.weight.data, 0)

    @pytest.mark.parametrize("backend_name,dtype",
                             [("reference", np.float64), ("fast", np.float32)])
    def test_load_casts_to_the_active_backend_dtype(self, rng, backend_name, dtype):
        state = BatchNorm2d(3).state_dict()
        state["gamma"] = rng.normal(size=3)
        with use_backend(backend_name):
            bn = BatchNorm2d(3)
            bn.load_state_dict(state)
        assert bn.gamma.data.dtype == bn.running_mean.dtype == dtype
        assert np.allclose(bn.gamma.data, state["gamma"], rtol=1e-6)


class TestModuleList:
    def test_registration_and_iteration(self):
        mlist = ModuleList([Leaf(), Leaf()])
        assert len(mlist) == 2
        assert len(list(mlist)) == 2
        assert mlist[0] is not mlist[1]

    def test_append(self):
        mlist = ModuleList()
        mlist.append(Leaf())
        assert len(mlist) == 1

    def test_call_raises(self):
        with pytest.raises(RuntimeError):
            ModuleList([Leaf()])(Tensor(np.zeros(3)))

    def test_parameters_traversed(self):
        mlist = ModuleList([Leaf(), Leaf()])
        assert sum(p.size for p in mlist.parameters()) == 6

    def test_entries_are_named_by_position(self):
        first, second = Leaf(), Leaf()
        mlist = ModuleList([first]).append(second)
        assert mlist[-1] is second
        assert [n for n, _ in mlist.named_parameters()] == ["0.weight", "1.weight"]


class TestRepr:
    def test_repr_contains_children(self):
        text = repr(Nested())
        assert "Leaf" in text
        assert "(a)" in text

    def test_parameter_repr(self):
        assert repr(Parameter(np.zeros((2, 3)))) == "Parameter(shape=(2, 3))"


def test_base_module_forward_is_abstract():
    with pytest.raises(NotImplementedError):
        Module()(Tensor(np.zeros(1)))
