"""A training step keeps nothing it will not read.

The graph is kept apart from the tensors: a :class:`Node` holds its
closure, its op name and its parents, and each closure captures only
the arrays it reads, so a conv or batchnorm output dies as soon as the
forward code drops its tensor.  ``Tensor.backward`` then releases each
node's closure and parent links as soon as the node has run, and each
leaf owns its gradient.  These tests hold that contract (a consumed
node raises instead of passing for a leaf) and its point: while the
next step's forward runs, the previous step's graph is gone, so an
epoch's traced peak stays near one step's graph.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.api import build_context, experiments
from repro.autograd import Tensor
from repro.autograd.tensor import Node
from repro.nn.layers import BatchNorm2d, Conv2d

MODELS = pytest.mark.parametrize("arch", ["vgg11", "resnet18"])
BACKENDS = pytest.mark.parametrize("backend", ["reference", "fast"])


def _prepared_context(backend, arch):
    """The micro smoke preset, quantized by its initial plan."""
    config = experiments.get_config("vgg11-micro-smoke").evolve(
        backend=backend, model={"arch": arch}
    )
    ctx = build_context(config)
    ctx.prepare()
    return ctx


def _step_loss(ctx):
    images, labels = next(iter(ctx.train_loader))
    return ctx.trainer.loss_fn(ctx.model(Tensor(images)), labels)


def _graph_nodes(root):
    """Every node and leaf reachable from ``root``'s node through parent links."""
    seen, stack, nodes = set(), [root._node], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        if isinstance(node, Node):
            stack.extend(parent for parent in node.parents if parent is not None)
    return nodes


class TestConsumedGraph:
    def test_second_backward_raises(self):
        a = Tensor([2.0], requires_grad=True)
        loss = (a * 3.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        assert np.array_equal(a.grad, [3.0])
        assert np.array_equal(loss.grad, 1.0)

    def test_new_op_on_consumed_intermediate_raises(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3.0
        (b * 2.0).sum().backward()
        with pytest.raises(RuntimeError, match="consumed"):
            (b + 1.0).sum().backward()

    def test_leaf_root_accumulates_across_calls(self):
        a = Tensor([2.0], requires_grad=True)
        grad = np.array([5.0])
        a.backward(grad)
        a.backward(grad)
        assert np.array_equal(a.grad, [10.0])
        assert np.array_equal(grad, [5.0])

    @BACKENDS
    @MODELS
    def test_only_leaves_and_root_keep_state(self, monkeypatch, backend, arch):
        ctx = _prepared_context(backend, arch)
        outputs = []
        from_op = Tensor.from_op

        def recording(*args, **kwargs):
            out = from_op(*args, **kwargs)
            if out._node is not None:
                outputs.append(out)
            return out

        monkeypatch.setattr(Tensor, "from_op", staticmethod(recording))
        loss = _step_loss(ctx)
        monkeypatch.undo()
        nodes = _graph_nodes(loss)
        interior = [node for node in nodes if isinstance(node, Node)]
        assert len(interior) > 20
        assert len(outputs) >= len(interior)
        loss.backward()
        for node in interior:
            assert node.parents == ()
            with pytest.raises(RuntimeError, match="consumed"):
                node.backward(np.ones(1))
        for out in outputs:
            assert out.grad is None or out is loss, out
        assert loss.grad is not None
        for name, param in ctx.model.named_parameters():
            assert param._node is None, name
            assert param.grad is not None, name


def _captured(value):
    """Every object a closure cell holds, looking inside tuples and lists."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _captured(item)
    else:
        yield value


class TestGraphKeepsOnlyWhatBackwardReads:
    @BACKENDS
    @MODELS
    def test_conv_and_batchnorm_outputs_die_with_the_forward(
            self, monkeypatch, backend, arch):
        ctx = _prepared_context(backend, arch)
        outputs = {"conv": [], "batchnorm": []}

        def spy(kind, forward):
            def traced(self, *args, **kwargs):
                out = forward(self, *args, **kwargs)
                outputs[kind].append(weakref.ref(out.data))
                return out

            return traced

        monkeypatch.setattr(Conv2d, "forward", spy("conv", Conv2d.forward))
        monkeypatch.setattr(BatchNorm2d, "forward_fused",
                            spy("batchnorm", BatchNorm2d.forward_fused))
        loss = _step_loss(ctx)
        gc.collect()
        for kind, refs in outputs.items():
            assert len(refs) > 5, kind
            alive = sum(ref() is not None for ref in refs)
            assert alive == 0, f"{alive} of {len(refs)} {kind} outputs kept"
        assert loss._node.parents  # the graph is still alive

    @BACKENDS
    @MODELS
    def test_no_closure_holds_an_interior_tensor(self, backend, arch):
        ctx = _prepared_context(backend, arch)
        loss = _step_loss(ctx)
        interior = [node for node in _graph_nodes(loss) if isinstance(node, Node)]
        assert len(interior) > 20
        for node in interior:
            for cell in node.backward.__closure__ or ():
                for value in _captured(cell.cell_contents):
                    assert not (isinstance(value, Tensor) and value._node), (
                        f"the {node.op} closure holds an interior tensor"
                    )


class TestLeafGradients:
    def test_leaves_handed_one_array_get_their_own(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        assert np.array_equal(a.grad, b.grad)

    def test_a_view_of_the_callers_grad_is_copied(self):
        a = Tensor(np.ones(6), requires_grad=True)
        grad = np.arange(6.0).reshape(2, 3)
        a.reshape(2, 3).backward(grad)
        assert not np.shares_memory(a.grad, grad)
        assert np.array_equal(a.grad, np.arange(6.0))

    @BACKENDS
    @MODELS
    def test_parameter_gradients_are_c_contiguous_and_unshared(
            self, backend, arch):
        ctx = _prepared_context(backend, arch)
        _step_loss(ctx).backward()
        grads = [param.grad for param in ctx.model.parameters()]
        for grad in grads:
            assert grad.flags.c_contiguous
        for index, grad in enumerate(grads):
            for other in grads[index + 1:]:
                assert not np.shares_memory(grad, other)


@BACKENDS
@MODELS
def test_epoch_peak_stays_near_one_step_graph(backend, arch):
    """Without consumption the previous step's graph lives on through the
    next forward and the epoch peaks at about twice one graph."""
    ctx = _prepared_context(backend, arch)
    trainer, loader = ctx.trainer, ctx.train_loader
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        # A first epoch under tracing: parameters, their gradients and
        # the optimizer state are then traced arrays, so replacing them
        # in the measured epoch does not read as growth.
        trainer.train_epoch(loader)
        before = tracemalloc.get_traced_memory()[0]
        loss = _step_loss(ctx)
        graph = tracemalloc.get_traced_memory()[0] - before
        del loss
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trainer.train_epoch(loader)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 1.5 * graph, (
        f"epoch peak {peak / 1e6:.2f} MB above its start is "
        f"{peak / graph:.2f}x one step's {graph / 1e6:.2f} MB graph"
    )
