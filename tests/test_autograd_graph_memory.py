"""Backward consumes its graph, so a step's activations die with its walk.

``Tensor.backward`` releases each node's closure, parent links and
gradient as soon as the node has run.  These tests hold that contract
(a consumed node raises instead of passing for a leaf) and its point:
while the next step's forward runs, the previous step's graph is gone,
so an epoch's traced peak stays near one step's graph.
"""

import tracemalloc

import numpy as np
import pytest

from repro.api import build_context, experiments
from repro.autograd import Tensor

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
    """Every tensor reachable from ``root`` through parent links."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
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
    def test_only_leaves_and_root_keep_state(self, backend, arch):
        ctx = _prepared_context(backend, arch)
        loss = _step_loss(ctx)
        nodes = _graph_nodes(loss)
        interior = [node for node in nodes if node._backward is not None]
        assert len(interior) > 20
        loss.backward()
        for node in interior:
            assert node._parents == ()
            assert node.grad is None or node is loss
            with pytest.raises(RuntimeError, match="consumed"):
                node._backward(np.ones_like(node.data))
        assert loss.grad is not None
        for name, param in ctx.model.named_parameters():
            assert param._backward is None, name
            assert param.grad is not None, name


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
