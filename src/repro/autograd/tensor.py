"""Tape-based reverse-mode autodiff ``Tensor``.

The engine follows the classic design: every differentiable operation
records a backward closure and its parents; calling
:meth:`Tensor.backward` topologically sorts the recorded graph and
accumulates gradients into ``Tensor.grad``.

The graph is kept apart from the tensors.  An op's output ``Tensor``
links to a small :class:`Node` holding only the op's backward closure,
its name and its parents: the node of an interior parent, a leaf parent
itself, and None for a parent that needs no gradient.  Each closure
captures only the arrays, shapes and flags its backward reads (conv
keeps its im2col columns and weight matrix but only its input's
shape), so an op's output array lives exactly as long as the forward
code, or a closure that reads it, holds it; the graph never does.

Backward consumes the graph it walks.  As soon as a node's closure has
routed its gradient to its parents, the node gives up that closure
(with the im2col columns, masks and batchnorm residuals it holds) and
its parent links, so each step's residuals are freed during the walk
rather than kept alive by the returned loss until the next step.  Only
leaves and the root keep a gradient.  A second ``backward()`` that
reaches a consumed node raises ``RuntimeError``; there is no switch to
retain the graph.

Only float64/float32 data participates in differentiation.  Gradients are
stored as plain numpy arrays of the same shape as ``Tensor.data``.

Broadcasting is fully supported: backward closures reduce gradients back
to the parent's shape via :func:`unbroadcast`.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro.backend import active_backend

_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Return True when operations should record the autograd tape."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Used for evaluation passes, activation-density measurement sweeps and
    the weight-quantization step of Algorithm 1, none of which should
    contribute to gradients.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting prepends singleton axes and stretches size-1 axes; the
    adjoint of broadcasting is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched singleton axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    return active_backend().asarray(value)


def _consumed(grad):
    """Closure of a node that an earlier :meth:`Tensor.backward` consumed."""
    raise RuntimeError(
        "backward() reached a node whose graph an earlier backward() already "
        "consumed; build a new graph with a new forward pass"
    )


class Node:
    """One recorded op: its backward closure, its name and its parents.

    ``parents`` lines up with the gradients ``backward`` returns: the
    node of an interior parent, a leaf parent's ``Tensor``, or None for
    a parent that needs no gradient.
    """

    __slots__ = ("backward", "parents", "op")

    def __init__(self, backward, parents: tuple, op: str):
        self.backward = backward
        self.parents = parents
        self.op = op


def _topological_order(root) -> list:
    """Every node and leaf reachable from ``root``, inputs first.

    Iterative DFS post-order: deep graphs (VGG19 unrolled over many
    epochs of ops) overflow Python's recursion limit otherwise.  The
    visited set and stack die on return, so the walk that follows holds
    only the graph it releases and the gradients in flight.
    """
    topo: list = []
    visited: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        item, processed = stack.pop()
        if processed:
            topo.append(item)
            continue
        if id(item) in visited:
            continue
        visited.add(id(item))
        stack.append((item, True))
        if type(item) is Node:
            for parent in item.parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))
    return topo


class Tensor:
    """N-dimensional array with reverse-mode gradient tracking.

    Parameters
    ----------
    data:
        Array-like payload; converted to the active backend's floating
        dtype (float64 on ``reference``, float32 on ``fast``).
    requires_grad:
        When True, operations involving this tensor build a backward graph
        and :meth:`backward` fills :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: Node | None = None  # None for a leaf

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(active_backend().zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(active_backend().ones(shape), requires_grad=requires_grad)

    @staticmethod
    def from_op(data: np.ndarray, parents: tuple, backward, op: str = "") -> "Tensor":
        """Create the tensor ``data`` produced from ``parents``, and its node.

        ``backward`` is a closure receiving the upstream gradient and
        returning a tuple of gradients aligned with ``parents`` (entries
        may be None for parents that need no gradient).  It should
        capture only the arrays, shapes and flags it reads: the node
        keeps no parent tensor but a leaf's, so a closure that captures
        an input tensor is what keeps that input's array alive.  Graph
        recording is skipped entirely inside :func:`no_grad` or when no
        parent requires a gradient.
        """
        out = Tensor(data)
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._node = Node(backward, tuple(
                (p._node or p) if p.requires_grad else None for p in parents
            ), op)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        op = self._node.op if self._node is not None else ""
        return f"Tensor(shape={self.shape}{grad_flag}, op={op or 'leaf'})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        The walk consumes the graph: every node it visits, this tensor's
        included, drops its parent links and has its closure replaced
        by one that raises, right after its gradient has reached its
        parents.  Leaves accumulate into ``grad``; this tensor keeps the
        gradient it was given; no interior tensor keeps one.  Calling
        ``backward()`` again on this tensor, or on a new op built from any
        consumed node, raises ``RuntimeError``.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1.0 and requires this tensor
            to be a scalar in that case.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"grad shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        root = self if self._node is None else self._node
        topo = _topological_order(root)
        grads: dict[int, np.ndarray] = {id(root): grad}
        # Popping ``topo`` walks it in reverse, so every consumer of a node
        # runs before the node does and the walk's own reference goes.
        while topo:
            item = topo.pop()
            item_grad = grads.pop(id(item), None)
            if type(item) is not Node:  # a leaf
                if item_grad is not None:
                    item.grad = (
                        item_grad.copy() if item.grad is None else item.grad + item_grad
                    )
                continue
            if item_grad is not None:
                parent_grads = item.backward(item_grad)
                for parent, pgrad in zip(item.parents, parent_grads):
                    if parent is None or pgrad is None:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pgrad
                    else:
                        grads[key] = pgrad
                if item is root:
                    self.grad = item_grad if self.grad is None else self.grad + item_grad
            item.backward = _consumed
            item.parents = ()

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    # A binary op computes a parent's gradient, and keeps what that
    # gradient reads, only when the parent requires one.
    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data
        a_shape = self.data.shape if self.requires_grad else None
        b_shape = other.data.shape if other.requires_grad else None

        def backward(grad):
            return (
                None if a_shape is None else unbroadcast(grad, a_shape),
                None if b_shape is None else unbroadcast(grad, b_shape),
            )

        return Tensor.from_op(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        out_data = a * b
        a_shape, b_shape = a.shape, b.shape
        # Each operand is kept for the other's gradient only.
        for_a = b if self.requires_grad else None
        for_b = a if other.requires_grad else None

        def backward(grad):
            return (
                None if for_a is None else unbroadcast(grad * for_a, a_shape),
                None if for_b is None else unbroadcast(grad * for_b, b_shape),
            )

        return Tensor.from_op(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        backend = active_backend()
        a, b = self.data, other.data
        out_data = backend.matmul(a, b)
        a_shape, b_shape = a.shape, b.shape
        plain = a.ndim == 2 and b.ndim == 2
        for_a = b if self.requires_grad else None
        for_b = a if other.requires_grad else None

        def backward(grad):
            grad_a = grad_b = None
            if plain:
                if for_a is not None:
                    grad_a = backend.matmul(grad, for_a.T)
                if for_b is not None:
                    grad_b = backend.matmul(for_b.T, grad)
                return (grad_a, grad_b)
            # General batched case.
            if for_a is not None:
                grad_a = unbroadcast(
                    backend.matmul(grad, np.swapaxes(for_a, -1, -2)), a_shape)
            if for_b is not None:
                grad_b = unbroadcast(
                    backend.matmul(np.swapaxes(for_b, -1, -2), grad), b_shape)
            return (grad_a, grad_b)

        return Tensor.from_op(out_data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        backend = active_backend()
        out_data, residual = backend.relu_fwd(self.data)

        def backward(grad):
            return (backend.relu_bwd(grad, residual),)

        return Tensor.from_op(out_data, (self,), backward, "relu")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor.from_op(out_data, (self,), backward, "sum")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor.from_op(out_data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor.from_op(out_data, (self,), backward, "transpose")

    def flatten_from(self, start_dim: int = 1) -> "Tensor":
        """Flatten trailing dimensions starting at ``start_dim``."""
        lead = self.data.shape[:start_dim]
        return self.reshape(lead + (-1,))
