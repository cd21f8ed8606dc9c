"""Tape-based reverse-mode autodiff ``Tensor``.

The engine follows the classic design: every differentiable operation
records a backward closure and its parent tensors; calling
:meth:`Tensor.backward` topologically sorts the recorded graph and
accumulates gradients into ``Tensor.grad``.

Backward consumes the graph it walks.  As soon as a node's closure has
routed its gradient to its parents, the node gives up that closure
(with the im2col columns, masks and batchnorm residuals it holds) and
its parent links, so each step's activations are freed during the walk
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


def _topological_order(root: "Tensor") -> list["Tensor"]:
    """Every grad-requiring node reachable from ``root``, inputs first.

    Iterative DFS post-order: deep graphs (VGG19 unrolled over many
    epochs of ops) overflow Python's recursion limit otherwise.  The
    visited set and stack die on return, so the walk that follows holds
    only the graph it releases and the gradients in flight.
    """
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple = ()
        self._op = ""

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
        """Create a graph node for ``data`` produced from ``parents``.

        ``backward`` is a closure receiving the upstream gradient and
        returning a tuple of gradients aligned with ``parents`` (entries
        may be None for non-differentiable parents).  Graph recording is
        skipped entirely inside :func:`no_grad` or when no parent requires
        a gradient.
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._backward = backward
            out._parents = parents
            out._op = op
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
        return f"Tensor(shape={self.shape}{grad_flag}, op={self._op or 'leaf'})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        The walk consumes the graph: every non-leaf node it visits, this
        one included, drops its parent links and has its closure replaced
        by one that raises, right after its gradient has reached its
        parents.  Leaves accumulate into ``grad``; this tensor keeps the
        gradient it was given; no interior node keeps one.  Calling
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

        topo = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        # Popping ``topo`` walks it in reverse, so every consumer of a node
        # runs before the node does and the walk's own reference goes.
        while topo:
            node = topo.pop()
            node_grad = grads.pop(id(node), None)
            closure = node._backward
            if closure is None:
                if node_grad is not None:
                    node.grad = (
                        node_grad.copy() if node.grad is None else node.grad + node_grad
                    )
                continue
            if node_grad is not None:
                parent_grads = closure(node_grad)
                for parent, pgrad in zip(node._parents, parent_grads):
                    if pgrad is None or not parent.requires_grad:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pgrad
                    else:
                        grads[key] = pgrad
                if node is self:
                    node.grad = node_grad if node.grad is None else node.grad + node_grad
            node._backward = _consumed
            node._parents = ()

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad):
            return (
                unbroadcast(grad, self.data.shape),
                unbroadcast(grad, other.data.shape),
            )

        return Tensor.from_op(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return (-grad,)

        return Tensor.from_op(-self.data, (self,), backward, "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad):
            return (
                unbroadcast(grad * other.data, self.data.shape),
                unbroadcast(grad * self.data, other.data.shape),
            )

        return Tensor.from_op(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad):
            return (
                unbroadcast(grad / other.data, self.data.shape),
                unbroadcast(-grad * self.data / (other.data**2), other.data.shape),
            )

        return Tensor.from_op(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor.from_op(out_data, (self,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        backend = active_backend()
        out_data = backend.matmul(self.data, other.data)

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 2 and b.ndim == 2:
                return (backend.matmul(grad, b.T), backend.matmul(a.T, grad))
            # General batched case.
            grad_a = backend.matmul(grad, np.swapaxes(b, -1, -2))
            grad_b = backend.matmul(np.swapaxes(a, -1, -2), grad)
            return (
                unbroadcast(grad_a, a.shape),
                unbroadcast(grad_b, b.shape),
            )

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

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return Tensor.from_op(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad):
            return (grad / self.data,)

        return Tensor.from_op(out_data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / out_data,)

        return Tensor.from_op(out_data, (self,), backward, "sqrt")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad):
            return (grad * sign,)

        return Tensor.from_op(out_data, (self,), backward, "abs")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - out_data**2),)

        return Tensor.from_op(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            return (grad * out_data * (1.0 - out_data),)

        return Tensor.from_op(out_data, (self,), backward, "sigmoid")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through inside the interval."""
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            return (grad * mask,)

        return Tensor.from_op(out_data, (self,), backward, "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, self.data.shape).copy(),)

        return Tensor.from_op(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = self.data == expanded
            # Split gradient equally among ties, matching numpy semantics
            # closely enough for pooling/softmax stability use.  The tie
            # counts are cast to the gradient dtype: int64 operands would
            # otherwise promote a float32 gradient to float64.
            counts = mask.sum(axis=axis, keepdims=True).astype(g.dtype)
            return (mask * g / counts,)

        return Tensor.from_op(out_data, (self,), backward, "max")

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

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions symmetrically."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.data.ndim - 2) + [
            (padding, padding),
            (padding, padding),
        ]
        out_data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(None) if p == (0, 0) else slice(p[0], -p[1]) for p in pad_width
        )

        def backward(grad):
            return (grad[slices],)

        return Tensor.from_op(out_data, (self,), backward, "pad2d")

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        shape = self.data.shape

        def backward(grad):
            full = np.zeros(shape, dtype=grad.dtype)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor.from_op(out_data, (self,), backward, "getitem")

    @staticmethod
    def concatenate(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            pieces = []
            for i in range(len(sizes)):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(offsets[i], offsets[i + 1])
                pieces.append(grad[tuple(slicer)])
            return tuple(pieces)

        return Tensor.from_op(out_data, tuple(tensors), backward, "concat")
