"""Backend registry and active-backend selection.

tinygrad-style device selection for the numpy engine: backends register
by name, one is *active* per process, and everything in autograd/nn/
quant consults :func:`active_backend` instead of calling ``np.*`` with
hard-coded dtypes.  Selection is threaded from
``ExperimentConfig.backend`` through :func:`repro.api.context.build_context`
(and the CLI ``--backend`` flags), so worker processes activate the
right backend when they rebuild a config.

    from repro.backend import use_backend

    with use_backend("fast"):
        ...  # float32, fused kernels

The default is ``reference`` — the seed's float64 semantics.

There is one graph per op: the autograd/nn layers always collapse
the chains the models run (relu, batchnorm with or without relu, bias
add, linear, cross-entropy, max pooling) into single nodes through the
active backend's fused kernels.
The reference backend composes those kernels from the seed's float64
primitives in the seed's order, so its results stay bit-identical to
the historical per-primitive graphs (``tests/test_backend_fused.py``
keeps those graphs as its oracle).
"""

from __future__ import annotations

import contextlib

from repro.backend.base import ArrayBackend
from repro.backend.fast import FastBackend
from repro.backend.reference import ReferenceBackend

DEFAULT_BACKEND = "reference"

_REGISTRY: dict[str, ArrayBackend] = {}
_ACTIVE: list[ArrayBackend] = []


def register_backend(backend: ArrayBackend) -> ArrayBackend:
    """Register ``backend`` under its :attr:`~ArrayBackend.name`."""
    if not backend.name or backend.name == "base":
        raise ValueError("backend must define a distinct name")
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> ArrayBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None


def active_backend() -> ArrayBackend:
    """The backend all ops currently dispatch to."""
    return _ACTIVE[-1]


def set_active_backend(name: str) -> ArrayBackend:
    """Make ``name`` the process-wide active backend and return it."""
    backend = get_backend(name)
    _ACTIVE[-1] = backend
    return backend


@contextlib.contextmanager
def use_backend(name: str):
    """Temporarily activate ``name``; restores the previous backend on exit."""
    backend = get_backend(name)
    _ACTIVE.append(backend)
    try:
        yield backend
    finally:
        _ACTIVE.pop()


register_backend(ReferenceBackend())
register_backend(FastBackend())
_ACTIVE.append(_REGISTRY[DEFAULT_BACKEND])
