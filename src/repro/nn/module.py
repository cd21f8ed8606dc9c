"""Module system: parameter registration, hierarchy traversal, state dicts.

Mirrors the familiar torch.nn design closely enough that the paper's
training code translates directly, while staying small and explicit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.autograd import Tensor
from repro.backend import active_backend


class Parameter(Tensor):
    """A trainable :class:`Tensor`; always requires gradients."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, :class:`Module` and buffer
    (plain numpy array registered via :meth:`register_buffer`) attributes;
    registration happens automatically in ``__setattr__``.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        elif name in getattr(self, "_parameters", {}):
            del self._parameters[name]
        elif name in getattr(self, "_modules", {}):
            del self._modules[name]
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable persistent state (e.g. BN running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer in place of the registry entry."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix + mod_name + ".")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, getattr(self, name)
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix + mod_name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for mod_name, module in self._modules.items():
            yield from module.named_modules(prefix + mod_name + ".")

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: dict) -> None:
        """Install ``state``'s parameters and buffers.

        Every entry must name a parameter or buffer of this module tree
        (else ``KeyError``) and have its shape (else ``ValueError``); a
        state that fails either check changes nothing.
        """
        params = dict(self.named_parameters())
        # Buffers live on possibly nested modules.
        buffer_owners = {}
        for mod_name, module in self.named_modules():
            for buf_name in module._buffers:
                full = f"{mod_name}.{buf_name}" if mod_name else buf_name
                buffer_owners[full] = (module, buf_name)
        unknown = [n for n in state if n not in params and n not in buffer_owners]
        if unknown:
            raise KeyError(f"unknown entries in state dict: {unknown}")
        for name, value in state.items():
            if name in params:
                shape = params[name].data.shape
            else:
                module, buf_name = buffer_owners[name]
                shape = module._buffers[buf_name].shape
            if shape != np.shape(value):
                raise ValueError(
                    f"shape mismatch for {name}: {shape} vs {np.shape(value)}"
                )
        dtype = active_backend().dtype
        for name, value in state.items():
            if name in params:
                params[name].data = np.array(value, dtype=dtype)
            else:
                module, buf_name = buffer_owners[name]
                module._set_buffer(buf_name, np.array(value, dtype=dtype))

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {module!r}".replace("\n", "\n  ")
            for name, module in self._modules.items()
        ]
        header = self.__class__.__name__
        if not child_lines:
            return f"{header}()"
        return header + "(\n" + "\n".join(child_lines) + "\n)"


class ModuleList(Module):
    """List container whose entries are registered as submodules."""

    def __init__(self, modules=()):
        super().__init__()
        for idx, module in enumerate(modules):
            setattr(self, str(idx), module)

    def append(self, module: Module) -> "ModuleList":
        setattr(self, str(len(self._modules)), module)
        return self

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self):
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called")
