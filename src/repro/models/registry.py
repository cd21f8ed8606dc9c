"""Layer registry: the paper's "layers l = 1, 2, ..., L" made concrete.

A :class:`LayerHandle` binds one table row (bit-width ``k_l``, channel
count ``C_l``) to the module objects the algorithm must manipulate:

* ``unit`` — the conv/linear whose *weights* are quantized;
* ``host`` — the :class:`~repro.models.blocks.LayerOutput` emitting the
  layer's output, whose tail holds its eqn.-(5) channel mask,
  activation-quant slot and density meter.  For VGG units this is the
  unit itself; for the second conv of a ResNet BasicBlock it is the
  block, because that layer's output activation is the
  post-residual-add ReLU (paper Fig. 2);
* ``follower_units`` / ``follower_quants`` — ResNet skip-branch
  machinery that must mirror this layer's bit-width.

A :class:`LayerRegistry` gives each host its meter, so the registry's
layers are exactly the outputs that are measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.density import ActivationDensityMeter
from repro.models.blocks import ConvUnit, LayerOutput, LinearUnit
from repro.quant import FakeQuantize


@dataclass
class LayerHandle:
    """One quantizable layer of a model (see module docstring)."""

    name: str
    unit: ConvUnit | LinearUnit
    role: str = "hidden"
    host: LayerOutput | None = None
    follower_units: list[ConvUnit] = field(default_factory=list)
    follower_quants: list[FakeQuantize] = field(default_factory=list)
    prunable: bool = True

    def __post_init__(self):
        if self.role not in ("first", "hidden", "last"):
            raise ValueError(f"invalid role {self.role!r}")
        if self.host is None:
            self.host = self.unit

    @property
    def is_conv(self) -> bool:
        return isinstance(self.unit, ConvUnit)

    @property
    def kind(self) -> str:
        return "conv" if self.is_conv else "linear"

    @property
    def meter(self):
        return self.host.meter

    def current_bits(self) -> int | None:
        """Bit-width currently installed on the activation slot (None = float)."""
        quant = self.host.act_quant
        if quant is None or not quant.enabled:
            return None
        return quant.bits

    def apply_bits(self, bits: int, enabled: bool = True) -> None:
        """Install ``bits`` on weights + activations + all followers."""
        self.unit.set_weight_quant(FakeQuantize(bits, enabled=enabled))
        self.host.act_quant = FakeQuantize(bits, enabled=enabled)
        for follower in self.follower_units:
            follower.set_weight_quant(FakeQuantize(bits, enabled=enabled))
        for quant in self.follower_quants:
            quant.bits = bits
            quant.enabled = enabled

    # ------------------------------------------------------------------
    # Pruning access (eqn. 5)
    # ------------------------------------------------------------------
    @property
    def out_channels(self) -> int:
        return self.host.out_channels

    def active_channels(self) -> int:
        return self.host.active_channels()

    def set_channel_mask(self, mask) -> None:
        self.host.set_channel_mask(mask)


class LayerRegistry:
    """Ordered collection of a model's layer handles."""

    def __init__(self, handles: list[LayerHandle]):
        names = [h.name for h in handles]
        if len(set(names)) != len(names):
            raise ValueError("duplicate layer names in registry")
        self.handles = list(handles)
        for handle in self.handles:
            handle.host.meter = ActivationDensityMeter(handle.name)

    def __iter__(self):
        return iter(self.handles)

    def __len__(self) -> int:
        return len(self.handles)

    def __getitem__(self, index: int) -> LayerHandle:
        return self.handles[index]

    def by_name(self, name: str) -> LayerHandle:
        for handle in self.handles:
            if handle.name == name:
                return handle
        raise KeyError(f"no layer named {name!r}")

    def names(self) -> list[str]:
        return [h.name for h in self.handles]

    def quantizable(self) -> list[LayerHandle]:
        """Layers Algorithm 1 may re-quantize (role == hidden)."""
        return [h for h in self.handles if h.role == "hidden"]

    def meters(self) -> dict[str, object]:
        return {h.name: h.meter for h in self.handles}
