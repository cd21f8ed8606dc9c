"""Per-layer quantization configuration and hardware precision snapping.

The algorithm (eqn. 3) produces arbitrary integer bit-widths; the PIM
platform supports only 2-/4-/8-/16-bit operation, so "data precision of
3-bits would be translated to 4-bits, 5-bits to 8-bits, and so on"
(paper §I).  :func:`snap_to_hardware_precision` implements that rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

HARDWARE_PRECISIONS: tuple[int, ...] = (2, 4, 8, 16)


def snap_to_hardware_precision(
    bits: int, supported: tuple[int, ...] = HARDWARE_PRECISIONS
) -> int:
    """Round ``bits`` up to the next precision the PIM hardware supports.

    Bit-widths above the largest supported precision saturate at it
    (e.g. the 22-/24-bit intermediate widths of Table II(c) execute as
    16-bit on the accelerator).
    """
    if bits < 1:
        raise ValueError("bit-width must be >= 1")
    if not supported:
        raise ValueError(
            "supported precisions must be a non-empty tuple "
            "(e.g. HARDWARE_PRECISIONS)"
        )
    precisions = sorted(supported)
    if precisions[0] < 1:
        raise ValueError(
            f"supported precisions must all be >= 1, got {precisions}"
        )
    for precision in precisions:
        if bits <= precision:
            return precision
    return precisions[-1]


@dataclass
class LayerQuantSpec:
    """Quantization state of one network layer.

    Attributes
    ----------
    name:
        Layer identifier (matches the model's layer registry).
    bits:
        Current algorithmic bit-width ``k_l`` (may exceed 16 when the
        run starts from a 32-bit model, per Table II(c)).
    frozen:
        True for the first and last layers, which are excluded from
        quantization "to avoid a drastic drop in accuracy" (§IV).
    """

    name: str
    bits: int
    frozen: bool = False

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bit-width must be >= 1")

    @property
    def hardware_bits(self) -> int:
        """Bit-width as executed on the PIM platform."""
        return snap_to_hardware_precision(self.bits)


@dataclass
class QuantizationPlan:
    """Ordered collection of per-layer specs = one row of Tables II/III."""

    specs: list[LayerQuantSpec] = field(default_factory=list)

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __getitem__(self, index: int) -> LayerQuantSpec:
        return self.specs[index]

    def by_name(self, name: str) -> LayerQuantSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(f"no spec for layer {name!r}")

    @classmethod
    def from_bit_vector(cls, vector, frozen=()) -> "QuantizationPlan":
        """Build a plan from a ``{name: bits}`` map (or (name, bits) pairs).

        The inverse of :meth:`to_bit_vector`: a searched per-layer
        assignment becomes a first-class plan that the energy stages can
        cost directly.  Names listed in ``frozen`` get pinned specs.
        """
        items = vector.items() if isinstance(vector, dict) else vector
        pinned = set(frozen)
        return cls(
            [
                LayerQuantSpec(name, bits, frozen=name in pinned)
                for name, bits in items
            ]
        )

    def to_bit_vector(self) -> dict[str, int]:
        """The plan as an ordered ``{name: bits}`` map (a table bit vector)."""
        return {spec.name: spec.bits for spec in self.specs}

    def bit_widths(self) -> list[int]:
        """Layer-wise bit-width vector, as printed in the paper tables."""
        return [spec.bits for spec in self.specs]

    def hardware_bit_widths(self) -> list[int]:
        return [spec.hardware_bits for spec in self.specs]

    def copy(self) -> "QuantizationPlan":
        return QuantizationPlan(
            [LayerQuantSpec(s.name, s.bits, frozen=s.frozen) for s in self.specs]
        )

    def __repr__(self) -> str:
        return f"QuantizationPlan({self.bit_widths()})"
