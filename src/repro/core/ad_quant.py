"""Algorithm 1: Activation-Density based in-training quantization.

Pseudocode from the paper::

    Initialize model M with random weights
    Set bit width k(0)_l = 16 of initial model, for all l in M
    for iter = 1 to N:
        for epoch = 1 to #(epochs):
            Forward and Backward Propagation of M
            Compute AD_l for all l in M        (eqn. 2)
            if AD_l is saturated for all l: break
        for each layer l in M:
            k(iter)_l = round(k(iter-1)_l * AD_l)   (eqn. 3)

The loop naturally terminates once AD reaches ~1.0 everywhere, because
``round(k * 1.0) == k`` leaves the plan unchanged; the paper observes
convergence "within 3 to 4 iterations" starting from 16-bit.  The first
and last layers are never re-quantized (kept at ``frozen_bits``), and
ResNet skip branches follow their destination layer via the registry's
follower mechanism (Fig. 2).

:class:`ADQuantizer` holds the steps (plans, eqn.-3 updates, the
train-until-saturation phase); the outer loop is
:class:`repro.api.stages.QuantizeStage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.trainer import Trainer
from repro.density import SaturationDetector
from repro.quant import LayerQuantSpec, QuantizationPlan


def scale_bits(bits: int, density: float, min_bits: int = 1) -> int:
    """Eqn. 3: ``k <- round(k * AD)``, floored at ``min_bits``.

    The single re-quantization rule of the paper, shared by the
    in-training :meth:`ADQuantizer.update_plan` step and the
    search-level proposal logic in
    :class:`repro.orchestration.search.ADSearchScheduler` (which applies
    it to a whole schedule's starting precision instead of one layer).
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"activation density out of range: {density}")
    if min_bits < 1:
        raise ValueError("min_bits must be >= 1")
    return max(min_bits, int(round(bits * density)))


@dataclass
class QuantizationSchedule:
    """Hyper-parameters of the Algorithm-1 run.

    ``layer_bits`` overrides individual layers' *starting* precision
    (eqn.-3 scaling still drives them afterwards); names listed in
    ``layer_frozen`` are additionally pinned — their bits never change,
    like the role-frozen first/last layers.
    """

    initial_bits: int = 16
    frozen_bits: int = 16
    max_iterations: int = 4
    max_epochs_per_iteration: int = 100
    min_epochs_per_iteration: int = 1
    final_epochs: int = 0
    min_bits: int = 1
    layer_bits: dict[str, int] = field(default_factory=dict)
    layer_frozen: tuple = ()

    def __post_init__(self):
        if self.initial_bits < 1 or self.frozen_bits < 1:
            raise ValueError("bit-widths must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.min_epochs_per_iteration < 1:
            raise ValueError("min_epochs_per_iteration must be >= 1")
        if self.max_epochs_per_iteration < self.min_epochs_per_iteration:
            raise ValueError("max_epochs < min_epochs")
        if self.min_bits < 1:
            raise ValueError("min_bits must be >= 1")
        for name, bits in self.layer_bits.items():
            if not isinstance(name, str) or not name:
                raise ValueError(
                    f"layer_bits keys must be layer names, got {name!r}"
                )
            if not isinstance(bits, int) or isinstance(bits, bool) or bits < 1:
                raise ValueError(
                    f"layer_bits[{name!r}] must be an integer >= 1, "
                    f"got {bits!r}"
                )


class ADQuantizer:
    """The steps of Algorithm 1 on a model, through a :class:`Trainer`.

    Parameters
    ----------
    trainer:
        Bound to the model being quantized.
    schedule:
        Iteration/epoch/bit-width hyper-parameters.
    saturation:
        AD-stability criterion triggering each re-quantization.
    """

    def __init__(
        self,
        trainer: Trainer,
        schedule: QuantizationSchedule | None = None,
        saturation: SaturationDetector | None = None,
    ):
        self.trainer = trainer
        self.schedule = schedule or QuantizationSchedule()
        self.saturation = saturation or SaturationDetector(window=5, tolerance=0.02)
        self.registry = trainer.registry
        self._plan: QuantizationPlan | None = None

    # ------------------------------------------------------------------
    # Plan management
    # ------------------------------------------------------------------
    def initial_plan(self) -> QuantizationPlan:
        """The ``initial_bits`` plan with frozen first/last layers.

        Per-layer ``schedule.layer_bits`` entries override the uniform
        start (an explicit entry wins even on the role-frozen first/last
        layers); names in ``schedule.layer_frozen`` are pinned so
        :meth:`update_plan` never rescales them.
        """
        overrides = dict(self.schedule.layer_bits)
        pinned = set(self.schedule.layer_frozen)
        known = set(self.registry.names())
        unknown = sorted((set(overrides) | pinned) - known)
        if unknown:
            raise ValueError(
                f"layer overrides name unknown layers {unknown} "
                f"(model layers: {sorted(known)})"
            )
        specs = []
        for handle in self.registry:
            frozen = handle.role in ("first", "last")
            default = self.schedule.frozen_bits if frozen else self.schedule.initial_bits
            bits = overrides.get(handle.name, default)
            specs.append(
                LayerQuantSpec(
                    handle.name,
                    bits,
                    frozen=frozen or handle.name in pinned,
                )
            )
        return QuantizationPlan(specs)

    def apply_plan(self, plan: QuantizationPlan) -> None:
        """Install fake-quantizers matching ``plan`` on the model."""
        if len(plan) != len(self.registry):
            raise ValueError("plan/registry length mismatch")
        for spec, handle in zip(plan, self.registry):
            if spec.name != handle.name:
                raise ValueError(
                    f"plan order mismatch: {spec.name} vs {handle.name}"
                )
            handle.apply_bits(spec.bits, enabled=True)
        self._plan = plan

    @property
    def plan(self) -> QuantizationPlan:
        if self._plan is None:
            raise RuntimeError(
                "no plan applied yet — prepare the experiment context "
                "or call apply_plan()"
            )
        return self._plan

    def update_plan(self, densities: dict[str, float]) -> QuantizationPlan:
        """Eqn. 3: ``k_l <- round(k_l * AD_l)`` for every non-frozen layer."""
        new_specs = []
        for spec in self.plan:
            if spec.frozen:
                new_specs.append(spec)
                continue
            density = densities[spec.name]
            try:
                bits = scale_bits(spec.bits, density, self.schedule.min_bits)
            except ValueError:
                raise ValueError(
                    f"AD out of range for {spec.name}: {density}"
                ) from None
            new_specs.append(LayerQuantSpec(spec.name, bits))
        return QuantizationPlan(new_specs)

    # ------------------------------------------------------------------
    # Training phases
    # ------------------------------------------------------------------
    def train_until_saturation(self, loader) -> tuple[int, float]:
        """Train epochs until every layer's AD saturates (or the cap).

        Returns (epochs trained this iteration, last train accuracy).
        Saturation is judged on the AD history *within this iteration*,
        so a plateau inherited from the previous precision does not
        spuriously trigger an immediate re-quantization.

        This is the inner "for epoch = 1 to #(epochs)" phase of
        Algorithm 1.
        """
        iteration_history: dict[str, list[float]] = {
            name: [] for name in self.registry.names()
        }
        epochs = 0
        accuracy = 0.0
        while epochs < self.schedule.max_epochs_per_iteration:
            stats = self.trainer.train_epoch(loader)
            epochs += 1
            accuracy = stats.accuracy
            for name, value in stats.densities.items():
                iteration_history[name].append(value)
            if (
                epochs >= self.schedule.min_epochs_per_iteration
                and self.saturation.all_saturated(iteration_history)
            ):
                break
        return epochs, accuracy
