"""Activation-Density based channel pruning (paper eqn. 5, from [23]).

    C_l <- round(C_l_initial * AD_l)

Channels to *keep* are ranked by per-channel activation density (the
channels that fire most often carry the layer's information; rarely
firing channels are the redundancy AD exposes).  Pruning is realized as
structured masking — masked channels output exactly zero, receive no
gradient signal, and are excluded from subsequent AD measurement — so
that energy models can count the surviving channels while skip
connections keep their shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PruningPlan:
    """Per-layer channel budgets — one "nchannels" row of Table III."""

    channels: dict[str, int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> int:
        return self.channels[name]

    def __contains__(self, name: str) -> bool:
        return name in self.channels

    def channel_counts(self, order: list[str]) -> list[int]:
        return [self.channels[name] for name in order if name in self.channels]

    def __repr__(self) -> str:
        return f"PruningPlan({self.channels})"


class ADPruner:
    """Applies eqn.-(5) channel pruning through a model's layer registry.

    Parameters
    ----------
    registry:
        The model's :class:`~repro.models.registry.LayerRegistry`.
    min_channels:
        Lower bound so no layer is pruned away entirely.
    """

    def __init__(self, registry, min_channels: int = 1):
        if min_channels < 1:
            raise ValueError("min_channels must be >= 1")
        self.registry = registry
        self.min_channels = min_channels
        self.plans: list[PruningPlan] = []

    def prunable_handles(self):
        """Conv layers eligible for pruning (first/last excluded)."""
        return [h for h in self.registry if h.prunable and h.is_conv]

    def current_plan(self) -> PruningPlan:
        """Active channel counts as currently installed on the model."""
        return PruningPlan(
            {h.name: h.active_channels() for h in self.prunable_handles()}
        )

    def compute_plan(self, densities: dict[str, float]) -> PruningPlan:
        """Eqn. 5 on the *currently active* channel counts."""
        channels = {}
        for handle in self.prunable_handles():
            density = densities[handle.name]
            if not 0.0 <= density <= 1.0:
                raise ValueError(f"AD out of range for {handle.name}: {density}")
            current = handle.active_channels()
            channels[handle.name] = max(
                self.min_channels, int(round(current * density))
            )
        return PruningPlan(channels)

    def apply_plan(self, plan: PruningPlan) -> None:
        """Install masks keeping the highest-channel-density channels.

        The per-channel ranking comes from each layer's meter statistics
        accumulated during the preceding training epochs; ties are broken
        deterministically by channel index.
        """
        for handle in self.prunable_handles():
            if handle.name not in plan:
                continue
            target = plan[handle.name]
            total = handle.out_channels
            if not self.min_channels <= target <= total:
                raise ValueError(
                    f"invalid channel budget {target} for {handle.name} "
                    f"(layer has {total})"
                )
            active = np.flatnonzero(handle.host.channel_mask)
            if target >= active.size:
                continue  # pruning never re-grows channels
            per_channel = handle.meter.channel_density()
            if per_channel.shape[0] == active.size:
                # Meter saw only active channels; scores align with them.
                scores = per_channel
            elif per_channel.shape[0] == total:
                scores = per_channel[active]
            else:
                raise RuntimeError(
                    f"channel statistics shape mismatch on {handle.name}"
                )
            # Highest-density channels survive; stable order for ties.
            order = np.argsort(-scores, kind="stable")
            keep = active[np.sort(order[:target])]
            new_mask = np.zeros(total)
            new_mask[keep] = 1.0
            handle.set_channel_mask(new_mask)
        self.plans.append(plan)

    def prune_step(self, densities: dict[str, float]) -> PruningPlan:
        """Compute and apply one eqn.-(5) pruning step; returns the plan."""
        plan = self.compute_plan(densities)
        self.apply_plan(plan)
        return plan
