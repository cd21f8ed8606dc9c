"""Per-layer activation-density accumulation (paper eqn. 2)."""

from __future__ import annotations

import numpy as np


def activation_density(activations: np.ndarray, threshold: float = 0.0) -> float:
    """AD of a single activation array: fraction of entries > threshold.

    ReLU outputs are non-negative, so "non-zero" is ``> 0``; ``threshold``
    allows treating tiny magnitudes as zero (used in ablations).
    """
    activations = np.asarray(activations)
    if activations.size == 0:
        raise ValueError("cannot compute density of an empty activation array")
    return float(np.count_nonzero(activations > threshold) / activations.size)


class ActivationDensityMeter:
    """Streaming AD accumulator for one layer.

    Batches of shape ``(N, C, ...)`` are folded in with :meth:`update`;
    :meth:`density` returns the AD over everything seen since the last
    :meth:`reset`.  This matches the paper's definition of AD
    "calculated by passing the training set through the network".

    The meter keeps *per-channel* non-zero counts (channel = axis 1 for
    conv maps, feature axis for 2-D activations), which the AD-based
    pruner uses to rank channels when shrinking a layer to
    ``round(C_l * AD_l)`` channels (eqn. 5).  Their sum is the layer's
    non-zero count, and every channel sees ``count / C`` values.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._total = 0
        self._channel_nonzero: np.ndarray | None = None

    def update(self, activations: np.ndarray) -> None:
        activations = np.asarray(activations)
        reduce_axes = (0,) + tuple(range(2, activations.ndim))
        per_channel = (activations > 0).sum(axis=reduce_axes)
        if self._channel_nonzero is None:
            self._channel_nonzero = per_channel.astype(np.int64)
        elif self._channel_nonzero.shape != per_channel.shape:
            raise ValueError(f"meter {self.name!r} saw inconsistent channel counts")
        else:
            self._channel_nonzero += per_channel
        self._total += int(activations.size)

    def density(self) -> float:
        if self._total == 0:
            raise RuntimeError(f"density meter {self.name!r} has seen no data")
        return int(self._channel_nonzero.sum()) / self._total

    def channel_density(self) -> np.ndarray:
        """Per-channel AD over everything seen since the last reset."""
        if self._channel_nonzero is None:
            raise RuntimeError(f"meter {self.name!r} has no per-channel data")
        channels = self._channel_nonzero.shape[0]
        return self._channel_nonzero / max(self._total // channels, 1)

    @property
    def count(self) -> int:
        """Total number of activation values accumulated."""
        return self._total

    def reset(self) -> None:
        self._total = 0
        self._channel_nonzero = None

    # ------------------------------------------------------------------
    # Checkpointing (JSON-serializable; channel vectors are short)
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Accumulated counts as a JSON-serializable dict."""
        return {
            "total": self._total,
            "channel_nonzero": (
                None
                if self._channel_nonzero is None
                else [int(v) for v in self._channel_nonzero]
            ),
        }

    def load_state(self, state: dict) -> None:
        """Restore counts captured by :meth:`state`.

        Older states also carry ``nonzero`` and ``channel_total``; both
        follow from the two counts kept here and are ignored.
        """
        self._total = int(state["total"])
        channel_nonzero = state.get("channel_nonzero")
        self._channel_nonzero = (
            None
            if channel_nonzero is None
            else np.asarray(channel_nonzero, dtype=np.int64)
        )

    def __repr__(self) -> str:
        if self._total == 0:
            return f"ActivationDensityMeter({self.name!r}, empty)"
        return f"ActivationDensityMeter({self.name!r}, AD={self.density():.3f})"
