"""Frozen, validated experiment configuration objects.

An :class:`ExperimentConfig` is the declarative description of one
paper experiment — the model, the data, the Algorithm-1 schedule,
optional eqn.-5 pruning, and the energy accounting to attach.  Configs
are immutable, JSON round-trippable (via :mod:`repro.utils.serialization`),
and validate eagerly on construction so a bad sweep fails before any
training happens.

The config -> live-object translation lives in
:func:`repro.api.context.build_context`; nothing in this module touches
numpy or the training stack.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields

from repro.utils.serialization import load_json, save_json

ARCHITECTURES = ("vgg11", "vgg16", "vgg19", "resnet18")
DATASETS = {
    "synthetic-cifar10": 10,
    "synthetic-cifar100": 100,
    "synthetic-tinyimagenet": 200,
}
OPTIMIZERS = ("adam", "sgd")
# Mirrors repro.backend.available_backends(); kept static so this module
# stays import-light (no numpy / training stack at config time).
BACKENDS = ("reference", "fast")
DEFAULT_BACKEND = "reference"
# The fast backend's arithmetic revision, hashed into every fast config's
# cache_key() and never into to_dict(): bumped when fast runs of one
# config start returning other results, so earlier fast cache entries
# read as misses rather than merge conflicts.  Reference results are the
# seed's bytes, so reference keys carry no revision.  Revision 1: fast
# runs the reference's seed-order loops in float32.
FAST_REVISION = 1


def _from_dict(cls, payload: dict):
    """Construct a config dataclass from a plain dict, rejecting unknowns."""
    if not isinstance(payload, dict):
        raise TypeError(f"{cls.__name__} payload must be a dict, got {type(payload).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(payload) - set(known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys: {sorted(unknown)} "
            f"(known: {sorted(known)})"
        )
    nested = getattr(cls, "_nested", {})
    kwargs = {}
    for name, value in payload.items():
        if name in nested:
            if isinstance(value, dict):
                kwargs[name] = _from_dict(nested[name], value)
            elif isinstance(value, nested[name]):
                kwargs[name] = value
            else:
                raise TypeError(
                    f"{cls.__name__}.{name} must be a dict, "
                    f"got {type(value).__name__}"
                )
        elif isinstance(value, list):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    return cls(**kwargs)


def _to_dict(config) -> dict:
    """Recursive plain-dict form (tuples become lists for JSON).

    Nested configs render through their own ``to_dict`` so per-class
    canonicalization (e.g. :class:`QuantConfig`'s omitted-when-empty
    ``layer_bits``) applies at any nesting depth.
    """
    out = {}
    for spec in fields(config):
        value = getattr(config, spec.name)
        if isinstance(value, _ConfigBase):
            out[spec.name] = value.to_dict()
        elif dataclasses.is_dataclass(value):
            out[spec.name] = _to_dict(value)
        elif isinstance(value, tuple):
            out[spec.name] = list(value)
        else:
            out[spec.name] = value
    return out


def _canonical_layer_bits(value) -> tuple:
    """Normalize a per-layer bit map to a sorted ``((name, bits), ...)``.

    Accepts a ``{name: bits}`` mapping or an iterable of pairs (the JSON
    and evolve forms); the canonical tuple keeps frozen configs hashable
    and makes ``cache_key()`` independent of map insertion order.
    """
    if isinstance(value, dict):
        items = list(value.items())
    else:
        items = []
        for pair in value:
            pair = tuple(pair)
            if len(pair) != 2:
                raise ValueError(
                    f"layer_bits entries must be (name, bits) pairs, "
                    f"got {pair!r}"
                )
            items.append(pair)
    for name, bits in items:
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"layer_bits keys must be non-empty layer names, got {name!r}"
            )
        if not isinstance(bits, int) or isinstance(bits, bool) or bits < 1:
            raise ValueError(
                f"layer_bits[{name!r}] must be an integer >= 1, got {bits!r}"
            )
    names = [name for name, _ in items]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate layer_bits entries for {duplicates}")
    return tuple(sorted(items))


def _canonical_layer_names(value, field_name: str) -> tuple:
    """Normalize a layer-name collection to a sorted, validated tuple."""
    names = list(value)
    for name in names:
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"{field_name} entries must be non-empty layer names, "
                f"got {name!r}"
            )
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate {field_name} entries for {duplicates}")
    return tuple(sorted(names))


def canonical_json(payload: dict) -> str:
    """Deterministic JSON form of a config dict.

    Keys are sorted and separators fixed so the rendering is independent
    of dict insertion order, the process, and the platform — the basis
    of the content-addressed result cache.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(payload: dict) -> str:
    """sha256 hex digest of :func:`canonical_json` of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class _ConfigBase:
    """Shared dict/JSON plumbing for every config dataclass."""

    def to_dict(self) -> dict:
        return _to_dict(self)

    def cache_key(self) -> str:
        """Stable content hash of this config (see :func:`config_hash`).

        Two configs compare equal iff their keys match, regardless of how
        they were constructed (kwargs, from_dict with any key order,
        evolve) or in which process the key is computed.
        """
        return config_hash(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict):
        return _from_dict(cls, payload)

    def to_json(self, path) -> None:
        save_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path):
        return cls.from_dict(load_json(path))

    def evolve(self, **updates):
        """Return a copy with ``updates`` applied.

        A dict value for a nested config field is merged into that
        sub-config rather than replacing it wholesale, so callers can
        override a single hyper-parameter:

        >>> config.evolve(quant={"max_iterations": 2}, lr=1e-3)
        """
        known = {f.name: f for f in fields(self)}
        changes = {}
        for name, value in updates.items():
            if name not in known:
                raise ValueError(f"unknown {type(self).__name__} field {name!r}")
            current = getattr(self, name)
            if dataclasses.is_dataclass(current) and isinstance(value, dict):
                changes[name] = current.evolve(**value)
            elif isinstance(value, list):
                changes[name] = tuple(value)
            else:
                changes[name] = value
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ModelConfig(_ConfigBase):
    """Which instrumented architecture to build, and how wide."""

    arch: str = "vgg11"
    num_classes: int = 10
    width_multiplier: float = 1.0
    image_size: int = 16
    batch_norm: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown arch {self.arch!r} (choose from {ARCHITECTURES})")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        if self.image_size < 8:
            raise ValueError("image_size must be >= 8")


@dataclass(frozen=True)
class DataConfig(_ConfigBase):
    """Synthetic dataset family, scale, and loader settings."""

    dataset: str = "synthetic-cifar10"
    train_per_class: int = 24
    test_per_class: int = 8
    image_size: int = 16
    noise: float = 0.6
    train_batch_size: int = 32
    test_batch_size: int = 64
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise ValueError(
                f"unknown dataset {self.dataset!r} (choose from {sorted(DATASETS)})"
            )
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError("per-class sample counts must be >= 1")
        if self.image_size < 8:
            raise ValueError("image_size must be >= 8")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")
        if self.train_batch_size < 1 or self.test_batch_size < 1:
            raise ValueError("batch sizes must be >= 1")

    @property
    def num_classes(self) -> int:
        return DATASETS[self.dataset]


@dataclass(frozen=True)
class QuantConfig(_ConfigBase):
    """Algorithm-1 schedule plus the AD-saturation criterion.

    ``layer_bits`` overrides the starting precision of individual layers
    (by registry name); ``layer_frozen`` pins layers so eqn.-3 AD
    scaling never re-quantizes them — together they express one searched
    per-layer assignment (a Table II/III bit vector) as a config.  Both
    are stored canonically sorted and *omitted* from :meth:`to_dict`
    when empty, so configs that never touch them keep their historical
    ``cache_key()`` and the result cache stays warm.
    """

    initial_bits: int = 16
    frozen_bits: int = 16
    max_iterations: int = 4
    max_epochs_per_iteration: int = 100
    min_epochs_per_iteration: int = 1
    final_epochs: int = 0
    min_bits: int = 1
    saturation_window: int = 5
    saturation_tolerance: float = 0.02
    baseline_epochs: int | None = None
    layer_bits: tuple = ()
    layer_frozen: tuple = ()

    def __post_init__(self):
        # Normalize the per-layer maps before the shared validation so
        # dict / pair-list inputs (JSON, evolve) become one canonical
        # hashable form.
        object.__setattr__(
            self, "layer_bits", _canonical_layer_bits(self.layer_bits)
        )
        object.__setattr__(
            self,
            "layer_frozen",
            _canonical_layer_names(self.layer_frozen, "layer_frozen"),
        )
        # Reuse the schedule's own validation for the shared fields.
        self.to_schedule()
        if self.saturation_window < 2:
            raise ValueError("saturation_window must be >= 2")
        if self.saturation_tolerance <= 0:
            raise ValueError("saturation_tolerance must be positive")
        if self.baseline_epochs is not None and self.baseline_epochs < 1:
            raise ValueError("baseline_epochs must be >= 1 when set")

    @property
    def layer_bits_map(self) -> dict:
        """The per-layer override map as a plain ``{name: bits}`` dict."""
        return dict(self.layer_bits)

    def to_dict(self) -> dict:
        out = _to_dict(self)
        # Canonical dict form when set; omitted entirely when unset so
        # pre-override configs hash (and cache) identically to before.
        if self.layer_bits:
            out["layer_bits"] = self.layer_bits_map
        else:
            del out["layer_bits"]
        if not self.layer_frozen:
            del out["layer_frozen"]
        return out

    def validate_layers(self, layer_names) -> None:
        """Check every override/pin names a layer of the built model."""
        known = set(layer_names)
        for field_name, names in (
            ("layer_bits", [name for name, _ in self.layer_bits]),
            ("layer_frozen", self.layer_frozen),
        ):
            unknown = sorted(set(names) - known)
            if unknown:
                raise ValueError(
                    f"{field_name} names unknown layers {unknown} "
                    f"(model layers: {sorted(known)})"
                )

    def to_schedule(self):
        from repro.core.ad_quant import QuantizationSchedule

        return QuantizationSchedule(
            initial_bits=self.initial_bits,
            frozen_bits=self.frozen_bits,
            max_iterations=self.max_iterations,
            max_epochs_per_iteration=self.max_epochs_per_iteration,
            min_epochs_per_iteration=self.min_epochs_per_iteration,
            final_epochs=self.final_epochs,
            min_bits=self.min_bits,
            layer_bits=self.layer_bits_map,
            layer_frozen=self.layer_frozen,
        )

    def to_saturation(self):
        from repro.density import SaturationDetector

        return SaturationDetector(
            window=self.saturation_window, tolerance=self.saturation_tolerance
        )


@dataclass(frozen=True)
class PruneConfig(_ConfigBase):
    """Eqn.-5 channel pruning; fused with quantization by default."""

    enabled: bool = False
    fused: bool = True
    min_channels: int = 1
    retrain_epochs: int = 0

    def __post_init__(self):
        if self.min_channels < 1:
            raise ValueError("min_channels must be >= 1")
        if self.retrain_epochs < 0:
            raise ValueError("retrain_epochs must be >= 0")


@dataclass(frozen=True)
class EnergyConfig(_ConfigBase):
    """Which energy accountings to attach to the report."""

    analytical: bool = True
    pim: bool = False
    baseline_bits: int = 16

    def __post_init__(self):
        if self.baseline_bits < 1:
            raise ValueError("baseline_bits must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig(_ConfigBase):
    """One fully-specified experiment (a paper table/figure setup)."""

    name: str = "experiment"
    architecture: str = "model"
    dataset: str = "dataset"
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    quant: QuantConfig = field(default_factory=QuantConfig)
    prune: PruneConfig = field(default_factory=PruneConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    optimizer: str = "adam"
    lr: float = 3e-3
    momentum: float = 0.9
    tables: tuple = ()
    description: str = ""
    backend: str = DEFAULT_BACKEND

    _nested = {
        "model": ModelConfig,
        "data": DataConfig,
        "quant": QuantConfig,
        "prune": PruneConfig,
        "energy": EnergyConfig,
    }

    def __post_init__(self):
        if not self.name:
            raise ValueError("name must be non-empty")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r} (choose from {OPTIMIZERS})"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} (choose from {BACKENDS})"
            )
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.model.num_classes != self.data.num_classes:
            raise ValueError(
                f"model.num_classes ({self.model.num_classes}) does not match "
                f"{self.data.dataset} ({self.data.num_classes} classes)"
            )
        if self.model.arch.startswith("vgg") and self.model.image_size != self.data.image_size:
            raise ValueError(
                f"model.image_size ({self.model.image_size}) must match "
                f"data.image_size ({self.data.image_size}) for VGG classifiers"
            )

    def to_dict(self) -> dict:
        out = _to_dict(self)
        # Omitted when default so every pre-backend config keeps its
        # historical cache_key() (same trick as QuantConfig.layer_bits) —
        # and so reference results never cross-contaminate fast ones.
        if self.backend == DEFAULT_BACKEND:
            del out["backend"]
        return out

    def cache_key(self) -> str:
        """The content hash, with :data:`FAST_REVISION` mixed in on fast."""
        payload = self.to_dict()
        if self.backend == "fast":
            payload["fast_revision"] = FAST_REVISION
        return config_hash(payload)

    @property
    def input_shape(self) -> tuple:
        return (3, self.data.image_size, self.data.image_size)
