"""Experiment registry: every paper table/figure setup as a named preset.

``build("vgg19-cifar10-quant")`` returns a ready-to-run
:class:`Experiment` — a config, a freshly-built context, and the default
pipeline for that config.  Presets carry the CPU-scale hyper-parameters
the repository's benchmarks use (paper topologies at reduced width and
resolution; see ``benchmarks/common.py``), so benchmark tables, the CLI,
and user scripts all resolve to identical runs.

Overrides nest like the config itself::

    build("vgg19-cifar10-quant", quant={"max_iterations": 2}, lr=1e-3)
"""

from __future__ import annotations

from repro.api.config import (
    DataConfig,
    EnergyConfig,
    ExperimentConfig,
    ModelConfig,
    PruneConfig,
    QuantConfig,
)
from repro.api.context import build_context
from repro.api.pipeline import Pipeline
from repro.api.stages import (
    EnergyReportStage,
    FinalTuneStage,
    PIMEvalStage,
    PruneStage,
    QuantizeStage,
)

_REGISTRY: dict[str, ExperimentConfig] = {}


def register(config: ExperimentConfig) -> ExperimentConfig:
    """Add a preset to the registry (name collisions are errors)."""
    if config.name in _REGISTRY:
        raise ValueError(f"preset {config.name!r} already registered")
    _REGISTRY[config.name] = config
    return config


def names() -> list[str]:
    """All registered preset names, sorted."""
    return sorted(_REGISTRY)


def get_config(name: str) -> ExperimentConfig:
    """Look up a preset's config (without building anything)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(names())}"
        ) from None


def default_pipeline(config: ExperimentConfig) -> Pipeline:
    """The canonical stage list implied by a config."""
    stages = [QuantizeStage()]
    if config.prune.enabled and not config.prune.fused:
        stages.append(PruneStage(retrain_epochs=config.prune.retrain_epochs))
    if config.quant.final_epochs > 0:
        stages.append(FinalTuneStage())
    if config.energy.analytical:
        stages.append(EnergyReportStage())
    if config.energy.pim:
        stages.append(PIMEvalStage())
    return Pipeline(stages)


class Experiment:
    """A config bound to its context and pipeline; run() yields the report."""

    def __init__(self, config: ExperimentConfig, pipeline: Pipeline | None = None):
        self.config = config
        self.pipeline = pipeline or default_pipeline(config)
        self.context = build_context(config)

    def run(self, callbacks=()):
        """Run the pipeline; ``callbacks`` attach for this run only
        (use ``pipeline.add_callback`` for permanent observers).

        Each call restarts the experiment — fresh report, baseline and
        complexity state, initial plan re-applied — while trained
        weights persist on the model.
        """
        from repro.backend import set_active_backend

        # Re-activate this config's backend: warm contexts are reused
        # across runs (e.g. by the master service), and another run may
        # have switched the process-wide backend in between.
        set_active_backend(getattr(self.config, "backend", "reference"))
        self.context.prepared = False
        persistent = list(self.pipeline.callbacks)
        self.pipeline.callbacks = persistent + list(callbacks)
        try:
            return self.pipeline.run(self.context)
        finally:
            self.pipeline.callbacks = persistent

    # Convenience accessors onto the context.
    @property
    def model(self):
        return self.context.model

    @property
    def trainer(self):
        return self.context.trainer

    @property
    def quantizer(self):
        return self.context.quantizer

    @property
    def report(self):
        return self.context.report

    @property
    def artifacts(self):
        return self.context.artifacts


def build(name: str, **overrides) -> Experiment:
    """Resolve a preset (with optional nested overrides) into an Experiment."""
    config = get_config(name)
    if overrides:
        config = config.evolve(**overrides)
    return Experiment(config)


def apply_backend(kind: str, preset, backend: str | None):
    """Return ``preset`` retargeted onto ``backend`` (no-op when None).

    ``kind`` follows :func:`resolve_any`: a ``"run"`` config evolves its
    ``backend`` field, a ``"sweep"`` gains a one-value ``backend`` axis
    (which works for both ``base``- and ``presets``-form sweeps and
    shows up in point labels/cache keys), and a ``"search"`` evolves its
    base config — resolving a preset-form search to its concrete config
    first.  Used by the CLI ``--backend`` flags and the master's
    server-side spec resolution.
    """
    if backend is None:
        return preset
    if kind == "run":
        return preset.evolve(backend=backend)
    if kind == "sweep":
        import dataclasses

        from repro.orchestration.sweep import SweepAxis

        return dataclasses.replace(
            preset, axes=tuple(preset.axes) + (SweepAxis("backend", (backend,)),)
        )
    if kind == "search":
        base = preset.base if preset.base is not None else get_config(preset.preset)
        return preset.evolve(base=base.evolve(backend=backend), preset="")
    raise ValueError(f"unknown preset kind {kind!r}")


def apply_speculation(kind: str, preset, speculate: int | None):
    """Return ``preset`` with speculative execution set (no-op when None).

    Only ``"search"`` jobs speculate — the knob races a sequential
    search's likely next trials on idle workers, bit-identically (see
    :class:`~repro.orchestration.search.SpeculativeScheduler`) — so any
    other kind refuses rather than silently dropping the request.  Used
    by the master's server-side ``submit`` spec resolution.
    """
    if speculate is None:
        return preset
    if kind != "search":
        raise ValueError(
            f"speculate only applies to search jobs, not {kind!r}"
        )
    return preset.evolve(speculation=speculate)


# ---------------------------------------------------------------------------
# Sweep presets — the paper's grids (Tables II/III across models/seeds)
# and the ablation grids (README, "Scale and substitutions"), runnable
# via `repro sweep --preset`.
#
# Registration is lazy: repro.orchestration imports this module's config
# presets, so the SweepConfig import must wait until first access.
# ---------------------------------------------------------------------------

_SWEEPS: dict = {}
_SWEEPS_READY = False


def register_sweep(sweep) -> object:
    """Add a sweep preset to the registry (name collisions are errors)."""
    _ensure_sweeps()
    if sweep.name in _SWEEPS:
        raise ValueError(f"sweep preset {sweep.name!r} already registered")
    _SWEEPS[sweep.name] = sweep
    return sweep


def sweep_names() -> list[str]:
    """All registered sweep preset names, sorted."""
    _ensure_sweeps()
    return sorted(_SWEEPS)


def get_sweep(name: str):
    """Look up a sweep preset (without expanding anything)."""
    _ensure_sweeps()
    try:
        return _SWEEPS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep preset {name!r}; available: {', '.join(sweep_names())}"
        ) from None


def get_sweep_points(name: str, shard=None) -> list:
    """Expanded points of a registered sweep preset, optionally sharded.

    ``shard`` is an ``"i/N"`` spec string (or a
    :class:`~repro.orchestration.sweep.ShardSpec`): the returned slice is
    the one host ``i`` of ``N`` owns, assigned deterministically by each
    point's config cache key — mirroring ``repro sweep --preset NAME
    --shard i/N`` so programmatic callers shard the paper grids the same
    way the CLI does.
    """
    from repro.orchestration.sweep import ShardSpec, expand, shard_points

    points = expand(get_sweep(name))
    if shard is None:
        return points
    spec = ShardSpec.parse(shard) if isinstance(shard, str) else shard
    return shard_points(points, spec)


def resolve_any(name: str) -> tuple:
    """Resolve a preset name across *every* registry.

    Returns ``(kind, preset)`` where ``kind`` is ``"search"``,
    ``"sweep"``, or ``"run"`` — the ``repro master`` uses this so
    ``repro submit --preset NAME`` works without the client knowing
    which kind of preset the name refers to.  Search presets shadow
    sweep presets shadow single experiments (most-orchestrated wins;
    registries keep their names distinct in practice).
    """
    _ensure_searches()
    if name in _SEARCHES:
        return "search", _SEARCHES[name]
    _ensure_sweeps()
    if name in _SWEEPS:
        return "sweep", _SWEEPS[name]
    if name in _REGISTRY:
        return "run", _REGISTRY[name]
    known = sorted(
        set(search_names()) | set(sweep_names()) | set(names())
    )
    raise KeyError(
        f"unknown preset {name!r}; available: {', '.join(known)}"
    )


# ---------------------------------------------------------------------------
# Search presets — adaptive AD-guided bit-width searches and successive-
# halving grids, runnable via `repro search --preset`.  Lazy for the same
# reason as the sweep registry.
# ---------------------------------------------------------------------------

_SEARCHES: dict = {}
_SEARCHES_READY = False


def register_search(search) -> object:
    """Add a search preset to the registry (name collisions are errors)."""
    _ensure_searches()
    if search.name in _SEARCHES:
        raise ValueError(f"search preset {search.name!r} already registered")
    _SEARCHES[search.name] = search
    return search


def search_names() -> list[str]:
    """All registered search preset names, sorted."""
    _ensure_searches()
    return sorted(_SEARCHES)


def get_search(name: str):
    """Look up a search preset (without running anything)."""
    _ensure_searches()
    try:
        return _SEARCHES[name]
    except KeyError:
        raise KeyError(
            f"unknown search preset {name!r}; available: "
            f"{', '.join(search_names())}"
        ) from None


def _ensure_searches() -> None:
    global _SEARCHES_READY
    if _SEARCHES_READY:
        return
    from repro.orchestration.search import SearchConfig
    from repro.orchestration.sweep import SweepAxis

    _SEARCHES["search-vgg19-bits"] = SearchConfig(
        name="search-vgg19-bits",
        description=("AD-guided starting-precision search on the Table "
                     "II(a) workload (eqn. 3 lifted to the schedule)."),
        preset="vgg19-cifar10-quant",
        strategy="ad-bits",
        objective="energy_efficiency",
        accuracy_drop=0.10,
        max_trials=5,
        min_bits=2,
    )
    _SEARCHES["search-vgg19-halving"] = SearchConfig(
        name="search-vgg19-halving",
        description=("Successive halving over VGG19 starting precisions: "
                     "one cheap iteration prunes the grid, survivors get "
                     "the full schedule."),
        preset="vgg19-cifar10-quant",
        strategy="halving",
        objective="energy_efficiency",
        axes=(SweepAxis("quant.initial_bits", (4, 8, 16, 32)),),
        budget_path="quant.max_iterations",
        budgets=(1, 3),
        keep=0.5,
    )
    _SEARCHES["search-vgg19-layer-bits"] = SearchConfig(
        name="search-vgg19-layer-bits",
        description=("Per-layer bit-vector search on the Table II(a) "
                     "workload: the scalar AD descent seeds a survivor, "
                     "then energy-ranked -1-bit layer moves refine it "
                     "within the accuracy budget."),
        preset="vgg19-cifar10-quant",
        strategy="layer-bits",
        objective="energy_efficiency",
        accuracy_drop=0.10,
        max_trials=10,
        seed_trials=4,
        min_bits=2,
    )
    _SEARCHES["search-smoke-bits"] = SearchConfig(
        name="search-smoke-bits",
        description=("Seconds-scale AD bit-width search for CI "
                     "(<= 4 trained trials)."),
        preset="vgg11-micro-smoke",
        strategy="ad-bits",
        objective="energy_efficiency",
        accuracy_drop=0.30,
        max_trials=4,
        min_bits=2,
    )
    # The seed phase mirrors search-smoke-bits exactly (same base, drop,
    # min_bits, 4 seed trials), so its trials replay as cache hits after
    # the scalar smoke search and the winning vector's energy is <= the
    # scalar winner's by construction.
    _SEARCHES["search-smoke-layer-bits"] = SearchConfig(
        name="search-smoke-layer-bits",
        description=("Seconds-scale per-layer bit-vector search for CI "
                     "(scalar seed phase shared with search-smoke-bits)."),
        preset="vgg11-micro-smoke",
        strategy="layer-bits",
        objective="energy_efficiency",
        accuracy_drop=0.30,
        max_trials=7,
        seed_trials=4,
        min_bits=2,
    )
    # Only mark ready once every preset built (see _ensure_sweeps).
    _SEARCHES_READY = True


def _ensure_sweeps() -> None:
    global _SWEEPS_READY
    if _SWEEPS_READY:
        return
    from repro.orchestration.sweep import SweepAxis, SweepConfig

    # The saturation-tolerance ablation (benchmarks run this
    # same grid through `repro.orchestration.SweepRunner`).
    ablation_base = get_config("vgg19-cifar10-quant").evolve(
        model={"seed": 5},
        data={"seed": 5},
        quant={"max_iterations": 2, "max_epochs_per_iteration": 12,
               "min_epochs_per_iteration": 3, "saturation_window": 3},
    )
    _SWEEPS["ablation-saturation"] = SweepConfig(
        name="ablation-saturation",
        description=("Ablation: saturation-detector tolerance sweep "
                     "(looser tolerance -> earlier re-quantization)."),
        base=ablation_base,
        axes=(SweepAxis("quant.saturation_tolerance", (0.005, 0.05, 0.5)),),
    )
    _SWEEPS["ablation-initial-bits"] = SweepConfig(
        name="ablation-initial-bits",
        description=("Ablation: starting precision sweep (Table II(c) "
                     "uses a 32-bit start)."),
        base=get_config("vgg19-cifar10-quant").evolve(
            quant={"max_iterations": 2}
        ),
        axes=(SweepAxis("quant.initial_bits", (8, 16, 32)),),
    )
    _SWEEPS["table2-grid"] = SweepConfig(
        name="table2-grid",
        description="Table II: every quantization-only model/dataset pair.",
        presets=("vgg19-cifar10-quant", "resnet18-cifar100-quant",
                 "resnet18-tinyimagenet-quant"),
    )
    _SWEEPS["table3-grid"] = SweepConfig(
        name="table3-grid",
        description="Table III: fused quantization + pruning pairs.",
        presets=("vgg19-cifar10-quant-prune", "resnet18-cifar100-quant-prune"),
    )
    _SWEEPS["table2-vgg19-seeds"] = SweepConfig(
        name="table2-vgg19-seeds",
        description="Table II(a) across four seeds (variance band).",
        base=get_config("vgg19-cifar10-quant"),
        seeds=(0, 1, 2, 3),
    )
    _SWEEPS["smoke-seeds"] = SweepConfig(
        name="smoke-seeds",
        description="Seconds-scale 2-point seed sweep for CI.",
        base=get_config("vgg11-micro-smoke"),
        seeds=(0, 1),
    )
    # Only mark ready once every preset built, so a failure above is
    # re-raised (not masked by an empty registry) on the next access.
    _SWEEPS_READY = True


# ---------------------------------------------------------------------------
# Presets — paper tables/figures at the repository's benchmark scale.
# ---------------------------------------------------------------------------

register(ExperimentConfig(
    name="quickstart-vgg11",
    architecture="VGG11",
    dataset="SyntheticCIFAR10",
    description="README quickstart: VGG11, Algorithm 1 only, ~1 minute on CPU.",
    model=ModelConfig(arch="vgg11", num_classes=10, width_multiplier=0.25,
                      image_size=16, seed=0),
    data=DataConfig(dataset="synthetic-cifar10", train_per_class=24,
                    test_per_class=8, image_size=16, noise=0.6, seed=0,
                    train_batch_size=30, test_batch_size=80),
    quant=QuantConfig(max_iterations=3, max_epochs_per_iteration=10,
                      min_epochs_per_iteration=5, saturation_window=3,
                      saturation_tolerance=0.04),
))

register(ExperimentConfig(
    name="vgg19-cifar10-quant",
    architecture="VGG19",
    dataset="SyntheticCIFAR10",
    description="Table II(a): AD quantization, VGG19 on CIFAR-10.",
    tables=("Table II(a)", "Fig. 1", "Fig. 3"),
    model=ModelConfig(arch="vgg19", num_classes=10, width_multiplier=0.125,
                      image_size=16, seed=0),
    data=DataConfig(dataset="synthetic-cifar10", train_per_class=24,
                    test_per_class=8, image_size=16, noise=0.8, seed=0,
                    train_batch_size=25, test_batch_size=50),
    quant=QuantConfig(max_iterations=3, max_epochs_per_iteration=12,
                      min_epochs_per_iteration=6, saturation_window=3,
                      saturation_tolerance=0.04),
))

register(ExperimentConfig(
    name="resnet18-cifar100-quant",
    architecture="ResNet18",
    dataset="SyntheticCIFAR100",
    description="Table II(b): AD quantization, ResNet18 on CIFAR-100.",
    tables=("Table II(b)", "Fig. 2"),
    model=ModelConfig(arch="resnet18", num_classes=100, width_multiplier=0.125,
                      seed=1),
    data=DataConfig(dataset="synthetic-cifar100", train_per_class=8,
                    test_per_class=3, image_size=16, noise=0.6, seed=1,
                    train_batch_size=40, test_batch_size=50),
    quant=QuantConfig(max_iterations=3, max_epochs_per_iteration=8,
                      min_epochs_per_iteration=4, saturation_window=3,
                      saturation_tolerance=0.04),
))

register(ExperimentConfig(
    name="resnet18-tinyimagenet-quant",
    architecture="ResNet18",
    dataset="SyntheticTinyImageNet",
    description="Table II(c): 32-bit start, ResNet18 on TinyImageNet.",
    tables=("Table II(c)",),
    model=ModelConfig(arch="resnet18", num_classes=200, width_multiplier=0.125,
                      seed=2),
    data=DataConfig(dataset="synthetic-tinyimagenet", train_per_class=2,
                    test_per_class=1, image_size=16, noise=0.8, seed=2,
                    train_batch_size=40, test_batch_size=50),
    quant=QuantConfig(initial_bits=32, max_iterations=4,
                      max_epochs_per_iteration=6, min_epochs_per_iteration=3,
                      saturation_window=3, saturation_tolerance=0.04),
))

register(ExperimentConfig(
    name="vgg19-cifar10-quant-prune",
    architecture="VGG19 (quant+prune)",
    dataset="SyntheticCIFAR10",
    description="Table III(a): fused AD quantization + eqn.-5 pruning, VGG19.",
    tables=("Table III(a)",),
    model=ModelConfig(arch="vgg19", num_classes=10, width_multiplier=0.125,
                      image_size=16, seed=3),
    data=DataConfig(dataset="synthetic-cifar10", train_per_class=24,
                    test_per_class=8, image_size=16, noise=0.8, seed=0,
                    train_batch_size=25, test_batch_size=50),
    quant=QuantConfig(max_iterations=2, max_epochs_per_iteration=10,
                      min_epochs_per_iteration=5, saturation_window=3,
                      saturation_tolerance=0.04),
    prune=PruneConfig(enabled=True, fused=True),
))

register(ExperimentConfig(
    name="resnet18-cifar100-quant-prune",
    architecture="ResNet18 (quant+prune)",
    dataset="SyntheticCIFAR100",
    description="Table III(b): fused AD quantization + eqn.-5 pruning, ResNet18.",
    tables=("Table III(b)",),
    model=ModelConfig(arch="resnet18", num_classes=100, width_multiplier=0.125,
                      seed=4),
    data=DataConfig(dataset="synthetic-cifar100", train_per_class=8,
                    test_per_class=3, image_size=16, noise=0.6, seed=1,
                    train_batch_size=40, test_batch_size=50),
    quant=QuantConfig(max_iterations=3, max_epochs_per_iteration=6,
                      min_epochs_per_iteration=3, saturation_window=3,
                      saturation_tolerance=0.04),
    prune=PruneConfig(enabled=True, fused=True),
))

register(ExperimentConfig(
    name="vgg11-micro-smoke",
    architecture="VGG11 (micro)",
    dataset="SyntheticCIFAR10",
    description="Seconds-scale smoke preset for CI and CLI checks.",
    model=ModelConfig(arch="vgg11", num_classes=10, width_multiplier=0.0625,
                      image_size=8, seed=0),
    data=DataConfig(dataset="synthetic-cifar10", train_per_class=4,
                    test_per_class=2, image_size=8, seed=0,
                    train_batch_size=20, test_batch_size=20),
    quant=QuantConfig(max_iterations=2, max_epochs_per_iteration=2,
                      min_epochs_per_iteration=1, saturation_window=2,
                      saturation_tolerance=0.5),
    energy=EnergyConfig(analytical=True, pim=True),
))
