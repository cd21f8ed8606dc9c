"""Shared state threaded through a pipeline run.

An :class:`ExperimentContext` owns the live objects one experiment needs
(model, loaders, trainer, quantizer, optional pruner, energy model) plus
the mutable run products (report, baseline profiles, eqn.-4 complexity,
stage artifacts).  Stages read and write the context; the
:class:`~repro.api.pipeline.Pipeline` prepares it once and emits hooks
through it.

:func:`build_context` is the declarative entry point: it translates an
:class:`~repro.api.config.ExperimentConfig` into a ready-to-run context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ad_prune import ADPruner
from repro.core.ad_quant import ADQuantizer
from repro.core.complexity import TrainingComplexity
from repro.core.report import ExperimentReport
from repro.core.trainer import Trainer
from repro.energy.analytical import AnalyticalEnergyModel
from repro.energy.profile import profile_model, trace_geometry


@dataclass
class ExperimentContext:
    """Everything a :class:`~repro.api.stages.Stage` needs to run."""

    model: object
    train_loader: object
    test_loader: object
    trainer: Trainer
    quantizer: ADQuantizer
    input_shape: tuple
    pruner: ADPruner | None = None
    fuse_prune: bool = True
    energy_model: AnalyticalEnergyModel = field(default_factory=AnalyticalEnergyModel)
    architecture: str = "model"
    dataset: str = "dataset"
    baseline_epochs: int | None = None
    config: object | None = None

    # Run products (populated by prepare() and the stages).
    report: ExperimentReport | None = None
    baseline_profiles: list | None = None
    complexity: TrainingComplexity | None = None
    artifacts: dict = field(default_factory=dict)
    stop_requested: bool = False
    prepared: bool = False
    _pipeline: object | None = None
    _stage_cursor: int | None = None
    _resume_cursor: int | None = None
    _resume_mid_stage: bool = False

    # ------------------------------------------------------------------
    @property
    def schedule(self):
        return self.quantizer.schedule

    def profiles(self):
        """Energy profiles of the model under the currently-installed plan."""
        return profile_model(self.model, plan=self.quantizer.plan)

    def prepare(self, force: bool = False) -> None:
        """Trace geometry, install the initial plan, snapshot the baseline.

        Idempotent: chaining several pipelines over one context prepares
        only once, so later pipelines keep the trained/quantized state
        (``force=True`` re-prepares from scratch).

        Worker-safe: preparation touches only objects owned by this
        context (no module-level or shared mutable state), so contexts
        built from a config inside ``multiprocessing`` workers prepare
        and run independently — the basis of the parallel sweep runner.
        """
        if self.prepared and not force:
            return
        trace_geometry(self.model, self.input_shape)
        self.quantizer.apply_plan(self.quantizer.initial_plan())
        self.baseline_profiles = self.profiles()
        if self.baseline_epochs is None:
            self.baseline_epochs = 2 * self.schedule.max_epochs_per_iteration
        self.complexity = TrainingComplexity(self.baseline_epochs)
        self.report = ExperimentReport(
            architecture=self.architecture,
            dataset=self.dataset,
            layer_names=self.model.layer_handles().names(),
        )
        self.prepared = True

    # ------------------------------------------------------------------
    def emit(self, event: str, *args) -> None:
        """Forward a hook event to the running pipeline's callbacks."""
        if self._pipeline is not None:
            self._pipeline.emit(event, *args)

    def request_stop(self) -> None:
        """Ask the iterating stage to stop after the current iteration."""
        self.stop_requested = True

    # ------------------------------------------------------------------
    # Checkpointing: everything a resumed run needs to continue exactly
    # where this one stands, split into numeric arrays (-> .npz) and
    # JSON-serializable metadata.
    # ------------------------------------------------------------------
    OPTIMIZER_PREFIX = "__optimizer__."

    def snapshot_state(self) -> tuple[dict, dict]:
        """Capture the full run state as ``(arrays, metadata)``.

        ``arrays`` holds the model state dict (weights, BN statistics,
        pruning masks) plus the optimizer's slot buffers; ``metadata``
        holds the quantization plan, report rows, AD history, meter
        accumulators, the training-loader RNG state and the complexity
        ledger — enough to make the resumed run bit-identical to an
        uninterrupted one.
        """
        from repro.core.export import report_to_dict

        if not self.prepared:
            raise RuntimeError("cannot snapshot an unprepared context")
        arrays = dict(self.model.state_dict())
        optimizer = self.trainer.optimizer
        for key, value in optimizer.state_arrays().items():
            arrays[self.OPTIMIZER_PREFIX + key] = value
        metadata = {
            "version": 1,
            "config": self.config.to_dict() if self.config is not None else None,
            "config_key": (
                self.config.cache_key() if self.config is not None else None
            ),
            "plan": [
                {"name": spec.name, "bits": spec.bits, "frozen": spec.frozen}
                for spec in self.quantizer.plan
            ],
            "report": report_to_dict(self.report),
            "monitor": {
                name: list(series)
                for name, series in self.trainer.monitor.history.items()
            },
            "meters": {
                handle.name: handle.meter.state()
                for handle in self.trainer.registry
            },
            "epochs_completed": self.trainer.epochs_completed,
            "optimizer": optimizer.state_meta(),
            "complexity": {
                "baseline_epochs": self.complexity.baseline_epochs,
                "iterations": [
                    [reduction, epochs]
                    for reduction, epochs in self.complexity.iterations
                ],
            },
            "loader_rng": _rng_state(getattr(self.train_loader, "rng", None)),
            "artifacts": _json_safe_artifacts(self.artifacts),
            "stop_requested": self.stop_requested,
        }
        return arrays, metadata

    def restore_state(self, arrays: dict, metadata: dict) -> None:
        """Restore a :meth:`snapshot_state` capture onto this context.

        The context must already be prepared (so baseline profiles and
        geometry exist); restoration then replays the captured plan,
        weights, optimizer slots, AD bookkeeping and report rows.
        """
        from repro.core.export import report_from_dict
        from repro.quant import LayerQuantSpec, QuantizationPlan

        if not self.prepared:
            raise RuntimeError("prepare() the context before restore_state()")
        if self.config is not None and metadata.get("config_key") is not None:
            if metadata["config_key"] != self.config.cache_key():
                raise ValueError(
                    "checkpoint was written by a different config "
                    f"(key {metadata['config_key'][:12]}... vs "
                    f"{self.config.cache_key()[:12]}...)"
                )
        # Older checkpoints' plan entries also carry unread
        # quantize_weights/quantize_activations flags; they are ignored.
        plan = QuantizationPlan(
            [
                LayerQuantSpec(spec["name"], spec["bits"], frozen=spec["frozen"])
                for spec in metadata["plan"]
            ]
        )
        self.quantizer.apply_plan(plan)
        optimizer = self.trainer.optimizer
        model_state = {}
        optimizer_state = {}
        for key, value in arrays.items():
            if key.startswith(self.OPTIMIZER_PREFIX):
                optimizer_state[key[len(self.OPTIMIZER_PREFIX):]] = value
            else:
                model_state[key] = value
        self.model.load_state_dict(model_state)
        optimizer.load_state(optimizer_state, metadata.get("optimizer", {}))
        monitor = self.trainer.monitor
        monitor.reset()
        for name, series in metadata["monitor"].items():
            monitor.history[name] = [float(v) for v in series]
        for handle in self.trainer.registry:
            state = metadata.get("meters", {}).get(handle.name)
            if state is not None:
                handle.meter.load_state(state)
        self.trainer.epochs_completed = int(metadata["epochs_completed"])
        self.complexity = TrainingComplexity(
            metadata["complexity"]["baseline_epochs"]
        )
        for reduction, epochs in metadata["complexity"]["iterations"]:
            self.complexity.add_iteration(reduction, epochs)
        rng_state = metadata.get("loader_rng")
        loader_rng = getattr(self.train_loader, "rng", None)
        if rng_state is not None and loader_rng is not None:
            loader_rng.bit_generator.state = rng_state
        restored = report_from_dict(metadata["report"])
        self.report.rows = restored.rows
        self.artifacts = dict(metadata.get("artifacts", {}))
        # An early-stop requested before the capture must survive resume,
        # or the resumed run would train iterations the original skipped.
        self.stop_requested = bool(metadata.get("stop_requested", False))


def _rng_state(rng) -> dict | None:
    """JSON-serializable state of a numpy Generator (None if absent)."""
    if rng is None:
        return None
    return rng.bit_generator.state


def _json_safe_artifacts(artifacts: dict) -> dict:
    """Subset of ``artifacts`` that survives a JSON round-trip."""
    import json

    safe = {}
    for key, value in artifacts.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            continue
        safe[key] = value
    return safe


# ---------------------------------------------------------------------------
# Config -> live objects
# ---------------------------------------------------------------------------

def _build_data(config):
    from repro.data.datasets import DataLoader
    from repro.data.synthetic import (
        SyntheticCIFAR10,
        SyntheticCIFAR100,
        SyntheticTinyImageNet,
    )

    factories = {
        "synthetic-cifar10": SyntheticCIFAR10,
        "synthetic-cifar100": SyntheticCIFAR100,
        "synthetic-tinyimagenet": SyntheticTinyImageNet,
    }
    data = config.data
    rng = np.random.default_rng(data.seed)
    train_set, test_set = factories[data.dataset](
        train_per_class=data.train_per_class,
        test_per_class=data.test_per_class,
        image_size=data.image_size,
        noise=data.noise,
        seed=data.seed,
    )
    train_loader = DataLoader(
        train_set, batch_size=data.train_batch_size, shuffle=data.shuffle, rng=rng
    )
    test_loader = DataLoader(test_set, batch_size=data.test_batch_size)
    return train_loader, test_loader


def _build_model(config):
    from repro.models.resnet import resnet18
    from repro.models.vgg import vgg11, vgg16, vgg19

    model = config.model
    rng = np.random.default_rng(model.seed)
    if model.arch == "resnet18":
        return resnet18(
            num_classes=model.num_classes,
            width_multiplier=model.width_multiplier,
            rng=rng,
        )
    factory = {"vgg11": vgg11, "vgg16": vgg16, "vgg19": vgg19}[model.arch]
    return factory(
        num_classes=model.num_classes,
        width_multiplier=model.width_multiplier,
        image_size=model.image_size,
        batch_norm=model.batch_norm,
        rng=rng,
    )


def _build_optimizer(config, model):
    from repro.nn.optim import SGD, Adam

    if config.optimizer == "adam":
        return Adam(model.parameters(), lr=config.lr)
    return SGD(model.parameters(), lr=config.lr, momentum=config.momentum)


def build_context(config) -> ExperimentContext:
    """Translate an :class:`ExperimentConfig` into a ready context.

    Activates ``config.backend`` process-wide *before* building anything,
    so parameters, buffers and data tensors all materialize in the
    backend's dtype — including inside sweep/search worker processes,
    which rebuild contexts from config dicts through this function.
    """
    from repro.backend import set_active_backend
    from repro.nn.loss import CrossEntropyLoss

    set_active_backend(getattr(config, "backend", "reference"))
    train_loader, test_loader = _build_data(config)
    model = _build_model(config)
    # Per-layer overrides are validated here, at build time, so a bad
    # layer name fails before any training (and with the model's real
    # layer list in the message).
    config.quant.validate_layers(model.layer_handles().names())
    trainer = Trainer(model, _build_optimizer(config, model), CrossEntropyLoss())
    quantizer = ADQuantizer(
        trainer, config.quant.to_schedule(), config.quant.to_saturation()
    )
    pruner = (
        ADPruner(model.layer_handles(), min_channels=config.prune.min_channels)
        if config.prune.enabled
        else None
    )
    return ExperimentContext(
        model=model,
        train_loader=train_loader,
        test_loader=test_loader,
        trainer=trainer,
        quantizer=quantizer,
        pruner=pruner,
        fuse_prune=config.prune.fused,
        input_shape=config.input_shape,
        architecture=config.architecture,
        dataset=config.dataset,
        baseline_epochs=config.quant.baseline_epochs,
        config=config,
    )
