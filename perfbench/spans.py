"""Span recorder for the traced benchmark run.

The traced run measures where a workload's time goes without changing
anything under ``src/``: :func:`install` replaces the public entry
points of each layer with wrappers that time every call.  The wrappers
live here, in the benchmark's own files, around calls into the program.

A span is one call of a wrapped function.  For each span name the
tracer keeps the call count, the inclusive time and the *self* time
(inclusive minus the time of spans opened inside it).  Spans may also
carry a *phase* (forward, backward, optimizer, ...): phase totals are
disjoint, because a phase span's time counts towards the innermost
phase open around it, so the kernels a phase calls count towards that
phase.  The top-level model call made while evaluating counts towards
``eval`` rather than ``forward``.

Coverage (:func:`coverage`) is the share of the traced window spent
inside layer spans.  The envelope spans (:data:`ENVELOPES`: the stage
runs and the trainer's epoch and evaluation loops) enclose nearly the
whole of a trial, so their self time, the control flow between the
calls they make, does not count as covered: a layer whose wrapper stops
being hit lowers coverage instead of moving into an envelope's self
time unnoticed.

One tracer exists per process, because the wrappers are installed on
shared classes.  Search workers are forked from the traced process and
inherit the wrappers; each trial they run starts from a cleared tracer
and writes its totals to a JSON file that the parent merges.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

_TRACER = None

# Span names (prefixes) whose self time is not covered; see coverage().
ENVELOPES = ("api.stage.", "core.train_epoch", "core.evaluate")


class Tracer:
    """Per-process span totals, kept in memory until :meth:`summary`."""

    def __init__(self):
        self._stack: list[list] = []        # open spans: [child_s, phase_child_s, phase]
        self._phase_stack: list[list] = []  # the open spans that carry a phase
        self.spans: dict[str, list] = {}    # name -> [calls, inclusive_s, self_s]
        self.phases: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.spanned_s = 0.0  # time inside outermost spans

    def reset(self) -> None:
        """Zero every total in place (the wrappers hold references to them)."""
        self._stack.clear()
        self._phase_stack.clear()
        for record in self.spans.values():
            record[:] = [0, 0.0, 0.0]
        self.phases.clear()
        self.counters.clear()
        self.spanned_s = 0.0

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, phase: str | None = None,
             yields_to: tuple = ()):
        """Return ``fn`` timed as span ``name``.

        ``yields_to`` names phases under which this span takes no phase
        of its own, so its time stays with the enclosing phase.
        """
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, phase_stack, phases = self._stack, self._phase_stack, self.phases
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            own = phase
            if own is not None and phase_stack and phase_stack[-1][2] in yields_to:
                own = None
            frame = [0.0, 0.0, own]
            stack.append(frame)
            if own is not None:
                phase_stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.spanned_s += elapsed
                if own is not None:
                    phase_stack.pop()
                    phases[own] = phases.get(own, 0.0) + elapsed - frame[1]
                    if phase_stack:
                        phase_stack[-1][1] += elapsed

        return traced

    def summary(self, window_s: float) -> dict:
        """JSON-ready totals of everything recorded over ``window_s`` seconds."""
        return {
            "window_s": window_s,
            "spanned_s": self.spanned_s,
            "spans": {name: list(rec) for name, rec in self.spans.items() if rec[0]},
            "phases": dict(self.phases),
            "counters": dict(self.counters),
        }


def merge(summaries) -> dict:
    """Sum several :meth:`Tracer.summary` dicts (parent plus workers)."""
    total = {"window_s": 0.0, "spanned_s": 0.0, "spans": {}, "phases": {},
             "counters": {}}
    for summary in summaries:
        total["window_s"] += summary["window_s"]
        total["spanned_s"] += summary["spanned_s"]
        for name, (calls, inclusive, own) in summary["spans"].items():
            rec = total["spans"].setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += inclusive
            rec[2] += own
        for key in ("phases", "counters"):
            for name, value in summary[key].items():
                total[key][name] = total[key].get(name, 0) + value
    return total


def coverage(summary: dict) -> float:
    """Share of a summary's window spent inside layer spans.

    That is the time inside any span minus the self time of the
    envelope spans.  Self times partition the spanned time, so this is
    also the summed self time of every non-envelope span.
    """
    envelope_s = sum(own for name, (_, _, own) in summary["spans"].items()
                     if name.startswith(ENVELOPES))
    return (summary["spanned_s"] - envelope_s) / summary["window_s"]


def _traced_loader_iter(tracer: Tracer, original):
    """``DataLoader.__iter__`` that times the wait for every batch."""
    next_batch = tracer.wrap("data.next", next, phase="data_wait")
    done = object()

    def __iter__(self):
        batches = original(self)
        while True:
            batch = next_batch(batches, done)
            if batch is done:
                return
            tracer.count("data.batches")
            yield batch

    return __iter__


def _counting_train_epoch(tracer: Tracer, original):
    """``Trainer.train_epoch`` that also counts the samples it trains on."""

    def train_epoch(self, loader):
        tracer.count("core.train_samples", len(loader.dataset))
        return original(self, loader)

    return tracer.wrap("core.train_epoch", train_epoch)


def traced_task(execute, trace_dir: str, task: dict) -> dict:
    """Run one search trial in a pool worker and dump its spans.

    The worker was forked from the traced process, so the wrappers are
    already in place; under another start method they are installed
    here.  Trials the search cancels while running still finish in
    their worker and are dumped too; a worker killed at the end of the
    search loses the trial it was running.
    """
    tracer = _TRACER if _TRACER is not None else install(trace_dir)
    tracer.reset()
    start = time.perf_counter()
    outcome = execute(task)
    summary = tracer.summary(time.perf_counter() - start)
    path = Path(trace_dir) / f"task-{os.getpid()}-{time.monotonic_ns()}.json"
    path.write_text(json.dumps(summary))
    return outcome


def _wrap_attr(tracer: Tracer, owner, attr: str, name: str, **kwargs) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kwargs))


def install(trace_dir: str) -> Tracer:
    """Wrap every layer's public entry points; returns the process tracer.

    ``trace_dir`` is where search workers dump their per-trial spans.
    """
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    from repro import api, backend, cli
    from repro.api import context, experiments, pipeline, stages
    from repro.autograd.tensor import Tensor
    from repro.backend.base import ArrayBackend
    from repro.core.trainer import Trainer
    from repro.data.datasets import DataLoader
    from repro.density.meter import ActivationDensityMeter
    from repro.energy.analytical import AnalyticalEnergyModel
    from repro.models.resnet import ResNet
    from repro.models.vgg import VGG
    from repro.nn.module import Module
    from repro.nn.optim import SGD, Adam
    from repro.orchestration import cache, executor, scheduler, search
    from repro.orchestration.runner import SchedulerDrive
    from repro.pim.energy_model import PIMEnergyModel
    from repro.quant.fakequant import FakeQuantize

    tracer = _TRACER = Tracer()

    # api: build_context is imported by name into several modules.
    traced_build = tracer.wrap("api.build_context", context.build_context)
    for module in (api, context, experiments, pipeline):
        module.build_context = traced_build
    _wrap_attr(tracer, context.ExperimentContext, "prepare", "api.prepare")
    for stage in (stages.QuantizeStage, stages.PruneStage,
                  stages.FinalTuneStage, stages.ExportStage):
        _wrap_attr(tracer, stage, "run", f"api.stage.{stage.name}")
    for stage in (stages.EnergyReportStage, stages.PIMEvalStage):
        _wrap_attr(tracer, stage, "run", f"api.stage.{stage.name}",
                   phase="energy")

    # backend: every public ArrayBackend method, on each registered
    # backend instance, so calls through active_backend() are timed.
    methods = [name for name, value in vars(ArrayBackend).items()
               if callable(value) and not name.startswith("_")]
    for backend_name in backend.available_backends():
        instance = backend.get_backend(backend_name)
        for method in methods:
            _wrap_attr(tracer, instance, method, f"backend.{method}")

    # data, core, nn/models, autograd, optimizer
    DataLoader.__iter__ = _traced_loader_iter(tracer, DataLoader.__iter__)
    Trainer.train_epoch = _counting_train_epoch(tracer, Trainer.train_epoch)
    _wrap_attr(tracer, Trainer, "evaluate", "core.evaluate", phase="eval")
    for model_class in (VGG, ResNet):
        model_class.__call__ = tracer.wrap("nn.forward", Module.__call__,
                                           phase="forward", yields_to=("eval",))
    _wrap_attr(tracer, Tensor, "backward", "autograd.backward", phase="backward")
    for optimizer in (Adam, SGD):
        _wrap_attr(tracer, optimizer, "step", "nn.optimizer_step",
                   phase="optimizer")

    # quant, density, energy, pim
    _wrap_attr(tracer, FakeQuantize, "__call__", "quant.fake_quant",
               phase="fake_quant")
    _wrap_attr(tracer, ActivationDensityMeter, "update", "density.update",
               phase="density")
    _wrap_attr(tracer, AnalyticalEnergyModel, "network_energy",
               "energy.network_energy", phase="energy")
    _wrap_attr(tracer, PIMEnergyModel, "network_energy", "pim.network_energy",
               phase="energy")

    # orchestration and cli (the search's parent process)
    for scheduler_class in (scheduler.StaticScheduler, search.ADSearchScheduler,
                            search.LayerBitSearchScheduler,
                            search.SuccessiveHalvingScheduler,
                            search.SpeculativeScheduler):
        _wrap_attr(tracer, scheduler_class, "next_points",
                   "orchestration.scheduler")
    _wrap_attr(tracer, SchedulerDrive, "round", "orchestration.drive")
    _wrap_attr(tracer, SchedulerDrive, "deliver", "orchestration.drive")
    _wrap_attr(tracer, cache.ResultCache, "load", "orchestration.cache_load")
    _wrap_attr(tracer, cache.ResultCache, "store", "orchestration.cache_store")
    pool = executor.ProcessExecutor
    _wrap_attr(tracer, pool, "submit", "orchestration.executor_submit")
    _wrap_attr(tracer, pool, "cancel", "orchestration.executor_cancel")
    _wrap_attr(tracer, pool, "next_result", "orchestration.executor_wait")
    _wrap_attr(tracer, cli._SweepOutStream, "write", "cli.out_write")
    original_init = pool.__init__

    def __init__(self, jobs, execute, *args, **kwargs):
        original_init(self, jobs, execute, *args, **kwargs)
        self.execute = functools.partial(traced_task, execute, trace_dir)

    pool.__init__ = __init__
    return tracer


def load_worker_summaries(trace_dir) -> list[dict]:
    """Every per-trial summary the search's workers dumped."""
    return [json.loads(path.read_text())
            for path in sorted(Path(trace_dir).glob("task-*.json"))]
