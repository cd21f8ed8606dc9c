"""Orchestration layer: schedulers, executors, searches, caching.

Sits *above* :mod:`repro.api` (which stays single-run): this package
turns one declarative :class:`~repro.api.config.ExperimentConfig` into
grids — or adaptive *searches* — of runs with content-addressed result
caching, multi-host sharding, streaming aggregation, and
checkpoint/resume.

Execution is split into three composable pieces: a
:class:`~repro.orchestration.scheduler.Scheduler` proposes points
(:class:`StaticScheduler` for pre-expanded grids,
:class:`ADSearchScheduler` / :class:`LayerBitSearchScheduler` /
:class:`SuccessiveHalvingScheduler` for
searches where finished points propose new ones, and
:class:`SpeculativeScheduler` naming a sequential search's likely next
trials as bets — ``--speculate K``), an executor backend
(:class:`SerialExecutor` / :class:`ProcessExecutor`, with dead-worker
detection) runs them, and the :class:`SweepRunner` driver loop joins
the two with caching, dedup, and streaming callbacks in between.  The
driver (:class:`SchedulerDrive`) also races the bets on idle workers,
quarantined until a real proposal adopts one, so speculative searches
stay bit-identical to sequential ones.

Quick tour::

    from repro.orchestration import (ResultCache, SearchConfig, SweepAxis,
                                     SweepConfig, SweepRunner, run_search)

    sweep = SweepConfig(
        name="vgg19-seeds",
        base=experiments.get_config("vgg19-cifar10-quant"),
        seeds=(0, 1, 2, 3),
    )
    result = SweepRunner(jobs=4, cache=ResultCache()).run(sweep)
    print(result.aggregate().format())

    search = SearchConfig(name="bits", preset="vgg19-cifar10-quant",
                          strategy="ad-bits", accuracy_drop=0.1)
    print(run_search(search, cache=ResultCache()).report().format())

or headless: ``repro sweep --preset table2-vgg19-seeds --jobs 4`` /
``repro search --preset search-vgg19-bits``.

Distributed: ``repro sweep --shard i/N`` runs one deterministic slice of
the grid per host (:func:`shard_points`; adaptive searches cannot shard
and say so), ``repro cache export/import/merge`` move ``.repro-cache/``
entries between hosts (:meth:`ResultCache.merge` with conflict
detection), and ``repro merge-sweeps`` joins the shard ``--out`` files
back into the unsharded aggregate (:func:`merge_sweep_payloads`).
"""

from repro.orchestration.cache import (
    DEFAULT_CACHE_DIR,
    CacheMergeConflict,
    ResultCache,
)
from repro.orchestration.checkpoint import (
    CheckpointCallback,
    CheckpointStage,
    write_checkpoint,
)
from repro.orchestration.executor import (
    ProcessExecutor,
    SerialExecutor,
    TaskInterrupted,
    crash_outcome,
    timeout_outcome,
)
from repro.orchestration.runner import (
    PointResult,
    SchedulerDrive,
    SweepInterrupted,
    SweepResult,
    SweepRunner,
    execute_point,
    merge_sweep_payloads,
    pending_point_dict,
    point_dict,
    run_payload,
    sweep_out_payload,
)
from repro.orchestration.scheduler import (
    DONE,
    Done,
    Scheduler,
    StaticScheduler,
)
from repro.orchestration.search import (
    ADSearchScheduler,
    LayerBitSearchScheduler,
    SearchConfig,
    SearchResult,
    SpeculativeScheduler,
    SuccessiveHalvingScheduler,
    bit_vector_of,
    build_scheduler,
    planned_trials,
    run_search,
    search_out_payload,
    seed_halving_grid,
)
from repro.orchestration.sweep import (
    ShardSpec,
    SweepAxis,
    SweepConfig,
    SweepPoint,
    axis_labels,
    expand,
    shard_assignment,
    shard_points,
)

__all__ = [
    "ADSearchScheduler",
    "CacheMergeConflict",
    "CheckpointCallback",
    "CheckpointStage",
    "DEFAULT_CACHE_DIR",
    "DONE",
    "Done",
    "LayerBitSearchScheduler",
    "PointResult",
    "ProcessExecutor",
    "ResultCache",
    "Scheduler",
    "SchedulerDrive",
    "SearchConfig",
    "SearchResult",
    "SerialExecutor",
    "ShardSpec",
    "SpeculativeScheduler",
    "StaticScheduler",
    "SuccessiveHalvingScheduler",
    "SweepAxis",
    "SweepConfig",
    "SweepInterrupted",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "TaskInterrupted",
    "axis_labels",
    "bit_vector_of",
    "build_scheduler",
    "crash_outcome",
    "execute_point",
    "expand",
    "merge_sweep_payloads",
    "pending_point_dict",
    "planned_trials",
    "point_dict",
    "run_payload",
    "run_search",
    "search_out_payload",
    "seed_halving_grid",
    "shard_assignment",
    "shard_points",
    "sweep_out_payload",
    "timeout_outcome",
    "write_checkpoint",
]
