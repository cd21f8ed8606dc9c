"""``repro`` console entry point: headless experiment runs and sweeps.

Usage::

    python -m repro run --preset vgg19-cifar10-quant --out report.json
    python -m repro run --config my_experiment.json --out report.json
    python -m repro run --preset ... --checkpoint run.ckpt.npz --resume
    python -m repro sweep --preset table2-vgg19-seeds --jobs 4
    python -m repro sweep --preset vgg11-micro-smoke --seeds 0,1,2,3
    python -m repro sweep --preset table2-grid --shard 0/2 --out s0.json
    python -m repro search --preset search-vgg19-bits --out search.json
    python -m repro search --preset search-vgg19-layer-bits --out layers.json
    python -m repro search --preset search-smoke-bits --strategy layer-bits
    python -m repro run --preset vgg11-micro-smoke --backend fast
    python -m repro cache export --out cache.tgz
    python -m repro cache merge /mnt/hostb/.repro-cache
    python -m repro merge-sweeps s0.json s1.json --out merged.json
    python -m repro master --jobs 4            # the experiment service
    python -m repro submit --preset search-smoke-bits --priority 10
    python -m repro status
    python -m repro watch 1
    python -m repro cancel 2
    python -m repro shutdown
    python -m repro presets [--verbose]
    python -m repro sweeps [--verbose]
    python -m repro searches [--verbose]
    python -m repro show --preset vgg19-cifar10-quant

``run`` resolves a registry preset (or a JSON config file), executes the
default pipeline for that config plus an :class:`ExportStage`, and
writes a JSON (or CSV) report.  ``sweep`` fans a base config out over
override axes and executes the points through the orchestration layer —
optionally in parallel workers, optionally one deterministic shard of
the grid per host — streaming every finished point into an
incrementally rewritten ``--out`` aggregate.  ``search`` runs an
*adaptive* schedule instead: finished trials propose the next ones
(AD-guided bit-width descent, per-layer bit-vector refinement, or
successive halving), so it cannot be
sharded — ``--shard`` is rejected with an explanation — but trials
share the result cache like any other run.  ``cache export/import/
merge`` move result-cache entries between hosts and ``merge-sweeps``
joins shard ``--out`` files back into the unsharded aggregate.
All commands share the content-addressed result cache under
``.repro-cache/`` (opt-in for ``run`` via ``--cache``, default for
``sweep`` and ``search``; identical configs hit the same entry from any
command).

``master`` runs the long-lived experiment service: one warm cache, one
worker pool, and a priority job queue behind a unix socket.  ``submit``
/ ``status`` / ``watch`` / ``cancel`` / ``shutdown`` are its client
verbs (see :mod:`repro.service`).  ``sweep`` and ``search`` handle
SIGINT/SIGTERM gracefully — the first signal finalizes the streaming
``--out`` file (pending markers included) and exits 130; a second
aborts hard.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
from pathlib import Path

from repro.api import ExportStage, PipelineCallback, experiments
from repro.api.config import ExperimentConfig

# A run interrupted by SIGINT/SIGTERM exits with the conventional
# 128 + SIGINT code after finalizing its outputs.
EXIT_INTERRUPTED = 130


class CLIError(Exception):
    """A user-input problem (bad preset/config/override), not a bug."""


class _InterruptFlag:
    """Callable signal flag for the runner's graceful-interrupt hook.

    The first SIGINT/SIGTERM only *sets* the flag — the runner notices
    between tasks, finalizes streaming outputs, and exits 130.  A
    second signal raises ``KeyboardInterrupt`` for an immediate abort.
    """

    def __init__(self):
        self.fired = False

    def __call__(self) -> bool:
        return self.fired

    def handle(self, signum, frame) -> None:
        if self.fired:
            raise KeyboardInterrupt
        self.fired = True
        print(
            f"\nrepro: {signal.Signals(signum).name} received — finishing "
            "in-flight work and finalizing outputs (repeat to abort hard)",
            file=sys.stderr,
        )


@contextlib.contextmanager
def _graceful_interrupt():
    """Install SIGINT/SIGTERM handlers feeding an :class:`_InterruptFlag`."""
    flag = _InterruptFlag()
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, flag.handle)
        except ValueError:
            # Not the main thread (e.g. runner invoked from tests):
            # run without graceful handling rather than crash.
            pass
    try:
        yield flag
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


class _ProgressCallback(PipelineCallback):
    """Human-readable progress on stderr (silenced by --quiet)."""

    def __init__(self, stream):
        self.stream = stream
        self._t0 = time.time()

    def _log(self, message: str) -> None:
        elapsed = time.time() - self._t0
        print(f"[repro +{elapsed:7.1f}s] {message}", file=self.stream)

    def on_pipeline_start(self, ctx):
        self._log(
            f"running {ctx.architecture} on {ctx.dataset} "
            f"({len(ctx.model.layer_handles())} layers)"
        )

    def on_iteration_end(self, ctx, row):
        label = row.label or f"iteration {row.iteration}"
        self._log(
            f"{label}: acc {row.test_accuracy * 100:.2f}%, "
            f"AD {row.total_ad:.3f}, eff {row.energy_efficiency:.2f}x, "
            f"{row.epochs} epochs"
        )

    def on_stage_end(self, ctx, stage):
        self._log(f"stage '{stage.name}' done")


def _schedule_overrides(args) -> dict:
    quant = {}
    for field, attr in [
        ("max_iterations", "max_iterations"),
        ("max_epochs_per_iteration", "max_epochs"),
        ("min_epochs_per_iteration", "min_epochs"),
        ("initial_bits", "initial_bits"),
        ("final_epochs", "final_epochs"),
    ]:
        value = getattr(args, attr)
        if value is not None:
            quant[field] = value
    overrides = {}
    if quant:
        overrides["quant"] = quant
    if args.seed is not None:
        overrides["model"] = {"seed": args.seed}
        overrides["data"] = {"seed": args.seed}
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    return overrides


def _clean_message(error) -> str:
    return (
        error.args[0]
        if error.args and isinstance(error.args[0], str)
        else str(error)
    )


def _resolve_config(args) -> ExperimentConfig:
    # Resolution failures are user input problems -> clean CLI errors;
    # anything raised later (during the run) keeps its traceback.
    try:
        if args.config:
            config = ExperimentConfig.from_json(args.config)
        else:
            config = experiments.get_config(args.preset)
        overrides = _schedule_overrides(args)
        if overrides:
            config = config.evolve(**overrides)
        return config
    except (KeyError, TypeError, ValueError, FileNotFoundError) as error:
        raise CLIError(_clean_message(error)) from error


def _prepare_out_path(path, flag: str = "--out") -> None:
    """Create a writable home for an output path, or fail cleanly.

    Creates missing parent directories and verifies writability *before*
    any training starts, so an unwritable destination is an immediate
    exit-2 instead of a traceback after minutes of work.
    """
    if not path:
        return
    target = Path(path)
    parent = target.parent
    try:
        parent.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise CLIError(
            f"cannot create directory {str(parent)!r} for {flag}: {error}"
        ) from error
    if target.exists():
        if target.is_dir():
            raise CLIError(f"{flag} path {path!r} is a directory")
        if not os.access(target, os.W_OK):
            raise CLIError(f"{flag} path {path!r} is not writable")
    elif not os.access(parent, os.W_OK):
        raise CLIError(f"{flag} directory {str(parent)!r} is not writable")




def _write_cached_report(args, config, payload) -> None:
    """Materialize a cache hit to --out exactly as a live run would."""
    from repro.api.stages import export_payload
    from repro.core.export import report_from_dict, save_report_csv
    from repro.utils.serialization import save_json

    if not args.out:
        return
    if args.format == "csv":
        save_report_csv(report_from_dict(payload["report"]), args.out)
    else:
        save_json(args.out, export_payload(
            payload["report"], config, payload.get("artifacts", {}),
        ))


def _cmd_run(args) -> int:
    from repro.core.export import report_from_dict

    config = _resolve_config(args)
    _prepare_out_path(args.out)
    if args.resume and not args.checkpoint:
        raise CLIError("--resume requires --checkpoint PATH")
    if args.checkpoint:
        _prepare_out_path(args.checkpoint, flag="--checkpoint")

    cache = None
    if args.cache:
        from repro.orchestration import ResultCache

        cache = ResultCache(args.cache_dir)
        payload = cache.load(config)
        if payload is not None:
            report = report_from_dict(payload["report"])
            _write_cached_report(args, config, payload)
            if not args.quiet:
                print(report.format())
                print(f"cache hit ({config.cache_key()[:12]}) — run skipped")
                if args.out:
                    print(f"report written to {args.out}")
            return 0

    try:
        experiment = experiments.Experiment(config)
    except ValueError as error:
        # Config -> live-object translation failures (e.g. layer_bits
        # naming a layer the model does not have) are user-input
        # problems, same as resolution failures above.
        raise CLIError(_clean_message(error)) from error
    pipeline = experiment.pipeline
    if args.out:
        pipeline.stages.append(ExportStage(args.out, format=args.format))
    callbacks = [] if args.quiet else [_ProgressCallback(sys.stderr)]

    if args.checkpoint:
        from repro.orchestration import CheckpointCallback

        checkpoint = Path(args.checkpoint)
        # Iteration-granular captures first in the callback chain, so a
        # crash in any later observer still leaves a current checkpoint.
        callbacks = [CheckpointCallback(checkpoint)] + callbacks
        if args.resume and checkpoint.exists():
            persistent = list(pipeline.callbacks)
            pipeline.callbacks = persistent + callbacks
            import zipfile

            try:
                report = pipeline.resume(experiment.context, checkpoint)
            except (ValueError, KeyError, OSError, EOFError,
                    zipfile.BadZipFile) as error:
                # A mismatched config, or an unreadable/corrupt
                # checkpoint file, is a user-facing condition, not a bug.
                raise CLIError(
                    f"cannot resume from {args.checkpoint!r}: "
                    f"{_clean_message(error)}"
                ) from error
            finally:
                pipeline.callbacks = persistent
            if args.out and not Path(args.out).exists():
                # The checkpoint cursor sat past the export stage (the
                # interrupted run died after exporting was recorded as
                # complete, or the run had already finished): write the
                # restored report so --out is honoured regardless.
                pipeline.stages[-1].run(experiment.context)
        else:
            report = experiment.run(callbacks=callbacks)
    else:
        report = experiment.run(callbacks=callbacks)

    if cache is not None:
        from repro.orchestration.runner import run_payload

        cache.store(config, run_payload(report, experiment.artifacts))
    if not args.quiet:
        print(report.format())
        if args.out:
            print(f"report written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _split_axis_values(rest: str) -> list[str]:
    """Split ``v1,v2,...`` on top-level commas only.

    Commas inside JSON strings (``"a,b"``) or inside brackets/braces
    (``["a","b"]``, ``{"k": 1}``) belong to one value, so quoted axis
    values may contain commas.
    """
    chunks, buf = [], []
    depth = 0
    in_string = escaped = False
    for char in rest:
        if in_string:
            buf.append(char)
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
        elif char in "[{":
            depth += 1
        elif char in "]}":
            depth = max(0, depth - 1)
        elif char == "," and depth == 0:
            chunks.append("".join(buf))
            buf = []
            continue
        buf.append(char)
    chunks.append("".join(buf))
    return chunks


def _parse_axis(spec: str):
    """``path=v1,v2,...`` -> SweepAxis (values parsed as JSON, else str)."""
    from repro.orchestration import SweepAxis

    path, _, rest = spec.partition("=")
    if not path or not rest:
        raise ValueError(f"bad --axis {spec!r} (expected PATH=V1,V2,...)")
    values = []
    for chunk in _split_axis_values(rest):
        try:
            values.append(json.loads(chunk))
        except ValueError:
            values.append(chunk)
    return SweepAxis(path, tuple(values))


def _resolve_sweep(args):
    """Resolve CLI args to ``(sweep, points)``.

    The expanded point list doubles as eager validation (bad axis paths
    or values fail here, before any training) and is passed through to
    the runner, so every sweep expands exactly once per invocation.
    """
    from repro.orchestration import SweepConfig

    try:
        if args.config:
            sweep = SweepConfig.from_json(args.config)
        else:
            try:
                sweep = experiments.get_sweep(args.preset)
            except KeyError:
                # Fall back to an experiment preset as a bare base config.
                try:
                    base = experiments.get_config(args.preset)
                except KeyError:
                    raise CLIError(
                        f"unknown preset {args.preset!r}; sweep presets: "
                        f"{', '.join(experiments.sweep_names())}; experiment "
                        f"presets: {', '.join(experiments.names())}"
                    ) from None
                sweep = SweepConfig(name=f"{args.preset}-sweep", base=base)
        axes = tuple(sweep.axes) + tuple(
            _parse_axis(spec) for spec in (args.axis or ())
        )
        seeds = sweep.seeds
        if args.seeds:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        sweep = SweepConfig(
            name=sweep.name,
            base=sweep.base,
            presets=sweep.presets,
            axes=axes,
            mode=args.mode or sweep.mode,
            seeds=seeds,
            description=sweep.description,
        )
        sweep = experiments.apply_backend("sweep", sweep,
                                          getattr(args, "backend", None))
        from repro.orchestration import expand

        return sweep, expand(sweep)
    except CLIError:
        raise
    except (KeyError, TypeError, ValueError, FileNotFoundError) as error:
        raise CLIError(_clean_message(error)) from error


class _SweepOutStream:
    """Incrementally rewrites the sweep ``--out`` file as points finish.

    Every write is atomic (temp file + rename), so ``--out`` is valid
    JSON at any instant; a sweep killed mid-flight leaves the completed
    points behind plus ``"status": "pending"`` placeholders for the
    rest.
    """

    def __init__(self, path, name: str, points, expansion_total: int | None):
        self.path = path
        self.name = name
        self.points = []
        self.expansion_total = expansion_total
        self.results = []
        # Per-point entries are built once (placeholders now, real
        # entries as results land), not re-serialized on every rewrite.
        self.point_dicts = []
        self._append(points)

    def _append(self, points) -> None:
        from repro.orchestration import pending_point_dict

        for point in points:
            position = len(self.points)
            self.points.append(point)
            self.results.append(None)
            self.point_dicts.append(pending_point_dict(point, position))

    def on_point(self, result, position, total) -> None:
        from repro.orchestration import point_dict

        self.results[position] = result
        self.point_dicts[position] = point_dict(result, position)
        self.write()

    def _payload(self) -> dict:
        from repro.orchestration import sweep_out_payload

        return sweep_out_payload(self.name, self.points, self.results,
                                 expansion_total=self.expansion_total,
                                 point_dicts=self.point_dicts)

    def write(self) -> None:
        from repro.utils.serialization import save_json

        save_json(self.path, self._payload())


def _report_interrupted(args, stop, stream, kind: str) -> int:
    """Summarize a signal-interrupted sweep/search and exit 130.

    The streaming ``--out`` file (when enabled) is already valid JSON:
    completed points are recorded, the rest carry ``"pending"``
    markers — exactly the shape a killed shard leaves for
    ``merge-sweeps`` / a resubmission to pick up from the cache.
    """
    if stream is not None:
        stream.write()
    if not args.quiet:
        done = len(stop.result.points)
        print(
            f"{kind} interrupted: {done} point(s) completed, "
            f"{stop.pending} in flight abandoned"
            + (f"; partial results written to {args.out}" if args.out else ""),
            file=sys.stderr,
        )
    return EXIT_INTERRUPTED


def _cmd_sweep(args) -> int:
    from repro.orchestration import (ResultCache, ShardSpec, SweepInterrupted,
                                     SweepRunner, shard_points)

    sweep, points = _resolve_sweep(args)
    _prepare_out_path(args.out)
    if args.jobs < 1:
        raise CLIError("--jobs must be >= 1")
    expansion_total = len(points)  # full grid size, recorded pre-sharding
    shard = None
    if args.shard:
        try:
            shard = ShardSpec.parse(args.shard)
        except ValueError as error:
            raise CLIError(_clean_message(error)) from error
        points = shard_points(points, shard)
    cache = ResultCache(args.cache_dir) if args.cache else None
    progress = None
    if not args.quiet:
        t0 = time.time()

        def progress(message):
            print(f"[repro sweep +{time.time() - t0:7.1f}s] {message}",
                  file=sys.stderr)

        if shard is not None:
            progress(f"shard {shard}: {len(points)} of the sweep's points")
    stream = None
    if args.out:
        stream = _SweepOutStream(args.out, sweep.name, points,
                                 expansion_total=expansion_total)
        stream.write()  # all-pending skeleton exists from the first moment
    with _graceful_interrupt() as interrupt:
        runner = SweepRunner(jobs=args.jobs, cache=cache, progress=progress,
                             on_point=stream.on_point if stream else None,
                             task_timeout=args.task_timeout,
                             interrupt=interrupt)
        try:
            result = runner.run(sweep, points=points)
        except SweepInterrupted as stop:
            return _report_interrupted(args, stop, stream, kind="sweep")
    # No final rewrite needed: the stream already rewrote --out after
    # the last point (the runner raises if any point went unaccounted).
    if not args.quiet:
        print(result.aggregate().format())
        stats = result.stats
        shard_note = f" [shard {shard}]" if shard is not None else ""
        print(
            f"points: {stats['total']}{shard_note} "
            f"(executed {stats['executed']}, "
            f"cached {stats['cached']}, failed {stats['failed']})"
            + _cache_note(stats)
        )
        if args.out:
            print(f"sweep results written to {args.out}")
    return 0 if result.ok else 1


def _cache_note(stats: dict) -> str:
    """The summary-line suffix surfacing result-cache activity."""
    if "cache_hits" not in stats:
        return ""
    return (f"; cache: {stats['cache_hits']} hit(s), "
            f"{stats['cache_misses']} miss(es)")


def _speculation_note(stats: dict) -> str:
    """The summary-line suffix surfacing speculative-execution activity."""
    if "speculated" not in stats:
        return ""
    # Job summaries persisted before head starts were counted lack it.
    head_starts = (f", {stats['head_starts']} with a head start"
                   if "head_starts" in stats else "")
    return (f"; speculation: {stats['confirmed']} of "
            f"{stats['speculated']} bet(s) confirmed{head_starts}, "
            f"{stats['cancelled']} cancelled, "
            f"{stats['wasted_trials']} wasted trial(s)")


# ---------------------------------------------------------------------------
# Adaptive searches
# ---------------------------------------------------------------------------

def _resolve_search(args):
    """Resolve CLI args to a SearchConfig (preset or JSON file)."""
    from repro.orchestration.search import SearchConfig

    try:
        if args.config:
            search = SearchConfig.from_json(args.config)
        else:
            try:
                search = experiments.get_search(args.preset)
            except KeyError:
                raise CLIError(
                    f"unknown search preset {args.preset!r}; available: "
                    f"{', '.join(experiments.search_names())}"
                ) from None
        # Strategy switches apply first so the knob guards below judge
        # the strategy that will actually run.
        if args.strategy is not None and args.strategy != search.strategy:
            changes = {"strategy": args.strategy}
            if args.strategy != "layer-bits" and search.seed_trials:
                # seed_trials is a layer-bits-only knob; leaving a
                # preset's value behind would make the switch invalid.
                changes["seed_trials"] = 0
            search = search.evolve(**changes)
        overrides = {}
        if args.max_trials is not None:
            overrides["max_trials"] = args.max_trials
        if args.drop is not None:
            overrides["accuracy_drop"] = args.drop
        if args.seed_trials is not None:
            if search.strategy != "layer-bits":
                raise CLIError(
                    "--seed-trials only applies to layer-bits searches "
                    "(the scalar seed phase of the per-layer search)"
                )
            overrides["seed_trials"] = args.seed_trials
        if overrides and search.strategy == "halving":
            # Halving's trial count is fixed by axes x budgets x keep and
            # its feasibility is rung survival: these knobs would be
            # silently ignored, so refuse them instead.
            flags = " / ".join(
                flag for flag, present in
                (("--max-trials", args.max_trials is not None),
                 ("--drop", args.drop is not None))
                if present
            )
            raise CLIError(
                f"{flags} only applies to ad-bits/layer-bits searches; a "
                "halving search is sized by its axes, budgets, and keep "
                "fraction"
            )
        if overrides:
            search = search.evolve(**overrides)
        if getattr(args, "speculate", None) is not None:
            if search.strategy == "halving":
                raise CLIError(
                    "--speculate only applies to ad-bits/layer-bits "
                    "searches; halving rungs already fan out under --jobs"
                )
            if args.speculate < 0:
                raise CLIError("--speculate must be >= 0")
            search = search.evolve(speculation=args.speculate)
        search = experiments.apply_backend("search", search,
                                           getattr(args, "backend", None))
        return search
    except CLIError:
        raise
    except (KeyError, TypeError, ValueError, FileNotFoundError) as error:
        raise CLIError(_clean_message(error)) from error


class _SearchOutStream(_SweepOutStream):
    """The sweep stream for a search: a *growing* point list plus a
    ``"search"`` payload section.

    ``on_schedule`` appends ``"pending"`` placeholders the moment the
    scheduler proposes trials, and every write re-asks the scheduler
    for its current best/feasibility — so the file is valid JSON with
    an up-to-date ``"search"`` section at every instant.
    """

    def __init__(self, path, search, scheduler):
        super().__init__(path, search.name, [], expansion_total=None)
        self.search = search
        self.scheduler = scheduler

    def on_schedule(self, new_points, total) -> None:
        self._append(new_points)
        self.write()

    def _payload(self) -> dict:
        from repro.orchestration.search import search_out_payload

        return search_out_payload(
            self.search, self.name, self.points, self.results,
            best=self.scheduler.best(), baseline=self.scheduler.baseline(),
            feasibility=self.scheduler.feasibility(),
            point_dicts=self.point_dicts,
        )


def _cmd_search(args) -> int:
    from repro.orchestration import ResultCache, SweepInterrupted
    from repro.orchestration.search import build_scheduler, run_search

    if args.shard:
        raise CLIError(
            "adaptive searches cannot be sharded: each trial depends on "
            "earlier trials' results, so there is no static grid to "
            "partition — run the search on one host (trained trials still "
            "land in the result cache for other hosts to reuse)"
        )
    search = _resolve_search(args)
    _prepare_out_path(args.out)
    if args.jobs < 1:
        raise CLIError("--jobs must be >= 1")
    try:
        scheduler = build_scheduler(search)
    except (KeyError, TypeError, ValueError) as error:
        raise CLIError(_clean_message(error)) from error
    cache = ResultCache(args.cache_dir) if args.cache else None
    progress = None
    if not args.quiet:
        t0 = time.time()

        def progress(message):
            print(f"[repro search +{time.time() - t0:7.1f}s] {message}",
                  file=sys.stderr)

    stream = None
    if args.out:
        stream = _SearchOutStream(args.out, search, scheduler)
        stream.write()  # a valid skeleton exists from the first moment
    with _graceful_interrupt() as interrupt:
        try:
            result = run_search(
                search, jobs=args.jobs, cache=cache, progress=progress,
                on_point=stream.on_point if stream else None,
                on_schedule=stream.on_schedule if stream else None,
                scheduler=scheduler,
                task_timeout=args.task_timeout, interrupt=interrupt,
            )
        except SweepInterrupted as stop:
            return _report_interrupted(args, stop, stream, kind="search")
    if stream is not None:
        # Mid-run writes trail the scheduler by one absorption (it digests
        # a result on its *next* proposal round, after on_point already
        # streamed); one closing write records the final best/feasibility.
        stream.write()
    if not args.quiet:
        print(result.report().format())
        stats = result.stats
        print(
            f"trials: {stats['total']} (executed {stats['executed']}, "
            f"cached {stats['cached']}, failed {stats['failed']})"
            + _cache_note(stats) + _speculation_note(stats)
        )
        if args.out:
            print(f"search results written to {args.out}")
    if result.best is None:
        print("repro: error: search found no feasible trial",
              file=sys.stderr)
        return 1
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# Cache transport and shard-report merging
# ---------------------------------------------------------------------------

def _merge_cache_source(cache, source) -> dict:
    """Merge ``source`` (cache directory or exported tarball) into ``cache``."""
    from repro.orchestration import ResultCache

    source = Path(source)
    if source.is_dir():
        return cache.merge(ResultCache(source))
    if not source.exists():
        raise CLIError(f"no such cache source: {source}")
    import tarfile

    try:
        return cache.import_archive(source)
    except (OSError, tarfile.TarError) as error:
        raise CLIError(
            f"cannot read cache archive {str(source)!r}: "
            f"{_clean_message(error)}"
        ) from error


def _cmd_cache(args) -> int:
    from repro.orchestration import CacheMergeConflict, ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "export":
        _prepare_out_path(args.out)
        stats = cache.export_archive(args.out)
        if not args.quiet:
            print(f"exported {stats['exported']} cache entries to {args.out}")
            if stats["skipped_invalid"]:
                print(f"skipped {stats['skipped_invalid']} invalid entries",
                      file=sys.stderr)
        return 0
    # import / merge share semantics: fold entries into --cache-dir.
    try:
        stats = _merge_cache_source(cache, args.source)
    except CacheMergeConflict as error:
        raise CLIError(_clean_message(error)) from error
    if not args.quiet:
        print(
            f"merged {stats['merged']} new entries into {args.cache_dir} "
            f"({stats['identical']} already present, "
            f"{stats['skipped_invalid']} invalid skipped)"
        )
    return 0


def _cmd_merge_sweeps(args) -> int:
    from repro.core.export import sweep_report_from_payload
    from repro.orchestration import merge_sweep_payloads
    from repro.utils.serialization import load_json, save_json

    _prepare_out_path(args.out)
    payloads = []
    for path in args.files:
        try:
            payloads.append(load_json(path))
        except (OSError, ValueError) as error:
            raise CLIError(
                f"cannot read sweep output {path!r}: {_clean_message(error)}"
            ) from error
    try:
        merged = merge_sweep_payloads(payloads, name=args.name)
    except ValueError as error:
        raise CLIError(_clean_message(error)) from error
    if args.out:
        save_json(args.out, merged)
    report = sweep_report_from_payload(merged)
    stats = merged["stats"]
    if not args.quiet:
        print(report.format())
        print(
            f"points: {stats['total']} (executed {stats['executed']}, "
            f"cached {stats['cached']}, failed {stats['failed']}) "
            f"from {len(payloads)} shard file(s)"
        )
        if args.out:
            print(f"merged sweep written to {args.out}")
    return 0 if not stats["failed"] else 1


# ---------------------------------------------------------------------------
# Experiment service: the long-lived master and its client verbs
# ---------------------------------------------------------------------------

def _cmd_master(args) -> int:
    import asyncio

    from repro.service.master import Master

    if args.jobs < 1:
        raise CLIError("--jobs must be >= 1")
    log = None
    if not args.quiet:
        t0 = time.time()

        def log(message):
            print(f"[repro master +{time.time() - t0:7.1f}s] {message}",
                  file=sys.stderr)

    try:
        master = Master(
            socket_path=args.socket, jobs=args.jobs,
            cache_dir=args.cache_dir, state_path=args.state,
            task_timeout=args.task_timeout, log=log,
        )
    except (OSError, ValueError) as error:
        raise CLIError(_clean_message(error)) from error

    async def serve():
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, master.request_shutdown)
        await master.serve()

    asyncio.run(serve())
    return 0


def _service_client(args):
    from repro.service.client import MasterClient, MasterError

    try:
        return MasterClient(args.socket)
    except MasterError as error:
        raise CLIError(_clean_message(error)) from error


def _cmd_submit(args) -> int:
    from repro.service.client import MasterError

    config = None
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as error:
            raise CLIError(
                f"cannot read config {args.config!r}: "
                f"{_clean_message(error)}"
            ) from error
    with _service_client(args) as client:
        try:
            result = client.submit(preset=args.preset, config=config,
                                   kind=args.kind, priority=args.priority,
                                   backend=args.backend,
                                   speculate=args.speculate)
        except MasterError as error:
            raise CLIError(_clean_message(error)) from error
    if not args.quiet:
        print(f"job {result['job']} submitted "
              f"({result['kind']} {result['name']}, "
              f"priority {result['priority']})")
    else:
        print(result["job"])
    return 0


def _cmd_status(args) -> int:
    from repro.core.report import format_job_table
    from repro.service.client import MasterError

    with _service_client(args) as client:
        try:
            status = client.status()
        except MasterError as error:
            raise CLIError(_clean_message(error)) from error
    if args.json:
        print(json.dumps(status, indent=2))
        return 0
    master = status.get("master", {})
    print(f"master: repro {master.get('version', '?')}, "
          f"{master.get('jobs', '?')} executor slot(s), "
          f"{master.get('cache_entries', '?')} cache entries "
          f"in {master.get('cache_dir', '?')}")
    jobs = status.get("jobs", [])
    if jobs:
        print(format_job_table(jobs))
    else:
        print("no jobs submitted")
    return 0


def _cmd_watch(args) -> int:
    from repro.service.client import MasterError

    t0 = time.time()

    def narrate(message):
        if args.quiet:
            return
        name = message.get("event")
        data = message.get("data") or {}
        prefix = f"[repro watch +{time.time() - t0:7.1f}s]"
        if name == "schedule":
            print(f"{prefix} scheduled {len(data.get('points', []))} "
                  f"point(s) ({data.get('total')} total)", file=sys.stderr)
        elif name == "point":
            print(f"{prefix} {data.get('status', '?'):8s} "
                  f"{data.get('label', '?')} "
                  f"({data.get('duration') or 0:.1f}s)", file=sys.stderr)
        elif name == "state":
            note = " (resumed)" if data.get("resumed") else ""
            print(f"{prefix} job {message.get('job')} -> "
                  f"{data.get('state', '?')}{note}", file=sys.stderr)

    with _service_client(args) as client:
        try:
            final = client.watch(args.job, on_event=narrate)
        except MasterError as error:
            raise CLIError(_clean_message(error)) from error
    state = final.get("state", "?")
    stats = (final.get("summary") or {}).get("stats") or {}
    line = f"job {args.job}: {state}"
    if stats:
        line += (f" — {stats.get('total', 0)} point(s), "
                 f"{stats.get('executed', 0)} run, "
                 f"{stats.get('cached', 0)} cached, "
                 f"{stats.get('failed', 0)} failed"
                 + _cache_note(stats) + _speculation_note(stats))
    if final.get("error"):
        line += f" — {final['error']}"
    print(line)
    return 0 if state == "done" and not stats.get("failed") else 1


def _cmd_cancel(args) -> int:
    from repro.service.client import MasterError

    with _service_client(args) as client:
        try:
            result = client.cancel(args.job)
        except MasterError as error:
            raise CLIError(_clean_message(error)) from error
    if not args.quiet:
        if result["cancel"] == "requested":
            print(f"job {args.job}: cancel requested — the master stops "
                  "it at the next scheduler round")
        else:
            print(f"job {args.job}: cancelled")
    return 0


def _cmd_shutdown(args) -> int:
    from repro.service.client import MasterError

    with _service_client(args) as client:
        try:
            client.shutdown()
        except MasterError as error:
            raise CLIError(_clean_message(error)) from error
    if not args.quiet:
        print("master stopping")
    return 0


def _cmd_presets(args) -> int:
    for name in experiments.names():
        config = experiments.get_config(name)
        if args.verbose:
            tables = ", ".join(config.tables) if config.tables else "-"
            print(f"{name:32s} {tables:28s} {config.description}")
        else:
            print(name)
    return 0


def _cmd_sweeps(args) -> int:
    from repro.orchestration import expand

    # Point counts print unconditionally so a sweep can be sized before
    # it is launched; --verbose adds the description.
    for name in experiments.sweep_names():
        sweep = experiments.get_sweep(name)
        line = f"{name:28s} {len(expand(sweep)):3d} points"
        if args.verbose:
            line += f"  {sweep.description}"
        print(line)
    return 0


def _cmd_searches(args) -> int:
    from repro.orchestration import planned_trials

    for name in experiments.search_names():
        search = experiments.get_search(name)
        count, exact = planned_trials(search)
        bound = f"{count:3d}" if exact else f"<={count:2d}"
        line = f"{name:28s} {bound} trials  [{search.strategy}]"
        if args.verbose:
            line += f"  {search.description}"
        print(line)
    return 0


def _cmd_show(args) -> int:
    config = _resolve_config(args)
    print(json.dumps(config.to_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.service.protocol import PROTOCOL_VERSION, repro_version

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Activation-density mixed-precision quantization experiments",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro {repro_version()} (protocol {PROTOCOL_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and export a report")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="registry preset name (see `repro presets`)")
    source.add_argument("--config", help="path to an ExperimentConfig JSON file")
    run.add_argument("--out", help="report output path")
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.add_argument("--seed", type=int, help="override both model and data seeds")
    run.add_argument("--max-iterations", type=int, dest="max_iterations")
    run.add_argument("--max-epochs", type=int, dest="max_epochs",
                     help="override max_epochs_per_iteration")
    run.add_argument("--min-epochs", type=int, dest="min_epochs",
                     help="override min_epochs_per_iteration")
    run.add_argument("--initial-bits", type=int, dest="initial_bits")
    run.add_argument("--final-epochs", type=int, dest="final_epochs")
    run.add_argument("--backend", choices=("reference", "fast"),
                     help="tensor backend: float64 reference (default) or "
                          "the float32 fast path")
    run.add_argument("--cache", action=argparse.BooleanOptionalAction,
                     default=False,
                     help="reuse/store results in the content-addressed cache")
    run.add_argument("--cache-dir", default=".repro-cache",
                     help="cache location (default: .repro-cache)")
    run.add_argument("--checkpoint", help="write resumable checkpoints here")
    run.add_argument("--resume", action="store_true",
                     help="resume from --checkpoint if it exists")
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="fan one config out over a grid and aggregate reports"
    )
    sweep_source = sweep.add_mutually_exclusive_group(required=True)
    sweep_source.add_argument(
        "--preset",
        help="sweep preset (see `repro sweeps`) or experiment preset "
             "to use as the base config",
    )
    sweep_source.add_argument("--config", help="path to a SweepConfig JSON file")
    sweep.add_argument("--axis", action="append",
                       help="extra override axis PATH=V1,V2,... (repeatable; "
                            "the special path `seed` sets both seeds)")
    sweep.add_argument("--seeds", help="comma-separated seed list shorthand")
    sweep.add_argument("--mode", choices=("grid", "zip"),
                       help="axis combination (default: the sweep's own)")
    sweep.add_argument("--backend", choices=("reference", "fast"),
                       help="pin every point to one tensor backend "
                            "(adds a single-value backend axis)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes (default 1 = serial)")
    sweep.add_argument("--shard",
                       help="run one deterministic slice I/N of the grid "
                            "(e.g. 0/4); N hosts with shards 0..N-1 cover "
                            "the sweep exactly once")
    sweep.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="skip points already in the result cache")
    sweep.add_argument("--cache-dir", default=".repro-cache",
                       help="cache location (default: .repro-cache)")
    sweep.add_argument("--out", help="aggregated sweep JSON output path")
    sweep.add_argument("--task-timeout", type=float, dest="task_timeout",
                       help="seconds before a hung point is failed and its "
                            "worker pool recycled (default: no timeout)")
    sweep.add_argument("--quiet", action="store_true")
    sweep.set_defaults(func=_cmd_sweep)

    search = sub.add_parser(
        "search",
        help="adaptive bit-width search: finished trials propose the next",
    )
    search_source = search.add_mutually_exclusive_group(required=True)
    search_source.add_argument(
        "--preset", help="search preset name (see `repro searches`)"
    )
    search_source.add_argument(
        "--config", help="path to a SearchConfig JSON file"
    )
    search.add_argument("--strategy",
                        choices=("ad-bits", "layer-bits", "halving"),
                        help="override the search strategy (e.g. run an "
                             "ad-bits preset as a per-layer bit-vector "
                             "search with layer-bits)")
    search.add_argument("--max-trials", type=int, dest="max_trials",
                        help="override the search's trial budget")
    search.add_argument("--drop", type=float,
                        help="override the accuracy-drop budget "
                             "(absolute, e.g. 0.02)")
    search.add_argument("--seed-trials", type=int, dest="seed_trials",
                        help="layer-bits only: trials spent on the scalar "
                             "AD seed phase (default: half the budget)")
    search.add_argument("--backend", choices=("reference", "fast"),
                        help="tensor backend for every trial (default: "
                             "the base config's own)")
    search.add_argument("--jobs", type=int, default=1,
                        help="parallel workers (halving rungs fan out; the "
                             "sequential ad-bits/layer-bits searches use "
                             "extra workers only with --speculate)")
    search.add_argument("--speculate", type=int, dest="speculate",
                        help="race up to K likely next trials on idle "
                             "workers, cancelling the losers — results "
                             "are bit-identical to the sequential search "
                             "(ad-bits/layer-bits only; default 0 = off)")
    search.add_argument("--shard",
                        help=argparse.SUPPRESS)  # rejected with a clear error
    search.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="skip trials already in the result cache")
    search.add_argument("--cache-dir", default=".repro-cache",
                        help="cache location (default: .repro-cache)")
    search.add_argument("--out", help="streaming search JSON output path")
    search.add_argument("--task-timeout", type=float, dest="task_timeout",
                        help="seconds before a hung trial is failed and its "
                             "worker pool recycled (default: no timeout)")
    search.add_argument("--quiet", action="store_true")
    search.set_defaults(func=_cmd_search)

    cache = sub.add_parser(
        "cache", help="transport the result cache between hosts"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_export = cache_sub.add_parser(
        "export", help="publish every cache entry as a tarball"
    )
    cache_export.add_argument("--out", required=True,
                              help="tarball output path (e.g. cache.tgz)")
    cache_import = cache_sub.add_parser(
        "import", help="merge entries from an exported tarball"
    )
    cache_import.add_argument("source", help="tarball written by cache export")
    cache_merge = cache_sub.add_parser(
        "merge", help="merge another cache directory (or tarball)"
    )
    cache_merge.add_argument("source",
                             help="cache directory root or exported tarball")
    for cache_cmd in (cache_export, cache_import, cache_merge):
        cache_cmd.add_argument("--cache-dir", default=".repro-cache",
                               help="this host's cache (default: .repro-cache)")
        cache_cmd.add_argument("--quiet", action="store_true")
        cache_cmd.set_defaults(func=_cmd_cache)

    merge_sweeps = sub.add_parser(
        "merge-sweeps",
        help="join shard sweep --out files into the unsharded aggregate",
    )
    merge_sweeps.add_argument("files", nargs="+",
                              help="sweep --out JSON files (one per shard)")
    merge_sweeps.add_argument("--out", help="merged sweep JSON output path")
    merge_sweeps.add_argument("--name",
                              help="merged sweep name (default: the shards' "
                                   "shared name; required if they differ)")
    merge_sweeps.add_argument("--quiet", action="store_true")
    merge_sweeps.set_defaults(func=_cmd_merge_sweeps)

    from repro.service.master import DEFAULT_SOCKET, DEFAULT_STATE

    master = sub.add_parser(
        "master",
        help="run the long-lived experiment service (shared cache + pool)",
    )
    master.add_argument("--socket", default=DEFAULT_SOCKET,
                        help=f"unix socket path (default: {DEFAULT_SOCKET})")
    master.add_argument("--jobs", type=int, default=1,
                        help="executor worker slots shared by every job "
                             "(default 1 = serial)")
    master.add_argument("--cache-dir", default=".repro-cache",
                        help="the shared result cache (default: .repro-cache)")
    master.add_argument("--state", default=DEFAULT_STATE,
                        help="queue persistence file; a restarted master "
                             f"re-offers its unfinished jobs (default: "
                             f"{DEFAULT_STATE})")
    master.add_argument("--task-timeout", type=float, dest="task_timeout",
                        help="seconds before a hung point is failed and the "
                             "pool recycled (default: no timeout)")
    master.add_argument("--quiet", action="store_true")
    master.set_defaults(func=_cmd_master)

    submit = sub.add_parser(
        "submit", help="queue a run/sweep/search on the master"
    )
    submit_source = submit.add_mutually_exclusive_group(required=True)
    submit_source.add_argument(
        "--preset",
        help="any preset name — search, sweep, or experiment registries "
             "are tried in that order, server-side",
    )
    submit_source.add_argument(
        "--config", help="path to a run/sweep/search config JSON file"
    )
    submit.add_argument("--kind", choices=("run", "sweep", "search"),
                        help="what a --config file describes "
                             "(default: detected from its keys)")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher preempts lower between scheduler "
                             "rounds (default 0)")
    submit.add_argument("--backend", choices=("reference", "fast"),
                        help="tensor backend applied server-side to the "
                             "resolved job")
    submit.add_argument("--speculate", type=int, dest="speculate",
                        help="search jobs only: race up to K likely next "
                             "trials on idle executor slots (bit-identical "
                             "results; default 0 = off)")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="show the master's job queue")
    status.add_argument("--json", action="store_true",
                        help="machine-readable full status payload")
    status.set_defaults(func=_cmd_status)

    watch = sub.add_parser(
        "watch", help="follow a job's streamed events to completion"
    )
    watch.add_argument("job", type=int, help="job id from `repro submit`")
    watch.set_defaults(func=_cmd_watch)

    cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    cancel.add_argument("job", type=int, help="job id from `repro submit`")
    cancel.set_defaults(func=_cmd_cancel)

    shutdown = sub.add_parser("shutdown", help="stop the master cleanly")
    shutdown.set_defaults(func=_cmd_shutdown)

    for client_cmd in (submit, status, watch, cancel, shutdown):
        client_cmd.add_argument(
            "--socket", default=DEFAULT_SOCKET,
            help=f"the master's unix socket (default: {DEFAULT_SOCKET})",
        )
        client_cmd.add_argument("--quiet", action="store_true")

    presets = sub.add_parser("presets", help="list registered presets")
    presets.add_argument("--verbose", action="store_true",
                         help="include paper-table mapping and descriptions")
    presets.set_defaults(func=_cmd_presets)

    sweeps = sub.add_parser("sweeps",
                            help="list sweep presets with point counts")
    sweeps.add_argument("--verbose", action="store_true",
                        help="include descriptions")
    sweeps.set_defaults(func=_cmd_sweeps)

    searches = sub.add_parser("searches",
                              help="list search presets with trial counts")
    searches.add_argument("--verbose", action="store_true",
                          help="include descriptions")
    searches.set_defaults(func=_cmd_searches)

    show = sub.add_parser("show", help="print a preset/config as JSON")
    show_source = show.add_mutually_exclusive_group(required=True)
    show_source.add_argument("--preset")
    show_source.add_argument("--config")
    show.add_argument("--seed", type=int)
    show.add_argument("--max-iterations", type=int, dest="max_iterations")
    show.add_argument("--max-epochs", type=int, dest="max_epochs")
    show.add_argument("--min-epochs", type=int, dest="min_epochs")
    show.add_argument("--initial-bits", type=int, dest="initial_bits")
    show.add_argument("--final-epochs", type=int, dest="final_epochs")
    show.add_argument("--backend", choices=("reference", "fast"))
    show.set_defaults(func=_cmd_show)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
