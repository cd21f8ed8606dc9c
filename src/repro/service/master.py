"""The asyncio ``repro master``: one warm cache, one pool, many jobs.

The master owns the three expensive singletons every CLI invocation
used to rebuild and tear down — the worker pool, the
``.repro-cache/`` :class:`~repro.orchestration.cache.ResultCache`, and
the scheduler driver — and serves them to thin clients over a
line-delimited JSON-RPC protocol on a unix-domain socket
(:mod:`repro.service.protocol`).

Execution model (the PR-4 seam, made long-lived):

* Each job wraps one
  :class:`~repro.orchestration.runner.SchedulerDrive` — the exact
  state machine ``SweepRunner.run_scheduler`` uses, shared so service
  and CLI semantics can never diverge.  The drive queues and orders
  the job's tasks; the master owns the capacity loop, submitting into
  the shared executor only as many as it has free slots, so the
  executor holds only running work.  A task id is ``(job id, local
  index)``, and every outcome lands on one queue read by the driving
  job.
* Exactly one job drives at a time (artiq-style): when a
  strictly-higher-priority job arrives, the running job stops
  submitting, lets its running tasks drain, and is ``paused`` — its
  drive (scheduler state and task queue included) stays in memory —
  while the newcomer runs; it resumes where it left off afterwards.
* A cancelled or failed job's running tasks finish as stragglers: they
  keep their slots, their outcomes are dropped unread, and each one's
  return wakes the driving job to refill the freed slot.
* Every point completion streams to subscribed ``repro watch`` clients
  as an event; a client death mid-watch only drops the subscription,
  never the job.
* The queue persists atomically on every mutation, so a restarted
  master re-offers unfinished jobs; their completed points replay from
  the shared cache as pure hits.
"""

from __future__ import annotations

import asyncio
import contextlib
import traceback
from pathlib import Path

from repro.orchestration.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.orchestration.executor import TaskInterrupted, make_executor
from repro.orchestration.runner import (
    SchedulerDrive,
    execute_point,
    pending_point_dict,
    point_dict,
)
from repro.orchestration.scheduler import StaticScheduler
from repro.service import protocol, queue as jobqueue
from repro.service.queue import JobQueue

DEFAULT_SOCKET = ".repro-master.sock"
DEFAULT_STATE = ".repro-master.json"


def detect_config_kind(payload: dict) -> str:
    """Which job kind a raw config-file dict describes.

    A :class:`SearchConfig` always carries ``strategy``; a
    :class:`SweepConfig` carries sweep-only keys (``axes`` / ``seeds``
    / ``presets`` / ``base``) without a model section; everything else
    is a single-run :class:`ExperimentConfig`.
    """
    if not isinstance(payload, dict):
        raise ValueError("config payload must be a JSON object")
    if "strategy" in payload:
        return "search"
    if "model" in payload or "quant" in payload:
        return "run"
    if any(key in payload for key in ("axes", "seeds", "presets", "base")):
        return "sweep"
    raise ValueError(
        "cannot tell whether this config is a run, sweep, or search; "
        "pass an explicit kind"
    )


def build_scheduler_for(kind: str, payload) -> tuple:
    """``(scheduler, name)`` for a validated job spec.

    ``payload`` is the preset's resolved config object or a raw config
    dict; errors raise ``ValueError``/``KeyError`` (submission-time
    validation happens through this same path, so a job that enqueues
    can always at least *start*).
    """
    from repro.api.config import ExperimentConfig
    from repro.orchestration.search import SearchConfig, build_scheduler
    from repro.orchestration.sweep import SweepConfig, SweepPoint, expand

    if kind == "search":
        search = (payload if isinstance(payload, SearchConfig)
                  else SearchConfig.from_dict(payload))
        return build_scheduler(search), search.name
    if kind == "sweep":
        sweep = (payload if isinstance(payload, SweepConfig)
                 else SweepConfig.from_dict(payload))
        return StaticScheduler(expand(sweep), name=sweep.name), sweep.name
    if kind == "run":
        config = (payload if isinstance(payload, ExperimentConfig)
                  else ExperimentConfig.from_dict(payload))
        point = SweepPoint(label=config.name, config=config, index=0)
        return StaticScheduler([point], name=config.name), config.name
    raise ValueError(f"unknown job kind {kind!r}")


def resolve_spec(spec: dict) -> tuple:
    """Validate a submission spec; returns ``(kind, name, payload)``.

    ``{"preset": name}`` resolves server-side through every registry
    (search, then sweep, then experiment — see
    :func:`repro.api.experiments.resolve_any`); ``{"config": {...}}``
    carries the config dict inline with an optional explicit
    ``"kind"``.  An optional ``"backend"`` key pins the job to one
    tensor backend (applied server-side to the resolved payload via
    :func:`repro.api.experiments.apply_backend`, so a restarted master
    re-applies it when it re-offers the persisted spec); an optional
    integer ``"speculate"`` key turns on speculative trial execution
    for search jobs (:func:`repro.api.experiments.apply_speculation` —
    other kinds refuse it at submission time).
    """
    if not isinstance(spec, dict):
        raise ValueError("submission spec must be an object")
    preset = spec.get("preset")
    config = spec.get("config")
    backend = spec.get("backend")
    speculate = spec.get("speculate")
    if speculate is not None and not isinstance(speculate, int):
        raise ValueError("speculate must be an integer")
    if (preset is None) == (config is None):
        raise ValueError("spec needs exactly one of 'preset' / 'config'")
    if preset is not None:
        from repro.api import experiments

        kind, payload = experiments.resolve_any(preset)
        payload = experiments.apply_backend(kind, payload, backend)
        payload = experiments.apply_speculation(kind, payload, speculate)
        return kind, preset, payload
    kind = spec.get("kind") or detect_config_kind(config)
    if kind not in jobqueue.JOB_KINDS:
        raise ValueError(
            f"unknown job kind {kind!r} (choose from {jobqueue.JOB_KINDS})"
        )
    name = config.get("name") if isinstance(config, dict) else None
    if backend is not None or speculate is not None:
        from repro.api import experiments
        from repro.api.config import ExperimentConfig
        from repro.orchestration.search import SearchConfig
        from repro.orchestration.sweep import SweepConfig

        typed = {"run": ExperimentConfig, "sweep": SweepConfig,
                 "search": SearchConfig}[kind]
        config = experiments.apply_backend(
            kind, typed.from_dict(config), backend
        )
        config = experiments.apply_speculation(kind, config, speculate)
    return kind, name or f"inline-{kind}", config


class Master:
    """The experiment-service daemon; ``serve()`` runs until shutdown."""

    def __init__(self, socket_path=DEFAULT_SOCKET, jobs: int = 1,
                 cache_dir=DEFAULT_CACHE_DIR, state_path=DEFAULT_STATE,
                 task_timeout: float | None = None, execute=execute_point,
                 log=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.socket_path = Path(socket_path)
        self.jobs = jobs
        self.cache = ResultCache(cache_dir)
        self.queue = JobQueue.load(state_path)
        self.task_timeout = task_timeout
        self.execute = execute
        self.log = log or (lambda message: None)
        self._stopping = False
        self._executor = None
        self._outcomes: asyncio.Queue = asyncio.Queue()  # for the driver
        self._runs: dict[int, SchedulerDrive] = {}  # live jobs' drives
        self._history: dict[int, list[dict]] = {}   # job id -> events
        self._subscribers: dict[int, set] = {}      # job id -> writers
        self._wake = asyncio.Event()
        self._have_work = asyncio.Event()
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def request_shutdown(self) -> None:
        """Stop serving (signal handlers and the ``shutdown`` method)."""
        self._stopping = True
        self._stopped.set()
        self._wake.set()
        self._have_work.set()

    async def serve(self) -> None:
        """Bind the socket and serve until :meth:`request_shutdown`.

        A pre-existing socket file is assumed stale (a crashed master)
        and replaced; run one master per socket path.
        """
        if self.socket_path.exists():
            self.socket_path.unlink()
        # The interrupt flag unblocks the pump thread at shutdown even
        # while a result wait is in progress.
        with make_executor(self.jobs, self.execute,
                           task_timeout=self.task_timeout,
                           interrupt=lambda: self._stopping) as executor:
            self._executor = executor
            server = await asyncio.start_unix_server(
                self._on_client, path=str(self.socket_path),
                limit=protocol.MAX_LINE_BYTES + 2,
            )
            pump = asyncio.create_task(self._pump())
            loop = asyncio.create_task(self._scheduler_loop())
            self.log(f"master listening on {self.socket_path} "
                     f"({self.jobs} executor slot(s), "
                     f"{len(self.queue)} job(s) restored)")
            try:
                async with server:
                    await self._stopped.wait()
            finally:
                self._stopping = True
                for task in (pump, loop):
                    task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await task
                with contextlib.suppress(OSError):
                    self.socket_path.unlink()
                self.queue.persist()
                self.log("master stopped")

    # ------------------------------------------------------------------
    # Task plumbing: the shared executor's outcomes.
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        """Hand every executor outcome to the driving job's queue."""
        while True:
            await self._have_work.wait()
            if not self._executor.pending:
                self._have_work.clear()
                continue
            try:
                outcome = await asyncio.to_thread(self._executor.next_result)
            except TaskInterrupted:
                return  # shutdown
            except RuntimeError:
                # A cancel() on the event loop emptied the executor
                # between the pending check and the blocking wait.
                continue
            self._outcomes.put_nowait(outcome)

    # ------------------------------------------------------------------
    # The capacity loop: one driving job at a time, pause between rounds.
    # ------------------------------------------------------------------
    async def _scheduler_loop(self) -> None:
        while not self._stopping:
            job = self.queue.next_runnable()
            if job is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            drive = self._runs.get(job.id)
            if drive is None:
                try:
                    drive = self._runs[job.id] = self._make_drive(job)
                except Exception as error:
                    self._finalize(job, jobqueue.FAILED,
                                   error=f"{type(error).__name__}: {error}")
                    continue
            resumed = job.state == jobqueue.PAUSED
            self.queue.mark(job, jobqueue.RUNNING)
            self._emit_state(job, resumed=resumed)
            state, error = await self._drive(job, drive)
            if state == jobqueue.PAUSED:
                self.queue.mark(job, jobqueue.PAUSED)
                self._emit_state(job)
                continue
            self._finalize(job, state, error=error)

    def _make_drive(self, job) -> SchedulerDrive:
        kind, _, payload = resolve_spec(job.spec)
        scheduler, name = build_scheduler_for(kind, payload)

        def on_point(result, position, total):
            self._emit(job.id, protocol.event(
                "point", job=job.id,
                data=point_dict(result, position)))

        def on_schedule(new_points, total):
            start = total - len(new_points)
            self._emit(job.id, protocol.event(
                "schedule", job=job.id,
                data={
                    "total": total,
                    "points": [
                        pending_point_dict(point, start + offset)
                        for offset, point in enumerate(new_points)
                    ],
                }))

        return SchedulerDrive(
            scheduler, name=name, cache=self.cache,
            log=lambda message: self.log(f"job {job.id}: {message}"),
            on_point=on_point, on_schedule=on_schedule,
            on_cancel=lambda index: self._executor.cancel((job.id, index)),
        )

    async def _drive(self, job, drive: SchedulerDrive) -> tuple:
        """Drive one job; returns ``(state, error)`` once it stops.

        ``state`` is ``done``, ``failed`` (with the error text),
        ``cancelled`` — or ``paused``.  The pause points sit *between
        scheduler rounds*: a preempting submission stops further task
        submission, lets the job's running tasks drain, and hands the
        loop back with the drive (and its queued tasks) intact for
        resumption.
        """
        while True:
            if job.cancel_requested:
                return jobqueue.CANCELLED, None
            preempt = self._stopping or self.queue.should_preempt(job)
            if preempt:
                # Bets are not committed work: a pausing job must not
                # hold executor slots with them while a higher-priority
                # job waits.
                drive.cancel_speculations()
            else:
                try:
                    drive.round()
                except RuntimeError as error:
                    return jobqueue.FAILED, str(error)
                # Stragglers of discarded jobs hold slots too.
                for task in drive.take(self.jobs - self._executor.pending):
                    self._executor.submit({"index": (job.id, task["index"]),
                                           "config": task["config"]})
                    self._have_work.set()
            if drive.done and not drive.in_flight:
                return jobqueue.DONE, None
            if preempt and not drive.running:
                return jobqueue.PAUSED, None
            outcome = await self._outcomes.get()
            owner, index = outcome["index"]
            if owner != job.id:
                continue  # a straggler returned: its slot is free
            outcome["index"] = index
            try:
                drive.deliver(outcome)
            except RuntimeError as error:
                return jobqueue.FAILED, str(error)

    def _summarize(self, drive: SchedulerDrive | None) -> dict:
        if drive is None:
            return {}
        result = drive.partial_result()
        summary = {
            "stats": result.stats,
            "scheduled": len(drive.points),
        }
        scheduler = drive.scheduler
        if hasattr(scheduler, "best"):
            from repro.orchestration.search import bit_vector_of, point_summary

            best = scheduler.best()
            summary["search"] = {
                "best": point_summary(best),
                "bit_vector": bit_vector_of(best),
                "feasibility": scheduler.feasibility(),
            }
        return summary

    def _finalize(self, job, state: str, error: str | None = None) -> None:
        """End ``job`` in ``state``: drop its drive, persist, emit ``done``.

        A stopped drive (done, failed, cancelled while running or while
        paused) cancels its bets first, so the job's summary settles
        every one; its running tasks finish as stragglers whose
        outcomes no drive reads.
        """
        drive = self._runs.pop(job.id, None)
        if drive is not None:
            drive.cancel_speculations()
        self.queue.mark(job, state, error=error,
                        summary=self._summarize(drive))
        self.log(f"job {job.id} ({job.name}): {state}"
                 + (f" — {error}" if error else ""))
        self._emit(job.id, protocol.event(
            "done", job=job.id, data=job.describe()))

    def _emit_state(self, job, resumed: bool = False) -> None:
        data = job.describe()
        if resumed:
            data["resumed"] = True
        self._emit(job.id, protocol.event("state", job=job.id, data=data))

    # ------------------------------------------------------------------
    # Events: history for replay + live fan-out to subscribers.
    # ------------------------------------------------------------------
    def _emit(self, job_id: int, message: dict) -> None:
        self._history.setdefault(job_id, []).append(message)
        line = protocol.encode(message)
        for writer in list(self._subscribers.get(job_id, ())):
            try:
                writer.write(line)
            except Exception:
                self._subscribers[job_id].discard(writer)

    # ------------------------------------------------------------------
    # Client connections.
    # ------------------------------------------------------------------
    async def _on_client(self, reader, writer) -> None:
        writer.write(protocol.encode(protocol.hello_event()))
        try:
            await writer.drain()
            while not self._stopping:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Oversized line: the stream is now misframed, so
                    # answer with the typed error and hang up.
                    writer.write(protocol.encode(protocol.error_response(
                        None, protocol.E_OVERSIZED,
                        f"line exceeds {protocol.MAX_LINE_BYTES} bytes",
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                reply = self._handle_line(line, writer)
                if reply is not None:
                    writer.write(protocol.encode(reply))
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # a dying client never takes a job down with it
        except asyncio.CancelledError:
            pass  # loop teardown at shutdown; connection dies with us
        finally:
            for subscribers in self._subscribers.values():
                subscribers.discard(writer)
            writer.close()
            # At shutdown the loop's teardown cancels this wait.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    def _handle_line(self, line: bytes, writer) -> dict | None:
        """One request line -> one response message (or None after
        ``watch``, which writes its own replay before responding)."""
        try:
            message = protocol.decode_line(line)
            if protocol.kind_of(message) != "request":
                raise protocol.ProtocolError(
                    protocol.E_INVALID, "only requests flow client->master"
                )
        except protocol.ProtocolError as error:
            return error.to_error()
        request_id = message["id"]
        method = message["method"]
        params = message.get("params", {})
        try:
            handler = getattr(self, f"_rpc_{method}", None)
            if handler is None:
                raise protocol.ProtocolError(
                    protocol.E_UNKNOWN_METHOD,
                    f"unknown method {method!r}",
                )
            return protocol.response(
                request_id, handler(params, writer, request_id)
            )
        except protocol.ProtocolError as error:
            return error.to_error(request_id)
        except (KeyError, TypeError, ValueError) as error:
            code = (protocol.E_UNKNOWN_JOB
                    if isinstance(error, KeyError) else protocol.E_BAD_PARAMS)
            text = (error.args[0]
                    if error.args and isinstance(error.args[0], str)
                    else str(error))
            return protocol.error_response(request_id, code, text)
        except Exception as error:  # a server bug must not kill the master
            self.log("server error: " + traceback.format_exc())
            return protocol.error_response(
                request_id, protocol.E_SERVER,
                f"{type(error).__name__}: {error}",
            )

    # --- request handlers -------------------------------------------
    def _rpc_hello(self, params, writer, request_id):
        return {"protocol": protocol.PROTOCOL_VERSION,
                "version": protocol.repro_version()}

    def _rpc_submit(self, params, writer, request_id):
        spec = {key: params[key]
                for key in ("preset", "config", "kind", "backend",
                            "speculate")
                if key in params}
        priority = params.get("priority", 0)
        if not isinstance(priority, int):
            raise ValueError("priority must be an integer")
        try:
            kind, name, _ = resolve_spec(spec)  # validates before enqueue
        except KeyError as error:
            # An unknown *preset* is a bad submission, not a bad job id.
            text = (error.args[0]
                    if error.args and isinstance(error.args[0], str)
                    else str(error))
            raise protocol.ProtocolError(
                protocol.E_BAD_PARAMS, text
            ) from None
        spec.setdefault("kind", kind)
        job = self.queue.submit(kind, name, spec, priority=priority)
        self.log(f"job {job.id} ({name}): submitted "
                 f"[{kind}, priority {priority}]")
        self._emit_state(job)
        self._wake.set()
        return {"job": job.id, "kind": kind, "name": name,
                "priority": priority}

    def _rpc_status(self, params, writer, request_id):
        job_id = params.get("job")
        if job_id is not None:
            return {"jobs": [self.queue.get(job_id).describe()]}
        return {
            "master": {
                "version": protocol.repro_version(),
                "protocol": protocol.PROTOCOL_VERSION,
                "jobs": self.jobs,
                "cache_dir": str(self.cache.root),
                "cache_entries": self.cache.entry_count(),
            },
            "jobs": [job.describe() for job in self.queue.jobs()],
        }

    def _rpc_watch(self, params, writer, request_id):
        job = self.queue.get(params["job"])
        history = list(self._history.get(job.id, ()))
        self._subscribers.setdefault(job.id, set()).add(writer)
        # Replay history *before* the response is sent by the caller —
        # no await separates these writes, so live events cannot
        # interleave into the replay.
        for message in history:
            writer.write(protocol.encode(message))
        if job.finished and not any(
                message.get("event") == "done" for message in history):
            # A job finished before this master's lifetime (restored
            # from the state file) has no history; synthesize the
            # terminal event so the watch always ends.
            writer.write(protocol.encode(protocol.event(
                "done", job=job.id, data=job.describe())))
        return {"job": job.id, "state": job.state,
                "replayed": len(history)}

    def _rpc_cancel(self, params, writer, request_id):
        job = self.queue.get(params["job"])
        try:
            outcome = self.queue.cancel(job)
        except ValueError as error:
            raise protocol.ProtocolError(
                protocol.E_INVALID_STATE, str(error)
            ) from None
        if outcome == jobqueue.CANCELLED:
            # A queued or paused job is not driving, so no loop will
            # end it: a paused one's drive would stay in _runs forever.
            self._finalize(job, jobqueue.CANCELLED)
        self.log(f"job {job.id} ({job.name}): cancel {outcome}")
        self._wake.set()
        return {"job": job.id, "cancel": outcome, "state": job.state}

    def _rpc_delete(self, params, writer, request_id):
        job = self.queue.get(params["job"])
        try:
            self.queue.delete(job)
        except ValueError as error:
            raise protocol.ProtocolError(
                protocol.E_INVALID_STATE, str(error)
            ) from None
        self._history.pop(job.id, None)
        self._subscribers.pop(job.id, None)
        return {"job": job.id, "deleted": True}

    def _rpc_shutdown(self, params, writer, request_id):
        self.log("shutdown requested")
        # The response is returned first; stopping flips on the next
        # loop tick so the client hears the acknowledgement.
        asyncio.get_running_loop().call_soon(self.request_shutdown)
        return {"stopping": True}
