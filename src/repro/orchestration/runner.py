"""Sweep execution: a driver loop joining schedulers to executors.

The runner is the *driver* between two abstractions split out of the
original monolithic sweep loop: a
:class:`~repro.orchestration.scheduler.Scheduler` proposes points (a
static pre-expanded grid, or an adaptive search where finished points
propose new ones) and an executor backend
(:class:`~repro.orchestration.executor.SerialExecutor` /
:class:`~repro.orchestration.executor.ProcessExecutor`) runs them.  The
driver queues proposals and feeds them to the executor as worker slots
free up, skips points whose configs already have cache entries, and
aggregates every point's rows into one
:class:`~repro.core.report.SweepReport`.

Points with identical configs (same cache key) execute **once**: the
single result fans out to every matching point, so a no-op override or
overlapping seed axes never trains twice or races on the cache — and an
adaptive scheduler that re-proposes an already-finished config gets the
recorded result back instantly.

Results *stream*: an ``on_point`` callback receives each
:class:`PointResult` the moment its worker finishes (cached hits
included), which is how the CLI keeps ``--out`` incrementally rewritten
and how live dashboards can fold points into a
:class:`~repro.core.report.SweepReport` while the sweep is still
running.  An ``on_schedule`` callback fires whenever the scheduler
grows the point list, so streaming writers can emit ``"pending"``
placeholders for adaptively-proposed points too.

Each worker rebuilds its experiment from the point's config dict alone
(:func:`execute_point` is a pure function of its payload), so parallel
results are bit-identical to serial ones: all stochasticity flows from
the config's seeds.  A failing point is captured as a structured
:class:`PointResult` with the traceback — one bad point never kills the
sweep.  A result that goes *missing* (an executor that loses or
mislabels a task) is a :class:`RuntimeError` naming the unaccounted-for
points, never a silently shorter result list.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

from repro.api.config import ExperimentConfig
from repro.core.report import SweepEntry, SweepReport
from repro.orchestration.executor import TaskInterrupted, make_executor
from repro.orchestration.scheduler import Done, Scheduler, StaticScheduler
from repro.orchestration.sweep import SweepConfig, SweepPoint, expand


# Artifact keys recording where *this* invocation wrote files; they are
# run-local bookkeeping, not results, so cached payloads exclude them
# (otherwise identical runs would produce unequal cache entries).
LOCAL_ARTIFACT_KEYS = ("exports", "checkpoint")


def cacheable_artifacts(artifacts: dict) -> dict:
    """JSON-safe artifacts minus run-local path bookkeeping."""
    from repro.api.context import _json_safe_artifacts

    return {
        key: value
        for key, value in _json_safe_artifacts(artifacts).items()
        if key not in LOCAL_ARTIFACT_KEYS
    }


def run_payload(report, artifacts: dict) -> dict:
    """The canonical cache-entry payload of one completed run.

    Single source of truth for the payload shape: both sweep workers
    and ``repro run --cache`` must write identical entries for the
    shared cache to work.
    """
    from repro.core.export import report_to_dict

    return {
        "report": report_to_dict(report),
        "artifacts": cacheable_artifacts(artifacts),
    }


def execute_point(task: dict) -> dict:
    """Run one sweep point from its config dict (worker entry point).

    Worker-safe: everything is built fresh from ``task["config"]``; no
    state is shared with the parent process beyond the payload.
    """
    index = task["index"]
    started = time.time()
    try:
        from repro.api.experiments import Experiment

        config = ExperimentConfig.from_dict(task["config"])
        experiment = Experiment(config)
        report = experiment.run()
        return {
            "index": index,
            "status": "ok",
            "payload": run_payload(report, experiment.artifacts),
            "duration": time.time() - started,
        }
    except Exception as error:  # structured capture; the sweep survives
        return {
            "index": index,
            "status": "failed",
            "error": f"{type(error).__name__}: {error}",
            "traceback": traceback.format_exc(),
            "duration": time.time() - started,
        }


@dataclass
class PointResult:
    """Outcome of one sweep point."""

    label: str
    key: str
    status: str  # "ok" | "cached" | "failed"
    payload: dict | None = None
    error: str | None = None
    traceback: str | None = None
    duration: float = 0.0
    config: ExperimentConfig | None = None
    index: int | None = None  # position in the full (unsharded) expansion

    def to_entry(self) -> SweepEntry:
        """This outcome as one :class:`SweepReport` entry."""
        from repro.core.export import report_from_dict

        report = None
        if self.payload is not None:
            report = report_from_dict(self.payload["report"])
        return SweepEntry(
            label=self.label,
            report=report,
            status=self.status,
            key=self.key,
            error=self.error,
        )


def _new_counts(total: int) -> dict:
    """A zeroed status-count dict (the single source of its shape)."""
    return {"total": total, "executed": 0, "cached": 0, "failed": 0}


def _count_statuses(pairs, counts: dict) -> dict:
    """Fold ``(status, label)`` pairs into ``counts``; unknowns raise."""
    for status, label in pairs:
        if status == "ok":
            counts["executed"] += 1
        elif status in ("cached", "failed"):
            counts[status] += 1
        else:
            raise ValueError(
                f"unknown point status {status!r} for {label!r}"
            )
    return counts


def _status_counts(points) -> dict:
    """Status counts of a finished point list."""
    return _count_statuses(
        ((p.status, p.label) for p in points), _new_counts(len(points))
    )


def point_dict(result: PointResult, position: int) -> dict:
    """One completed point's entry in the sweep ``--out`` payload."""
    return {
        "index": result.index if result.index is not None else position,
        "label": result.label,
        "key": result.key,
        "status": result.status,
        "config": (
            result.config.to_dict() if result.config is not None else None
        ),
        "report": (
            result.payload.get("report")
            if result.payload is not None
            else None
        ),
        "artifacts": (
            result.payload.get("artifacts", {})
            if result.payload is not None
            else {}
        ),
        "error": result.error,
        "duration": result.duration,
    }


def pending_point_dict(point, position: int) -> dict:
    """A not-yet-finished point's ``"pending"`` placeholder entry."""
    return {
        "index": point.index if point.index is not None else position,
        "label": point.label,
        "key": point.config.cache_key(),
        "status": "pending",
        "config": point.config.to_dict(),
        "report": None,
        "artifacts": {},
        "error": None,
        "duration": 0.0,
    }


def sweep_out_payload(name: str, points, results,
                      expansion_total: int | None = None,
                      point_dicts=None) -> dict:
    """The ``--out`` JSON of a possibly still-running sweep.

    ``results`` parallels ``points``; a ``None`` slot (not finished yet)
    becomes a ``"status": "pending"`` placeholder, so the file is valid,
    complete-in-shape JSON at every moment of a streaming sweep.  With
    no pending slots (and no ``expansion_total``) it is
    :meth:`SweepResult.to_dict`.

    ``expansion_total`` records the size of the *full* (unsharded)
    expansion; shard ``--out`` files carry it so
    :func:`merge_sweep_payloads` can detect an absent shard file even
    when the missing points are a suffix of the expansion order.

    ``point_dicts`` optionally supplies precomputed per-point entries
    (:func:`point_dict` / :func:`pending_point_dict`) so a streaming
    writer rewriting the file once per finished point does not
    re-serialize and re-hash every other point's config each time.
    """
    dicts = []
    counts = _new_counts(len(points))
    pending = 0
    for position, (point, result) in enumerate(zip(points, results)):
        if result is None:
            pending += 1
            dicts.append(
                point_dicts[position] if point_dicts is not None
                else pending_point_dict(point, position)
            )
        else:
            _count_statuses([(result.status, result.label)], counts)
            dicts.append(
                point_dicts[position] if point_dicts is not None
                else point_dict(result, position)
            )
    if pending:
        counts["pending"] = pending
    payload = {"sweep": name, "stats": counts, "points": dicts}
    if expansion_total is not None:
        payload["expansion_total"] = expansion_total
    return payload


def merge_sweep_payloads(payloads, name: str | None = None) -> dict:
    """Join shard ``--out`` payloads back into the unsharded payload.

    Points are reordered by their original expansion ``index``; the
    merged set must cover the full expansion (every index in
    ``0..expansion_total-1`` when the shard files record the expansion
    size, ``0..max`` contiguously otherwise — missing indices mean a
    shard output is absent) and duplicated indices must agree on key,
    status, and report (disagreement means the shards ran different
    sweeps or produced non-deterministic results).  Stats are recomputed
    from the merged statuses.
    """
    payloads = list(payloads)
    if not payloads:
        raise ValueError("no sweep payloads to merge")
    for position, payload in enumerate(payloads):
        if (not isinstance(payload, dict)
                or not isinstance(payload.get("sweep"), str)
                or not isinstance(payload.get("points"), list)):
            raise ValueError(
                f"input #{position + 1} is not a sweep --out payload "
                "(expected 'sweep' and 'points' keys; is it a "
                "`repro run` report?)"
            )
    names = {payload["sweep"] for payload in payloads}
    if name is None:
        if len(names) > 1:
            raise ValueError(
                f"sweep names differ across shard files: {sorted(names)}; "
                "pass an explicit merged name"
            )
        name = next(iter(names))
    totals = {
        payload["expansion_total"]
        for payload in payloads
        if isinstance(payload.get("expansion_total"), int)
    }
    if len(totals) > 1:
        raise ValueError(
            f"shard files disagree on the sweep's expansion size: "
            f"{sorted(totals)} (were they sharded from the same sweep?)"
        )
    expansion_total = next(iter(totals)) if totals else None
    by_index: dict[int, dict] = {}
    for payload in payloads:
        for point in payload["points"]:
            label = point.get("label")
            index = point.get("index")
            if not isinstance(index, int):
                raise ValueError(
                    f"point {label!r} carries no expansion index; "
                    "merge-sweeps needs shard outputs written by "
                    "`repro sweep --shard`"
                )
            if point.get("status") == "pending":
                raise ValueError(
                    f"point {label!r} is still pending; merge only "
                    "completed shard outputs"
                )
            seen = by_index.get(index)
            if seen is None:
                by_index[index] = point
            elif any(
                seen.get(field_name) != point.get(field_name)
                for field_name in ("label", "key", "status", "report")
            ):
                raise ValueError(
                    f"conflicting results for point index {index} "
                    f"({label!r}): shard outputs disagree"
                )
    points = [by_index[index] for index in sorted(by_index)]
    if expansion_total is not None:
        extra = sorted(set(by_index) - set(range(expansion_total)))
        if extra:
            raise ValueError(
                f"point indices {extra} lie beyond the sweep's recorded "
                f"expansion size {expansion_total}"
            )
        missing = sorted(set(range(expansion_total)) - set(by_index))
        if missing:
            raise ValueError(
                f"merged shards are missing point indices {missing} of "
                f"{expansion_total} (is a shard output file absent?)"
            )
    elif by_index:
        missing = sorted(set(range(max(by_index) + 1)) - set(by_index))
        if missing:
            raise ValueError(
                f"merged shards are missing point indices {missing} "
                "(is a shard output file absent?)"
            )
    counts = _count_statuses(
        ((point.get("status"), point.get("label")) for point in points),
        _new_counts(len(points)),
    )
    merged = {"sweep": name, "stats": counts, "points": points}
    if expansion_total is not None:
        merged["expansion_total"] = expansion_total
    return merged


@dataclass
class SweepResult:
    """All point results plus execution statistics.

    ``cache_stats`` records the result cache's activity for this run —
    ``{"hits", "misses"}`` counted per *unique config* looked up (a hit
    fanning out to N duplicate points is one hit) — and is ``None`` when
    the run had no cache at all.  ``speculation_stats`` likewise records
    speculative-execution accounting (``{"speculated", "confirmed",
    "head_starts", "cancelled", "wasted_trials"}``; ``head_starts``
    counts the confirmed bets a worker had started or finished before
    their proposal adopted them) and is ``None`` when the scheduler
    does not speculate.
    """

    name: str
    points: list[PointResult] = field(default_factory=list)
    cache_stats: dict | None = None
    speculation_stats: dict | None = None

    @property
    def stats(self) -> dict:
        """Status counts; an unrecognised status raises (never hidden).

        When the run used a result cache, the counts also carry
        ``cache_hits`` / ``cache_misses`` (per unique config, see
        ``cache_stats``) so cache activity is visible without
        ``--progress`` logging.  A speculative run additionally carries
        ``speculated`` / ``confirmed`` / ``head_starts`` / ``cancelled``
        / ``wasted_trials``.  Both are run-local diagnostics, excluded
        from :meth:`to_dict` so transport payloads stay replay-stable.
        """
        counts = _status_counts(self.points)
        if self.cache_stats is not None:
            counts["cache_hits"] = self.cache_stats["hits"]
            counts["cache_misses"] = self.cache_stats["misses"]
        if self.speculation_stats is not None:
            counts.update(self.speculation_stats)
        return counts

    @property
    def ok(self) -> bool:
        return all(p.status != "failed" for p in self.points)

    def aggregate(self) -> SweepReport:
        """Fold every point into one cross-run :class:`SweepReport`."""
        report = SweepReport(name=self.name)
        for point in self.points:
            report.add(point.to_entry())
        return report

    def to_dict(self) -> dict:
        """JSON-serializable form (the ``repro sweep --out`` payload).

        Stats here are pure status counts — cache hit/miss counters are
        run-local diagnostics (see :attr:`stats`), excluded so a warm
        re-run serializes identically to the cold run it replays.
        """
        # Every point is finished, so the results double as the points.
        return sweep_out_payload(self.name, self.points, self.points)


class SweepInterrupted(RuntimeError):
    """A sweep stopped early on request (SIGINT/SIGTERM, service pause).

    Carries the partial :class:`SweepResult` of every point that
    finished before the stop plus the number of points still pending,
    so callers (the CLI's streaming ``--out`` writer, the service
    master) can finalize their output instead of losing the run.
    """

    def __init__(self, result: "SweepResult", pending: int):
        self.result = result
        self.pending = pending
        super().__init__(
            f"sweep {result.name!r} interrupted: "
            f"{len(result.points)} point(s) completed, {pending} pending"
        )


class SchedulerDrive:
    """The scheduler-round state machine of a sweep, minus the waiting.

    One drive owns everything :meth:`SweepRunner.run_scheduler` used to
    track inline — the growing point list, cache-key groups, the queue
    of issued tasks, in-flight task routing, cache lookups/stores, and
    streaming callbacks — but never blocks: :meth:`round` consults the
    scheduler and queues the executor tasks it issues, :meth:`take`
    hands out as many as the caller has free executor slots, and
    :meth:`deliver` routes one executor outcome back in.  This split
    lets the synchronous runner loop and the asyncio ``repro master``
    (which multiplexes many drives over one shared executor) share
    identical semantics.

    The drive is the only place an issued task waits, so it alone
    decides the order tasks run in: work something waits on goes
    before bets.  It also owns a speculating scheduler's bets (see
    :mod:`repro.orchestration.scheduler`), keyed by cache key like
    every point, dedup group and cached outcome.
    """

    def __init__(self, scheduler: Scheduler, name: str | None = None,
                 cache=None, log=None, on_point=None, on_schedule=None,
                 on_cancel=None):
        self.scheduler = scheduler
        self.name = (
            name or getattr(scheduler, "name", None) or "sweep"
        )
        self.cache = cache
        self._log = log or (lambda message: None)
        self.on_point = on_point
        self.on_schedule = on_schedule
        # ``on_cancel(task_id) -> disposition`` revokes a bet's task
        # the caller took and submitted; the returned disposition
        # ("queued" / "running" / "unknown", the executor cancel()
        # contract) tells the drive whether an outcome will still
        # arrive.  None (no way to revoke) is treated as "unknown".
        self.on_cancel = on_cancel
        self.done = False
        self.points: list[SweepPoint] = []
        self.results: list[PointResult | None] = []
        self._completed: list[PointResult] = []
        self._groups: dict[str, list[int]] = {}  # cache key -> positions
        self._outcomes: dict[str, dict] = {}     # cache key -> outcome
        self._by_task: dict[int, str] = {}       # leader position -> key
        self._queue: list[dict] = []  # issued tasks not yet taken
        self._running: set = set()    # taken task ids, outcome due
        self.cache_stats = (
            {"hits": 0, "misses": 0} if cache is not None else None
        )
        # A scheduler speculates when it has ``bets()``.
        self.speculation_stats = (
            {"speculated": 0, "confirmed": 0, "head_starts": 0,
             "cancelled": 0, "wasted_trials": 0}
            if hasattr(scheduler, "bets") else None
        )
        # Live bets by cache key: each holds its task id while it waits
        # or runs, then its quarantined outcome.  Bet tasks use a
        # private negative id space so they can never collide with the
        # leader positions real tasks are keyed by.
        self._bets: dict[str, dict] = {}
        self._dropped: set = set()  # cancelled bet tasks, outcome due
        self._next_bet_task = -1

    @property
    def in_flight(self) -> int:
        """Real tasks issued and unresolved, waiting or running.

        Real work only: a bet is not a commitment until a proposal
        adopts it, so bets never hold the driver loop open.
        """
        return len(self._by_task)

    @property
    def running(self) -> int:
        """Tasks handed out by :meth:`take` whose outcomes are due."""
        return len(self._running)

    # ------------------------------------------------------------------
    def round(self) -> None:
        """Consult the scheduler until it waits or finishes.

        Queues an executor task for every newly-proposed point that
        missed the cache, then for every new bet; :meth:`take` hands
        them out.  Cache hits, re-proposals and adopted bets that
        already finished complete inside the call (their results stream
        via ``on_point`` and feed the scheduler's next consultation, so
        a batch completed wholly from cache immediately yields the
        next).  Raises when the scheduler waits while nothing is in
        flight — a deadlock no event could ever unblock.

        Bets change only once per round: when the scheduler waits, the
        drive keeps exactly its current ``bets()`` live.  At ``DONE``
        every live bet is cancelled.
        """
        while not self.done:
            batch = self.scheduler.next_points(tuple(self._completed))
            if isinstance(batch, Done):
                self.done = True
                self.cancel_speculations()
                break
            if not batch:
                if not self._by_task:
                    raise RuntimeError(
                        f"scheduler {type(self.scheduler).__name__} "
                        "proposed no new points while none are in flight "
                        "— the sweep would wait forever"
                    )
                self._refresh_bets()
                break
            self._schedule(list(batch))

    def take(self, slots: int) -> list[dict]:
        """Hand out up to ``slots`` queued tasks for the caller to submit.

        Tasks something waits on (a real point's, an adopted bet's) go
        first, oldest first; live bets after them, in the order the
        scheduler's ``bets()`` last ranked them (:meth:`round` keeps
        the queue so).  The caller must :meth:`deliver` every taken
        task's outcome.
        """
        taken = self._queue[:max(slots, 0)]
        self._queue = self._queue[len(taken):]
        self._running |= {task["index"] for task in taken}
        return taken

    def _schedule(self, batch: list[SweepPoint]) -> None:
        start = len(self.points)
        for point in batch:
            if not isinstance(point, SweepPoint):
                raise TypeError(f"not a SweepPoint: {point!r}")
            self.points.append(point)
            self.results.append(None)
        if self.on_schedule is not None:
            self.on_schedule(list(batch), len(self.points))
        new_keys: list[str] = []
        for position in range(start, len(self.points)):
            key = self.points[position].config.cache_key()
            positions = self._groups.setdefault(key, [])
            positions.append(position)
            if len(positions) == 1:
                new_keys.append(key)
            elif key in self._outcomes:
                # Re-proposal of an already-finished config: hand the
                # recorded result back without running anything.
                self._finish(position, self._outcomes[key])
            # else: the config is in flight (or awaits its cache check
            # below); the group fan-out will cover this point.
        for key in new_keys:
            leader = self._groups[key][0]
            config = self.points[leader].config
            bet = self._bets.pop(key, None)
            if bet is not None:
                # The proposal is a live bet's config: adopt the bet's
                # running or finished execution instead of a new task.
                # A bet a worker runs or ran already had a head start.
                self.speculation_stats["confirmed"] += 1
                if bet["task"] in self._running or (
                        bet["task"] is None
                        and bet["outcome"]["status"] != "cached"):
                    self.speculation_stats["head_starts"] += 1
            else:
                bet = {"task": None, "outcome": self._cached(config)}
            outcome = bet["outcome"]
            if outcome is not None and outcome["status"] == "cached":
                self.cache_stats["hits"] += 1
                self._finish_group(key, outcome)
                continue
            if self.cache_stats is not None:
                self.cache_stats["misses"] += 1
            if outcome is not None:
                # The bet already ran to completion while quarantined;
                # only now may its payload touch the cache and stream.
                self._settle(key, outcome)
            elif bet["task"] is not None:
                self._by_task[bet["task"]] = key
            else:
                self._by_task[leader] = key
                self._queue.append({"index": leader,
                                    "config": config.to_dict()})

    def _cached(self, config: ExperimentConfig) -> dict | None:
        """The cached outcome of ``config``, or None on a miss."""
        payload = self.cache.load(config) if self.cache is not None else None
        return None if payload is None else {
            "status": "cached", "payload": payload,
        }

    # ------------------------------------------------------------------
    # Speculation: quarantined execution of the scheduler's bets.
    # ------------------------------------------------------------------
    def _refresh_bets(self) -> None:
        """Keep exactly the scheduler's current bets live.

        Bets that dropped out are cancelled; new ones are placed.  The
        queue then holds real work first, oldest first, and the queued
        bets behind it in ``bets()`` order, so a new bet that outranks
        a surviving one is handed out first.  A config that is already
        a real point needs no bet.
        """
        if self.speculation_stats is None:
            return  # the scheduler does not speculate
        wanted: dict[str, ExperimentConfig] = {}
        for config in self.scheduler.bets():
            key = config.cache_key()
            if key not in self._groups:
                wanted.setdefault(key, config)
        for key in [key for key in self._bets if key not in wanted]:
            self._cancel_bet(key)
        for key, config in wanted.items():
            if key in self._bets:
                continue
            self.speculation_stats["speculated"] += 1
            # A bet's cache lookup moves no counter: until a proposal
            # adopts it, nothing about the bet is observable.
            bet = {"task": None, "outcome": self._cached(config)}
            if bet["outcome"] is None:
                bet["task"] = self._next_bet_task
                self._next_bet_task -= 1
                self._log(f"speculate {config.name} ({key[:12]})")
                self._queue.append({"index": bet["task"],
                                    "config": config.to_dict()})
            self._bets[key] = bet
        rank = {self._bets[key]["task"]: position
                for position, key in enumerate(wanted)}
        self._queue.sort(key=lambda task: rank.get(task["index"], -1))

    def _cancel_bet(self, key: str) -> None:
        """Abandon one bet; nothing it computed becomes visible."""
        bet = self._bets.pop(key)
        task = bet["task"]
        self.speculation_stats["cancelled"] += 1
        if task is None:
            # Finished: a cache hit cost nothing, an executed run
            # occupied a worker for nothing.
            if bet["outcome"]["status"] != "cached":
                self.speculation_stats["wasted_trials"] += 1
            return
        if task not in self._running:
            # Still queued here: dropped before it cost anything.
            self._queue = [queued for queued in self._queue
                           if queued["index"] != task]
            return
        disposition = (
            self.on_cancel(task) if self.on_cancel is not None
            else "unknown"
        )
        if disposition == "queued":
            self._running.discard(task)  # no worker started it
            return
        # Running (or already in transit): one outcome will still
        # arrive for this task id — drop it silently on delivery.
        self._dropped.add(task)
        self.speculation_stats["wasted_trials"] += 1

    def cancel_speculations(self) -> int:
        """Cancels every live bet and returns how many there were.

        The drive does this itself at ``DONE``.  Whoever stops a drive
        early (service preemption, a cancelled or failed job, an
        interrupted run) calls it too, so queued bets leave the queue,
        running ones are abandoned, and every bet ends confirmed or
        cancelled.  A resumed drive places fresh bets in its next round.
        """
        count = len(self._bets)
        for key in list(self._bets):
            self._cancel_bet(key)
        return count

    # ------------------------------------------------------------------
    def deliver(self, outcome) -> None:
        """Route one executor outcome to its point group (and the cache).

        A live bet's outcome is held, quarantined, in the bet (and a
        cancelled bet's is dropped) — only outcomes of real or adopted
        tasks reach the cache, the completed list, and the streaming
        callbacks.
        """
        if not isinstance(outcome, dict):
            raise RuntimeError(
                "sweep executor returned a non-outcome "
                f"{outcome!r} instead of a result dict"
            )
        index = outcome.get("index")
        if index not in self._running:
            raise RuntimeError(
                "sweep executor returned a result for an unknown "
                f"or already-completed task index {index!r}"
            )
        self._running.discard(index)
        if index in self._dropped:
            self._dropped.discard(index)
            return
        for bet in self._bets.values():
            if bet["task"] == index:
                bet["task"], bet["outcome"] = None, outcome
                return
        self._settle(self._by_task.pop(index), outcome)

    def _settle(self, key: str, outcome: dict) -> None:
        """Cache an executed outcome (when ok) and finish its group."""
        if outcome["status"] == "ok" and self.cache is not None:
            self.cache.store(
                self.points[self._groups[key][0]].config,
                outcome["payload"],
            )
        self._finish_group(key, outcome)

    def _finish_group(self, key: str, outcome: dict) -> None:
        self._outcomes[key] = outcome
        for position in self._groups[key]:
            self._finish(position, outcome)

    def _finish(self, position: int, outcome: dict) -> None:
        point = self.points[position]
        status = outcome["status"]
        if status == "timeout":
            # A hung-worker timeout is recorded as a failed point; the
            # distinct executor status keeps the error text specific.
            status = "failed"
        result = PointResult(
            label=point.label,
            key=point.config.cache_key(),
            status=status,
            payload=outcome.get("payload"),
            error=outcome.get("error"),
            traceback=outcome.get("traceback"),
            duration=outcome.get("duration", 0.0),
            config=point.config,
            index=point.index,
        )
        self.results[position] = result
        self._completed.append(result)
        if result.status == "cached":
            self._log(f"cached   {result.label}")
        else:
            self._log(f"{result.status:8s} {result.label} "
                      f"({result.duration:.1f}s)")
        if self.on_point is not None:
            self.on_point(result, position, len(self.points))

    # ------------------------------------------------------------------
    def partial_result(self) -> "SweepResult":
        """Completed points only (for :class:`SweepInterrupted`)."""
        return SweepResult(
            name=self.name,
            points=[r for r in self.results if r is not None],
            cache_stats=self.cache_stats,
            speculation_stats=self.speculation_stats,
        )

    def result(self) -> "SweepResult":
        """The finished :class:`SweepResult`; raises on lost points."""
        lost = [
            point.label
            for point, result in zip(self.points, self.results)
            if result is None
        ]
        if lost:
            raise RuntimeError(
                f"sweep executor lost {len(lost)} point(s): "
                + ", ".join(lost)
            )
        return SweepResult(name=self.name, points=list(self.results),
                           cache_stats=self.cache_stats,
                           speculation_stats=self.speculation_stats)


class SweepRunner:
    """Drives a scheduler's proposals through an executor backend.

    Parameters
    ----------
    jobs:
        Worker processes; 1 (default) runs serially in-process.
    cache:
        A :class:`~repro.orchestration.cache.ResultCache` or None to
        disable caching entirely.
    progress:
        Optional ``callable(str)`` receiving one line per point event.
    execute:
        Point executor (injectable for tests/instrumentation); must have
        :func:`execute_point`'s contract and be picklable for ``jobs > 1``.
    on_point:
        Optional ``callable(result, position, total)`` streaming each
        :class:`PointResult` (cached ones included) as it completes;
        ``position`` indexes the run's growing point list and ``total``
        is the number of points scheduled so far.
    on_schedule:
        Optional ``callable(new_points, total)`` fired whenever the
        scheduler appends a batch; streaming writers use it to emit
        pending placeholders before any of the batch finishes.
    task_timeout:
        Optional per-task wall-clock budget in seconds (``jobs > 1``
        only): a worker hung past it becomes a structured failed point
        and the pool is recycled (see
        :class:`~repro.orchestration.executor.ProcessExecutor`).
    interrupt:
        Optional zero-argument callable polled between (and, for
        process pools, during) waits; once it returns true the run
        stops cleanly, cancelling its live bets, shutting the executor
        down and raising :class:`SweepInterrupted` with the completed
        points.
    """

    def __init__(self, jobs: int = 1, cache=None, progress=None,
                 execute=execute_point, on_point=None, on_schedule=None,
                 task_timeout: float | None = None, interrupt=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.execute = execute
        self.on_point = on_point
        self.on_schedule = on_schedule
        self.task_timeout = task_timeout
        self.interrupt = interrupt

    def _log(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _make_executor(self):
        return make_executor(self.jobs, self.execute,
                             task_timeout=self.task_timeout,
                             interrupt=self.interrupt)

    # ------------------------------------------------------------------
    def run(self, sweep, points=None) -> SweepResult:
        """Execute ``sweep`` (a SweepConfig or list of SweepPoints).

        ``points`` optionally supplies the pre-expanded (possibly
        sharded) point list of a SweepConfig, so callers that already
        expanded for validation or sharding never pay for — or risk
        diverging from — a second expansion.
        """
        if isinstance(sweep, SweepConfig):
            name = sweep.name
            points = list(points) if points is not None else expand(sweep)
        else:
            if points is not None:
                raise TypeError(
                    "pass the point list either as `sweep` or as `points`, "
                    "not both"
                )
            points = list(sweep)
            name = points[0].config.name if points else "sweep"
        return self.run_scheduler(StaticScheduler(points), name=name)

    # ------------------------------------------------------------------
    def run_scheduler(self, scheduler: Scheduler,
                      name: str | None = None) -> SweepResult:
        """Drive ``scheduler`` to completion; the core driver loop.

        The scheduler is consulted before anything runs and again after
        every completed point; each proposed batch is deduplicated by
        cache key (against itself *and* every earlier point of the run),
        checked against the result cache, and the remainder submitted to
        the executor.  The loop ends when the scheduler returns
        :data:`~repro.orchestration.scheduler.DONE` and nothing is in
        flight.  A scheduler that proposes nothing while nothing is in
        flight (a deadlock — no event could ever unblock it) raises.

        All bookkeeping lives in a :class:`SchedulerDrive`; this method
        adds only the blocking executor loop around it (the asyncio
        service master drives the same class without blocking), which
        submits into free slots only: the executor never holds more
        than ``jobs`` tasks.
        """
        with self._make_executor() as executor:
            drive = SchedulerDrive(
                scheduler, name=name, cache=self.cache, log=self._log,
                on_point=self.on_point, on_schedule=self.on_schedule,
                on_cancel=executor.cancel,
            )

            def interrupted() -> SweepInterrupted:
                drive.cancel_speculations()
                return SweepInterrupted(drive.partial_result(),
                                        pending=drive.in_flight)

            while True:
                if self.interrupt is not None and self.interrupt():
                    raise interrupted()
                drive.round()
                for task in drive.take(self.jobs - executor.pending):
                    executor.submit(task)
                if drive.done and not drive.in_flight:
                    break
                if executor.pending == 0:
                    # The executor swallowed submissions: tasks are
                    # unaccounted for and no event can ever deliver them.
                    lost = [
                        drive.points[position].label
                        for position in range(len(drive.points))
                        if drive.results[position] is None
                    ]
                    raise RuntimeError(
                        f"sweep executor lost {len(lost)} point(s): "
                        + ", ".join(lost)
                    )
                try:
                    outcome = executor.next_result()
                except TaskInterrupted:
                    raise interrupted() from None
                drive.deliver(outcome)
        return drive.result()
