"""The master's priority run queue: job records, states, persistence.

A :class:`Job` is one submitted run/sweep/search: a JSON *spec* (what to
run — resolved to configs server-side at start time), an integer
priority, and a lifecycle state::

    queued -> running -> done | failed
      |          |
      |          +-> paused -> running   (preempted between rounds)
      +-> cancelled          (or cancel requested while running)

Priorities follow artiq's scheduler convention: **higher wins**, ties
resolve by submission order (monotonic job ids).  Preemption is
cooperative — :meth:`JobQueue.should_preempt` only *reports* that a
strictly-higher-priority job is waiting; the master pauses the running
job's drive between scheduler rounds, runs the newcomer, then resumes.

The queue persists itself atomically (temp file + rename) on every
mutation, so a restarted master re-offers unfinished work: jobs found
``running``/``paused`` in the state file were interrupted mid-flight
and reload as ``queued`` — their trained points are already in the
shared result cache, so the re-offered job replays them as hits.
Per-point results are deliberately *not* persisted; the cache is the
single source of completed-work truth.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

# Lifecycle states.
QUEUED = "queued"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, PAUSED, DONE, FAILED, CANCELLED)
ACTIVE_STATES = (QUEUED, RUNNING, PAUSED)
FINAL_STATES = (DONE, FAILED, CANCELLED)

JOB_KINDS = ("run", "sweep", "search")

STATE_VERSION = 1


@dataclass
class Job:
    """One submitted unit of work and its lifecycle bookkeeping."""

    id: int
    kind: str            # one of JOB_KINDS
    name: str            # preset/config name, for humans
    spec: dict           # the JSON submission ({"preset": ...} / {"config": ...})
    priority: int = 0
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    summary: dict = field(default_factory=dict)  # stats on completion
    cancel_requested: bool = False

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r} (choose from {JOB_KINDS})"
            )
        if self.state not in STATES:
            raise ValueError(f"unknown job state {self.state!r}")

    @property
    def finished(self) -> bool:
        return self.state in FINAL_STATES

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        known = {spec.name for spec in cls.__dataclass_fields__.values()}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def describe(self) -> dict:
        """The ``repro status`` view of this job (summary, no spec)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "name": self.name,
            "priority": self.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "summary": self.summary,
            "cancel_requested": self.cancel_requested,
        }


class JobQueue:
    """Priority-ordered job store with atomic JSON persistence.

    ``state_path`` of None keeps the queue purely in memory (tests);
    otherwise every mutation rewrites the state file atomically.
    """

    def __init__(self, state_path=None):
        self.state_path = Path(state_path) if state_path else None
        self._jobs: dict[int, Job] = {}
        self._next_id = 1

    # ------------------------------------------------------------------
    # Submission and lookup.
    # ------------------------------------------------------------------
    def submit(self, kind: str, name: str, spec: dict,
               priority: int = 0) -> Job:
        job = Job(id=self._next_id, kind=kind, name=name, spec=spec,
                  priority=priority)
        self._next_id += 1
        self._jobs[job.id] = job
        self.persist()
        return job

    def get(self, job_id: int) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"no such job: {job_id}") from None

    def jobs(self) -> list[Job]:
        """Every job, in submission order."""
        return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def __len__(self) -> int:
        return len(self._jobs)

    # ------------------------------------------------------------------
    # Scheduling queries.
    # ------------------------------------------------------------------
    def _rank(self, job: Job) -> tuple:
        # Higher priority first; FIFO (and resume-before-start, since a
        # paused job always has the older id) within a priority.
        return (-job.priority, job.id)

    def next_runnable(self) -> Job | None:
        """The job the master should (re)start next, or None.

        Considers ``queued`` and ``paused`` jobs alike: a paused job
        resumes exactly like a queued one starts, just from its
        retained drive state.
        """
        candidates = [
            job for job in self._jobs.values()
            if job.state in (QUEUED, PAUSED) and not job.cancel_requested
        ]
        if not candidates:
            return None
        return min(candidates, key=self._rank)

    def should_preempt(self, running: Job) -> bool:
        """True when a strictly-higher-priority job is waiting to run."""
        return any(
            job.priority > running.priority
            for job in self._jobs.values()
            if job.state == QUEUED and not job.cancel_requested
        )

    # ------------------------------------------------------------------
    # State transitions.
    # ------------------------------------------------------------------
    def mark(self, job: Job, state: str, error: str | None = None,
             summary: dict | None = None) -> None:
        """Transition ``job`` and persist; stamps start/finish times."""
        if state not in STATES:
            raise ValueError(f"unknown job state {state!r}")
        job.state = state
        if state == RUNNING and job.started_at is None:
            job.started_at = time.time()
        if state in FINAL_STATES:
            job.finished_at = time.time()
        if error is not None:
            job.error = error
        if summary is not None:
            job.summary = summary
        self.persist()

    def cancel(self, job: Job) -> str:
        """Cancel ``job``; returns what actually happened.

        A job that is not running yet (queued/paused) cancels
        immediately; a running one gets ``cancel_requested`` and the
        master stops it at the next scheduler-round boundary.  Returns
        ``"cancelled"`` or ``"requested"``; raises ``ValueError`` for
        jobs already finished.
        """
        if job.finished:
            raise ValueError(
                f"job {job.id} is already {job.state}; nothing to cancel"
            )
        if job.state in (QUEUED, PAUSED):
            self.mark(job, CANCELLED)
            return CANCELLED
        job.cancel_requested = True
        self.persist()
        return "requested"

    def delete(self, job: Job) -> None:
        """Drop a *finished* job's record entirely."""
        if not job.finished:
            raise ValueError(
                f"job {job.id} is {job.state}; cancel it before deleting"
            )
        del self._jobs[job.id]
        self.persist()

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": STATE_VERSION,
            "next_id": self._next_id,
            "jobs": [job.to_dict() for job in self.jobs()],
        }

    def persist(self) -> None:
        if self.state_path is None:
            return
        from repro.utils.serialization import save_json

        save_json(self.state_path, self.to_dict())

    @classmethod
    def load(cls, state_path) -> "JobQueue":
        """Restore a queue from its state file (missing file = empty).

        Jobs persisted as ``running``/``paused`` were interrupted by
        the previous master's death; they reload as ``queued`` so the
        restarted master re-offers them (their completed points replay
        from the shared result cache).
        """
        import json

        queue = cls(state_path)
        path = queue.state_path
        if path is None or not path.exists():
            return queue
        payload = json.loads(path.read_text())
        if payload.get("version") != STATE_VERSION:
            raise ValueError(
                f"state file {str(path)!r} has version "
                f"{payload.get('version')!r}, expected {STATE_VERSION}"
            )
        for job_payload in payload.get("jobs", ()):
            job = Job.from_dict(job_payload)
            if job.state in (RUNNING, PAUSED):
                job.state = QUEUED
            if job.cancel_requested and not job.finished:
                # The cancel was requested but never honoured before the
                # old master died; honour it now.
                job.state = CANCELLED
                job.cancel_requested = False
                if job.finished_at is None:
                    job.finished_at = time.time()
            queue._jobs[job.id] = job
        queue._next_id = max(
            payload.get("next_id", 1),
            max(queue._jobs, default=0) + 1,
        )
        queue.persist()
        return queue
