"""Executors: the *run it somewhere* half of sweep execution.

An executor accepts point tasks (the ``{"index", "config"}`` payloads of
:func:`~repro.orchestration.runner.execute_point`) one at a time via
:meth:`submit` and hands back one outcome dict per task via
:meth:`next_result`, in whatever order tasks finish.  Tasks wait in the
driver's :class:`~repro.orchestration.runner.SchedulerDrive`, which
orders them; the drivers submit only into free slots (at most ``jobs``
tasks, counting :attr:`pending`), so an executor holds only work that is
running and stays oblivious to sweeps, caches, schedulers and bets.

Two backends, chosen by :func:`make_executor`:

* :class:`SerialExecutor` — executes each submission in-process when
  :meth:`next_result` is called.  ``jobs == 1``.
* :class:`ProcessExecutor` — a ``concurrent.futures`` process pool.
  Chosen over ``multiprocessing.Pool`` because it *detects dead
  workers*: a worker that exits abruptly (OOM kill, ``os._exit``,
  segfault) breaks the pool and fails the affected futures instead of
  hanging the parent forever.

Both backends deliver exactly one outcome per submitted task.  A task
whose execution *raises* (the injectable ``execute`` violating
:func:`execute_point`'s capture-everything contract) or whose worker
*dies* is returned as a structured ``{"status": "failed"}`` outcome
naming the task index — the driver sees a failed point, never a missing
one.  After a pool breakage the broken pool is discarded, so subsequent
submissions (an adaptive scheduler proposing more points) transparently
get a fresh pool.

Two optional liveness knobs (both default off) keep long-lived drivers —
the ``repro master`` service above all — responsive:

* ``task_timeout`` (:class:`ProcessExecutor` only): dead-worker
  detection catches a worker that *crashes*, but a worker that *hangs*
  (a deadlocked BLAS call, an NFS stall) would block
  :meth:`next_result` forever.  With a timeout set, a task observed
  running longer than ``task_timeout`` seconds is converted into a
  structured ``{"status": "timeout"}`` outcome (the driver records it
  as a failed point) and the pool is recycled — tasks in flight with
  the hung worker resolve as structured failures, later submissions get
  a fresh pool.
* ``interrupt``: a zero-argument callable polled while waiting; when it
  returns true, :meth:`next_result` raises :class:`TaskInterrupted`
  instead of blocking on, so a signal handler's flag (graceful Ctrl-C)
  unblocks the driver within a poll interval instead of after the
  current task.

Both backends support :meth:`cancel` (a speculative bet the driver
abandons): a task no worker has started yet is dropped (``"queued"``,
no outcome will arrive); a running one answers ``"running"`` and keeps
its worker until it finishes, and its outcome still arrives — the
driver drops it unread.
"""

from __future__ import annotations

import threading
import time
import traceback

# How often next_result wakes to poll an ``interrupt`` flag (seconds).
INTERRUPT_POLL_SECONDS = 0.2


class TaskInterrupted(Exception):
    """Raised by ``next_result`` when the executor's ``interrupt`` fires."""


def timeout_outcome(task: dict, seconds: float, elapsed: float) -> dict:
    """A structured ``timeout`` outcome for a task that overran its budget.

    Shaped like :func:`crash_outcome` but with status ``"timeout"`` so
    drivers can tell a hung worker from a crashed one; the sweep driver
    records it as a failed point with this error text.
    """
    return {
        "index": task.get("index"),
        "status": "timeout",
        "error": (
            f"task exceeded task_timeout={seconds:g}s "
            f"(ran {elapsed:.1f}s); worker pool recycled"
        ),
        "traceback": None,
        "duration": elapsed,
    }


def crash_outcome(task: dict, error: BaseException) -> dict:
    """A structured ``failed`` outcome for a task whose executor crashed.

    Used when the failure happened *outside* :func:`execute_point`'s own
    structured capture: the worker process died, or an injected
    ``execute`` raised instead of returning an outcome dict.
    """
    return {
        "index": task.get("index"),
        "status": "failed",
        "error": f"executor crashed: {type(error).__name__}: {error}",
        "traceback": traceback.format_exc(),
        "duration": 0.0,
    }


def make_executor(jobs: int, execute, task_timeout: float | None = None,
                  interrupt=None):
    """The executor for ``jobs`` worker slots.

    A :class:`SerialExecutor` at one job (``task_timeout`` does not
    apply in-process), a :class:`ProcessExecutor` otherwise.
    """
    if jobs == 1:
        return SerialExecutor(execute, interrupt=interrupt)
    return ProcessExecutor(jobs, execute, task_timeout=task_timeout,
                           interrupt=interrupt)


class SerialExecutor:
    """In-process execution, oldest first (``jobs == 1``).

    Submissions wait until a :meth:`next_result` call runs the oldest
    one to completion.  Deferring execution to :meth:`next_result` keeps
    the dispatch order identical to the pre-split runner: the driver
    finishes every cache hit before the first miss trains.
    """

    def __init__(self, execute, interrupt=None):
        self.execute = execute
        self.interrupt = interrupt
        self._queue: list[dict] = []
        self._running: dict | None = None  # the task next_result runs
        # submit()/cancel()/pending may race next_result() across
        # threads (the asyncio master runs it in a worker thread).
        self._lock = threading.Lock()

    @property
    def pending(self) -> int:
        """Tasks submitted whose outcome has not been returned yet."""
        with self._lock:
            return len(self._queue) + (self._running is not None)

    def submit(self, task: dict) -> None:
        with self._lock:
            self._queue.append(task)

    def cancel(self, index) -> str:
        """Cancel the task with ``index``; see the module docstring.

        ``"queued"`` — not started, dropped, no outcome will arrive;
        ``"running"`` — :meth:`next_result` is executing it;
        ``"unknown"`` — already returned (or never submitted here).
        """
        with self._lock:
            for position, task in enumerate(self._queue):
                if task.get("index") == index:
                    del self._queue[position]
                    return "queued"
            if self._running is not None \
                    and self._running.get("index") == index:
                return "running"
        return "unknown"

    def next_result(self) -> dict:
        if self.interrupt is not None and self.interrupt():
            # In-process execution cannot be interrupted mid-task, but
            # the queue boundary honours the flag before starting more.
            raise TaskInterrupted
        with self._lock:
            if not self._queue:
                raise RuntimeError(
                    "no tasks pending in the serial executor"
                )
            task = self._running = self._queue.pop(0)
        try:
            return self.execute(task)
        except Exception as error:
            return crash_outcome(task, error)
        finally:
            self._running = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._queue.clear()
        return False


class ProcessExecutor:
    """Process-pool execution (``jobs > 1``) with dead-worker detection.

    The pool is created lazily on the first :meth:`submit` and discarded
    whenever it breaks, so one dying worker fails only the tasks that
    were in flight with it — later submissions run in a fresh pool.
    ``execute`` must be picklable (a module-level function).

    Submit at most ``jobs`` tasks at a time, as the drivers do:
    ``ProcessPoolExecutor`` marks a future *running* once it enters the
    worker call queue, which prefetches beyond the workers, so a task
    submitted into a full pool would start its timeout clock while it
    still waits for a worker.
    """

    def __init__(self, jobs: int, execute, task_timeout: float | None = None,
                 interrupt=None):
        if jobs < 2:
            raise ValueError("ProcessExecutor needs jobs >= 2; use SerialExecutor")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        self.jobs = jobs
        self.execute = execute
        self.task_timeout = task_timeout
        self.interrupt = interrupt
        self._pool = None
        self._futures: dict = {}  # future -> task
        self._running_since: dict = {}  # future -> first observed running
        # submit()/cancel() may be called from another thread (the
        # asyncio master) while next_result() blocks in a worker thread;
        # the lock keeps pool/future bookkeeping consistent.
        self._lock = threading.Lock()

    @property
    def pending(self) -> int:
        """Tasks submitted whose outcome has not been returned yet."""
        return len(self._futures)

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _discard_pool(self, kill: bool = False) -> None:
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        if kill:
            # A hung worker never exits on its own; without an explicit
            # kill it would linger (and block interpreter shutdown,
            # which joins pool workers) for the driver's lifetime.
            for process in list((getattr(pool, "_processes", None)
                                 or {}).values()):
                process.kill()
        pool.shutdown(wait=False, cancel_futures=True)

    def submit(self, task: dict) -> None:
        with self._lock:
            try:
                future = self._ensure_pool().submit(self.execute, task)
            except Exception:
                # The pool broke between our liveness check and the
                # submit (a worker died while idle); retry on a fresh
                # pool.
                self._discard_pool()
                future = self._ensure_pool().submit(self.execute, task)
            self._futures[future] = task

    def cancel(self, index) -> str:
        """Cancel the task with ``index``; see the module docstring.

        Dispositions: ``"queued"`` — snatched from the pool before a
        worker picked it up, and no outcome will ever arrive;
        ``"running"`` — its worker finishes it and its outcome arrives
        as usual; ``"unknown"`` — the task already returned (or was
        never submitted here).
        """
        with self._lock:
            for future, task in list(self._futures.items()):
                if task.get("index") != index:
                    continue
                if future.cancel():
                    self._futures.pop(future, None)
                    self._running_since.pop(future, None)
                    return "queued"
                return "running"
        return "unknown"

    def _overdue(self, now: float):
        """``(future, elapsed)`` of the longest-overdue running task, or None.

        The clock starts when a task is first *observed* running (not
        when it was submitted), so a task the pool has not started yet
        never accrues waiting time against its budget.
        """
        if self.task_timeout is None:
            return None
        for future in list(self._futures):
            if future not in self._running_since and future.running():
                self._running_since[future] = now
        worst = None
        for future, started in list(self._running_since.items()):
            if future not in self._futures:
                continue
            elapsed = now - started
            if elapsed >= self.task_timeout and (
                    worst is None or elapsed > worst[1]):
                worst = (future, elapsed)
        return worst

    def _wait_timeout(self, now: float) -> float | None:
        """How long the next ``wait`` may block before a poll is due."""
        slices = []
        if self.interrupt is not None:
            slices.append(INTERRUPT_POLL_SECONDS)
        if self.task_timeout is not None:
            deadlines = [
                max(0.0, started + self.task_timeout - now)
                for future, started in list(self._running_since.items())
                if future in self._futures
            ]
            if deadlines:
                slices.append(min(deadlines))
            # Tasks not yet observed running need their clocks started;
            # poll at the interrupt cadence until every clock is live.
            slices.append(INTERRUPT_POLL_SECONDS)
        return min(slices) if slices else None

    def next_result(self) -> dict:
        from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                        CancelledError, wait)

        if not self._futures:
            raise RuntimeError("no tasks pending in the process executor")
        while True:
            if self.interrupt is not None and self.interrupt():
                raise TaskInterrupted
            if not self._futures:
                # A concurrent cancel() snatched the last pending task
                # while we waited.  Poll until new work is submitted (a
                # long-lived driver will feed more) or interrupt fires.
                time.sleep(INTERRUPT_POLL_SECONDS)
                continue
            now = time.monotonic()
            overdue = self._overdue(now)
            if overdue is not None:
                future, elapsed = overdue
                task = self._futures.pop(future, None)
                self._running_since.pop(future, None)
                if task is None:
                    continue  # cancelled out from under us
                # The hung worker cannot be joined; kill the whole pool
                # so later submissions start fresh.  Other tasks in
                # flight resolve as structured failures on later calls.
                self._discard_pool(kill=True)
                return timeout_outcome(task, self.task_timeout, elapsed)
            done, _ = wait(tuple(self._futures),
                           timeout=self._wait_timeout(now),
                           return_when=FIRST_COMPLETED)
            for future in done:
                task = self._futures.pop(future, None)
                self._running_since.pop(future, None)
                if task is None:
                    continue  # cancel() already collected this future
                try:
                    return future.result()
                except (BrokenExecutor, CancelledError) as error:
                    # A worker died mid-task.  Every future in flight
                    # with the broken pool will resolve the same way on
                    # later calls, each yielding its own structured
                    # failure; new submissions get a fresh pool.
                    self._discard_pool()
                    return crash_outcome(task, error)
                except Exception as error:
                    return crash_outcome(task, error)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        # Leaving with tasks still in flight (an interrupted sweep, a
        # timed-out straggler, an abandoned bet) means nobody will ever
        # collect them: kill their workers rather than leave orphans.
        self._discard_pool(kill=bool(self._futures))
        self._futures.clear()
        self._running_since.clear()
        return False
