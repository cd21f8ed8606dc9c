"""Schedulers: the *what to run next* half of sweep execution.

:class:`~repro.orchestration.runner.SweepRunner` used to expand a whole
grid up front and fan it out — scheduling and execution interleaved in
one loop.  This module isolates the scheduling side behind a tiny
protocol so that *adaptive* workloads (bit-width search, successive
halving) can propose new points from completed results while the
executor half keeps running them:

* :class:`Scheduler` — the protocol: ``next_points(completed)`` returns
  the next batch of :class:`~repro.orchestration.sweep.SweepPoint`
  objects, an empty list to wait for more completions, or the
  :data:`DONE` sentinel once nothing further will ever be proposed.
* :class:`StaticScheduler` — the degenerate case: one pre-expanded point
  list, issued whole on the first call.  The driver loop running a
  ``StaticScheduler`` is bit-identical to the pre-split ``SweepRunner``.

Adaptive schedulers (:class:`~repro.orchestration.search.ADSearchScheduler`,
:class:`~repro.orchestration.search.SuccessiveHalvingScheduler`) live in
:mod:`repro.orchestration.search`.

The driver calls ``next_points`` with the cumulative tuple of completed
:class:`~repro.orchestration.runner.PointResult` objects, in completion
order, after every completion (and once before anything runs).  A
scheduler therefore never needs its own notion of time or capacity: it
reacts to results, the driver owns dispatch.

Speculative execution
---------------------

A sequential search (one proposal in flight at a time) can still use
idle workers by *betting* on its likely next proposals.  A speculating
scheduler (:class:`~repro.orchestration.search.SpeculativeScheduler`)
also has a ``bets()`` method returning the configs worth betting on
now, the likeliest first.  The driver asks for them once per round,
when the scheduler waits, and keeps exactly those live: it places new
bets (starting queued ones in that order as workers free up), cancels
the ones that dropped out, and when a proposal carries a live bet's
config (matched by cache key) it adopts that bet's running or finished
execution instead of starting a new task.

Bet outcomes are quarantined by the driver: they never enter
``completed``, the result cache, or streamed output unless a proposal
adopts them, so every trial decision is made from exactly the results a
sequential run would see — which is what makes speculative runs
bit-identical to sequential ones.
"""

from __future__ import annotations

from repro.orchestration.sweep import SweepPoint


class Done:
    """Sentinel type: the scheduler will never propose another point.

    Compare against the module-level :data:`DONE` instance (or use
    ``isinstance``); schedulers should ``return DONE``, not raise.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DONE"

    def __bool__(self) -> bool:
        return False


DONE = Done()


class Scheduler:
    """Protocol for point proposers driving a sweep or search.

    Subclasses implement :meth:`next_points`; ``name`` labels the
    resulting :class:`~repro.orchestration.runner.SweepResult` when the
    caller does not supply one.
    """

    name: str = "sweep"

    def next_points(self, completed) -> list | Done:
        """The next batch of points given all completed results so far.

        ``completed`` is a tuple of every finished
        :class:`~repro.orchestration.runner.PointResult` (cache hits
        included), in completion order — confirmed results only, never
        speculative ones.  Return a list of new points to schedule,
        ``[]`` to wait for in-flight points to finish, or :data:`DONE`
        when the schedule is exhausted.  Returning ``[]`` while nothing
        is in flight is a deadlock and makes the driver raise.
        """
        raise NotImplementedError


class StaticScheduler(Scheduler):
    """A fixed, pre-expanded point list: today's sweep as a scheduler.

    Issues every point in one batch on the first call and ``DONE``
    afterwards, so the driver's dispatch order — cache hits first in
    point order, then executed points as workers finish — exactly
    reproduces the pre-split ``SweepRunner`` behaviour, sharded point
    lists included.
    """

    def __init__(self, points, name: str | None = None):
        self._points = list(points)
        for point in self._points:
            if not isinstance(point, SweepPoint):
                raise TypeError(f"not a SweepPoint: {point!r}")
        self._issued = False
        if name is not None:
            self.name = name
        elif self._points:
            self.name = self._points[0].config.name

    def next_points(self, completed) -> list[SweepPoint] | Done:
        if self._issued or not self._points:
            return DONE
        self._issued = True
        return list(self._points)
