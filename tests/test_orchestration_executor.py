"""Executor backends: mid-stream worker death must not hang the driver.

The process backend is exercised with a worker that genuinely *dies*
(``os._exit``, no exception, no cleanup — the shape of an OOM kill or
segfault); the serial backend with an injected ``execute`` that raises
(the closest in-process analogue: a crash escaping
``execute_point``'s structured capture).  In both cases the driver loop
must come back with a structured ``failed`` point for every submitted
task — never a hang, never a silently shorter sweep.
"""

import os

import pytest

from repro.api import experiments
from repro.orchestration import (
    ProcessExecutor,
    Scheduler,
    SerialExecutor,
    SweepPoint,
    SweepRunner,
    execute_point,
)
from repro.orchestration.scheduler import DONE


def micro_config(seed=0):
    return experiments.get_config("vgg11-micro-smoke").evolve(
        quant={"max_iterations": 1, "max_epochs_per_iteration": 1,
               "min_epochs_per_iteration": 1},
        model={"seed": seed}, data={"seed": seed},
    )


DEATH_SEED = 7


def die_on_marked_seed(task):
    """Worker entry point that *dies* (not raises) on the marked seed.

    Module-level so it pickles into pool workers.  ``os._exit`` skips
    all exception handling and interpreter cleanup — the worker process
    simply vanishes, exactly like an external kill.
    """
    if task["config"]["model"]["seed"] == DEATH_SEED:
        os._exit(1)
    return execute_point(task)


def raise_instead_of_outcome(task):
    """An execute seam violating the capture-everything contract."""
    if task["config"]["model"]["seed"] == DEATH_SEED:
        raise RuntimeError("worker crashed before producing an outcome")
    return execute_point(task)


class TestSerialBackend:
    def test_crashing_execute_becomes_failed_point(self):
        result = SweepRunner(execute=raise_instead_of_outcome).run([
            SweepPoint(label="ok", config=micro_config(0)),
            SweepPoint(label="dies", config=micro_config(DEATH_SEED)),
            SweepPoint(label="ok-too", config=micro_config(1)),
        ])
        assert [p.status for p in result.points] == ["ok", "failed", "ok"]
        failed = result.points[1]
        assert "executor crashed" in failed.error
        assert "worker crashed" in failed.error
        assert failed.traceback
        assert result.stats["failed"] == 1
        assert not result.ok

    def test_next_result_without_submissions_raises(self):
        with pytest.raises(RuntimeError, match="no tasks pending"):
            SerialExecutor(execute_point).next_result()


class TestProcessBackend:
    def test_dying_worker_becomes_failed_point(self):
        # jobs=2 with a single dying task: the pool breaks, the driver
        # must get a structured failure back instead of hanging.
        result = SweepRunner(jobs=2, execute=die_on_marked_seed).run([
            SweepPoint(label="dies", config=micro_config(DEATH_SEED)),
        ])
        (point,) = result.points
        assert point.status == "failed"
        assert "executor crashed" in point.error
        assert result.stats == {"total": 1, "executed": 0, "cached": 0,
                                "failed": 1}

    def test_every_dying_worker_accounted_for(self):
        # Two tasks dying in-flight together: both must come back as
        # structured failures (the broken pool fails all its futures).
        bad = micro_config(DEATH_SEED)
        result = SweepRunner(jobs=2, execute=die_on_marked_seed).run([
            SweepPoint(label="dies-a", config=bad),
            SweepPoint(label="dies-b", config=bad.evolve(
                data={"noise": 0.5})),
        ])
        assert [p.status for p in result.points] == ["failed", "failed"]
        assert all("executor crashed" in p.error for p in result.points)

    def test_pool_recreated_after_death_for_later_proposals(self):
        # An adaptive scheduler proposing a good point *after* a worker
        # death must get a fresh pool, not the broken one.
        points = [
            SweepPoint(label="dies", config=micro_config(DEATH_SEED)),
            SweepPoint(label="recovers", config=micro_config(0)),
        ]

        class AfterFailure(Scheduler):
            def __init__(self):
                self._issued = 0

            def next_points(self, completed):
                if len(completed) < self._issued:
                    return []
                if self._issued < len(points):
                    point = points[self._issued]
                    self._issued += 1
                    return [point]
                return DONE

        result = SweepRunner(
            jobs=2, execute=die_on_marked_seed
        ).run_scheduler(AfterFailure(), name="recovery")
        assert [p.status for p in result.points] == ["failed", "ok"]
        assert result.points[1].payload["report"]["rows"]

    def test_next_result_without_submissions_raises(self):
        executor = ProcessExecutor(2, execute_point)
        with pytest.raises(RuntimeError, match="no tasks pending"):
            executor.next_result()

    def test_rejects_single_job(self):
        with pytest.raises(ValueError, match="jobs >= 2"):
            ProcessExecutor(1, execute_point)


HANG_SEED = 9
NAP_SEED_FLOOR = 20   # seeds >= this sleep briefly (timeout-clock tests)


def fast_or_hang(task):
    """Worker entry point that hangs forever on the marked seed.

    Everything else returns a canned outcome immediately, so timeout
    tests measure the *timeout* machinery, not training time.
    """
    import time

    seed = task["config"]["model"]["seed"]
    if seed == HANG_SEED:
        time.sleep(600)
    if seed >= NAP_SEED_FLOOR:
        time.sleep(1.0)
    return {"index": task["index"], "status": "ok",
            "payload": {"report": {"seed": seed}, "artifacts": {}},
            "duration": 0.0}


class TestTaskTimeout:
    def test_hung_task_becomes_structured_timeout_failure(self):
        result = SweepRunner(
            jobs=2, execute=fast_or_hang, task_timeout=1.0
        ).run([
            SweepPoint(label="quick", config=micro_config(0)),
            SweepPoint(label="hangs", config=micro_config(HANG_SEED)),
        ])
        by_label = {p.label: p for p in result.points}
        assert by_label["quick"].status == "ok"
        hung = by_label["hangs"]
        assert hung.status == "failed"
        assert "task_timeout" in hung.error
        assert "recycled" in hung.error
        assert result.stats["failed"] == 1

    def test_pool_recycled_after_timeout_for_later_proposals(self):
        # A point proposed *after* a timeout must run on a fresh pool.
        points = [
            SweepPoint(label="hangs", config=micro_config(HANG_SEED)),
            SweepPoint(label="recovers", config=micro_config(3)),
        ]

        class AfterTimeout(Scheduler):
            def __init__(self):
                self._issued = 0

            def next_points(self, completed):
                if len(completed) < self._issued:
                    return []
                if self._issued < len(points):
                    point = points[self._issued]
                    self._issued += 1
                    return [point]
                return DONE

        result = SweepRunner(
            jobs=2, execute=fast_or_hang, task_timeout=1.0
        ).run_scheduler(AfterTimeout(), name="timeout-recovery")
        assert [p.status for p in result.points] == ["failed", "ok"]
        assert result.points[1].payload["report"]["seed"] == 3

    def test_clock_starts_when_the_task_runs_not_when_queued(self):
        # Three 1s naps on two workers: the third task *waits* ~1s for
        # a slot before its 1s run.  Wall time exceeds the 1.6s timeout,
        # per-task runtime does not — nothing may time out.
        result = SweepRunner(
            jobs=2, execute=fast_or_hang, task_timeout=1.6
        ).run([
            SweepPoint(label=f"nap{i}",
                       config=micro_config(NAP_SEED_FLOOR + i))
            for i in range(3)
        ])
        assert [p.status for p in result.points] == ["ok", "ok", "ok"]

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ProcessExecutor(2, execute_point, task_timeout=0)

    def test_timeout_outcome_shape_matches_crash_outcome(self):
        from repro.orchestration import crash_outcome, timeout_outcome

        task = {"index": 4, "config": {}}
        timeout = timeout_outcome(task, 2.0, 2.3)
        crash = crash_outcome(task, error=RuntimeError("x"))
        assert set(timeout) == set(crash)
        assert timeout["index"] == 4
        assert timeout["status"] == "timeout"


def _task(index, seed):
    return {"index": index, "config": micro_config(seed).to_dict()}


class TestCancel:
    """The ``cancel`` seam speculative search and job discard ride on."""

    def test_serial_cancel_queued_is_free(self):
        executor = SerialExecutor(fast_or_hang)
        for index in range(3):
            executor.submit(_task(index, NAP_SEED_FLOOR + index))
        assert executor.cancel(1) == "queued"
        assert executor.pending == 2
        # The dropped task never executes and never yields an outcome.
        assert {executor.next_result()["index"],
                executor.next_result()["index"]} == {0, 2}
        with pytest.raises(RuntimeError, match="no tasks pending"):
            executor.next_result()

    def test_serial_cancel_unknown_index(self):
        executor = SerialExecutor(fast_or_hang)
        assert executor.cancel(7) == "unknown"
        executor.submit(_task(0, 0))
        executor.next_result()
        # Already executed and returned: nothing left to cancel.
        assert executor.cancel(0) == "unknown"

    def test_process_cancel_queued_never_consumes_a_slot(self):
        # Two naps fill both workers; the third task sits in the
        # backlog.  Cancelling it is free — it must never be fed to a
        # worker, and exactly two outcomes arrive.
        with ProcessExecutor(2, fast_or_hang) as executor:
            for index in range(2):
                executor.submit(_task(index, NAP_SEED_FLOOR + index))
            executor.submit(_task(2, 0))
            assert executor.cancel(2) == "queued"
            assert executor.pending == 2
            collected = {executor.next_result()["index"],
                         executor.next_result()["index"]}
            assert collected == {0, 1}
            assert executor.pending == 0

    def test_process_cancel_running_discards_the_outcome(self):
        import time

        with ProcessExecutor(2, fast_or_hang) as executor:
            executor.submit(_task(0, NAP_SEED_FLOOR))
            time.sleep(0.5)  # let a worker pick the task up
            assert executor.cancel(0) == "running"
            outcome = executor.next_result()
            # The worker's result is discarded: a structured cancelled
            # marker arrives instead, payload-free, so the abandoned
            # bet can never reach a cache or an --out file.
            assert outcome["index"] == 0
            assert outcome["status"] == "cancelled"
            assert "payload" not in outcome
            assert outcome["error"] is None

    def test_process_cancel_racing_completion_first_writer_wins(self):
        import time

        # The task *finishes* before the cancel lands: the cancel still
        # reports "running" (the outcome is already computed, so it was
        # not free) and the computed payload is still replaced by the
        # cancelled marker — exactly one outcome per task either way.
        with ProcessExecutor(2, fast_or_hang) as executor:
            executor.submit(_task(0, 0))
            executor.submit(_task(1, 1))
            time.sleep(1.0)  # both instant tasks have long finished
            assert executor.cancel(1) == "running"
            outcomes = [executor.next_result(), executor.next_result()]
            by_index = {o["index"]: o for o in outcomes}
            assert set(by_index) == {0, 1}
            assert by_index[0]["status"] == "ok"
            assert by_index[1]["status"] == "cancelled"
            assert "payload" not in by_index[1]
            assert executor.pending == 0

    def test_process_cancel_after_collection_is_unknown(self):
        with ProcessExecutor(2, fast_or_hang) as executor:
            executor.submit(_task(0, 0))
            assert executor.next_result()["status"] == "ok"
            assert executor.cancel(0) == "unknown"

    def test_process_cancel_unknown_index(self):
        with ProcessExecutor(2, fast_or_hang) as executor:
            assert executor.cancel(99) == "unknown"


class TestInterrupt:
    def test_serial_interrupt_stops_between_tasks(self):
        from repro.orchestration import SweepInterrupted

        class Flag:
            fired = False

            def __call__(self):
                return self.fired

        flag = Flag()

        def execute_and_fire(task):
            flag.fired = True
            return {"index": task["index"], "status": "ok",
                    "payload": {"report": {}, "artifacts": {}},
                    "duration": 0.0}

        runner = SweepRunner(execute=execute_and_fire, interrupt=flag)
        with pytest.raises(SweepInterrupted) as err:
            runner.run([
                SweepPoint(label=f"p{i}", config=micro_config(i))
                for i in range(3)
            ])
        # The in-flight point finished; the rest were abandoned cleanly.
        assert len(err.value.result.points) == 1
        assert err.value.pending == 2

    def test_process_interrupt_unblocks_a_waiting_driver(self):
        import threading

        from repro.orchestration import SweepInterrupted

        class Flag:
            fired = False

            def __call__(self):
                return self.fired

        flag = Flag()
        # Both workers nap ~1s; the flag fires mid-wait and must
        # unblock the driver within an interrupt poll interval, not
        # after the naps complete.
        threading.Timer(0.3, lambda: setattr(flag, "fired", True)).start()
        runner = SweepRunner(jobs=2, execute=fast_or_hang, interrupt=flag)
        with pytest.raises(SweepInterrupted) as err:
            runner.run([
                SweepPoint(label=f"nap{i}",
                           config=micro_config(NAP_SEED_FLOOR + i))
                for i in range(2)
            ])
        # A sweep loop that waited out a nap would have delivered its
        # result before seeing the flag.
        assert err.value.result.points == []
        assert err.value.pending == 2
