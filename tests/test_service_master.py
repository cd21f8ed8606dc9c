"""The repro master, live and in-process: a real asyncio server on a
temp unix socket, driven through real :class:`MasterClient` sockets,
with a fast injected ``execute`` so whole queue lifecycles run in
milliseconds."""

import asyncio
import socket as socket_module
import threading
import time

import pytest

from repro.api import experiments
from repro.orchestration import SweepConfig
from repro.service import protocol
from repro.service.client import MasterClient, MasterError
from repro.service.master import Master, detect_config_kind
from repro.service.queue import JobQueue

SLOW_SEED = 100          # seeds >= this sleep, for preemption windows
SLOW_SECONDS = 0.25


def fake_execute(task):
    seed = task["config"]["model"]["seed"]
    if seed >= SLOW_SEED:
        time.sleep(SLOW_SECONDS)
    return {
        "index": task["index"],
        "status": "ok",
        "payload": {"report": {"fake": True, "seed": seed}, "artifacts": {}},
        "duration": 0.0,
    }


def sweep_spec(name="fast", seeds=(0, 1)):
    sweep = SweepConfig(
        name=name,
        base=experiments.get_config("vgg11-micro-smoke"),
        seeds=tuple(seeds),
    )
    return {"config": sweep.to_dict(), "kind": "sweep"}


def wait_until_listening(socket_path, timeout=10):
    """Block until the master accepts a connection and says hello.

    The socket file appears at bind(), before listen(), so its existence
    alone does not mean a client can connect yet.
    """
    deadline = time.time() + timeout
    while True:
        try:
            MasterClient(socket_path, timeout=30).close()
            return
        except MasterError:
            assert time.time() < deadline, "master never listened on its socket"
            time.sleep(0.01)


class MasterHarness:
    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.socket_path = tmp_path / "master.sock"
        self.state_path = tmp_path / "state.json"
        self.cache_dir = tmp_path / "cache"
        self.thread = None
        self.master = None

    def start(self, jobs=1):
        self.master = Master(
            socket_path=self.socket_path, jobs=jobs,
            cache_dir=self.cache_dir, state_path=self.state_path,
            execute=fake_execute,
        )
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.master.serve()), daemon=True
        )
        self.thread.start()
        wait_until_listening(self.socket_path)
        return self.master

    def client(self):
        return MasterClient(self.socket_path, timeout=30)

    def stop(self):
        if self.thread is None or not self.thread.is_alive():
            return
        try:
            with self.client() as client:
                client.shutdown()
        except (MasterError, OSError):
            pass
        self.thread.join(timeout=15)
        assert not self.thread.is_alive(), "master did not shut down"

    def restart(self, jobs=1):
        self.stop()
        return self.start(jobs=jobs)


@pytest.fixture
def harness(tmp_path):
    h = MasterHarness(tmp_path)
    h.start()
    yield h
    h.stop()


def wait_for_state(client, job, states, timeout=15):
    deadline = time.time() + timeout
    while time.time() < deadline:
        (status,) = client.status(job=job)["jobs"]
        if status["state"] in states:
            return status
        time.sleep(0.02)
    raise AssertionError(
        f"job {job} never reached {states}; last: {status}"
    )


class TestJobLifecycle:
    def test_submit_watch_completes_with_streamed_events(self, harness):
        with harness.client() as client:
            assert client.server["protocol"] == protocol.PROTOCOL_VERSION
            job = client.submit(**sweep_spec())["job"]
            events = []
            final = client.watch(job, on_event=events.append)
        assert final["state"] == "done"
        assert final["summary"]["stats"]["total"] == 2
        names = [e["event"] for e in events]
        assert names.count("point") == 2
        assert "schedule" in names and "done" in names

    def test_resubmission_is_pure_cache_hits(self, harness):
        with harness.client() as client:
            first = client.watch(client.submit(**sweep_spec())["job"])
            assert first["summary"]["stats"]["cache_hits"] == 0
            second = client.watch(client.submit(**sweep_spec())["job"])
        stats = second["summary"]["stats"]
        assert stats["executed"] == 0
        assert stats["cached"] == stats["total"] == 2
        assert stats["cache_hits"] == 2

    def test_submit_by_preset_resolves_server_side(self, harness):
        with harness.client() as client:
            result = client.submit(preset="table2-vgg19-seeds")
            assert result["kind"] == "sweep"
            client.cancel(result["job"])

    def test_unknown_preset_is_typed_bad_params(self, harness):
        with harness.client() as client:
            with pytest.raises(MasterError) as err:
                client.submit(preset="no-such-preset")
            assert err.value.code == protocol.E_BAD_PARAMS

    def test_cancel_queued_job(self, harness):
        with harness.client() as client:
            slow = client.submit(**sweep_spec(
                "slow", seeds=(SLOW_SEED, SLOW_SEED + 1)))["job"]
            queued = client.submit(**sweep_spec("later", seeds=(7,)))["job"]
            result = client.cancel(queued)
            assert result["state"] == "cancelled"
            final = client.watch(queued)
            assert final["state"] == "cancelled"
            client.watch(slow)

    def test_cancel_finished_job_is_invalid_state(self, harness):
        with harness.client() as client:
            job = client.submit(**sweep_spec())["job"]
            client.watch(job)
            with pytest.raises(MasterError) as err:
                client.cancel(job)
            assert err.value.code == protocol.E_INVALID_STATE

    def test_unknown_job_is_typed(self, harness):
        with harness.client() as client:
            with pytest.raises(MasterError) as err:
                client.status(job=999)
            assert err.value.code == protocol.E_UNKNOWN_JOB

    def test_watch_of_finished_job_replays_to_completion(self, harness):
        with harness.client() as client:
            job = client.submit(**sweep_spec())["job"]
            client.watch(job)
        # A second client arriving after the fact still sees the ending.
        with harness.client() as client:
            events = []
            final = client.watch(job, on_event=events.append)
        assert final["state"] == "done"
        assert [e["event"] for e in events].count("point") == 2


class TestPriorityAndPreemption:
    def test_higher_priority_preempts_between_rounds(self, harness):
        with harness.client() as client:
            bulk = client.submit(**sweep_spec(
                "bulk", seeds=tuple(range(SLOW_SEED, SLOW_SEED + 6))
            ))["job"]
            wait_for_state(client, bulk, ("running",))
            urgent = client.submit(**sweep_spec("urgent", seeds=(1,)),
                                   priority=10)["job"]
            urgent_final = client.watch(urgent)
            assert urgent_final["state"] == "done"
            (bulk_status,) = client.status(job=bulk)["jobs"]
            # The urgent job finished while the bulk sweep still runs:
            # that is the preemption (pause happened between rounds).
            assert bulk_status["state"] in ("running", "paused", "queued")
            bulk_final = client.watch(bulk)
        assert bulk_final["state"] == "done"
        assert bulk_final["summary"]["stats"]["total"] == 6
        assert urgent_final["finished_at"] < bulk_final["finished_at"]

    def test_fifo_within_equal_priority(self, harness):
        with harness.client() as client:
            first = client.submit(**sweep_spec("a", seeds=(SLOW_SEED,)))["job"]
            second = client.submit(**sweep_spec("b", seeds=(31,)))["job"]
            a = client.watch(first)
            b = client.watch(second)
        assert a["finished_at"] <= b["finished_at"]


class TestClientRobustness:
    def test_killing_a_watcher_does_not_kill_the_job(self, harness):
        with harness.client() as client:
            job = client.submit(**sweep_spec(
                "watched", seeds=(SLOW_SEED + 2, SLOW_SEED + 3)))["job"]
        watcher = harness.client()
        watcher.call("watch", {"job": job})
        watcher._sock.close()  # die mid-stream, no goodbye
        with harness.client() as client:
            final = client.watch(job)
        assert final["state"] == "done"
        assert final["summary"]["stats"]["total"] == 2

    def test_two_clients_interleave_without_crosstalk(self, harness):
        results = {}
        errors = []

        def run_one(tag, seeds):
            try:
                with harness.client() as client:
                    job = client.submit(**sweep_spec(tag, seeds=seeds))["job"]
                    results[tag] = (job, client.watch(job))
            except Exception as error:  # surfaced after join
                errors.append(error)

        threads = [
            threading.Thread(target=run_one,
                             args=(f"c{i}", (SLOW_SEED + 10 + i,)))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 2
        jobs = {job for job, _ in results.values()}
        assert len(jobs) == 2
        for _, final in results.values():
            assert final["state"] == "done"

    def test_garbage_line_gets_typed_error_and_connection_survives(
            self, harness):
        raw = socket_module.socket(socket_module.AF_UNIX,
                                   socket_module.SOCK_STREAM)
        raw.settimeout(10)
        raw.connect(str(harness.socket_path))
        reader = raw.makefile("rb")
        protocol.check_hello(protocol.decode_line(reader.readline()))
        raw.sendall(b"this is not json\n")
        error = protocol.decode_line(reader.readline())
        assert error["error"]["code"] == protocol.E_PARSE
        assert error["id"] is None
        # Framing is intact: a real request on the same connection works.
        raw.sendall(protocol.encode(protocol.request(5, "status")))
        response = protocol.decode_line(reader.readline())
        assert response["id"] == 5 and "result" in response
        raw.close()

    def test_unknown_method_is_typed(self, harness):
        with harness.client() as client:
            with pytest.raises(MasterError) as err:
                client.call("frobnicate")
            assert err.value.code == protocol.E_UNKNOWN_METHOD


class TestRestart:
    def test_restarted_master_reoffers_unfinished_jobs(self, tmp_path):
        harness = MasterHarness(tmp_path)
        harness.start()
        try:
            with harness.client() as client:
                job = client.submit(**sweep_spec(
                    "long", seeds=(SLOW_SEED, SLOW_SEED + 1, SLOW_SEED + 2)
                ))["job"]
                # Let the first point finish (and land in the cache)
                # before pulling the plug mid-job.
                with harness.client() as watcher:
                    watcher.call("watch", {"job": job})
                    while True:
                        message = watcher._read_message()
                        if message.get("event") == "point":
                            break
                client.shutdown()
            harness.thread.join(timeout=15)
            assert not harness.thread.is_alive()
            # The dead master left the job mid-flight in its state file.
            saved = JobQueue.load(harness.state_path).get(job)
            assert saved.state == "queued"

            harness.start()
            with harness.client() as client:
                final = client.watch(job)
            assert final["state"] == "done"
            stats = final["summary"]["stats"]
            assert stats["total"] == 3
            # Points finished before the shutdown replay from the cache.
            assert stats["cached"] >= 1
        finally:
            harness.stop()


def search_spec(speculate=None, seed=0, max_trials=2):
    from repro.orchestration.search import SearchConfig

    search = SearchConfig(
        name="spec-search",
        base=experiments.get_config("vgg11-micro-smoke").evolve(
            model={"seed": seed}),
        strategy="ad-bits",
        max_trials=max_trials,
    )
    spec = {"config": search.to_dict(), "kind": "search"}
    if speculate is not None:
        spec["speculate"] = speculate
    return spec


class TestSpeculativeSubmission:
    """``submit --speculate`` flows through the service end to end."""

    def test_search_with_speculate_completes(self, harness):
        # The harness execute returns row-less payloads, so the search
        # ends after its reference trial — but not before the wrapper
        # bet on the 1-bit step and cancelled it at DONE.  The whole
        # speculative path (quarantine, cancel, accounting) runs inside
        # the live master, and the stats surface in the summary.
        with harness.client() as client:
            job = client.submit(**search_spec(speculate=2))["job"]
            final = client.watch(job)
        assert final["state"] == "done"
        stats = final["summary"]["stats"]
        assert stats["speculated"] == 1
        assert stats["confirmed"] == 0
        assert stats["cancelled"] == 1
        assert stats["wasted_trials"] == 0  # serial: bets die queued

    def test_unspeculated_search_carries_no_speculation_stats(
            self, harness):
        with harness.client() as client:
            final = client.watch(
                client.submit(**search_spec())["job"])
        assert "speculated" not in final["summary"]["stats"]

    def test_speculate_rejected_for_sweep_jobs(self, harness):
        with harness.client() as client:
            spec = sweep_spec()
            spec["speculate"] = 2
            with pytest.raises(MasterError) as err:
                client.submit(**spec)
            assert err.value.code == protocol.E_BAD_PARAMS

    def test_speculate_must_be_an_integer(self, harness):
        with harness.client() as client:
            spec = search_spec()
            spec["speculate"] = "three"
            with pytest.raises(MasterError) as err:
                client.call("submit", spec)
            assert err.value.code == protocol.E_BAD_PARAMS

    def test_preemption_cancels_bets_and_search_still_finishes(
            self, harness):
        # A slow speculative search gets preempted by an urgent job:
        # the master must cancel the search's in-flight bets before
        # switching (they would otherwise hold the shared executor),
        # then resume and finish the search correctly.
        with harness.client() as client:
            slow = client.submit(**search_spec(
                speculate=2, seed=SLOW_SEED))["job"]
            wait_for_state(client, slow, ("running",))
            urgent = client.submit(**sweep_spec("urgent", seeds=(1,)),
                                   priority=10)["job"]
            assert client.watch(urgent)["state"] == "done"
            final = client.watch(slow)
        assert final["state"] == "done"
        stats = final["summary"]["stats"]
        # Every bet settled one way or the other — none leaked.
        assert stats["speculated"] == \
            stats["confirmed"] + stats["cancelled"]


class TestResolveSpecSpeculation:
    def test_speculate_applies_to_search_configs(self):
        from repro.service.master import resolve_spec

        kind, _, payload = resolve_spec(search_spec(speculate=3))
        assert kind == "search"
        assert payload.speculation == 3

    def test_speculate_refused_for_run_kind(self):
        from repro.service.master import resolve_spec

        with pytest.raises(ValueError, match="search jobs"):
            resolve_spec({
                "config": experiments.get_config(
                    "vgg11-micro-smoke").to_dict(),
                "kind": "run",
                "speculate": 2,
            })


class TestKindDetection:
    def test_detects_search_sweep_and_run(self):
        assert detect_config_kind({"strategy": "ad-bits"}) == "search"
        assert detect_config_kind({"axes": [], "base": {}}) == "sweep"
        assert detect_config_kind(
            experiments.get_config("vgg11-micro-smoke").to_dict()
        ) == "run"

    def test_undetectable_config_rejected(self):
        with pytest.raises(ValueError):
            detect_config_kind({"mystery": 1})
