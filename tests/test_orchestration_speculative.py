"""Speculative search execution must be bit-identical to sequential.

The whole promise of ``--speculate K`` is that it is an *execution*
knob, not a search knob: the chosen trial sequence, report rows, best
bit vector, cache contents, and every intermediate streamed ``--out``
payload are byte-for-byte what the unspeculated sequential search
produces — speculation only changes which configs get *started* early,
never which results become visible.  These tests pin that invariant the
same way ``test_orchestration_scheduler.py`` pinned the scheduler/
executor split against the pre-split runner: run the sequential search
as the reference, then run the speculative search at several ``K`` and
``jobs`` values on fresh caches and diff everything observable.

The trial landscape is a deterministic fake ``execute`` (a pure
function of the config, like real trials): feasibility flips on the
mean bit-width, activation density drifts linearly with it, and the
per-layer analytical energies are a fixed weighting of the bit vector.
That makes every sequential decision — and therefore every speculative
bet — exactly predictable, so the tests can also assert *which* configs
must never leak: the known-cancelled bets.
"""

import copy
import sys

import pytest

from repro.api import experiments
from repro.orchestration import (
    ResultCache,
    SerialExecutor,
    SweepInterrupted,
    SweepRunner,
)
from repro.orchestration.search import (
    SearchConfig,
    SpeculativeScheduler,
    build_scheduler,
    run_search,
    search_out_payload,
)

LAYERS = ("conv0", "conv1", "conv2", "fc")
# Per-layer energy weights (pJ per bit).  The spread is wide enough
# that one-bit moves never reorder the energy ranking, so the layer
# search's accept-guess bets (ranked with the *stale* incumbent
# energies) predict the sequential move exactly.
WEIGHTS = {"conv0": 12.0, "conv1": 20.0, "conv2": 8.0, "fc": 4.0}
FEASIBLE_MEAN_BITS = 3.75  # mean width at/above which accuracy holds


def _vector_of(config_dict: dict) -> dict:
    """The per-layer assignment a task's config pins (or implies)."""
    quant = config_dict["quant"]
    pinned = quant.get("layer_bits") or {}
    return {
        name: pinned.get(name, quant["initial_bits"]) for name in LAYERS
    }


def fake_execute(task: dict) -> dict:
    """A deterministic trial: a pure function of the config.

    Module-level so it pickles into process-pool workers.  Mirrors the
    payload shape of real runs closely enough for the search machinery:
    a report with one row (bit widths, accuracy, total AD) and the
    analytical-energy artifact with absolute and per-layer energies.
    """
    vector = _vector_of(task["config"])
    mean_bits = sum(vector.values()) / len(vector)
    accuracy = 0.9 if mean_bits >= FEASIBLE_MEAN_BITS else 0.6
    total_ad = min(0.95, max(0.05, 0.55 + 0.02 * (mean_bits - 8)))
    per_layer = {name: bits * WEIGHTS[name] for name, bits in vector.items()}
    model_pj = sum(per_layer.values())
    baseline_pj = 16 * sum(WEIGHTS.values())
    return {
        "index": task["index"],
        "status": "ok",
        "payload": {
            "report": {
                "architecture": "fake-net",
                "dataset": "fake-data",
                "layer_names": list(LAYERS),
                "rows": [{
                    "iteration": 1,
                    "label": "fake",
                    "bit_widths": [vector[name] for name in LAYERS],
                    "channel_counts": None,
                    "test_accuracy": accuracy,
                    "total_ad": total_ad,
                    "energy_efficiency": baseline_pj / model_pj,
                    "epochs": 1,
                    "train_complexity": 1.0,
                }],
            },
            "artifacts": {
                "analytical_energy": {
                    "model_total_pj": model_pj,
                    "baseline_total_pj": baseline_pj,
                    "per_layer_pj": per_layer,
                },
            },
        },
        "duration": 0.0,
    }


def spec_base():
    return experiments.get_config("vgg11-micro-smoke").evolve(
        quant={"initial_bits": 8},
    )


def ad_search(**overrides):
    """Sequential trace: bits 8 -> 4 (eqn. 3) -> 2 (infeasible)
    -> 3 (bisection, infeasible) -> done."""
    kwargs = dict(
        name="spec-ad", base=spec_base(), strategy="ad-bits",
        accuracy_drop=0.05, max_trials=6, min_bits=2,
    )
    kwargs.update(overrides)
    return SearchConfig(**kwargs)


def layer_search(**overrides):
    """Seed trace as above (4 trials), survivor uniform-4; then
    [conv1=3] accepted -> [conv1=2] infeasible -> [conv2=3]
    infeasible -> done at the trial budget."""
    kwargs = dict(
        name="spec-layer", base=spec_base(), strategy="layer-bits",
        accuracy_drop=0.05, max_trials=7, seed_trials=4, min_bits=2,
    )
    kwargs.update(overrides)
    return SearchConfig(**kwargs)


def _normalized(payload: dict) -> dict:
    """A search --out payload with run-local durations zeroed."""
    payload = copy.deepcopy(payload)
    for point in payload["points"]:
        if "duration" in point:
            point["duration"] = 0.0
    return payload


class GrowingStream:
    """Records the search --out payload after every driver event.

    Mirrors the CLI's streaming writer: the point list grows via
    ``on_schedule`` (searches discover their points as they go) and
    every event snapshots the full payload, so two runs writing the
    same sequence would produce the same ``--out`` file at every
    instant — the streamed half of the bit-identity invariant.
    """

    def __init__(self, search, scheduler):
        self.search = search
        self.scheduler = scheduler
        self.points = []
        self.results = []
        self.writes = []

    def on_schedule(self, new_points, total):
        self.points.extend(new_points)
        self.results.extend([None] * len(new_points))
        self._write()

    def on_point(self, result, position, total):
        self.results[position] = result
        self._write()

    def _write(self):
        self.writes.append(_normalized(search_out_payload(
            self.search, self.search.name, self.points, self.results,
            best=self.scheduler.best(),
            baseline=self.scheduler.baseline(),
            feasibility=self.scheduler.feasibility(),
        )))


def run_once(search, jobs, cache, **options):
    """One full search through the real driver, capturing the stream."""
    scheduler = build_scheduler(search)
    stream = GrowingStream(search, scheduler)
    result = run_search(
        search, jobs=jobs, cache=cache, execute=fake_execute,
        on_point=stream.on_point, on_schedule=stream.on_schedule,
        scheduler=scheduler, **options,
    )
    return result, stream


def config_tag(config_dict: dict) -> str:
    """A short name for a task's config: ``ib8`` or a pinned vector."""
    quant = config_dict["quant"]
    if quant.get("layer_bits"):
        return "/".join(str(bits) for bits in _vector_of(config_dict).values())
    return f"ib{quant['initial_bits']}"


class RecordingSerial(SerialExecutor):
    """The real serial executor, logging every call it answers."""

    def __init__(self, execute, events):
        super().__init__(execute)
        self.events = events

    def submit(self, task):
        self.events.append(
            ("submit", task["index"], config_tag(task["config"])))
        super().submit(task)

    def cancel(self, index):
        disposition = super().cancel(index)
        self.events.append(("cancel", index, disposition))
        return disposition

    def next_result(self):
        outcome = super().next_result()
        self.events.append(("result", outcome["index"], outcome["status"]))
        return outcome


class ScriptedPool:
    """A deterministic stand-in for a ``jobs``-worker process pool.

    Every task it holds is running, and the driver must never submit
    more than ``jobs`` of them.  ``next_result`` completes the oldest
    task with the worker's own outcome; ``cancel`` answers
    ``"running"`` for a held task and ``"unknown"`` otherwise.
    """

    def __init__(self, jobs, execute, events):
        self.jobs = jobs
        self.execute = execute
        self.events = events
        self._tasks = []

    @property
    def pending(self):
        return len(self._tasks)

    def submit(self, task):
        self.events.append(
            ("submit", task["index"], config_tag(task["config"])))
        assert len(self._tasks) < self.jobs, "a task waits in the executor"
        self._tasks.append(task)

    def cancel(self, index):
        held = any(task["index"] == index for task in self._tasks)
        disposition = "running" if held else "unknown"
        self.events.append(("cancel", index, disposition))
        return disposition

    def next_result(self):
        outcome = self.execute(self._tasks.pop(0))
        self.events.append(("result", outcome["index"], outcome["status"]))
        return outcome

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


@pytest.fixture
def recorded(monkeypatch):
    """``run(search, jobs, cache, **options) -> (result, stream, events)``.

    Runs :func:`run_once` with every executor call logged: the real
    :class:`SerialExecutor` at ``jobs`` 1, a :class:`ScriptedPool`
    otherwise.
    """
    def run(search, jobs, cache, **options):
        events = []

        def make_executor(runner):
            if runner.jobs == 1:
                return RecordingSerial(runner.execute, events)
            return ScriptedPool(runner.jobs, runner.execute, events)

        monkeypatch.setattr(SweepRunner, "_make_executor", make_executor)
        result, stream = run_once(search, jobs, cache, **options)
        return result, stream, events

    return run


def cache_snapshot(cache: ResultCache) -> dict:
    """Every cache entry, keyed — cancelled bets must never appear."""
    return {key: cache.read_entry(key) for key in cache.keys()}


def assert_bit_identical(reference, ref_stream, ref_cache,
                         candidate, cand_stream, cand_cache):
    assert _normalized(candidate.to_dict()) == _normalized(
        reference.to_dict())
    assert [(p.label, p.status, p.key) for p in candidate.points] == \
        [(p.label, p.status, p.key) for p in reference.points]
    assert candidate.feasibility == reference.feasibility
    assert (candidate.best.key if candidate.best else None) == \
        (reference.best.key if reference.best else None)
    assert candidate.report().format() == reference.report().format()
    assert cand_stream.writes == ref_stream.writes
    assert cache_snapshot(cand_cache) == cache_snapshot(ref_cache)


SEARCHES = {"ad-bits": ad_search, "layer-bits": layer_search}


class TestBitIdentity:
    """Acceptance: speculative == sequential, bit for bit, at every
    ``--speculate K`` and on both executor backends."""

    @pytest.mark.parametrize("strategy", sorted(SEARCHES))
    def test_serial_executor_every_k(self, tmp_path, strategy):
        make = SEARCHES[strategy]
        ref_cache = ResultCache(tmp_path / "seq")
        reference, ref_stream = run_once(make(), jobs=1, cache=ref_cache)
        assert reference.best is not None  # the landscape found a winner
        for k in (1, 2, 3):
            cand_cache = ResultCache(tmp_path / f"spec{k}")
            candidate, cand_stream = run_once(
                make(speculation=k), jobs=1, cache=cand_cache)
            assert_bit_identical(reference, ref_stream, ref_cache,
                                 candidate, cand_stream, cand_cache)
            # jobs == 1 degrades to pure sequential: bets queue behind
            # the real trial and are always cancelled while queued.
            stats = candidate.stats
            assert stats["wasted_trials"] == 0
            assert stats["executed"] == reference.stats["executed"]

    @pytest.mark.parametrize("strategy", sorted(SEARCHES))
    @pytest.mark.parametrize("k", [1, 3])
    def test_process_executor(self, tmp_path, strategy, k):
        make = SEARCHES[strategy]
        ref_cache = ResultCache(tmp_path / "seq")
        reference, ref_stream = run_once(make(), jobs=1, cache=ref_cache)
        cand_cache = ResultCache(tmp_path / f"spec{k}")
        candidate, cand_stream = run_once(
            make(speculation=k), jobs=4, cache=cand_cache)
        assert_bit_identical(reference, ref_stream, ref_cache,
                             candidate, cand_stream, cand_cache)

    def test_warm_cache_replay_identical(self, tmp_path):
        # Both runs warm: every trial is a cache hit (speculative bets
        # included — a bet on a cached config is held, not re-run), and
        # the hit accounting matches the sequential run's exactly.
        make = SEARCHES["layer-bits"]
        ref_cache = ResultCache(tmp_path / "seq")
        run_once(make(), jobs=1, cache=ref_cache)
        reference, ref_stream = run_once(make(), jobs=1, cache=ref_cache)
        cand_cache = ResultCache(tmp_path / "spec")
        run_once(make(speculation=2), jobs=2, cache=cand_cache)
        candidate, cand_stream = run_once(
            make(speculation=2), jobs=2, cache=cand_cache)
        assert_bit_identical(reference, ref_stream, ref_cache,
                             candidate, cand_stream, cand_cache)
        assert candidate.stats["cached"] == reference.stats["cached"]
        assert candidate.stats["cache_hits"] == reference.stats["cache_hits"]
        assert candidate.stats["executed"] == 0


BET_COUNTERS = ("speculated", "confirmed", "cancelled", "wasted_trials")


def submitted_after_cancel(events) -> list:
    """Task indices the driver submitted after it had cancelled them."""
    cancelled, late = set(), []
    for kind, index, _ in events:
        if kind == "cancel":
            cancelled.add(index)
        elif kind == "submit" and index in cancelled:
            late.append(index)
    return late


class TestBetPlacement:
    """Where the bets go: the order and disposition of every executor
    call, which is what sets a speculative search's wall time."""

    # speculated/confirmed/cancelled/wasted_trials on a cold cache, at
    # jobs 1 (the real serial executor) and jobs 4 (the scripted pool).
    COLD = {
        ("ad-bits", 1): ((3, 2, 1, 0), (3, 2, 1, 1)),
        ("ad-bits", 2): ((3, 2, 1, 0), (3, 2, 1, 1)),
        ("ad-bits", 3): ((4, 2, 2, 0), (4, 2, 2, 2)),
        ("layer-bits", 1): ((5, 3, 2, 0), (5, 3, 2, 2)),
        ("layer-bits", 2): ((7, 4, 3, 0), (7, 4, 3, 3)),
        ("layer-bits", 3): ((8, 4, 4, 0), (8, 4, 4, 4)),
    }

    @pytest.mark.parametrize("strategy", sorted(SEARCHES))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cold_counters(self, tmp_path, recorded, strategy, k):
        for jobs, expected in zip((1, 4), self.COLD[strategy, k]):
            result, _, events = recorded(
                SEARCHES[strategy](speculation=k), jobs,
                ResultCache(tmp_path / f"jobs{jobs}"))
            assert tuple(result.stats[key] for key in BET_COUNTERS) \
                == expected
            assert submitted_after_cancel(events) == []

    @pytest.mark.parametrize("strategy", sorted(SEARCHES))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_serial_submits_only_confirmed_bets(self, tmp_path, recorded,
                                                strategy, k):
        # At jobs 1 the one slot always goes to work the search waits
        # on, so a bet is submitted only after a proposal adopted it,
        # and no bet is ever cancelled in the executor.
        result, _, events = recorded(SEARCHES[strategy](speculation=k), 1,
                                     ResultCache(tmp_path / "cache"))
        bets = [index for kind, index, _ in events
                if kind == "submit" and index < 0]
        assert [event for event in events if event[0] == "cancel"] == []
        assert len(bets) == result.stats["confirmed"]

    def test_ad_bits_event_list(self, tmp_path, recorded):
        # 8 runs with a bet on the saturated step 7; 8's density puts
        # the real trial at 4, so 7 is cancelled mid-run and 4 races
        # bets on 2 (eqn. 3), 3 (saturated step) and 6 (bisection).
        # The abandoned 7 still holds a worker, so 6 waits in the drive
        # until 7's outcome (dropped unread) frees it.  4 is feasible
        # and its density confirms 2; 2 fails and the bisection
        # confirms 3, so the running bet on 6 is abandoned.
        _, _, events = recorded(ad_search(speculation=3), 4,
                                ResultCache(tmp_path / "cache"))
        assert events == [
            ("submit", 0, "ib8"), ("submit", -1, "ib7"),
            ("result", 0, "ok"),
            ("cancel", -1, "running"),
            ("submit", 1, "ib4"), ("submit", -2, "ib2"),
            ("submit", -3, "ib3"),
            ("result", -1, "ok"),
            ("submit", -4, "ib6"),
            ("result", 1, "ok"),
            ("cancel", -4, "running"),
            ("result", -2, "ok"), ("result", -3, "ok"),
        ]


class TestWarmBets:
    """A partly or fully cached search never trains a bet it already
    cancelled, and a fully cached one trains nothing at all."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_partially_warm_search_submits_nothing_it_cancelled(
            self, tmp_path, recorded, jobs, k):
        # The scalar search caches exactly the layer search's seed
        # trials, so the seed phase replays and the layer moves train.
        cache = ResultCache(tmp_path / "cache")
        run_once(ad_search(), jobs=1, cache=cache)
        result, _, events = recorded(layer_search(speculation=k), jobs, cache)
        assert submitted_after_cancel(events) == []
        assert result.stats["cached"] == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("strategy", sorted(SEARCHES))
    def test_fully_warm_replay_submits_nothing(self, tmp_path, recorded,
                                               jobs, strategy):
        cache = ResultCache(tmp_path / "cache")
        reference, _ = run_once(SEARCHES[strategy](), jobs=1, cache=cache)
        result, _, events = recorded(
            SEARCHES[strategy](speculation=3), jobs, cache)
        assert [event for event in events if event[0] == "submit"] == []
        assert result.stats["cached"] == reference.stats["total"]


class TestSerialRunsRealTrialsFirst:
    """At jobs 1 a bet that survives a round waits behind the next real
    trial instead of training ahead of it."""

    def test_surviving_bet_never_trains(self, tmp_path, recorded,
                                        monkeypatch):
        # Near-equal conv1/conv2 weights, so each accepted move re-ranks
        # the layers, and a lower feasibility bar, so conv1=3 and then
        # conv2=3 are both accepted.  The stale-ranking bet 4/2/4/4,
        # placed while conv1=3 runs, survives the next round as the
        # rejection chain's bet while the real move goes to conv2=3.
        # The budget's last trial is 4/2/3/4, so the bet is never
        # adopted: trained first, it would be wasted.
        monkeypatch.setitem(WEIGHTS, "conv1", 10.0)
        monkeypatch.setitem(WEIGHTS, "conv2", 9.0)
        monkeypatch.setattr(sys.modules[__name__], "FEASIBLE_MEAN_BITS", 3.5)
        cache = ResultCache(tmp_path / "cache")
        run_once(ad_search(), jobs=1, cache=cache)
        result, _, events = recorded(
            layer_search(speculation=3, seed_trials=2, max_trials=5), 1,
            cache)
        trainings = [index for kind, index, _ in events if kind == "result"]
        assert trainings == [2, 3, 4]
        assert result.stats["executed"] == 3
        assert result.stats["cached"] == 2
        assert result.stats["wasted_trials"] == 0


class TestStoppedDrivesSettleBets:
    """A drive that stops early cancels its live bets first, so every
    bet is still either confirmed or cancelled."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_search(self, tmp_path, recorded, jobs):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(SweepInterrupted) as stopped:
            recorded(layer_search(speculation=2), jobs, cache,
                     interrupt=lambda: len(cache.keys()) >= 2)
        stats = stopped.value.result.stats
        assert stats["executed"] == 2
        assert stats["speculated"] >= 1
        assert stats["speculated"] == stats["confirmed"] + stats["cancelled"]


class TestQuarantine:
    """Cancelled bets must never become observable anywhere."""

    def test_cancelled_bet_absent_from_cache_and_stream(self, tmp_path):
        # The very first AD bet is known: with no density estimate yet,
        # the wrapper bets on the saturated 1-bit step (bits=7) while
        # trial 8 runs; the real next trial is 4, so the bet is always
        # cancelled.  Its config must never reach the cache or any
        # streamed payload — even under the process executor, where the
        # bet genuinely executes on a worker before the cancel lands.
        search = ad_search(speculation=3)
        loser = spec_base().evolve(quant={"initial_bits": 7})
        cache = ResultCache(tmp_path / "cache")
        result, stream = run_once(search, jobs=4, cache=cache)

        assert cache.load(loser) is None
        assert loser.cache_key() not in cache.keys()
        trial_keys = {p.key for p in result.points}
        assert loser.cache_key() not in trial_keys
        assert set(cache.keys()) == trial_keys
        for write in stream.writes:
            streamed = {point["key"] for point in write["points"]}
            assert streamed <= trial_keys
            assert loser.cache_key() not in streamed

    def test_speculative_labels_never_streamed(self, tmp_path):
        for make in SEARCHES.values():
            result, stream = run_once(
                make(speculation=2), jobs=4,
                cache=ResultCache(tmp_path / make().name))
            assert all("speculative:" not in p.label
                       for p in result.points)
            for write in stream.writes:
                assert all("speculative:" not in point["label"]
                           for point in write["points"])


class TestAccounting:
    """Satellite: speculation stats surface in ``.stats`` only —
    excluded from ``to_dict()`` exactly like the cache stats."""

    SPEC_KEYS = {"speculated", "confirmed", "cancelled", "wasted_trials"}

    def test_stats_present_and_settled(self, tmp_path):
        result, _ = run_once(ad_search(speculation=2), jobs=2,
                             cache=ResultCache(tmp_path / "c"))
        stats = result.stats
        assert self.SPEC_KEYS <= set(stats)
        # Every bet settles as exactly one of confirmed / cancelled,
        # and only cancelled bets can waste a worker's work.
        assert stats["speculated"] == \
            stats["confirmed"] + stats["cancelled"]
        assert stats["confirmed"] >= 1  # the landscape is predictable
        assert 0 <= stats["wasted_trials"] <= stats["cancelled"]

    def test_stats_excluded_from_payloads(self, tmp_path):
        result, stream = run_once(ad_search(speculation=2), jobs=2,
                                  cache=ResultCache(tmp_path / "c"))
        assert not self.SPEC_KEYS & set(result.to_dict()["stats"])
        for write in stream.writes:
            assert not self.SPEC_KEYS & set(write["stats"])

    def test_sequential_runs_carry_no_speculation_stats(self, tmp_path):
        result, _ = run_once(ad_search(), jobs=1,
                             cache=ResultCache(tmp_path / "c"))
        assert not self.SPEC_KEYS & set(result.stats)


class TestConfigSurface:
    """The ``speculation`` knob's validation and serialization."""

    def test_rejected_for_halving(self):
        with pytest.raises(ValueError, match="halving"):
            ad_search(strategy="halving", speculation=2, min_bits=2,
                      budgets=(1, 2), axes=())

    def test_rejected_when_negative(self):
        with pytest.raises(ValueError, match="speculation"):
            ad_search(speculation=-1)

    def test_excluded_from_dict_and_cache_key(self):
        plain, speculated = ad_search(), ad_search(speculation=3)
        assert "speculation" not in plain.to_dict()
        assert speculated.to_dict() == plain.to_dict()
        assert speculated.cache_key() == plain.cache_key()

    def test_round_trip_defaults_off(self):
        rebuilt = SearchConfig.from_dict(ad_search(speculation=3).to_dict())
        assert rebuilt.speculation == 0

    def test_build_scheduler_wraps_only_when_on(self):
        assert isinstance(build_scheduler(ad_search(speculation=1)),
                          SpeculativeScheduler)
        assert not isinstance(build_scheduler(ad_search()),
                              SpeculativeScheduler)

    def test_wrapper_needs_a_speculatable_scheduler(self):
        class Opaque:
            name = "opaque"

            def next_points(self, completed):
                return []

        with pytest.raises(TypeError, match="speculative_candidates"):
            SpeculativeScheduler(Opaque(), 2)
