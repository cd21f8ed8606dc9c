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
    DONE,
    ResultCache,
    SerialExecutor,
    SweepInterrupted,
    SweepPoint,
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

    # At jobs 4 every bet runs; at jobs 2 only the top-ranked one does,
    # so the rank decides which bets train ahead of their proposal.
    @pytest.mark.parametrize("jobs", [4, 2])
    @pytest.mark.parametrize("strategy", sorted(SEARCHES))
    @pytest.mark.parametrize("k", [1, 3])
    def test_process_executor(self, tmp_path, strategy, k, jobs):
        make = SEARCHES[strategy]
        ref_cache = ResultCache(tmp_path / "seq")
        reference, ref_stream = run_once(make(), jobs=1, cache=ref_cache)
        cand_cache = ResultCache(tmp_path / f"spec{k}")
        candidate, cand_stream = run_once(
            make(speculation=k), jobs=jobs, cache=cand_cache)
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


BET_COUNTERS = ("speculated", "confirmed", "head_starts", "cancelled",
                "wasted_trials")


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

    # BET_COUNTERS on a cold cache, at jobs 1 (the real serial
    # executor: no bet runs before its proposal, so no head start and
    # no waste) and jobs 4 (the scripted pool: every bet runs, so each
    # confirmed bet has a head start and each cancelled one is wasted
    # unless cancelled while queued).  Each round's bets, ranked by
    # rank_bets over the verdicts after the reference:
    #   8 runs:  [7]; no density yet, so only the 1-bit step; lost to 4.
    #   4 runs:  [6, 2, 3]; no verdict yet, so the bisection 6 (exact)
    #            outranks eqn. 3's 2 and the 1-bit step 3 (guessed).
    #            4 is accepted, so 2 is confirmed and 6 lost: k 1 bets
    #            on 6 alone and confirms nothing here.
    #   2 runs:  [3]; one feasible verdict, but nothing lies below 2,
    #            so only the bisection; 2 fails and 3 is confirmed.
    # ad-bits: k 1 bets 7, 6, 3 (confirms 3); k 2 and 3 bet 7, 6, 2, 3
    # (3 is already live when k is 3) and confirm 2 and 3.
    # layer-bits adds its moves from the uniform-4 survivor:
    #   conv1=3 runs: [conv2=3, conv1=2]; one of three verdicts
    #            feasible, so the rejection's move comes first.  conv1=3
    #            is accepted, so conv1=2 is confirmed and conv2=3 lost.
    #   conv1=2 runs: [conv2=3 on 4/3/4/4, conv1=2 plus conv2=3]; two of
    #            four feasible, a tie, so the rejection first again.
    #            conv1=2 fails, so conv2=3 is confirmed.
    # k 1 adds 2 bets and 1 confirmed; k 2 and 3 add 4 and 2.
    COLD = {
        ("ad-bits", 1): ((3, 1, 0, 2, 0), (3, 1, 1, 2, 2)),
        ("ad-bits", 2): ((4, 2, 0, 2, 0), (4, 2, 2, 2, 2)),
        ("ad-bits", 3): ((4, 2, 0, 2, 0), (4, 2, 2, 2, 2)),
        ("layer-bits", 1): ((5, 2, 0, 3, 0), (5, 2, 2, 3, 3)),
        ("layer-bits", 2): ((8, 4, 0, 4, 0), (8, 4, 4, 4, 4)),
        ("layer-bits", 3): ((8, 4, 0, 4, 0), (8, 4, 4, 4, 4)),
    }

    @pytest.mark.parametrize("strategy", sorted(SEARCHES))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cold_counters(self, tmp_path, recorded, strategy, k):
        for jobs, expected in zip((1, 4), self.COLD[strategy, k]):
            result, _, events = recorded(
                SEARCHES[strategy](speculation=k), jobs,
                ResultCache(tmp_path / f"jobs{jobs}"))
            stats = result.stats
            assert tuple(stats[key] for key in BET_COUNTERS) == expected
            assert stats["speculated"] == \
                stats["confirmed"] + stats["cancelled"]
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
        assert result.stats["head_starts"] == 0

    def test_ad_bits_event_list(self, tmp_path, recorded):
        # 8 runs with a bet on the saturated step 7; 8's density puts
        # the real trial at 4, so 7 is cancelled mid-run and 4 races
        # bets on 6 (bisection: no verdict after the reference yet, so
        # the exact branch ranks first), 2 (eqn. 3) and 3 (saturated
        # step).  The abandoned 7 still holds a worker, so 3 waits in
        # the drive until 7's outcome (dropped unread) frees it.  4 is
        # feasible and its density confirms 2, so the running bet on 6
        # is abandoned; 2 fails and the bisection confirms 3.
        _, _, events = recorded(ad_search(speculation=3), 4,
                                ResultCache(tmp_path / "cache"))
        assert events == [
            ("submit", 0, "ib8"), ("submit", -1, "ib7"),
            ("result", 0, "ok"),
            ("cancel", -1, "running"),
            ("submit", 1, "ib4"), ("submit", -2, "ib6"),
            ("submit", -3, "ib2"),
            ("result", -1, "ok"),
            ("submit", -4, "ib3"),
            ("result", 1, "ok"),
            ("cancel", -2, "running"),
            ("result", -2, "ok"), ("result", -3, "ok"),
            ("result", -4, "ok"),
        ]

    def test_rejection_heavy_search_trains_the_bets_it_adopts(
            self, tmp_path, recorded, monkeypatch):
        # A feasibility bar at mean width 7 rejects as the bench search
        # does: 8 (reference), 4 (eqn. 3) fails, 6 (bisection) fails,
        # 7 holds; from uniform-7 both one-bit moves fail.  With no
        # verdict or mostly rejections behind every fork, the exact
        # branch ranks first, so the one spare worker trains the
        # bisections 6 and 7 and the rejection's move conv2=6 ahead of
        # their proposals.  Only the 1-bit step 7 (the sole bet while
        # the reference runs) and conv2=5 (the sole bet while the last
        # move runs) are wasted; ranking the guessed branch first at
        # every fork would waste five.
        monkeypatch.setattr(sys.modules[__name__], "FEASIBLE_MEAN_BITS", 7.0)
        ref_cache = ResultCache(tmp_path / "seq")
        reference, ref_stream = run_once(layer_search(), jobs=1,
                                         cache=ref_cache)
        assert list(reference.feasibility.values()) == \
            [True, False, False, True, False, False]
        cand_cache = ResultCache(tmp_path / "spec")
        result, stream, events = recorded(layer_search(speculation=3), 2,
                                          cand_cache)
        assert_bit_identical(reference, ref_stream, ref_cache,
                             result, stream, cand_cache)
        assert events == [
            ("submit", 0, "ib8"), ("submit", -1, "ib7"),
            ("result", 0, "ok"),
            ("cancel", -1, "running"),
            ("submit", 1, "ib4"),
            ("result", -1, "ok"),
            ("submit", -2, "ib6"),
            ("result", 1, "ok"),
            ("submit", -5, "ib7"),
            ("result", -2, "ok"),
            ("result", -5, "ok"),
            ("submit", 4, "7/6/7/7"), ("submit", -7, "7/7/6/7"),
            ("result", 4, "ok"),
            ("submit", -9, "7/7/5/7"),
            ("result", -7, "ok"),
            ("cancel", -9, "running"),
        ]
        assert tuple(result.stats[key] for key in BET_COUNTERS) == \
            (9, 3, 3, 6, 2)

    def test_accept_heavy_search_bets_on_the_guess(
            self, tmp_path, recorded, monkeypatch):
        # Every width is feasible, so the descent from 16 takes eqn. 3
        # at each step: 16, 11, 7, 4, 2, 1.  While 16 runs the only
        # bet is the 1-bit step 15 (no density yet); while 11 runs no
        # verdict after the reference exists, so the bisection 13
        # (exact) ranks first.  Both are wasted.  From then on every
        # verdict was feasible, so the guess ranks first: eqn. 3 at
        # the last finished trial's density names 4, 2 and 1 while 7,
        # 4 and 2 run, and each is adopted with a head start.  Ranking
        # the exact branch first at every fork would train the
        # bisections 9, 5 and 3 instead, and waste all five bets.
        monkeypatch.setattr(sys.modules[__name__], "FEASIBLE_MEAN_BITS", 0.0)
        base = spec_base().evolve(quant={"initial_bits": 16})
        ref_cache = ResultCache(tmp_path / "seq")
        reference, ref_stream = run_once(
            ad_search(base=base, min_bits=1, max_trials=8), jobs=1,
            cache=ref_cache)
        assert all(reference.feasibility.values())
        cand_cache = ResultCache(tmp_path / "spec")
        result, stream, events = recorded(
            ad_search(base=base, min_bits=1, max_trials=8, speculation=1),
            2, cand_cache)
        assert_bit_identical(reference, ref_stream, ref_cache,
                             result, stream, cand_cache)
        assert events == [
            ("submit", 0, "ib16"), ("submit", -1, "ib15"),
            ("result", 0, "ok"),
            ("cancel", -1, "running"),
            ("submit", 1, "ib11"),
            ("result", -1, "ok"),
            ("submit", -2, "ib13"),
            ("result", 1, "ok"),
            ("cancel", -2, "running"),
            ("submit", 2, "ib7"),
            ("result", -2, "ok"),
            ("submit", -3, "ib4"),
            ("result", 2, "ok"),
            ("submit", -4, "ib2"),
            ("result", -3, "ok"),
            ("submit", -5, "ib1"),
            ("result", -4, "ok"),
            ("result", -5, "ok"),
        ]
        assert tuple(result.stats[key] for key in BET_COUNTERS) == \
            (5, 3, 3, 2, 2)

    def test_spare_workers_train_the_rejection_chain_first(
            self, tmp_path, recorded, monkeypatch):
        # A third movable layer, conv3, makes the rejection chain two
        # moves long, and the bench search's feasibility bar (mean
        # width 7) makes every one-bit move from the uniform-7 seed
        # survivor fail.  The scalar search caches the seed trials, so
        # only the layer moves train, at jobs 3 (two spare workers) and
        # k 2.  Two of the three verdicts after the reference were
        # rejections, so while conv1=6 runs the bets are conv2=6 and
        # conv3=6, the whole chain; the accept-guess conv1=5 ranks
        # third and drops out.  conv1=6 fails and adopts the running
        # conv2=6; conv3=6 is still live and running, so the freed
        # worker trains the next guess 7/7/5/7/7, wasted when conv2=6
        # fails too.  conv3=6 had a head start from the first fork.
        # Ranking the guess second would train conv1=5 there and start
        # conv3=6 only after conv1=6's verdict.
        module = sys.modules[__name__]
        monkeypatch.setattr(module, "LAYERS",
                            ("conv0", "conv1", "conv2", "conv3", "fc"))
        monkeypatch.setattr(module, "WEIGHTS", dict(WEIGHTS, conv3=5.0))
        monkeypatch.setattr(module, "FEASIBLE_MEAN_BITS", 7.0)
        cache = ResultCache(tmp_path / "cache")
        run_once(ad_search(), jobs=1, cache=cache)
        result, _, events = recorded(layer_search(speculation=2), 3, cache)
        assert list(result.feasibility.values())[4:] == [False] * 3
        assert events == [
            ("submit", 4, "7/6/7/7/7"),
            ("submit", -1, "7/7/6/7/7"), ("submit", -2, "7/7/7/6/7"),
            ("result", 4, "ok"),
            ("submit", -3, "7/7/5/7/7"),
            ("result", -1, "ok"),
            ("cancel", -3, "running"),
            ("result", -2, "ok"),
        ]
        assert tuple(result.stats[key] for key in BET_COUNTERS) == \
            (3, 2, 2, 1, 1)

    def test_new_bet_outranking_a_queued_survivor_runs_first(
            self, monkeypatch):
        # While ib8 runs the scheduler bets on ib6, then ib5; while ib4
        # runs, on ib7, then ib5.  At jobs 2, ib6 runs beside ib8 and
        # ib5 waits in the drive.  The next round cancels the running
        # ib6, keeps the queued ib5 and places ib7 above it, so when
        # ib6's worker frees up the new, higher-ranked ib7 starts.
        base = spec_base()

        def config(bits):
            return base.evolve(quant={"initial_bits": bits})

        class Reranking:
            name = "rerank"

            def __init__(self):
                self.proposed = 0

            def next_points(self, completed):
                if len(completed) < self.proposed:
                    return []
                if self.proposed == 2:
                    return DONE
                bits = (8, 4)[self.proposed]
                self.proposed += 1
                return [SweepPoint(label=f"ib{bits}", config=config(bits),
                                   index=self.proposed - 1)]

            def bets(self):
                return [config(bits)
                        for bits in ((6, 5), (7, 5))[self.proposed - 1]]

        events = []
        monkeypatch.setattr(
            SweepRunner, "_make_executor",
            lambda runner: ScriptedPool(runner.jobs, runner.execute, events))
        result = SweepRunner(jobs=2, execute=fake_execute).run_scheduler(
            Reranking())
        assert events == [
            ("submit", 0, "ib8"), ("submit", -1, "ib6"),
            ("result", 0, "ok"),
            ("cancel", -1, "running"),
            ("submit", 1, "ib4"),
            ("result", -1, "ok"),
            ("submit", -3, "ib7"),
            ("result", 1, "ok"),
            ("cancel", -3, "running"),
        ]
        assert tuple(result.stats[key] for key in BET_COUNTERS) == \
            (3, 0, 0, 3, 2)


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

    SPEC_KEYS = {"speculated", "confirmed", "head_starts", "cancelled",
                 "wasted_trials"}

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
        # Only a confirmed bet can have had a head start.
        assert 0 <= stats["head_starts"] <= stats["confirmed"]

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
