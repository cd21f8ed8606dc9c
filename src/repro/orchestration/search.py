"""Adaptive bit-width search: schedulers where results propose points.

The paper's loop is *reactive* — watch activation density, then lower
precision — and this module lifts that reactivity from the epoch level
to the experiment level: completed runs propose the next run's
:class:`~repro.api.config.QuantConfig`.  Three strategies ship:

* :class:`ADSearchScheduler` (``strategy="ad-bits"``) — an AD-guided
  descent over the schedule's starting precision.  The first trial runs
  the base config unchanged (the accuracy reference); each feasible
  trial proposes the next ``initial_bits`` by the paper's eqn.-3 rule
  (:func:`repro.core.ad_quant.scale_bits` applied to the run's final
  total AD), falling back to a single-bit step when AD has saturated and
  to upward bisection when a trial overshoots the accuracy-drop budget.
  The best trial maximizes the energy objective (the analytical
  :mod:`repro.energy.analytical` efficiency reported by every run)
  among trials within the budget.
* :class:`LayerBitSearchScheduler` (``strategy="layer-bits"``) — a
  per-layer bit-vector refinement: a scalar AD seed phase
  (``seed_trials``) finds a survivor assignment, then one trial per
  move steps the layer with the largest analytical-energy share down a
  bit, pinned via ``quant.layer_bits`` + ``quant.layer_frozen``, inside
  the accuracy-drop budget.
* :class:`SuccessiveHalvingScheduler` (``strategy="halving"``) — a
  grid over ``axes`` evaluated in rungs of increasing ``budgets``
  (values written to ``budget_path``); after each rung only the top
  ``keep`` fraction by accuracy advances, so low-accuracy grid regions
  are pruned before they consume full-budget training.

A :class:`SearchConfig` declares either strategy and is JSON
round-trippable with ``cache_key()`` parity, matching
:mod:`repro.api.config`; trials are ordinary evolved
:class:`~repro.api.config.ExperimentConfig` points, so they share the
content-addressed result cache with ``repro run`` and ``repro sweep`` —
re-running a search is free, and the best-found config replays as a
cache hit anywhere.

Searches are inherently sequential in their dependencies (trial N+1
needs trial N's results), so they cannot be sharded; the CLI rejects
``--shard`` for ``repro search`` and cross-host reuse flows through the
cache instead.

They can, however, be *speculated*: most next-trial decisions are
predictable from the current one (the eqn.-3 step, its 1-bit/bisection
fallbacks, the next energy-ranked layer moves), so with
``SearchConfig.speculation = K`` (``repro search --speculate K``) a
:class:`SpeculativeScheduler` wraps the sequential scheduler and names
its top-K predicted next trials, which the driver races on idle
workers; the driver adopts the bet whose config the sequential decision
actually picks and cancels the rest.  The sequential scheduler only
ever sees the results of real proposals, so the chosen
trial sequence — reports, bit vectors, cache contents — is bit-identical
to the unspeculated search; speculation only changes which configs are
bet on early, never which results are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.api.config import ExperimentConfig, _ConfigBase, _from_dict
from repro.orchestration.runner import (
    PointResult,
    SweepResult,
    SweepRunner,
    execute_point,
    sweep_out_payload,
)
from repro.orchestration.scheduler import DONE, Done, Scheduler
from repro.orchestration.sweep import SweepAxis, SweepConfig, SweepPoint, expand

STRATEGIES = ("ad-bits", "layer-bits", "halving")
OBJECTIVES = ("energy_efficiency", "test_accuracy")


@dataclass(frozen=True)
class SearchConfig(_ConfigBase):
    """A declarative adaptive search, JSON round-trippable and hashable.

    Exactly one of ``base`` / ``preset`` supplies the base experiment.
    ``accuracy_drop`` is the absolute test-accuracy budget relative to
    the search's reference trial; ``objective`` picks what "best" means
    among trials within that budget.  The halving strategy additionally
    takes a grid (``axes``), a budget knob (``budget_path``, written
    with each of ``budgets`` in turn), and the survivor fraction
    ``keep``.

    ``speculation`` (default 0 = off) races up to that many predicted
    next trials on idle workers alongside each real one (see
    :class:`SpeculativeScheduler`).  It is an *execution* knob like
    ``--jobs`` — results are bit-identical at any value — so it is
    excluded from :meth:`to_dict` (and therefore from ``cache_key()``
    and every transport payload).
    """

    name: str = "search"
    base: ExperimentConfig | None = None
    preset: str = ""
    strategy: str = "ad-bits"
    objective: str = "energy_efficiency"
    accuracy_drop: float = 0.02
    max_trials: int = 8
    min_bits: int = 2
    seed_trials: int = 0
    speculation: int = 0
    axes: tuple = ()
    budget_path: str = "quant.max_iterations"
    budgets: tuple = ()
    keep: float = 0.5
    description: str = ""

    _nested = {"base": ExperimentConfig}

    def __post_init__(self):
        if not self.name:
            raise ValueError("search name must be non-empty")
        if (self.base is None) == (not self.preset):
            raise ValueError("provide exactly one of base / preset")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown search strategy {self.strategy!r} "
                f"(choose from {STRATEGIES})"
            )
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown search objective {self.objective!r} "
                f"(choose from {OBJECTIVES})"
            )
        if self.accuracy_drop < 0:
            raise ValueError("accuracy_drop must be >= 0")
        if self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")
        if self.min_bits < 1:
            raise ValueError("min_bits must be >= 1")
        if self.speculation < 0:
            raise ValueError("speculation must be >= 0")
        if self.speculation and self.strategy == "halving":
            raise ValueError(
                "speculation only applies to the sequential ad-bits / "
                "layer-bits strategies (halving rungs already fan out "
                "under --jobs)"
            )
        for axis in self.axes:
            if not isinstance(axis, SweepAxis):
                raise TypeError(f"not a SweepAxis: {axis!r}")
        if self.strategy == "layer-bits":
            if self.seed_trials < 0:
                raise ValueError("seed_trials must be >= 0")
            if self.seed_trials >= self.max_trials:
                raise ValueError(
                    f"seed_trials ({self.seed_trials}) must leave room "
                    f"for layer moves within max_trials ({self.max_trials})"
                )
        elif self.seed_trials:
            raise ValueError(
                "seed_trials only applies to the layer-bits strategy"
            )
        if self.strategy == "halving":
            if not self.budgets:
                raise ValueError("the halving strategy needs budgets")
            if list(self.budgets) != sorted(set(self.budgets)):
                raise ValueError(
                    f"halving budgets must be strictly increasing, "
                    f"got {list(self.budgets)}"
                )
            if not self.budget_path:
                raise ValueError("budget_path must be non-empty")
            if not 0 < self.keep < 1:
                raise ValueError("keep must be in (0, 1)")
        elif self.axes or self.budgets:
            raise ValueError(
                "axes/budgets only apply to the halving strategy"
            )

    # ------------------------------------------------------------------
    # Dict round-trip needs custom handling: ``base`` may be None and
    # ``axes`` is a tuple of SweepAxis dataclasses.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "speculation":
                # Execution knob, not an experiment parameter: results
                # are bit-identical at any value, so serialized forms
                # (cache keys, --out payloads) must not vary with it.
                continue
            if spec.name == "base":
                out["base"] = None if value is None else value.to_dict()
            elif spec.name == "axes":
                out["axes"] = [
                    {"path": axis.path, "values": list(axis.values)}
                    for axis in value
                ]
            elif isinstance(value, tuple):
                out[spec.name] = list(value)
            else:
                out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchConfig":
        if not isinstance(payload, dict):
            raise TypeError(
                f"SearchConfig payload must be a dict, "
                f"got {type(payload).__name__}"
            )
        payload = dict(payload)
        axes = tuple(
            axis
            if isinstance(axis, SweepAxis)
            else SweepAxis(axis["path"], tuple(axis["values"]))
            for axis in payload.pop("axes", ())
        )
        if payload.get("base") is None:
            # A null base (preset-backed search) must fall through to the
            # field default; _from_dict insists nested fields be dicts.
            payload.pop("base", None)
        config = _from_dict(cls, {**payload, "axes": ()})
        return config.evolve(axes=axes) if axes else config


def resolve_base(search: SearchConfig) -> ExperimentConfig:
    """The search's base experiment config (inline or registry preset).

    Raises when the energy objective is asked of a pipeline that never
    computes comparable energies: the per-run ``energy_efficiency``
    ratio is measured against each trial's *own* starting precision, so
    ranking trials needs the analytical stage's absolute
    ``model_total_pj`` (see :func:`trial_metrics`).
    """
    if search.base is not None:
        base = search.base
    else:
        from repro.api import experiments

        base = experiments.get_config(search.preset)
    if search.objective == "energy_efficiency" and not base.energy.analytical:
        raise ValueError(
            f"search {search.name!r} ranks by the energy objective but its "
            "base config disables the analytical energy stage "
            "(energy.analytical=false), so trials carry no comparable "
            "absolute energy; enable it or use objective='test_accuracy'"
        )
    return base


def final_row_of(result: PointResult) -> dict | None:
    """The last report row of a completed point, as a plain dict."""
    if result is None or not result.payload:
        return None
    rows = (result.payload.get("report") or {}).get("rows") or []
    return rows[-1] if rows else None


def trial_metrics(result: PointResult) -> dict | None:
    """A trial's final row plus its *absolute* analytical energy.

    A run's reported ``energy_efficiency`` is measured against that
    run's own starting precision (the baseline profiles captured at
    context preparation), so it is **not** comparable across trials that
    start at different bit-widths.  The analytical-energy artifact's
    ``model_total_pj`` is absolute — same architecture, same
    :mod:`repro.energy.analytical` constants — and is what search
    objectives rank by; ``baseline_total_pj`` (the trial's uniform-start
    network) rides along for beats-the-baseline comparisons.
    """
    row = final_row_of(result)
    if row is None:
        return None
    metrics = dict(row)
    artifacts = result.payload.get("artifacts") or {}
    energy = artifacts.get("analytical_energy")
    if isinstance(energy, dict):
        for field_name in ("model_total_pj", "baseline_total_pj"):
            if field_name in energy:
                metrics[field_name] = energy[field_name]
    return metrics


def bit_vector_of(result: PointResult) -> dict | None:
    """A completed trial's final per-layer assignment as ``{name: bits}``.

    Pairs the report's ``layer_names`` with the final row's
    ``bit_widths`` — the form :meth:`QuantizationPlan.from_bit_vector`
    accepts, and the payload the ``repro search --out`` ``"search"``
    section publishes for the winning trial.
    """
    if result is None or not result.payload:
        return None
    report = result.payload.get("report") or {}
    names = report.get("layer_names") or []
    row = final_row_of(result)
    if row is None or not names:
        return None
    bits = row.get("bit_widths") or []
    if len(bits) != len(names):
        return None
    return dict(zip(names, bits))


def rank_bets(trials: list[dict], exact: list, guessed: list) -> list:
    """A fork's bets, the branch this search keeps taking first.

    The in-flight trial's pending verdict forks the schedule.  The
    *exact* branch is the rejection: its next proposal needs no metric
    from the trial in flight, so a bet on it is adopted whenever the
    branch happens; a layer search's further moves (``exact[1:]``)
    follow only if more rejections do.  The *guessed* branch is the
    acceptance: its next proposal stands in for numbers that trial has
    not produced yet, so a bet on it is adopted only if the branch
    happens *and* the stand-in rounds to the same proposal.
    ``trials`` (reference first) say which branch the search has been
    taking: the guessed branch ranks first only when most finished
    verdicts after the reference (feasible by definition, so not
    counted) were feasible; a tie, or no verdict yet, goes to the exact
    branch, and then its whole chain ranks ahead of the guess: on a
    search that mostly rejects, a move two rejections away is still
    likelier than an acceptance.
    """
    verdicts = [t["feasible"] for t in trials[1:] if t["feasible"] is not None]
    if 2 * sum(verdicts) > len(verdicts):
        return guessed + exact
    return exact + guessed


def objective_value(objective: str, metrics: dict) -> float:
    """The (maximized) score of a trial under ``objective``.

    ``energy_efficiency`` scores by the reciprocal of the absolute
    analytical model energy when the trial carries it (see
    :func:`trial_metrics`), falling back to the trial's own reported
    ratio when the pipeline ran without the analytical energy stage —
    the fallback applies to all trials of a search alike, since they
    share one base config.
    """
    if objective == "energy_efficiency":
        model_pj = metrics.get("model_total_pj")
        if model_pj:
            return 1.0 / model_pj
    return metrics[objective]


class ADSearchScheduler(Scheduler):
    """AD-guided descent over ``quant.initial_bits`` (eqn. 3, lifted).

    Sequential by design: each trial's final total activation density
    decides the next starting precision, so exactly one point is in
    flight at any time.  Feasibility is judged against the *first*
    trial's accuracy (the base config at its own precision); the best
    trial maximizes ``search.objective`` among feasible ones,
    tie-breaking toward fewer bits.
    """

    def __init__(self, search: SearchConfig):
        if search.strategy != "ad-bits":
            raise ValueError(
                f"ADSearchScheduler needs strategy 'ad-bits', "
                f"got {search.strategy!r}"
            )
        self.search = search
        self.base = resolve_base(search)
        self.name = search.name
        self._trials: list[dict] = []
        self._tried: set[int] = set()
        self._in_flight = False
        self._seen = 0
        self._next_bits: int | None = self.base.quant.initial_bits
        self._ref_accuracy: float | None = None

    # ------------------------------------------------------------------
    def next_points(self, completed) -> list[SweepPoint] | Done:
        for result in completed[self._seen:]:
            self._seen += 1
            self._absorb(result)
        if self._in_flight:
            return []
        if self._next_bits is None:
            return DONE
        return [self._propose(self._next_bits)]

    def _propose(self, bits: int) -> SweepPoint:
        config = self.base.evolve(quant={"initial_bits": bits})
        label = f"{self.base.name}[initial_bits={bits}]"
        self._trials.append({
            "bits": bits,
            "key": config.cache_key(),
            "label": label,
            "result": None,
            "metrics": None,
            "feasible": None,
        })
        self._tried.add(bits)
        self._in_flight = True
        self._next_bits = None
        return SweepPoint(
            label=label,
            config=config,
            overrides=(("initial_bits", bits),),
            index=len(self._trials) - 1,
        )

    def _absorb(self, result: PointResult) -> None:
        self._in_flight = False
        trial = next(
            t for t in self._trials
            if t["key"] == result.key and t["result"] is None
        )
        trial["result"] = result
        metrics = trial_metrics(result)
        trial["metrics"] = metrics
        first = trial is self._trials[0]
        if metrics is None:
            trial["feasible"] = False
            # A crashed reference leaves nothing to search against.
            self._next_bits = None if first else self._bisect_up(trial["bits"])
        else:
            accuracy = metrics["test_accuracy"]
            if first:
                self._ref_accuracy = accuracy
            trial["feasible"] = (
                accuracy >= self._ref_accuracy - self.search.accuracy_drop
            )
            if trial["feasible"]:
                self._next_bits = self._descend(
                    trial["bits"], float(metrics["total_ad"]))
            else:
                self._next_bits = self._bisect_up(trial["bits"])
        if self._next_bits is not None \
                and len(self._trials) >= self.search.max_trials:
            self._next_bits = None

    def _descend(self, bits: int, density: float) -> int | None:
        """Eqn.-3 step down from a feasible trial (1-bit step at AD~1).

        Feasibility is assumed monotone in bits (the upward bisection
        already relies on it), so a proposal at or below a width already
        judged infeasible would waste a trial on a known outcome —
        those redirect into refining the feasibility gap instead.

        Pure (reads scheduler state, mutates nothing), so speculation
        can evaluate the step under a *hypothetical* density — the last
        finished trial's AD standing in for the in-flight one's.
        """
        from repro.core.ad_quant import scale_bits

        density = min(1.0, max(0.0, density))
        proposal = scale_bits(bits, density, self.search.min_bits)
        if proposal >= bits:
            proposal = bits - 1
        proposal = max(proposal, self.search.min_bits)
        known_infeasible = max(
            (t["bits"] for t in self._trials
             if t["feasible"] is False and t["bits"] < bits),
            default=None,
        )
        if known_infeasible is not None and proposal <= known_infeasible:
            return self._bisect_up(known_infeasible)
        if proposal in self._tried or proposal < 1:
            return None
        return proposal

    def _bisect_up(self, failed_bits: int) -> int | None:
        """Bisect between an infeasible trial and the floor above it.

        Prefers the midpoint of the open interval; when the midpoint was
        already tried, falls back to the nearest untried value in the
        gap, so the feasibility boundary is pinned down exactly before
        the search gives up.
        """
        above = [
            t["bits"] for t in self._trials
            if t["feasible"] and t["bits"] > failed_bits
        ]
        if not above:
            return None
        ceiling = min(above)
        midpoint = (failed_bits + ceiling) // 2
        candidates = sorted(
            (b for b in range(failed_bits + 1, ceiling)
             if b not in self._tried),
            key=lambda b: (abs(b - midpoint), b),
        )
        return candidates[0] if candidates else None

    # ------------------------------------------------------------------
    def speculative_candidates(self) -> list[ExperimentConfig]:
        """Configs the next proposal may be, predictable mid-flight.

        Called by :class:`SpeculativeScheduler` while the latest trial
        is still running.  Both branches of the pending feasibility
        verdict are covered, ranked by :func:`rank_bets`:

        * *feasible* (guessed) — the eqn.-3 step needs the in-flight
          trial's final AD, so the last **finished** trial's density
          stands in (AD changes slowly as the descent converges, so the
          rounded step usually lands on the same width); plus the
          saturated 1-bit step (``density = 1``), the fallback when
          eqn. 3 stops making progress.
        * *infeasible* (exact) — the upward bisection, which needs no
          metrics at all.

        Pure: reads scheduler state, mutates nothing.  Empty before the
        first density estimate exists minus the 1-bit/bisection
        fallbacks, and always empty when nothing is in flight or the
        trial budget is exhausted.
        """
        if not self._in_flight or len(self._trials) >= self.search.max_trials:
            return []
        bits = self._trials[-1]["bits"]  # the in-flight proposal
        guessed: list[int | None] = []
        density = next(
            (t["metrics"]["total_ad"] for t in reversed(self._trials)
             if t["metrics"] is not None and "total_ad" in t["metrics"]),
            None,
        )
        if density is not None:
            guessed.append(self._descend(bits, float(density)))
        guessed.append(self._descend(bits, 1.0))
        candidates = rank_bets(self._trials, [self._bisect_up(bits)], guessed)
        seen: set[int] = set()
        configs: list[ExperimentConfig] = []
        for value in candidates:
            if value is None or value in seen:
                continue
            seen.add(value)
            configs.append(self.base.evolve(quant={"initial_bits": value}))
        return configs

    # ------------------------------------------------------------------
    @property
    def trials(self) -> list[dict]:
        """Trial records in proposal order (read-only view for wrappers)."""
        return list(self._trials)

    def best(self) -> PointResult | None:
        """The feasible trial maximizing the objective (fewest bits on ties)."""
        objective = self.search.objective
        candidates = [
            t for t in self._trials if t["feasible"] and t["metrics"]
        ]
        if not candidates:
            return None
        top = max(
            candidates,
            key=lambda t: (objective_value(objective, t["metrics"]),
                           -t["bits"]),
        )
        return top["result"]

    def baseline(self) -> PointResult | None:
        """The reference trial (the base config at its own precision)."""
        return self._trials[0]["result"] if self._trials else None

    def feasibility(self) -> dict:
        """Cache key -> feasibility verdict for every trial so far."""
        return {t["key"]: t["feasible"] for t in self._trials}


class LayerBitSearchScheduler(Scheduler):
    """Per-layer bit-vector search seeded by an AD-search survivor.

    Two sequential phases share one trial budget (``max_trials``):

    1. **Seed** — an inner :class:`ADSearchScheduler` (``seed_trials``
       proposals; half the budget when unset) runs the scalar eqn.-3
       descent over ``quant.initial_bits``.  Its best feasible trial is
       the *survivor*; the survivor run's final report row already *is*
       a per-layer bit vector (Algorithm 1 converged it), which becomes
       the incumbent assignment.
    2. **Layer moves** — one trial per move: the layer with the largest
       share of the incumbent's analytical energy
       (``analytical_energy.per_layer_pj``) steps down one bit; the
       whole vector is pinned via ``quant.layer_bits`` +
       ``quant.layer_frozen`` so the trial trains *at* the proposed
       assignment.  A move inside the accuracy-drop budget is accepted
       (it strictly lowers analytical energy — energy is monotone in
       bits); an infeasible move reverts and blocks that layer, and the
       next-ranked layer is tried.  Role-frozen first/last layers and
       config-pinned layers never move.

    Feasibility is judged against the *first* trial's accuracy (the base
    config at its own schedule), exactly like the scalar search, so the
    winning vector's analytical energy is never worse than the scalar
    AD-search winner's at the same accuracy budget.
    """

    def __init__(self, search: SearchConfig):
        if search.strategy != "layer-bits":
            raise ValueError(
                f"LayerBitSearchScheduler needs strategy 'layer-bits', "
                f"got {search.strategy!r}"
            )
        self.search = search
        self.base = resolve_base(search)
        if not self.base.energy.analytical:
            raise ValueError(
                f"search {search.name!r} ranks layer moves by each "
                "layer's analytical-energy share, but its base config "
                "disables the analytical energy stage "
                "(energy.analytical=false)"
            )
        self.name = search.name
        seed_budget = search.seed_trials or max(1, search.max_trials // 2)
        self._inner = ADSearchScheduler(search.evolve(
            strategy="ad-bits", max_trials=seed_budget, seed_trials=0,
        ))
        self._phase = "seed"
        self._seen = 0
        self._total = 0
        self._in_flight = False
        self._done = False
        self._trials: list[dict] = []  # layer-phase trials only
        self._tried: set[tuple] = set()
        self._vector: dict | None = None
        self._immovable: set[str] = set()
        self._blocked: set[str] = set()
        self._incumbent: dict | None = None
        self._ref_accuracy: float | None = None

    # ------------------------------------------------------------------
    def next_points(self, completed) -> list[SweepPoint] | Done:
        if self._phase == "seed":
            self._seen = len(completed)
            batch = self._inner.next_points(completed)
            if not isinstance(batch, Done):
                self._total += len(batch)
                return batch
            self._begin_layer_phase()
        else:
            for result in completed[self._seen:]:
                self._absorb(result)
            self._seen = len(completed)
        if self._done:
            return DONE
        if self._in_flight:
            return []
        if self._total >= self.search.max_trials:
            return DONE
        move = self._next_move(
            self._vector, self._incumbent, self._blocked, self._tried,
        )
        if move is None:
            return DONE
        return [self._propose(*move)]

    def _begin_layer_phase(self) -> None:
        """Adopt the seed phase's survivor vector as the incumbent."""
        self._phase = "layers"
        survivor = self._inner.best()
        base_metrics = trial_metrics(self._inner.baseline())
        vector = bit_vector_of(survivor)
        if survivor is None or base_metrics is None or vector is None:
            # No feasible seed (or a crashed reference): nothing to
            # refine per-layer.
            self._done = True
            return
        self._ref_accuracy = base_metrics["test_accuracy"]
        self._vector = vector
        names = list(vector)
        # The role-frozen boundary layers (registry order = report
        # order) and any config-pinned layers never move.
        self._immovable = {names[0], names[-1]}
        self._immovable.update(
            name for name in self.base.quant.layer_frozen if name in vector
        )
        self._incumbent = {
            "result": survivor,
            "metrics": trial_metrics(survivor),
            "vector": vector,
        }
        self._tried.add(tuple(sorted(vector.items())))

    # ------------------------------------------------------------------
    def _next_move(self, vector: dict, incumbent: dict,
                   blocked: set, tried: set) -> tuple[str, dict] | None:
        """The highest-energy movable layer of ``vector``, one bit down.

        ``incumbent``'s per-layer energies rank the layers; ``blocked``
        layers and ``tried`` vectors are skipped.  Pure (reads the
        scheduler's immovable set and min-bits floor, mutates nothing),
        so speculation can rank moves under *hypothetical* state — e.g.
        the in-flight trial's vector with the current incumbent's
        (stale) per-layer energies standing in for its own.
        """
        artifacts = (incumbent["result"].payload or {}).get(
            "artifacts"
        ) or {}
        energies = (artifacts.get("analytical_energy") or {}).get(
            "per_layer_pj"
        ) or {}
        # Rank by energy share, highest first; layers the artifact does
        # not cover (it should cover all) sort last by vector order.
        ranked = sorted(
            vector,
            key=lambda name: (-energies.get(name, 0.0), name),
        )
        for name in ranked:
            if name in self._immovable or name in blocked:
                continue
            bits = vector[name]
            if bits - 1 < self.search.min_bits:
                continue
            candidate = dict(vector)
            candidate[name] = bits - 1
            if tuple(sorted(candidate.items())) in tried:
                continue
            return name, candidate
        return None

    def _config_for(self, vector: dict) -> ExperimentConfig:
        """The trial config pinning every layer at ``vector``."""
        return self.base.evolve(quant={
            "layer_bits": vector,
            # Pin every layer: the trial trains *at* this assignment
            # (eqn. 3 finds an immediate fixpoint, one iteration).
            "layer_frozen": sorted(vector),
        })

    def _propose(self, layer: str, vector: dict) -> SweepPoint:
        config = self._config_for(vector)
        label = f"{self.base.name}[{layer}={vector[layer]}]"
        self._trials.append({
            "layer": layer,
            "vector": vector,
            "key": config.cache_key(),
            "label": label,
            "result": None,
            "metrics": None,
            "feasible": None,
        })
        self._tried.add(tuple(sorted(vector.items())))
        self._in_flight = True
        self._total += 1
        return SweepPoint(
            label=label,
            config=config,
            overrides=((layer, vector[layer]),),
            index=self._total - 1,
        )

    def _absorb(self, result: PointResult) -> None:
        trial = next(
            (t for t in self._trials
             if t["key"] == result.key and t["result"] is None),
            None,
        )
        if trial is None:
            return  # a seed-phase result the inner scheduler already saw
        self._in_flight = False
        trial["result"] = result
        metrics = trial_metrics(result)
        trial["metrics"] = metrics
        name = trial["layer"]
        if metrics is None:
            trial["feasible"] = False
            self._blocked.add(name)
            return
        feasible = (
            metrics["test_accuracy"]
            >= self._ref_accuracy - self.search.accuracy_drop
        )
        trial["feasible"] = feasible
        if feasible:
            # Accepted: the move becomes the incumbent assignment and
            # the next move re-ranks from its per-layer energies.
            self._vector = trial["vector"]
            self._incumbent = trial
        else:
            # Reverted (the +1 direction of the ±1 move) and blocked.
            self._blocked.add(name)

    # ------------------------------------------------------------------
    def speculative_candidates(self) -> list[ExperimentConfig]:
        """Configs the next proposal may be, predictable mid-flight.

        Seed phase delegates to the inner scalar scheduler, whose
        verdicts are all this search has so far.  In the layer phase
        the in-flight trial's pending verdict forks the schedule two
        ways, both covered here and ranked by :func:`rank_bets` over
        both phases' verdicts:

        * *accepted* (guessed) — the next move ranks the trial's vector
          by its own per-layer energies; those are not known yet, so
          the incumbent's (stale) energies stand in.  Energy shares
          shift slowly under one-bit moves, so the ranking usually
          agrees.
        * *rejected* (exact) — the trial's layer is blocked and the
          next move re-ranks the *unchanged* incumbent vector.  Walking
          that chain further (each move's layer blocked in turn) yields
          the moves proposed if several rejections follow, giving top-K
          bets beyond the first fork.

        Pure: reads scheduler state, mutates nothing.
        """
        if self._phase == "seed":
            return self._inner.speculative_candidates()
        if (not self._in_flight or self._done
                or self._total >= self.search.max_trials):
            return []
        trial = self._trials[-1]
        tried = set(self._tried)
        move = self._next_move(
            trial["vector"], self._incumbent, self._blocked, tried,
        )
        guessed = [] if move is None else [move[1]]
        exact = []
        blocked = set(self._blocked) | {trial["layer"]}
        for _ in range(len(self._vector)):
            move = self._next_move(
                self._vector, self._incumbent, blocked, tried,
            )
            if move is None:
                break
            name, candidate = move
            blocked.add(name)
            tried.add(tuple(sorted(candidate.items())))
            exact.append(candidate)
        return [
            self._config_for(vector)
            for vector in rank_bets(self._all_trials(), exact, guessed)
        ]

    # ------------------------------------------------------------------
    def _all_trials(self) -> list[dict]:
        return self._inner.trials + self._trials

    def best(self) -> PointResult | None:
        """The feasible trial (either phase) maximizing the objective."""
        objective = self.search.objective
        candidates = [
            (position, t)
            for position, t in enumerate(self._all_trials())
            if t["feasible"] and t["metrics"]
        ]
        if not candidates:
            return None
        top = max(
            candidates,
            key=lambda pair: (
                objective_value(objective, pair[1]["metrics"]),
                pair[0],  # ties break toward the later (refined) trial
            ),
        )
        return top[1]["result"]

    def baseline(self) -> PointResult | None:
        """The reference trial (the base config at its own schedule)."""
        return self._inner.baseline()

    def feasibility(self) -> dict:
        """Cache key -> feasibility verdict across both phases."""
        return {t["key"]: t["feasible"] for t in self._all_trials()}

    def best_bit_vector(self) -> dict | None:
        """The current best trial's per-layer assignment (None early)."""
        return bit_vector_of(self.best())


class SuccessiveHalvingScheduler(Scheduler):
    """Rung-by-rung grid pruning: drop low-accuracy regions early.

    Expands ``search.axes`` over the base config once, then evaluates
    the surviving grid at each of ``search.budgets`` in turn (written to
    ``search.budget_path``), keeping only the top ``search.keep``
    fraction by final test accuracy between rungs.  Rungs fan out in
    parallel under ``--jobs``; only rung *boundaries* are sequential.
    """

    def __init__(self, search: SearchConfig):
        if search.strategy != "halving":
            raise ValueError(
                f"SuccessiveHalvingScheduler needs strategy 'halving', "
                f"got {search.strategy!r}"
            )
        self.search = search
        self.name = search.name
        base = resolve_base(search)
        if search.axes:
            grid = expand(SweepConfig(name=search.name, base=base,
                                      axes=search.axes))
        else:
            grid = [SweepPoint(label=base.name, config=base, index=0)]
        # Duplicate grid configs (same cache key) collapse to one entry:
        # they are the same experiment and must prune together.
        self._grid: list[tuple[str, ExperimentConfig]] = []
        seen: set[str] = set()
        for point in grid:
            key = point.config.cache_key()
            if key not in seen:
                seen.add(key)
                self._grid.append((point.label, point.config))
        self._budget_axis = SweepAxis(search.budget_path,
                                      tuple(search.budgets))
        self._survivors = list(range(len(self._grid)))
        self._rung = -1
        self._rung_size = 0
        self._rung_results: list[PointResult] = []
        self._key_to_grid: dict[str, int] = {}
        self._issued = 0
        self._seen = 0
        self._feasible: dict[str, bool] = {}
        self._best: PointResult | None = None
        self._done = False

    # ------------------------------------------------------------------
    def next_points(self, completed) -> list[SweepPoint] | Done:
        new = completed[self._seen:]
        self._seen += len(new)
        self._rung_results.extend(new)
        if self._done:
            return DONE
        if self._rung < 0:
            return self._issue_rung(0)
        if len(self._rung_results) < self._rung_size:
            return []
        self._close_rung()
        if self._done:
            return DONE
        return self._issue_rung(self._rung + 1)

    def _issue_rung(self, rung: int) -> list[SweepPoint]:
        self._rung = rung
        self._rung_results = []
        self._key_to_grid = {}
        budget = self.search.budgets[rung]
        override = self._budget_axis.override_for(budget)
        budget_label = self._budget_axis.label
        points = []
        for grid_index in self._survivors:
            label, config = self._grid[grid_index]
            evolved = config.evolve(**override)
            self._key_to_grid[evolved.cache_key()] = grid_index
            points.append(SweepPoint(
                label=f"{label}[{budget_label}={budget}]",
                config=evolved,
                overrides=((budget_label, budget),),
                index=self._issued,
            ))
            self._issued += 1
        self._rung_size = len(points)
        return points

    def _close_rung(self) -> None:
        def accuracy_of(result: PointResult) -> float:
            row = final_row_of(result)
            return row["test_accuracy"] if row else float("-inf")

        ranked = sorted(self._rung_results, key=accuracy_of, reverse=True)
        last_rung = self._rung + 1 >= len(self.search.budgets)
        count = max(1, math.ceil(len(ranked) * self.search.keep))
        kept = ranked if last_rung else ranked[:count]
        kept_keys = {r.key for r in kept}
        for result in self._rung_results:
            survived = (
                result.key in kept_keys and final_row_of(result) is not None
            )
            self._feasible[result.key] = survived
        if last_rung:
            self._best = self._pick_best(ranked)
            self._done = True
            return
        self._survivors = [
            self._key_to_grid[r.key] for r in kept
            if final_row_of(r) is not None
        ]
        if not self._survivors:
            # Every survivor crashed at this budget: nothing to advance.
            self._done = True

    def _pick_best(self, ranked: list[PointResult]) -> PointResult | None:
        objective = self.search.objective
        scored = [
            ((objective_value(objective, metrics),
              metrics["test_accuracy"], -position), result)
            for position, result in enumerate(ranked)
            for metrics in [trial_metrics(result)]
            if metrics is not None
        ]
        if not scored:
            return None
        return max(scored, key=lambda pair: pair[0])[1]

    # ------------------------------------------------------------------
    def best(self) -> PointResult | None:
        """The final rung's top trial by the objective (None until done)."""
        return self._best

    def baseline(self) -> PointResult | None:
        """Halving has no single reference trial."""
        return None

    def feasibility(self) -> dict:
        """Cache key -> survived-its-rung verdict for judged trials."""
        return dict(self._feasible)


class SpeculativeScheduler(Scheduler):
    """Name a sequential search's likely next trials as bets.

    Wraps a sequential scheduler exposing ``speculative_candidates()``
    (:class:`ADSearchScheduler`, :class:`LayerBitSearchScheduler`).  The
    inner scheduler stays the ground truth: :meth:`next_points` passes
    straight through, so it only ever sees the results of real
    proposals and its decision sequence is *exactly* the sequential one
    — which makes the sped-up run bit-identical by construction.

    The wrapper's one job is :meth:`bets`: the inner scheduler's top
    ``k`` candidates.  The driver,
    :class:`~repro.orchestration.runner.SchedulerDrive`, places,
    cancels and adopts the bets itself.  Every trial is a pure function
    of its config, so an adopted bet's quarantined outcome is
    byte-for-byte the outcome the sequential run would have computed;
    speculation only changes *when* configs start running, never
    *which* results become visible.
    """

    def __init__(self, inner: Scheduler, k: int):
        if k < 1:
            raise ValueError(f"speculation must be >= 1, got {k}")
        if not hasattr(inner, "speculative_candidates"):
            raise TypeError(
                f"{type(inner).__name__} does not expose "
                "speculative_candidates(); speculation only applies to "
                "the sequential ad-bits / layer-bits schedulers"
            )
        self.inner = inner
        self.k = k
        self.name = inner.name

    def next_points(self, completed) -> list[SweepPoint] | Done:
        return self.inner.next_points(completed)

    def bets(self) -> list[ExperimentConfig]:
        """The first ``k`` distinct candidates, in the inner scheduler's
        rank (:func:`rank_bets`: the branch the search keeps taking
        first); the driver hands queued bets out in this order."""
        configs: dict[str, ExperimentConfig] = {}
        for config in self.inner.speculative_candidates():
            configs.setdefault(config.cache_key(), config)
            if len(configs) == self.k:
                break
        return list(configs.values())

    def __getattr__(self, attr):
        # best() / baseline() / feasibility() / trials /
        # best_bit_vector() ... — everything the result assembly reads
        # comes straight from the ground-truth inner scheduler.
        return getattr(self.inner, attr)


def build_scheduler(search: SearchConfig) -> Scheduler:
    """The scheduler instance a :class:`SearchConfig` describes."""
    if search.strategy == "ad-bits":
        scheduler: Scheduler = ADSearchScheduler(search)
    elif search.strategy == "layer-bits":
        scheduler = LayerBitSearchScheduler(search)
    else:
        return SuccessiveHalvingScheduler(search)
    if search.speculation:
        return SpeculativeScheduler(scheduler, search.speculation)
    return scheduler


def seed_halving_grid(halving: SearchConfig, ad_result: "SearchResult",
                      path: str = "quant.initial_bits") -> SearchConfig:
    """Seed a halving search's grid from an AD search's survivors.

    The ROADMAP's "halving scheduler could seed its grid from AD-search
    survivors": every feasible trial of ``ad_result`` contributes its
    ``quant.initial_bits`` value, and the returned config replaces
    ``halving``'s ``path`` axis with that survivor set — so the rung
    pruning starts from precisions the adaptive descent already judged
    viable instead of a hand-written grid.
    """
    if halving.strategy != "halving":
        raise ValueError(
            f"seed_halving_grid needs a halving search, "
            f"got strategy {halving.strategy!r}"
        )
    survivors = sorted({
        point.config.quant.initial_bits
        for point in ad_result.points
        if point.config is not None
        and ad_result.feasibility.get(point.key)
    })
    if not survivors:
        raise ValueError(
            f"search {ad_result.name!r} has no feasible survivors "
            "to seed a halving grid from"
        )
    axes = tuple(a for a in halving.axes if a.path != path)
    return halving.evolve(
        axes=axes + (SweepAxis(path, tuple(survivors)),)
    )


def planned_trials(search: SearchConfig) -> tuple[int, bool]:
    """``(trial count, exact)`` for sizing a search before launching it.

    Adaptive strategies only bound their trial count (``exact=False``:
    the AD search may converge early); the halving schedule is fully
    determined by its grid, budgets, and keep fraction (``exact=True``,
    assuming no duplicate grid configs).
    """
    if search.strategy in ("ad-bits", "layer-bits"):
        return search.max_trials, False
    count = 1
    for axis in search.axes:
        count *= len(axis.values)
    total = 0
    for _ in search.budgets:
        total += count
        count = max(1, math.ceil(count * search.keep))
    return total, True


# ---------------------------------------------------------------------------
# Running a search and serializing its outcome.
# ---------------------------------------------------------------------------

def point_summary(result: PointResult | None) -> dict | None:
    """A trial's label, key, config and metrics (the best/baseline entry)."""
    if result is None:
        return None
    return {
        "label": result.label,
        "key": result.key,
        "config": result.config.to_dict() if result.config else None,
        "metrics": trial_metrics(result),
    }


def search_out_payload(search: SearchConfig, name: str, points, results,
                       best=None, baseline=None, feasibility=None,
                       point_dicts=None) -> dict:
    """The ``repro search --out`` JSON of a possibly still-running search.

    The trial list reuses :func:`sweep_out_payload` (``"pending"``
    placeholders included), so sweep tooling reads a search file as-is;
    a ``"search"`` section adds the config, the current best/baseline,
    and per-trial feasibility verdicts.  Valid JSON at every instant of
    a streaming search.
    """
    payload = sweep_out_payload(name, points, results,
                                point_dicts=point_dicts)
    payload["search"] = {
        "strategy": search.strategy,
        "objective": search.objective,
        "accuracy_drop": search.accuracy_drop,
        "config": search.to_dict(),
        "baseline": point_summary(baseline),
        "best": point_summary(best),
        # The winning per-layer assignment ({layer: bits}, None until a
        # best exists) — the artifact a layer-bits search is run for,
        # published for every strategy since any best trial carries one.
        "bit_vector": bit_vector_of(best),
        "feasibility": dict(feasibility) if feasibility is not None else {},
    }
    return payload


@dataclass
class SearchResult:
    """A finished search: every trial plus the scheduler's verdicts."""

    search: SearchConfig
    sweep: SweepResult
    best: PointResult | None = None
    baseline: PointResult | None = None
    feasibility: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.sweep.name

    @property
    def points(self) -> list[PointResult]:
        return self.sweep.points

    @property
    def stats(self) -> dict:
        return self.sweep.stats

    @property
    def ok(self) -> bool:
        return self.sweep.ok

    def report(self):
        """Per-trial :class:`~repro.core.report.SearchReport`."""
        from repro.core.export import report_from_dict
        from repro.core.report import SearchEntry, SearchReport

        best_key = self.best.key if self.best is not None else None
        report = SearchReport(
            name=self.name,
            objective=self.search.objective,
            accuracy_drop=self.search.accuracy_drop,
        )
        best_marked = False
        for point in self.points:
            is_best = (not best_marked) and point.key == best_key
            best_marked = best_marked or is_best
            report.add(SearchEntry(
                label=point.label,
                report=(
                    report_from_dict(point.payload["report"])
                    if point.payload is not None else None
                ),
                status=point.status,
                key=point.key,
                error=point.error,
                feasible=self.feasibility.get(point.key),
                best=is_best,
            ))
        return report

    def to_dict(self) -> dict:
        """JSON form (the completed ``repro search --out`` payload)."""
        return search_out_payload(
            self.search, self.name, self.points, self.points,
            best=self.best, baseline=self.baseline,
            feasibility=self.feasibility,
        )


def run_search(search: SearchConfig, jobs: int = 1, cache=None,
               progress=None, execute=execute_point, on_point=None,
               on_schedule=None, scheduler: Scheduler | None = None,
               task_timeout: float | None = None, interrupt=None
               ) -> SearchResult:
    """Drive a :class:`SearchConfig` to completion through the runner.

    ``scheduler`` optionally supplies a pre-built scheduler (so callers
    that need a live handle on it — e.g. the CLI's streaming writer
    asking for the current best — observe the same instance the driver
    feeds).  ``task_timeout`` and ``interrupt`` pass through to the
    runner (hung-trial recovery and graceful Ctrl-C; see
    :class:`SweepRunner`).
    """
    if scheduler is None:
        scheduler = build_scheduler(search)
    runner = SweepRunner(jobs=jobs, cache=cache, progress=progress,
                         execute=execute, on_point=on_point,
                         on_schedule=on_schedule,
                         task_timeout=task_timeout, interrupt=interrupt)
    sweep = runner.run_scheduler(scheduler, name=search.name)
    return SearchResult(
        search=search,
        sweep=sweep,
        best=scheduler.best(),
        baseline=scheduler.baseline(),
        feasibility=scheduler.feasibility(),
    )
