"""CLI: `repro search` / `repro searches`, streaming --out, cache reuse."""

import json

import pytest

from repro.api import experiments
from repro.cli import main
from repro.orchestration import SearchConfig


@pytest.fixture
def micro_search(tmp_path):
    """A seconds-scale SearchConfig JSON file plus scratch dirs."""
    base = experiments.get_config("vgg11-micro-smoke").evolve(
        quant={"max_iterations": 1, "max_epochs_per_iteration": 1,
               "min_epochs_per_iteration": 1},
    )
    search = SearchConfig(name="cli-micro-search", base=base,
                          strategy="ad-bits", accuracy_drop=0.5,
                          max_trials=3, min_bits=2)
    config_path = tmp_path / "search-config.json"
    search.to_json(config_path)
    return {
        "root": tmp_path,
        "search": search,
        "config": str(config_path),
        "cache_dir": str(tmp_path / "cache"),
    }


class TestSearchCommand:
    def test_headless_search_streams_valid_out(self, micro_search, capsys):
        out = micro_search["root"] / "search.json"
        code = main(["search", "--config", micro_search["config"],
                     "--cache-dir", micro_search["cache_dir"],
                     "--out", str(out), "--quiet"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sweep"] == "cli-micro-search"
        stats = payload["stats"]
        assert stats["total"] == len(payload["points"]) <= 3
        assert stats["failed"] == 0 and "pending" not in stats
        section = payload["search"]
        assert section["strategy"] == "ad-bits"
        assert section["best"] is not None
        assert section["baseline"] is not None
        # Acceptance: the best config beats the uniform-precision
        # baseline on the analytical energy model within the budget.
        best, baseline = section["best"]["metrics"], \
            section["baseline"]["metrics"]
        assert best["model_total_pj"] < baseline["baseline_total_pj"]
        assert best["test_accuracy"] >= baseline["test_accuracy"] \
            - section["accuracy_drop"]

    def test_best_config_round_trips_as_cache_hit(self, micro_search,
                                                  capsys):
        out = micro_search["root"] / "search.json"
        assert main(["search", "--config", micro_search["config"],
                     "--cache-dir", micro_search["cache_dir"],
                     "--out", str(out), "--quiet"]) == 0
        best_config = json.loads(out.read_text())["search"]["best"]["config"]
        best_path = micro_search["root"] / "best.json"
        best_path.write_text(json.dumps(best_config))
        capsys.readouterr()
        assert main(["run", "--config", str(best_path), "--cache",
                     "--cache-dir", micro_search["cache_dir"]]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_warm_search_is_pure_cache(self, micro_search, capsys):
        args = ["search", "--config", micro_search["config"],
                "--cache-dir", micro_search["cache_dir"]]
        assert main([*args, "--quiet"]) == 0
        capsys.readouterr()
        assert main(args) == 0
        summary = capsys.readouterr().out
        assert "executed 0" in summary
        # Satellite: cache activity is visible in the summary line.
        assert "cache:" in summary and "hit(s)" in summary

    def test_search_preset_resolves(self, capsys):
        # Resolution only (bad name): the error names the registry.
        assert main(["search", "--preset", "nope", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "search-smoke-bits" in err
        assert "Traceback" not in err

    def test_shard_rejected_with_explanation(self, micro_search, capsys):
        code = main(["search", "--config", micro_search["config"],
                     "--shard", "0/2", "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot be sharded" in err
        assert "Traceback" not in err

    def test_override_flags_evolve_the_search(self, micro_search, capsys):
        out = micro_search["root"] / "search.json"
        assert main(["search", "--config", micro_search["config"],
                     "--max-trials", "2", "--drop", "0.9",
                     "--cache-dir", micro_search["cache_dir"],
                     "--out", str(out), "--quiet"]) == 0
        payload = json.loads(out.read_text())
        assert payload["stats"]["total"] <= 2
        assert payload["search"]["config"]["max_trials"] == 2
        assert payload["search"]["accuracy_drop"] == 0.9

    def test_strategy_override_runs_layer_bits(self, micro_search, capsys):
        out = micro_search["root"] / "layer-search.json"
        code = main(["search", "--config", micro_search["config"],
                     "--strategy", "layer-bits", "--seed-trials", "1",
                     "--max-trials", "3",
                     "--cache-dir", micro_search["cache_dir"],
                     "--out", str(out), "--quiet"])
        assert code == 0
        payload = json.loads(out.read_text())
        section = payload["search"]
        assert section["strategy"] == "layer-bits"
        # Layer-move trials carry pinned per-layer assignments.
        moves = [p for p in payload["points"]
                 if p["config"]["quant"].get("layer_bits")]
        assert moves and all(
            p["config"]["quant"]["layer_frozen"] for p in moves
        )
        # The winning bit vector is published and consistent.
        vector = section["bit_vector"]
        assert list(vector.values()) \
            == section["best"]["metrics"]["bit_widths"]

    def test_strategy_switch_away_from_layer_bits_drops_seed_trials(
            self, micro_search, capsys):
        # A layer-bits config carries seed_trials; switching it to
        # ad-bits must not drag the layer-bits-only knob along.
        layer = SearchConfig(
            name="cli-layer-search",
            base=micro_search["search"].base,
            strategy="layer-bits", accuracy_drop=0.5,
            max_trials=3, seed_trials=2, min_bits=2,
        )
        path = micro_search["root"] / "layer-config.json"
        layer.to_json(path)
        out = micro_search["root"] / "switched.json"
        code = main(["search", "--config", str(path),
                     "--strategy", "ad-bits",
                     "--cache-dir", micro_search["cache_dir"],
                     "--out", str(out), "--quiet"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["search"]["strategy"] == "ad-bits"
        assert payload["search"]["config"]["seed_trials"] == 0

    def test_seed_trials_rejected_outside_layer_bits(self, micro_search,
                                                     capsys):
        assert main(["search", "--config", micro_search["config"],
                     "--seed-trials", "2", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "--seed-trials" in err and "layer-bits" in err
        assert "Traceback" not in err

    def test_ad_bits_flags_rejected_for_halving(self, tmp_path, capsys):
        # --max-trials/--drop would be silently ignored by a halving
        # search; refusing them keeps the budget knobs honest.
        search = SearchConfig(
            name="halving", preset="vgg11-micro-smoke", strategy="halving",
            budgets=(1, 2),
        )
        path = tmp_path / "halving.json"
        search.to_json(path)
        assert main(["search", "--config", str(path),
                     "--max-trials", "3", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "--max-trials" in err and "halving" in err
        assert main(["search", "--config", str(path),
                     "--drop", "0.1", "--quiet"]) == 2
        assert "--drop" in capsys.readouterr().err

    def test_unwritable_out_fails_before_training(self, micro_search,
                                                  capsys):
        out = micro_search["root"]  # a directory, not a file
        assert main(["search", "--config", micro_search["config"],
                     "--out", str(out), "--quiet"]) == 2
        assert "is a directory" in capsys.readouterr().err


class TestSpeculateFlag:
    def _normalized(self, payload):
        for point in payload["points"]:
            point["duration"] = 0.0
        return payload

    def test_speculative_out_is_bit_identical_and_stats_surface(
            self, micro_search, capsys):
        # The real pipeline, twice: sequential vs --speculate 2, fresh
        # caches.  The --out payloads must match exactly (durations
        # aside) and the speculative summary line must surface the
        # accounting the payload deliberately omits.
        seq_out = micro_search["root"] / "seq.json"
        assert main(["search", "--config", micro_search["config"],
                     "--cache-dir", str(micro_search["root"] / "cache-a"),
                     "--out", str(seq_out), "--quiet"]) == 0
        capsys.readouterr()
        spec_out = micro_search["root"] / "spec.json"
        assert main(["search", "--config", micro_search["config"],
                     "--speculate", "2",
                     "--cache-dir", str(micro_search["root"] / "cache-b"),
                     "--out", str(spec_out)]) == 0
        summary = capsys.readouterr().out
        assert "speculation:" in summary and "wasted trial(s)" in summary
        assert "with a head start" in summary
        sequential = self._normalized(json.loads(seq_out.read_text()))
        speculative = self._normalized(json.loads(spec_out.read_text()))
        assert speculative == sequential
        assert "speculated" not in speculative["stats"]

    def test_speculate_rejected_for_halving(self, tmp_path, capsys):
        search = SearchConfig(
            name="halving", preset="vgg11-micro-smoke",
            strategy="halving", budgets=(1, 2),
        )
        path = tmp_path / "halving.json"
        search.to_json(path)
        assert main(["search", "--config", str(path),
                     "--speculate", "2", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "--speculate" in err and "halving" in err
        assert "Traceback" not in err

    def test_negative_speculate_rejected(self, micro_search, capsys):
        assert main(["search", "--config", micro_search["config"],
                     "--speculate", "-1", "--quiet"]) == 2
        assert "--speculate" in capsys.readouterr().err


class TestSearchesListing:
    def test_searches_lists_registry_with_trial_counts(self, capsys):
        assert main(["searches"]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = {line.split()[0] for line in lines}
        assert listed == set(experiments.search_names())
        for line in lines:
            assert "trials" in line

    def test_searches_verbose_includes_descriptions(self, capsys):
        assert main(["searches", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "ad-bits" in out and "halving" in out
        assert "CI" in out  # the smoke preset's description
