"""End-to-end: the fast backend through the full experiment stack.

The differential tests pin per-op agreement; these pin the *product*:
a whole quantization experiment on the fast backend reproduces the
reference run's trajectory, a trial that learns ends within 0.15
accuracy of the reference, and every user-facing entry point (`run`,
`sweep`, `search`, the service spec) accepts ``--backend fast`` and
threads it to the training loop.
"""

import json

import numpy as np
import pytest

from repro.api import experiments
from repro.backend import active_backend
from repro.cli import main


def _smoke_config(backend):
    return experiments.get_config("vgg11-micro-smoke").evolve(
        backend=backend,
        quant={"max_iterations": 2, "max_epochs_per_iteration": 1,
               "min_epochs_per_iteration": 1},
    )


class TestExperimentParity:
    def test_fast_reproduces_reference_trajectory(self):
        reports = {}
        for backend in ("reference", "fast"):
            experiment = experiments.Experiment(_smoke_config(backend))
            reports[backend] = experiment.run()
            # The model must actually live in the backend's dtype.
            dtype = (np.float64 if backend == "reference" else np.float32)
            for value in experiment.context.model.state_dict().values():
                assert value.dtype == dtype
        ref_rows = reports["reference"].rows
        fast_rows = reports["fast"].rows
        assert len(ref_rows) == len(fast_rows)
        for ref, fast in zip(ref_rows, fast_rows):
            # Identical data, init, and schedule: float32 round-off may
            # flip an occasional argmax on the 20-sample micro set, but
            # the trajectory must track the reference closely.
            assert abs(fast.test_accuracy - ref.test_accuracy) <= 0.15
            assert fast.total_ad == pytest.approx(ref.total_ad, abs=0.02)
            assert fast.bit_widths == ref.bit_widths

    def test_fast_accuracy_tracks_reference_on_a_learning_trial(self):
        # The micro smoke run above stays at chance accuracy, so its
        # accuracy bound cannot fail.  The bench trial (the Table II(a)
        # preset at seed 0) learns, and runs here on whichever kernel
        # tier the host resolves.
        accuracy = {
            backend: experiments.Experiment(
                experiments.get_config("vgg19-cifar10-quant").evolve(
                    backend=backend)
            ).run().rows[-1].test_accuracy
            for backend in ("reference", "fast")
        }
        assert accuracy["reference"] >= 0.5
        assert abs(accuracy["fast"] - accuracy["reference"]) <= 0.15

    def test_run_restores_requested_backend_each_time(self):
        # A warm service context re-runs experiments back to back; each
        # run must re-activate its own config's backend.
        experiments.Experiment(_smoke_config("fast")).run()
        assert active_backend().name == "fast"
        experiments.Experiment(_smoke_config("reference")).run()
        assert active_backend().name == "reference"


class TestCLIBackend:
    def test_run_backend_fast(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["run", "--preset", "vgg11-micro-smoke", "--quiet",
                     "--backend", "fast", "--max-iterations", "1",
                     "--max-epochs", "1", "--min-epochs", "1",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["backend"] == "fast"
        assert payload["report"]["rows"]

    def test_run_backend_fast_cached_separately(self, tmp_path, capsys):
        args = ["run", "--preset", "vgg11-micro-smoke", "--quiet",
                "--max-iterations", "1", "--max-epochs", "1",
                "--min-epochs", "1", "--cache",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args + ["--backend", "fast"]) == 0
        # A reference run of the same schedule must miss the fast entry.
        assert main(args) == 0
        from repro.orchestration import ResultCache

        assert ResultCache(tmp_path / "cache").entry_count() == 2

    def test_sweep_backend_fast(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--preset", "vgg11-micro-smoke",
                     "--seeds", "0,1", "--backend", "fast", "--quiet",
                     "--no-cache", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["points"]) == 2
        for point in payload["points"]:
            assert point["config"]["backend"] == "fast"
            assert point["status"] == "ok"

    def test_search_backend_fast_headless(self, tmp_path):
        out = tmp_path / "search.json"
        code = main(["search", "--preset", "search-smoke-bits",
                     "--backend", "fast", "--quiet", "--no-cache",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["search"]["best"] is not None
        for point in payload["points"]:
            assert point["config"]["backend"] == "fast"

    def test_show_backend_fast(self, capsys):
        assert main(["show", "--preset", "vgg11-micro-smoke",
                     "--backend", "fast"]) == 0
        assert json.loads(capsys.readouterr().out)["backend"] == "fast"

    def test_run_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "vgg11-micro-smoke",
                  "--backend", "cuda"])
