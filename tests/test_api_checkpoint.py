"""Checkpoint/resume: snapshot fidelity and bit-identical continuation."""

import numpy as np
import pytest

from repro.api import (
    FinalTuneStage,
    Pipeline,
    PipelineCallback,
    PruneStage,
    QuantizeStage,
    build_context,
    experiments,
)
from repro.orchestration import CheckpointCallback, CheckpointStage
from repro.utils.serialization import load_checkpoint, save_checkpoint


def micro_config(**overrides):
    config = experiments.get_config("vgg11-micro-smoke")
    return config.evolve(**overrides) if overrides else config


def row_key(report):
    return [
        (r.iteration, r.label, r.bit_widths, r.channel_counts, r.epochs,
         r.test_accuracy, r.total_ad, r.energy_efficiency, r.train_complexity)
        for r in report.rows
    ]


class Boom(Exception):
    pass


class KillAfterRow(PipelineCallback):
    """Simulates a mid-pipeline kill after the Nth reported row."""

    def __init__(self, after: int):
        self.after = after
        self.seen = 0

    def on_iteration_end(self, ctx, row):
        self.seen += 1
        if self.seen >= self.after:
            raise Boom()


class TestSnapshotRestore:
    def test_snapshot_requires_prepared_context(self):
        ctx = build_context(micro_config())
        with pytest.raises(RuntimeError, match="unprepared"):
            ctx.snapshot_state()

    def test_restore_requires_prepared_context(self):
        ctx = build_context(micro_config())
        ctx.prepare()
        arrays, metadata = ctx.snapshot_state()
        fresh = build_context(micro_config())
        with pytest.raises(RuntimeError, match="prepare"):
            fresh.restore_state(arrays, metadata)

    def test_round_trip_restores_run_state(self):
        ctx = build_context(micro_config())
        Pipeline([QuantizeStage()]).run(ctx)
        arrays, metadata = ctx.snapshot_state()

        clone = build_context(micro_config())
        clone.prepare()
        clone.restore_state(arrays, metadata)
        assert row_key(clone.report) == row_key(ctx.report)
        assert clone.quantizer.plan.bit_widths() == ctx.quantizer.plan.bit_widths()
        assert clone.trainer.epochs_completed == ctx.trainer.epochs_completed
        assert clone.trainer.monitor.history == ctx.trainer.monitor.history
        assert clone.complexity.iterations == ctx.complexity.iterations
        for name, value in ctx.model.state_dict().items():
            np.testing.assert_array_equal(clone.model.state_dict()[name], value)

    def test_restore_rejects_other_config(self):
        ctx = build_context(micro_config())
        Pipeline([QuantizeStage()]).run(ctx)
        arrays, metadata = ctx.snapshot_state()
        other = build_context(micro_config(model={"seed": 9}, data={"seed": 9}))
        other.prepare()
        with pytest.raises(ValueError, match="different config"):
            other.restore_state(arrays, metadata)


class TestStageLevelResume:
    def test_resume_after_checkpoint_stage_is_bit_identical(self, tmp_path):
        config = micro_config(quant={"final_epochs": 2})
        path = tmp_path / "run.ckpt.npz"

        reference = Pipeline([QuantizeStage(), FinalTuneStage()]).run(
            build_context(config)
        )

        # Interrupted run: dies inside FinalTuneStage, after the
        # checkpoint has been written.
        class KillStage(FinalTuneStage):
            def run(self, ctx):
                raise Boom()

        with pytest.raises(Boom):
            Pipeline([QuantizeStage(), CheckpointStage(path), KillStage()]).run(
                build_context(config)
            )

        resumed = Pipeline(
            [QuantizeStage(), CheckpointStage(path), FinalTuneStage()]
        ).resume(build_context(config), path)
        assert row_key(resumed) == row_key(reference)

    def test_resume_skips_completed_stages(self, tmp_path):
        config = micro_config()
        path = tmp_path / "run.ckpt.npz"
        ran = []

        class TracingQuantize(QuantizeStage):
            def run(self, ctx):
                ran.append("quantize")
                super().run(ctx)

        pipeline = Pipeline([TracingQuantize(), CheckpointStage(path)])
        pipeline.run(build_context(config))
        assert ran == ["quantize"]
        pipeline.resume(build_context(config), path)
        # The cursor sits past the checkpoint stage; nothing re-runs.
        assert ran == ["quantize"]

    def test_checkpoint_metadata_records_cursor(self, tmp_path):
        path = tmp_path / "ck.npz"
        Pipeline([QuantizeStage(), CheckpointStage(path)]).run(
            build_context(micro_config())
        )
        _, metadata = load_checkpoint(path)
        assert metadata["stage_cursor"] == 2
        assert metadata["mid_stage"] is False
        assert metadata["config_key"] == micro_config().cache_key()

    def test_failed_write_never_corrupts_existing_checkpoint(
        self, tmp_path, monkeypatch
    ):
        import numpy as np

        path = tmp_path / "ck.npz"
        ctx = build_context(micro_config())
        Pipeline([QuantizeStage(), CheckpointStage(path)]).run(ctx)
        good = path.read_bytes()
        monkeypatch.setattr(
            np, "savez",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError):
            CheckpointStage(path).run(ctx)
        # The crash-mid-write left the previous capture untouched and no
        # temp files behind.
        assert path.read_bytes() == good
        assert list(tmp_path.glob("*.tmp")) == []


class TestIterationLevelResume:
    def test_killed_mid_quantize_resumes_bit_identical(self, tmp_path):
        config = micro_config()
        path = tmp_path / "ck.npz"
        reference = Pipeline([QuantizeStage()]).run(build_context(config))
        assert len(reference.rows) == 2

        with pytest.raises(Boom):
            Pipeline(
                [QuantizeStage()],
                callbacks=[CheckpointCallback(path), KillAfterRow(1)],
            ).run(build_context(config))

        resumed = Pipeline([QuantizeStage()]).resume(build_context(config), path)
        assert row_key(resumed) == row_key(reference)

    @pytest.mark.parametrize("plan_flags", [True, False],
                             ids=["with-plan-flags", "without-plan-flags"])
    def test_resume_reads_only_name_bits_frozen_of_the_plan(
        self, tmp_path, plan_flags
    ):
        # Older checkpoints carry quantize_weights/quantize_activations
        # in every plan entry, newer ones do not; either resumes to the
        # uninterrupted run's rows.
        config = micro_config()
        path = tmp_path / "ck.npz"
        reference = Pipeline([QuantizeStage()]).run(build_context(config))
        with pytest.raises(Boom):
            Pipeline(
                [QuantizeStage()],
                callbacks=[CheckpointCallback(path), KillAfterRow(1)],
            ).run(build_context(config))

        arrays, metadata = load_checkpoint(path)
        for spec in metadata["plan"]:
            spec.pop("quantize_weights", None)
            spec.pop("quantize_activations", None)
            if plan_flags:
                spec.update(quantize_weights=True, quantize_activations=True)
        save_checkpoint(path, arrays, metadata)

        resumed = Pipeline([QuantizeStage()]).resume(build_context(config), path)
        assert row_key(resumed) == row_key(reference)

    # On resnet18 the pruned conv2 layers' masks and meters live on the
    # BasicBlock, not on a conv unit: both must cross the checkpoint.
    @pytest.mark.parametrize("arch", ["vgg11", "resnet18"])
    def test_killed_mid_fused_prune_run_resumes_bit_identical(
        self, tmp_path, arch
    ):
        config = micro_config(
            model={"arch": arch}, prune={"enabled": True, "fused": True}
        )
        path = tmp_path / "ck.npz"
        reference = Pipeline([QuantizeStage()]).run(build_context(config))
        assert reference.rows[-1].channel_counts != reference.rows[0].channel_counts

        with pytest.raises(Boom):
            Pipeline(
                [QuantizeStage()],
                callbacks=[CheckpointCallback(path), KillAfterRow(1)],
            ).run(build_context(config))

        resumed = Pipeline([QuantizeStage()]).resume(build_context(config), path)
        assert row_key(resumed) == row_key(reference)

    def test_prune_stage_does_not_double_apply_on_reentry(self, tmp_path):
        config = micro_config(
            prune={"enabled": True, "fused": False, "retrain_epochs": 1}
        )
        path = tmp_path / "ck.npz"
        stages = [QuantizeStage(), PruneStage(retrain_epochs=1)]
        reference = Pipeline(stages).run(build_context(config))

        # Kill right after the prune row is reported: the checkpoint's
        # cursor points at PruneStage, which must detect its own row.
        with pytest.raises(Boom):
            Pipeline(
                [QuantizeStage(), PruneStage(retrain_epochs=1)],
                callbacks=[CheckpointCallback(path), KillAfterRow(3)],
            ).run(build_context(config))

        resumed = Pipeline(
            [QuantizeStage(), PruneStage(retrain_epochs=1)]
        ).resume(build_context(config), path)
        assert row_key(resumed) == row_key(reference)

    def test_callback_every_thins_writes(self, tmp_path, monkeypatch):
        import repro.orchestration.checkpoint as checkpoint_module

        writes = []
        real = checkpoint_module.write_checkpoint
        monkeypatch.setattr(
            checkpoint_module, "write_checkpoint",
            lambda ctx, path, cursor, **kw: writes.append(cursor) or real(
                ctx, path, cursor, **kw
            ),
        )
        path = tmp_path / "ck.npz"
        Pipeline(
            [QuantizeStage()], callbacks=[CheckpointCallback(path, every=2)]
        ).run(build_context(micro_config()))
        # Two rows with every=2 -> one row-level write; the stage
        # boundary is skipped because that write already captured the
        # stage's final state.
        assert writes == [0]
        assert path.exists()

    def test_stage_end_not_rewritten_when_final_row_captured(
        self, tmp_path, monkeypatch
    ):
        import repro.orchestration.checkpoint as checkpoint_module

        writes = []
        real = checkpoint_module.write_checkpoint
        monkeypatch.setattr(
            checkpoint_module, "write_checkpoint",
            lambda ctx, path, cursor, **kw: writes.append(cursor) or real(
                ctx, path, cursor, **kw
            ),
        )
        Pipeline(
            [QuantizeStage(), FinalTuneStage(epochs=1)],
            callbacks=[CheckpointCallback(tmp_path / "ck.npz")],
        ).run(build_context(micro_config()))
        # Rows 1 and 2 capture at cursor 0; quantize's stage end is a
        # duplicate (skipped); FinalTune emits no rows, so its boundary
        # still writes (cursor 2).
        assert writes == [0, 0, 2]


class TestRepeatedPruneStages:
    def test_fresh_run_executes_every_prune_stage(self):
        # Regression: the re-entry guard must not skip a legitimately
        # repeated PruneStage (iterative pruning) in a non-resumed run.
        config = micro_config(prune={"enabled": True, "fused": False})
        ctx = build_context(config)
        Pipeline(
            [QuantizeStage(), PruneStage(label="prune"), PruneStage(label="prune")]
        ).run(ctx)
        assert [r.label for r in ctx.report.rows].count("prune") == 2

    def test_boundary_checkpoint_does_not_skip_next_same_label_stage(
        self, tmp_path
    ):
        # Regression: a boundary checkpoint *pointing at* the second
        # same-label PruneStage must not be mistaken for that stage's
        # own mid-stage capture (whose row would already be reported).
        config = micro_config(prune={"enabled": True, "fused": False})
        path = tmp_path / "ck.npz"
        def stages():
            return [QuantizeStage(), PruneStage(), CheckpointStage(path),
                    PruneStage()]

        reference = Pipeline(stages()).run(build_context(config))
        assert [r.label for r in reference.rows].count("prune") == 2

        class KillStage(PruneStage):
            def run(self, ctx):
                raise Boom()

        with pytest.raises(Boom):
            Pipeline(
                [QuantizeStage(), PruneStage(), CheckpointStage(path),
                 KillStage()]
            ).run(build_context(config))
        resumed = Pipeline(stages()).resume(build_context(config), path)
        assert row_key(resumed) == row_key(reference)


class TestEarlyStopResume:
    def test_resumed_run_honours_restored_early_stop(self, tmp_path):
        # An early-stopped run checkpoints with stop_requested set; a
        # resume must not train the iterations the original declined.
        config = micro_config(quant={"max_iterations": 3})
        path = tmp_path / "ck.npz"

        class StopAfterFirst(PipelineCallback):
            def on_iteration_end(self, ctx, row):
                ctx.request_stop()

        class KillStage(FinalTuneStage):
            def run(self, ctx):
                raise Boom()

        reference = Pipeline(
            [QuantizeStage()], callbacks=[StopAfterFirst()]
        ).run(build_context(config))
        assert len(reference.rows) == 1

        with pytest.raises(Boom):
            Pipeline(
                [QuantizeStage(), KillStage()],
                callbacks=[CheckpointCallback(path), StopAfterFirst()],
            ).run(build_context(config))
        resumed = Pipeline([QuantizeStage(), FinalTuneStage()]).resume(
            build_context(config), path
        )
        assert row_key(resumed) == row_key(reference)


class TestQuantizeReentry:
    def test_completed_iterations_counts_unlabeled_rows(self):
        ctx = build_context(micro_config())
        Pipeline([QuantizeStage()]).run(ctx)
        assert QuantizeStage.completed_iterations(ctx) == 2

    def test_second_pipeline_continues_not_restarts(self):
        ctx = build_context(micro_config(quant={"max_iterations": 3}))
        stop = type(
            "Stop",
            (PipelineCallback,),
            {"on_iteration_end": lambda self, ctx, row: ctx.request_stop()},
        )()
        Pipeline([QuantizeStage()], callbacks=[stop]).run(ctx)
        assert [r.iteration for r in ctx.report.rows] == [1]
        Pipeline([QuantizeStage()]).run(ctx)
        # Iteration numbering continues instead of duplicating.
        assert [r.iteration for r in ctx.report.rows] == [1, 2, 3]
