"""AD-based channel pruning (eqn. 5)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import ADPruner, Trainer
from repro.nn import Adam, CrossEntropyLoss


def run_density_pass(model, loader):
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-3), CrossEntropyLoss())
    trainer.train_epoch(loader)
    return trainer


class TestPlanComputation:
    def test_eqn5_rounding(self, micro_vgg):
        pruner = ADPruner(micro_vgg.layer_handles())
        densities = {h.name: 0.5 for h in pruner.prunable_handles()}
        plan = pruner.compute_plan(densities)
        for handle in pruner.prunable_handles():
            assert plan[handle.name] == max(1, round(handle.out_channels * 0.5))

    def test_min_channels_floor(self, micro_vgg):
        pruner = ADPruner(micro_vgg.layer_handles(), min_channels=2)
        densities = {h.name: 0.0 for h in pruner.prunable_handles()}
        plan = pruner.compute_plan(densities)
        assert all(c == 2 for c in plan.channels.values())

    def test_invalid_min_channels(self, micro_vgg):
        with pytest.raises(ValueError):
            ADPruner(micro_vgg.layer_handles(), min_channels=0)

    def test_first_last_not_prunable(self, micro_vgg):
        pruner = ADPruner(micro_vgg.layer_handles())
        names = [h.name for h in pruner.prunable_handles()]
        assert "conv1" not in names
        assert "fc" not in names

    def test_out_of_range_density(self, micro_vgg):
        pruner = ADPruner(micro_vgg.layer_handles())
        densities = {h.name: 2.0 for h in pruner.prunable_handles()}
        with pytest.raises(ValueError):
            pruner.compute_plan(densities)


class TestApplyPlan:
    def test_masks_keep_densest_channels(self, micro_vgg, tiny_loader):
        run_density_pass(micro_vgg, tiny_loader)
        pruner = ADPruner(micro_vgg.layer_handles())
        handle = pruner.prunable_handles()[0]
        scores = handle.meter.channel_density()
        pruner.apply_plan(pruner.compute_plan({h.name: 0.5 for h in pruner.prunable_handles()}))
        mask = np.asarray(handle.host.channel_mask)
        kept = np.flatnonzero(mask)
        dropped = np.flatnonzero(mask == 0)
        if dropped.size and kept.size:
            assert scores[kept].min() >= scores[dropped].max() - 1e-12

    def test_active_channels_match_plan(self, micro_vgg, tiny_loader):
        run_density_pass(micro_vgg, tiny_loader)
        pruner = ADPruner(micro_vgg.layer_handles())
        densities = {h.name: 0.6 for h in pruner.prunable_handles()}
        plan = pruner.prune_step(densities)
        for handle in pruner.prunable_handles():
            assert handle.active_channels() == plan[handle.name]

    def test_pruning_never_regrows(self, micro_vgg, tiny_loader):
        trainer = run_density_pass(micro_vgg, tiny_loader)
        pruner = ADPruner(micro_vgg.layer_handles())
        pruner.prune_step({h.name: 0.4 for h in pruner.prunable_handles()})
        counts_after_first = {
            h.name: h.active_channels() for h in pruner.prunable_handles()
        }
        trainer.train_epoch(tiny_loader)  # refresh meters at new widths
        pruner.prune_step({h.name: 1.0 for h in pruner.prunable_handles()})
        for handle in pruner.prunable_handles():
            assert handle.active_channels() == counts_after_first[handle.name]

    def test_iterative_pruning_compounds(self, micro_vgg, tiny_loader):
        trainer = run_density_pass(micro_vgg, tiny_loader)
        pruner = ADPruner(micro_vgg.layer_handles())
        pruner.prune_step({h.name: 0.5 for h in pruner.prunable_handles()})
        trainer.train_epoch(tiny_loader)
        pruner.prune_step({h.name: 0.5 for h in pruner.prunable_handles()})
        handle = pruner.prunable_handles()[0]
        expected = max(1, round(max(1, round(handle.out_channels * 0.5)) * 0.5))
        assert handle.active_channels() == expected

    def test_invalid_budget_rejected(self, micro_vgg, tiny_loader):
        from repro.core import PruningPlan

        run_density_pass(micro_vgg, tiny_loader)
        pruner = ADPruner(micro_vgg.layer_handles())
        handle = pruner.prunable_handles()[0]
        with pytest.raises(ValueError):
            pruner.apply_plan(PruningPlan({handle.name: handle.out_channels + 1}))

    def test_forward_still_works_after_pruning(self, micro_vgg, tiny_loader, rng):
        run_density_pass(micro_vgg, tiny_loader)
        pruner = ADPruner(micro_vgg.layer_handles())
        pruner.prune_step({h.name: 0.5 for h in pruner.prunable_handles()})
        out = micro_vgg(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 4)
        assert np.isfinite(out.data).all()

    def test_resnet_block_pruning_preserves_shapes(
        self, micro_resnet, tiny_loader, rng
    ):
        run_density_pass(micro_resnet, tiny_loader)
        pruner = ADPruner(micro_resnet.layer_handles())
        pruner.prune_step({h.name: 0.5 for h in pruner.prunable_handles()})
        out = micro_resnet(Tensor(rng.normal(size=(2, 3, 16, 16))))
        assert out.shape == (2, 4)

    def test_current_plan_reflects_model(self, micro_vgg, tiny_loader):
        run_density_pass(micro_vgg, tiny_loader)
        pruner = ADPruner(micro_vgg.layer_handles())
        before = pruner.current_plan()
        assert all(
            before[h.name] == h.out_channels for h in pruner.prunable_handles()
        )


class TestPruningPlan:
    def test_channel_counts_ordering(self):
        from repro.core import PruningPlan

        plan = PruningPlan({"a": 3, "b": 7})
        assert plan.channel_counts(["b", "a", "missing"]) == [7, 3]
        assert "a" in plan
        assert plan["b"] == 7
