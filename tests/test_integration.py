"""Cross-module integration tests.

These lock down the end-to-end behaviours the paper's experiments rely
on: quantization-aware training converging at low precision, AD-driven
re-quantization preserving accuracy, fake-quant/integer-PIM consistency,
and the interplay of pruning with the energy models.
"""

import numpy as np
import pytest

from repro.api import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    Pipeline,
    PipelineCallback,
    QuantConfig,
    QuantizeStage,
    build_context,
)
from repro.autograd import Tensor
from repro.core import Trainer
from repro.data import ArrayDataset, DataLoader, make_classification_images
from repro.energy import profile_model, trace_geometry
from repro.models import vgg11
from repro.nn import Adam, CrossEntropyLoss, Linear
from repro.pim import PIMAccelerator, PIMEnergyModel
from repro.quant import UniformQuantizer


@pytest.fixture
def learnable_workload(rng):
    images, labels = make_classification_images(
        4, 24, image_size=8, noise=0.4, seed=11
    )
    data = ArrayDataset(images, labels)
    train = DataLoader(data, batch_size=16, shuffle=True, rng=rng)
    test = DataLoader(data, batch_size=32)
    return train, test


class TestQuantizedTrainingConverges:
    def test_low_precision_model_learns(self, learnable_workload, rng):
        train, test = learnable_workload
        model = vgg11(num_classes=4, width_multiplier=0.125, image_size=8, rng=rng)
        for handle in model.layer_handles():
            frozen = handle.role in ("first", "last")
            handle.apply_bits(16 if frozen else 4)
        trainer = Trainer(model, Adam(model.parameters(), lr=3e-3), CrossEntropyLoss())
        trainer.fit(train, epochs=20)
        assert trainer.evaluate(test) >= 0.7

    def test_quantized_near_float_accuracy(self, learnable_workload, rng):
        """The paper's central accuracy claim, at micro scale."""
        train, test = learnable_workload
        float_model = vgg11(num_classes=4, width_multiplier=0.125, image_size=8,
                            rng=np.random.default_rng(0))
        quant_model = vgg11(num_classes=4, width_multiplier=0.125, image_size=8,
                            rng=np.random.default_rng(0))
        for handle in quant_model.layer_handles():
            frozen = handle.role in ("first", "last")
            handle.apply_bits(16 if frozen else 5)
        for model in (float_model, quant_model):
            trainer = Trainer(
                model, Adam(model.parameters(), lr=3e-3), CrossEntropyLoss()
            )
            trainer.fit(train, epochs=15)
            model._final_acc = trainer.evaluate(test)
        assert quant_model._final_acc >= float_model._final_acc - 0.15


class IterationLog(PipelineCallback):
    """The plan each iteration trained and the densities it measured."""

    def __init__(self):
        self.plans = []
        self.densities = []

    def on_iteration_end(self, ctx, row):
        self.plans.append(ctx.quantizer.plan.copy())
        self.densities.append(dict(ctx.trainer.monitor.latest()))


class TestAlgorithmOneEndToEnd:
    def test_densities_drive_bits_and_energy(self):
        config = ExperimentConfig(
            model=ModelConfig(arch="vgg11", num_classes=10,
                              width_multiplier=0.125, image_size=8, seed=11),
            data=DataConfig(train_per_class=10, test_per_class=4, image_size=8,
                            noise=0.4, seed=11, train_batch_size=16,
                            test_batch_size=32),
            quant=QuantConfig(max_iterations=3, max_epochs_per_iteration=5,
                              min_epochs_per_iteration=3, saturation_window=3,
                              saturation_tolerance=0.2),
        )
        ctx = build_context(config)
        log = IterationLog()
        Pipeline([QuantizeStage()], callbacks=[log]).run(ctx)
        assert len(log.plans) >= 2
        # Eqn 3 holds between consecutive iterations.
        first, second = log.plans[0], log.plans[1]
        for spec_new, spec_old in zip(second, first):
            if spec_old.frozen:
                assert spec_new.bits == spec_old.bits
            else:
                expected = max(1, round(spec_old.bits * log.densities[0][spec_old.name]))
                assert spec_new.bits == expected
        # Energy of the final plan beats the initial plan.
        pim = PIMEnergyModel()
        base = pim.network_energy(profile_model(ctx.model, plan=log.plans[0])).total_uj
        final = pim.network_energy(profile_model(ctx.model, plan=log.plans[-1])).total_uj
        assert final < base


class TestFakeQuantPIMConsistency:
    def test_integer_pim_matmul_equals_fake_quant_linear(self, rng):
        """Affine consistency between the training-side fake quantization
        and the PIM integer datapath.

        fake_quant(x) = codes * scale + xmin, so the float product of
        fake-quantized operands must equal the PIM integer matmul after
        affine correction.
        """
        bits = 4
        x = rng.normal(size=(5, 12))
        layer = Linear(12, 7, bias=False, rng=rng)
        w = layer.weight.data.T  # (12, 7)

        xq = UniformQuantizer(bits, dynamic=False).calibrate(x)
        wq = UniformQuantizer(bits, dynamic=False).calibrate(w)
        x_codes = xq.encode(x)
        w_codes = wq.encode(w)
        x_scale = (xq.x_max - xq.x_min) / (2**bits - 1)
        w_scale = (wq.x_max - wq.x_min) / (2**bits - 1)

        acc = PIMAccelerator(rows=16, cols=32)
        acc.load_matrix(w_codes, bits)
        int_result = acc.matmul(x_codes)

        # Affine expansion of (cx*sx + mx) @ (cw*sw + mw).
        k = x.shape[1]
        expected = (
            int_result * x_scale * w_scale
            + (x_codes.sum(axis=1, keepdims=True) * x_scale) * wq.x_min
            + xq.x_min * (w_codes.sum(axis=0, keepdims=True) * w_scale)
            + k * xq.x_min * wq.x_min
        )
        fq_product = xq.fake_quant(x) @ wq.fake_quant(w)
        assert np.allclose(expected, fq_product, atol=1e-9)


class TestPrunedEnergyAccounting:
    def test_pruning_halves_mac_energy_roughly(self, rng, tiny_loader):
        model = vgg11(num_classes=4, width_multiplier=0.25, image_size=8, rng=rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3), CrossEntropyLoss())
        trainer.train_epoch(tiny_loader)
        trace_geometry(model, (3, 8, 8))
        pim = PIMEnergyModel()
        base = pim.network_energy(profile_model(model, default_bits=16)).total_uj

        from repro.core import ADPruner

        pruner = ADPruner(model.layer_handles())
        pruner.prune_step({h.name: 0.5 for h in pruner.prunable_handles()})
        pruned = pim.network_energy(profile_model(model, default_bits=16)).total_uj
        # Hidden-layer MACs scale ~quadratically with the kept fraction;
        # boundary layers are unpruned, so expect somewhere in (0.25, 0.8).
        assert 0.15 * base < pruned < 0.8 * base

    def test_pruned_model_still_trains(self, rng, tiny_loader):
        model = vgg11(num_classes=4, width_multiplier=0.25, image_size=8, rng=rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=2e-3), CrossEntropyLoss())
        trainer.train_epoch(tiny_loader)

        from repro.core import ADPruner

        pruner = ADPruner(model.layer_handles())
        pruner.prune_step({h.name: 0.5 for h in pruner.prunable_handles()})
        before = trainer.train_epoch(tiny_loader).loss
        for _ in range(6):
            after = trainer.train_epoch(tiny_loader).loss
        assert after < before

    def test_masked_channels_receive_no_gradient(self, rng, tiny_loader):
        model = vgg11(num_classes=4, width_multiplier=0.25, image_size=8, rng=rng)
        handle = model.layer_handles().by_name("conv3")
        mask = np.ones(handle.out_channels)
        mask[0] = 0.0
        handle.set_channel_mask(mask)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3), CrossEntropyLoss())
        images, labels = next(iter(tiny_loader))
        trainer.optimizer.zero_grad()
        loss = trainer.loss_fn(model(Tensor(images)), labels)
        loss.backward()
        grad = handle.unit.conv.weight.grad
        assert grad is not None
        assert np.allclose(grad[0], 0.0)
        assert not np.allclose(grad[1], 0.0)


class TestCheckpointResume:
    def test_quantized_model_roundtrip(self, tmp_path, rng, tiny_loader):
        from repro.utils import load_checkpoint, save_checkpoint

        model = vgg11(num_classes=4, width_multiplier=0.125, image_size=8, rng=rng)
        for handle in model.layer_handles():
            handle.apply_bits(8)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3), CrossEntropyLoss())
        trainer.fit(tiny_loader, epochs=2)
        save_checkpoint(tmp_path / "m.npz", model.state_dict())

        clone = vgg11(num_classes=4, width_multiplier=0.125, image_size=8,
                      rng=np.random.default_rng(99))
        for handle in clone.layer_handles():
            handle.apply_bits(8)
        state, _ = load_checkpoint(tmp_path / "m.npz")
        clone.load_state_dict(state)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        model.eval()
        clone.eval()
        assert np.allclose(model(x).data, clone(x).data)
