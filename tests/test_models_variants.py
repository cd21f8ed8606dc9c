"""Model variants: BN-free VGG, width extremes, geometry recording."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import Trainer
from repro.models import resnet18, vgg11, vgg19
from repro.nn import Adam, CrossEntropyLoss


class TestBatchNormFreeVGG:
    def test_no_bn_modules(self, rng):
        model = vgg19(width_multiplier=0.125, batch_norm=False, rng=rng)
        for handle in model.layer_handles():
            if handle.is_conv:
                assert handle.unit.bn is None

    def test_conv_has_bias_without_bn(self, rng):
        model = vgg11(width_multiplier=0.125, batch_norm=False, rng=rng)
        first = model.layer_handles()[0].unit
        assert first.conv.bias is not None

    def test_conv_has_no_bias_with_bn(self, rng):
        model = vgg11(width_multiplier=0.125, batch_norm=True, rng=rng)
        first = model.layer_handles()[0].unit
        assert first.conv.bias is None

    def test_forward_and_train_step(self, rng, tiny_loader):
        model = vgg11(
            num_classes=4, width_multiplier=0.125, image_size=8,
            batch_norm=False, rng=rng,
        )
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3), CrossEntropyLoss())
        stats = trainer.train_epoch(tiny_loader)
        assert np.isfinite(stats.loss)

    def test_bn_free_density_not_pinned_at_half(self, rng, tiny_loader):
        """BN pins post-ReLU density near 0.5; without BN it can drift."""
        model = vgg11(
            num_classes=4, width_multiplier=0.125, image_size=8,
            batch_norm=False, rng=rng,
        )
        trainer = Trainer(model, Adam(model.parameters(), lr=2e-3), CrossEntropyLoss())
        for _ in range(6):
            trainer.train_epoch(tiny_loader)
        values = np.array(list(trainer.monitor.latest().values()))
        assert values.std() > 0.02  # heterogeneous profile


class TestGeometryRecording:
    def test_conv_units_record_spatial_sizes(self, rng):
        model = vgg19(width_multiplier=0.125, rng=rng)
        model.eval()
        model(Tensor(rng.normal(size=(1, 3, 32, 32))))
        first = model.layer_handles()[0].unit
        assert first.last_input_hw == (32, 32)
        assert first.last_output_hw == (32, 32)

    def test_resnet_downsample_geometry(self, rng):
        model = resnet18(width_multiplier=0.125, rng=rng)
        model.eval()
        model(Tensor(rng.normal(size=(1, 3, 32, 32))))
        block3 = list(model.blocks)[2]  # stage-2 entry, stride 2
        assert block3.downsample is not None
        assert block3.downsample.last_input_hw == (32, 32)
        assert block3.downsample.last_output_hw == (16, 16)


class TestWidthExtremes:
    @pytest.mark.parametrize("width", [0.0625, 0.5, 1.0])
    def test_vgg_param_count_scales(self, rng, width):
        model = vgg11(width_multiplier=width, rng=rng)
        first = model.layer_handles()[0].unit
        assert first.conv.out_channels == max(1, round(64 * width))

    def test_resnet_width_scaling(self, rng):
        narrow = resnet18(width_multiplier=0.125, rng=rng)
        wide = resnet18(width_multiplier=0.25, rng=np.random.default_rng(0))
        n_narrow, n_wide = (sum(p.data.size for p in model.parameters())
                            for model in (narrow, wide))
        assert n_wide > 3 * n_narrow


class TestRegistryNavigation:
    def test_by_name_and_names(self, micro_resnet):
        registry = micro_resnet.layer_handles()
        assert registry.by_name("conv1").role == "first"
        assert registry.names()[0] == "conv1"
        assert registry.names()[-1] == "fc"
        with pytest.raises(KeyError):
            registry.by_name("bogus")

    def test_duplicate_names_rejected(self, micro_vgg):
        from repro.models.registry import LayerRegistry

        handles = list(micro_vgg.layer_handles())
        with pytest.raises(ValueError):
            LayerRegistry(handles + [handles[0]])

    def test_meters_map(self, micro_vgg):
        meters = micro_vgg.layer_handles().meters()
        assert set(meters) == set(micro_vgg.layer_handles().names())

    def test_current_bits_none_when_unquantized(self, micro_vgg):
        for handle in micro_vgg.layer_handles():
            assert handle.current_bits() is None

    def test_apply_bits_disabled_reports_none(self, micro_vgg):
        handle = micro_vgg.layer_handles()[1]
        handle.apply_bits(8, enabled=False)
        assert handle.current_bits() is None
