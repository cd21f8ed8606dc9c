"""VGG/ResNet topology, registry wiring, skip-connection rules."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models import resnet18, vgg11, vgg16, vgg19
from repro.models.blocks import ConvUnit, MeasurementContext
from repro.models.registry import LayerHandle, LayerRegistry
from repro.quant import FakeQuantize


def registered(unit):
    """``unit`` as the one layer of a registry, which gives it its meter."""
    LayerRegistry([LayerHandle(unit.name, unit)])
    return unit


class TestVGGTopology:
    def test_vgg19_layer_count_matches_table2a(self, rng):
        model = vgg19(width_multiplier=0.125, rng=rng)
        # Table II(a) bit vectors have 17 entries: 16 convs + 1 FC.
        assert len(model.layer_handles()) == 17

    def test_vgg16_and_vgg11_counts(self, rng):
        assert len(vgg16(width_multiplier=0.125, rng=rng).layer_handles()) == 14
        assert len(vgg11(width_multiplier=0.125, rng=rng).layer_handles()) == 9

    def test_roles(self, rng):
        registry = vgg19(width_multiplier=0.125, rng=rng).layer_handles()
        assert registry[0].role == "first"
        assert registry[-1].role == "last"
        assert all(h.role == "hidden" for h in list(registry)[1:-1])

    def test_forward_shape(self, rng):
        model = vgg19(num_classes=10, width_multiplier=0.125, rng=rng)
        out = model(Tensor(rng.normal(size=(2, 3, 32, 32))))
        assert out.shape == (2, 10)

    def test_small_image_skips_late_pools(self, rng):
        model = vgg19(num_classes=4, width_multiplier=0.125, image_size=8, rng=rng)
        out = model(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert out.shape == (1, 4)

    def test_width_multiplier_scales_channels(self, rng):
        model = vgg19(width_multiplier=0.5, rng=rng)
        first = model.layer_handles()[0].unit
        assert first.conv.out_channels == 32

    def test_channel_floor_at_one(self, rng):
        model = vgg11(width_multiplier=0.001, rng=rng)
        assert all(
            h.unit.conv.out_channels >= 1
            for h in model.layer_handles()
            if h.is_conv
        )

    def test_quantizable_excludes_first_last(self, rng):
        registry = vgg19(width_multiplier=0.125, rng=rng).layer_handles()
        names = [h.name for h in registry.quantizable()]
        assert "conv1" not in names
        assert "fc" not in names
        assert len(names) == 15

    def test_disabled_unit_passthrough(self, rng):
        model = vgg11(num_classes=4, width_multiplier=0.25, image_size=16, rng=rng)
        # Batch > 1: with a single sample, train-mode BN on 1x1 feature
        # maps has zero variance and zeroes the deep activations.
        x = Tensor(rng.normal(size=(4, 3, 16, 16)))
        # conv with equal in/out channels can be disabled.
        handle = next(
            h for h in model.layer_handles()
            if h.is_conv and h.unit.conv.in_channels == h.unit.conv.out_channels
        )
        baseline = model(x).data
        handle.unit.enabled = False
        changed = model(x).data
        handle.unit.enabled = True
        assert changed.shape == baseline.shape
        assert not np.allclose(changed, baseline)


class TestResNetTopology:
    def test_layer_count_18(self, rng):
        # stem + 16 block convs + fc.
        assert len(resnet18(width_multiplier=0.125, rng=rng).layer_handles()) == 18

    def test_forward_shape(self, rng):
        model = resnet18(num_classes=7, width_multiplier=0.125, rng=rng)
        out = model(Tensor(rng.normal(size=(2, 3, 32, 32))))
        assert out.shape == (2, 7)

    def test_downsample_blocks_have_followers(self, rng):
        registry = resnet18(width_multiplier=0.125, rng=rng).layer_handles()
        followed = [h for h in registry if h.follower_units]
        # Stages 2-4 entry blocks have projection skips: 3 blocks.
        assert len(followed) == 3
        assert all(h.name.endswith("conv2") for h in followed)

    def test_all_conv2_have_skip_quant_follower(self, rng):
        registry = resnet18(width_multiplier=0.125, rng=rng).layer_handles()
        conv2_handles = [h for h in registry if h.name.endswith("conv2")]
        assert len(conv2_handles) == 8
        assert all(len(h.follower_quants) == 1 for h in conv2_handles)

    def test_apply_bits_synchronizes_skip_branch(self, rng):
        model = resnet18(width_multiplier=0.125, rng=rng)
        handle = model.layer_handles().by_name("block3.conv2")
        handle.apply_bits(4)
        block = handle.host
        assert block.skip_quant.enabled
        assert block.skip_quant.bits == 4
        assert handle.follower_units[0].conv.weight_fake_quant.bits == 4
        assert block.act_quant.bits == 4

    def test_stage_downsampling_spatial(self, rng):
        model = resnet18(width_multiplier=0.125, rng=rng)
        model(Tensor(rng.normal(size=(1, 3, 32, 32))))
        blocks = list(model.blocks)
        assert blocks[0].unit1.last_output_hw == (32, 32)
        assert blocks[2].unit1.last_output_hw == (16, 16)
        assert blocks[4].unit1.last_output_hw == (8, 8)
        assert blocks[6].unit1.last_output_hw == (4, 4)

    def test_quantizable_excludes_first_last(self, rng):
        registry = resnet18(width_multiplier=0.125, rng=rng).layer_handles()
        assert len(registry.quantizable()) == 16

    def test_invalid_stage_count(self, rng):
        from repro.models import ResNet

        with pytest.raises(ValueError):
            ResNet([2, 2, 2], rng=rng)


class TestConvUnitInstrumentation:
    def test_meter_collects_only_when_enabled(self, rng):
        ctx = MeasurementContext()
        unit = registered(ConvUnit("u", 2, 4, 3, ctx, padding=1, rng=rng))
        unit(Tensor(rng.normal(size=(1, 2, 5, 5))))
        assert unit.meter.count == 0
        ctx.enabled = True
        unit(Tensor(rng.normal(size=(1, 2, 5, 5))))
        assert unit.meter.count == 4 * 25

    def test_act_quant_levels(self, rng):
        ctx = MeasurementContext()
        unit = ConvUnit("u", 2, 4, 3, ctx, padding=1, rng=rng)
        unit.act_quant = FakeQuantize(2)
        out = unit(Tensor(rng.normal(size=(1, 2, 5, 5))))
        assert len(np.unique(out.data)) <= 4

    def test_channel_mask_zeroes_output(self, rng):
        ctx = MeasurementContext()
        unit = ConvUnit("u", 2, 4, 3, ctx, padding=1, rng=rng)
        mask = np.array([1.0, 0.0, 1.0, 0.0])
        unit.set_channel_mask(mask)
        out = unit(Tensor(rng.normal(size=(1, 2, 5, 5))))
        assert np.all(out.data[:, 1] == 0)
        assert np.all(out.data[:, 3] == 0)
        assert not np.all(out.data[:, 0] == 0)

    def test_mask_validation(self, rng):
        ctx = MeasurementContext()
        unit = ConvUnit("u", 2, 4, 3, ctx, rng=rng)
        with pytest.raises(ValueError):
            unit.set_channel_mask(np.ones(3))
        with pytest.raises(ValueError):
            unit.set_channel_mask(np.full(4, 0.5))
        with pytest.raises(ValueError):
            unit.set_channel_mask(np.zeros(4))

    def test_masked_channels_excluded_from_meter(self, rng):
        ctx = MeasurementContext()
        unit = registered(ConvUnit("u", 2, 4, 3, ctx, padding=1, rng=rng))
        unit.set_channel_mask(np.array([1.0, 0.0, 1.0, 1.0]))
        ctx.enabled = True
        unit(Tensor(rng.normal(size=(2, 2, 5, 5))))
        # Meter sees 3 active channels x 25 positions x 2 images.
        assert unit.meter.count == 3 * 25 * 2

    def test_active_channels(self, rng):
        ctx = MeasurementContext()
        unit = ConvUnit("u", 2, 4, 3, ctx, rng=rng)
        assert unit.active_channels() == 4
        unit.set_channel_mask(np.array([1.0, 1.0, 0.0, 0.0]))
        assert unit.active_channels() == 2


class TestBasicBlockInstrumentation:
    def test_block_mask_applied_post_add(self, rng):
        model = resnet18(width_multiplier=0.125, rng=rng)
        block = list(model.blocks)[0]
        channels = block.out_channels
        mask = np.ones(channels)
        mask[0] = 0.0
        block.set_channel_mask(mask)
        out = model.stem(Tensor(rng.normal(size=(1, 3, 8, 8))))
        out = block(out)
        assert np.all(out.data[:, 0] == 0)

    def test_only_registry_hosts_are_measured(self, rng):
        # The 8 pre-add units and 3 downsample convs are not registry
        # layers: one forward with measurement on must feed the 18
        # registry hosts' meters and nothing else.
        model = resnet18(width_multiplier=0.125, rng=rng)
        model.ctx.enabled = True
        model(Tensor(rng.normal(size=(2, 3, 8, 8))))
        metered = [m for m in model.modules() if getattr(m, "meter", None) is not None]
        registry = model.layer_handles()
        assert {id(m) for m in metered} == {id(h.host) for h in registry}
        assert len(metered) == len(registry) == 18
        assert all(h.meter.count > 0 for h in registry)

    def test_block_meter_via_registry(self, rng):
        model = resnet18(width_multiplier=0.125, rng=rng)
        handle = model.layer_handles().by_name("block1.conv2")
        model.ctx.enabled = True
        model(Tensor(rng.normal(size=(1, 3, 8, 8))))
        model.ctx.enabled = False
        assert handle.meter.count > 0

    def test_registry_rejects_bad_role(self, rng):
        from repro.models.registry import LayerHandle

        ctx = MeasurementContext()
        unit = ConvUnit("u", 2, 2, 3, ctx, rng=rng)
        with pytest.raises(ValueError):
            LayerHandle("u", unit, role="middle")
