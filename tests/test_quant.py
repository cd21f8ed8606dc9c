"""Quantization: eqn-1 quantizer, STE fake-quant, plans and snapping.

Includes hypothesis property tests on the quantizer's core invariants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.quant import (
    HARDWARE_PRECISIONS,
    FakeQuantize,
    LayerQuantSpec,
    QuantizationPlan,
    STEQuantFunction,
    UniformQuantizer,
    dequantize,
    quantize,
    snap_to_hardware_precision,
)

arrays = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=64
).map(lambda xs: np.array(xs))


class TestQuantizeFunction:
    def test_eqn1_worked_example(self):
        # x in [0, 3], k=2: levels {0,1,2,3}, scale = 1.
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(quantize(x, 2), [0, 1, 2, 3])

    def test_codes_in_range(self, rng):
        x = rng.normal(size=100)
        codes = quantize(x, 3)
        assert codes.min() >= 0
        assert codes.max() <= 7

    def test_degenerate_range_maps_to_zero(self):
        assert np.array_equal(quantize(np.full(5, 2.5), 4), np.zeros(5))

    def test_explicit_range_clips(self):
        codes = quantize(np.array([-10.0, 10.0]), 4, x_min=0.0, x_max=1.0)
        assert np.array_equal(codes, [0, 15])

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize(np.ones(3), 0)

    def test_inverted_range_raises(self):
        with pytest.raises(ValueError):
            quantize(np.ones(3), 4, x_min=1.0, x_max=0.0)

    def test_dequantize_endpoints(self):
        vals = dequantize(np.array([0, 15]), 4, -2.0, 2.0)
        assert np.allclose(vals, [-2.0, 2.0])

    def test_dequantize_degenerate(self):
        vals = dequantize(np.array([0, 0]), 4, 1.5, 1.5)
        assert np.allclose(vals, [1.5, 1.5])

    def test_dequantize_invalid_bits(self):
        with pytest.raises(ValueError):
            dequantize(np.array([0, 1]), 0, 0.0, 1.0)

    @given(arrays, st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_property_fake_quant_error_bounded(self, x, bits):
        """|x - Q(x)| <= half a quantization step, for all inputs."""
        quantizer = UniformQuantizer(bits)
        reconstructed = quantizer.fake_quant(x)
        span = x.max() - x.min()
        if span == 0:
            assert np.allclose(reconstructed, x.min())
            return
        step = span / (2**bits - 1)
        assert np.all(np.abs(reconstructed - x) <= step / 2 + 1e-9 * max(1.0, span))

    @given(arrays, st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_property_level_count(self, x, bits):
        """Fake-quantized output takes at most 2^bits distinct values."""
        out = UniformQuantizer(bits).fake_quant(x)
        assert len(np.unique(out)) <= 2**bits

    @given(arrays)
    @settings(max_examples=40, deadline=None)
    def test_property_idempotent(self, x):
        """Fake quantization is idempotent at fixed range/bits."""
        q = UniformQuantizer(4, dynamic=False).calibrate(x)
        once = q.fake_quant(x)
        twice = q.fake_quant(once)
        assert np.allclose(once, twice)

    @given(arrays, st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_property_endpoints_exactly_representable(self, x, bits):
        """Min-max quantization reproduces the range endpoints exactly.

        (Note: error is *not* pointwise monotone in bits — the 2^k grids
        are not nested — but each grid always contains x_min and x_max.)
        """
        out = UniformQuantizer(bits).fake_quant(x)
        span = max(1.0, float(np.abs(x).max()))
        assert np.min(np.abs(out - x.min())) <= 1e-9 * span
        assert np.min(np.abs(out - x.max())) <= 1e-9 * span


class TestUniformQuantizer:
    def test_static_requires_calibration(self):
        q = UniformQuantizer(4, dynamic=False)
        with pytest.raises(RuntimeError):
            q.encode(np.ones(3))

    def test_static_reuses_range(self, rng):
        q = UniformQuantizer(4, dynamic=False).calibrate(np.array([0.0, 1.0]))
        codes = q.encode(np.array([2.0]))  # clipped to calibration range
        assert codes[0] == 15

    def test_num_levels(self):
        assert UniformQuantizer(3).num_levels == 8

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            UniformQuantizer(0)

    def test_static_decode_uses_the_calibrated_range(self):
        q = UniformQuantizer(2, dynamic=False).calibrate(np.array([-1.0, 2.0]))
        assert np.allclose(q.decode(np.array([0, 1, 2, 3])), [-1.0, 0.0, 1.0, 2.0])

    def test_dynamic_decode_uses_the_reference_range(self, rng):
        x = rng.normal(size=30)
        q = UniformQuantizer(3)
        assert np.allclose(q.decode(q.encode(x), reference=x), q.fake_quant(x))

    def test_dynamic_decode_requires_reference(self):
        q = UniformQuantizer(4)
        with pytest.raises(ValueError):
            q.decode(np.array([1]))

    def test_encode_decode_roundtrip_static(self, rng):
        x = rng.normal(size=50)
        q = UniformQuantizer(8, dynamic=False).calibrate(x)
        reconstructed = q.decode(q.encode(x))
        assert np.allclose(reconstructed, q.fake_quant(x))

    def test_one_bit_two_levels(self, rng):
        x = rng.normal(size=100)
        out = UniformQuantizer(1).fake_quant(x)
        assert set(np.round(np.unique(out), 9)) <= {
            round(x.min(), 9),
            round(x.max(), 9),
        }


class TestSTE:
    def test_forward_is_quantized(self, rng):
        x = Tensor(rng.normal(size=20), requires_grad=True)
        out = STEQuantFunction(x, UniformQuantizer(2))
        assert len(np.unique(out.data)) <= 4

    def test_gradient_passes_straight_through(self, rng):
        x = Tensor(rng.normal(size=20), requires_grad=True)
        out = STEQuantFunction(x, UniformQuantizer(2))
        upstream = rng.normal(size=20)
        out.backward(upstream)
        assert np.allclose(x.grad, upstream)

    def test_fake_quantize_wrapper_disabled(self, rng):
        fq = FakeQuantize(4, enabled=False)
        x = Tensor(rng.normal(size=5))
        assert fq(x) is x

    def test_fake_quantize_bits_setter(self):
        fq = FakeQuantize(8)
        fq.bits = 3
        assert fq.bits == 3
        with pytest.raises(ValueError):
            fq.bits = 0

    def test_fake_quantize_repr(self):
        assert repr(FakeQuantize(4)) == "FakeQuantize(4b)"
        assert repr(FakeQuantize(4, enabled=False)) == "FakeQuantize(disabled)"


class TestSnapping:
    @pytest.mark.parametrize(
        "bits,expected",
        [(1, 2), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8), (9, 16), (16, 16),
         (22, 16), (24, 16), (32, 16)],
    )
    def test_paper_rule(self, bits, expected):
        """'3-bits would be translated to 4-bits, 5-bits to 8-bits'; above
        the largest supported precision the platform saturates at 16."""
        assert snap_to_hardware_precision(bits) == expected

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            snap_to_hardware_precision(0)

    def test_custom_supported_set(self):
        assert snap_to_hardware_precision(3, (4, 8)) == 4
        assert snap_to_hardware_precision(9, (4, 8)) == 8

    def test_hardware_precisions_constant(self):
        assert HARDWARE_PRECISIONS == (2, 4, 8, 16)


class TestPlan:
    def make_plan(self):
        return QuantizationPlan(
            [
                LayerQuantSpec("conv1", 16, frozen=True),
                LayerQuantSpec("conv2", 5),
                LayerQuantSpec("fc", 16, frozen=True),
            ]
        )

    def test_bit_widths(self):
        assert self.make_plan().bit_widths() == [16, 5, 16]

    def test_hardware_bit_widths(self):
        assert self.make_plan().hardware_bit_widths() == [16, 8, 16]

    def test_by_name(self):
        assert self.make_plan().by_name("conv2").bits == 5
        with pytest.raises(KeyError):
            self.make_plan().by_name("missing")

    def test_copy_is_deep(self):
        plan = self.make_plan()
        clone = plan.copy()
        clone.specs[1].bits = 2
        assert plan.specs[1].bits == 5

    def test_len_iter_getitem(self):
        plan = self.make_plan()
        assert len(plan) == 3
        assert plan[0].name == "conv1"
        assert [s.name for s in plan] == ["conv1", "conv2", "fc"]

    def test_invalid_spec_bits(self):
        with pytest.raises(ValueError):
            LayerQuantSpec("x", 0)
