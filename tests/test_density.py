"""Activation density: eqn-2 meter, monitor, saturation detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.density import (
    ActivationDensityMeter,
    DensityMonitor,
    SaturationDetector,
    activation_density,
)


class TestActivationDensityFunction:
    def test_paper_example(self):
        """512 neurons, 100 non-zero -> AD = 100/512 ~ 0.195."""
        acts = np.zeros(512)
        acts[:100] = 1.0
        assert np.isclose(activation_density(acts), 100 / 512)

    def test_all_zero(self):
        assert activation_density(np.zeros(10)) == 0.0

    def test_all_active(self):
        assert activation_density(np.ones(10)) == 1.0

    def test_threshold(self):
        acts = np.array([0.05, 0.5, 0.0])
        assert activation_density(acts, threshold=0.1) == pytest.approx(1 / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            activation_density(np.array([]))

    @given(
        st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                 min_size=1, max_size=100)
    )
    @settings(max_examples=50, deadline=None)
    def test_property_bounded(self, values):
        d = activation_density(np.array(values))
        assert 0.0 <= d <= 1.0


class TestMeter:
    def test_streaming_equals_batch(self, rng):
        x = rng.normal(size=(10, 4, 3, 3)) * (rng.random((10, 4, 3, 3)) > 0.5)
        meter = ActivationDensityMeter("l")
        for row in x:
            meter.update(row[None])
        assert np.isclose(meter.density(), activation_density(x))

    def test_empty_meter_raises(self):
        with pytest.raises(RuntimeError):
            ActivationDensityMeter().density()

    def test_reset(self, rng):
        meter = ActivationDensityMeter()
        meter.update(rng.normal(size=(2, 3)))
        meter.reset()
        assert meter.count == 0

    def test_count_tracks_total(self, rng):
        meter = ActivationDensityMeter()
        meter.update(np.ones((2, 3)))
        meter.update(np.ones((1, 3)))
        assert meter.count == 9

    def test_channel_density(self):
        # Channel 0 fully active, channel 1 dead.
        acts = np.zeros((4, 2, 3, 3))
        acts[:, 0] = 1.0
        meter = ActivationDensityMeter()
        meter.update(acts)
        assert np.allclose(meter.channel_density(), [1.0, 0.0])

    def test_channel_density_accumulates(self):
        meter = ActivationDensityMeter()
        a = np.zeros((1, 2, 2, 2))
        a[:, 0] = 1.0
        meter.update(a)
        b = np.zeros((1, 2, 2, 2))
        b[:, 1] = 1.0
        meter.update(b)
        assert np.allclose(meter.channel_density(), [0.5, 0.5])

    def test_channel_count_mismatch_raises(self):
        meter = ActivationDensityMeter()
        meter.update(np.ones((1, 2, 2, 2)))
        with pytest.raises(ValueError):
            meter.update(np.ones((1, 3, 2, 2)))

    def test_channel_density_without_data_raises(self):
        with pytest.raises(RuntimeError):
            ActivationDensityMeter().channel_density()

    def test_2d_activations_feature_channels(self):
        acts = np.array([[1.0, 0.0], [1.0, 0.0]])
        meter = ActivationDensityMeter()
        meter.update(acts)
        assert np.allclose(meter.channel_density(), [1.0, 0.0])

    def test_loads_state_with_channel_totals(self, rng):
        # Older states also carry "nonzero" and per-channel totals; they
        # load to the same densities as the counts they were made from.
        acts = rng.normal(size=(3, 4, 2, 2))
        positive = acts > 0
        state = {
            "nonzero": int(positive.sum()),
            "total": acts.size,
            "channel_nonzero": positive.sum(axis=(0, 2, 3)).tolist(),
            "channel_total": [12, 12, 12, 12],
        }
        meter = ActivationDensityMeter()
        meter.load_state(state)
        fresh = ActivationDensityMeter()
        fresh.update(acts)
        assert meter.density() == fresh.density() == state["nonzero"] / acts.size
        expected = np.asarray(state["channel_nonzero"]) / np.asarray(state["channel_total"])
        np.testing.assert_array_equal(meter.channel_density(), expected)
        np.testing.assert_array_equal(fresh.channel_density(), expected)


class TestMonitor:
    def test_record_and_latest(self):
        mon = DensityMonitor(["a", "b"])
        mon.record({"a": 0.5, "b": 0.7})
        mon.record({"a": 0.6, "b": 0.8})
        assert mon.latest() == {"a": 0.6, "b": 0.8}
        assert mon.num_epochs == 2

    def test_missing_layer_raises(self):
        mon = DensityMonitor(["a", "b"])
        with pytest.raises(KeyError):
            mon.record({"a": 0.5})

    def test_out_of_range_raises(self):
        mon = DensityMonitor(["a"])
        with pytest.raises(ValueError):
            mon.record({"a": 1.5})

    def test_total_density_mean(self):
        mon = DensityMonitor(["a", "b"])
        mon.record({"a": 0.2, "b": 0.8})
        assert np.isclose(mon.total_density(), 0.5)

    def test_total_density_weighted(self):
        mon = DensityMonitor(["a", "b"])
        mon.record({"a": 0.0, "b": 1.0})
        assert np.isclose(mon.total_density({"a": 1, "b": 3}), 0.75)

    def test_weighted_zero_total_raises(self):
        mon = DensityMonitor(["a"])
        mon.record({"a": 0.5})
        with pytest.raises(ValueError):
            mon.total_density({"a": 0})

    def test_series_and_matrix(self):
        mon = DensityMonitor(["a", "b"])
        mon.record({"a": 0.1, "b": 0.2})
        mon.record({"a": 0.3, "b": 0.4})
        assert mon.series("a") == [0.1, 0.3]
        assert mon.as_matrix().shape == (2, 2)

    def test_latest_before_record_raises(self):
        with pytest.raises(RuntimeError):
            DensityMonitor(["a"]).latest()

    def test_duplicate_names_raise(self):
        with pytest.raises(ValueError):
            DensityMonitor(["a", "a"])

    def test_reset(self):
        mon = DensityMonitor(["a"])
        mon.record({"a": 0.5})
        mon.reset()
        assert mon.num_epochs == 0


class TestSaturationDetector:
    def test_flat_series_saturates(self):
        det = SaturationDetector(window=3, tolerance=0.02)
        assert det.layer_saturated([0.5, 0.5, 0.501, 0.499])

    def test_rising_series_not_saturated(self):
        det = SaturationDetector(window=3, tolerance=0.02)
        assert not det.layer_saturated([0.1, 0.2, 0.3, 0.4])

    def test_short_series_not_saturated(self):
        det = SaturationDetector(window=5, tolerance=0.02)
        assert not det.layer_saturated([0.5, 0.5])

    def test_min_epochs_guard(self):
        det = SaturationDetector(window=2, tolerance=0.1, min_epochs=10)
        assert not det.layer_saturated([0.5] * 5)
        assert det.layer_saturated([0.5] * 10)

    def test_all_saturated(self):
        det = SaturationDetector(window=2, tolerance=0.05)
        history = {"a": [0.5, 0.5, 0.5], "b": [0.2, 0.21, 0.21]}
        assert det.all_saturated(history)

    def test_one_unsaturated_layer_blocks(self):
        det = SaturationDetector(window=2, tolerance=0.01)
        history = {"a": [0.5, 0.5], "b": [0.2, 0.4]}
        assert not det.all_saturated(history)

    def test_saturated_layers_list(self):
        det = SaturationDetector(window=2, tolerance=0.01)
        history = {"a": [0.5, 0.5], "b": [0.2, 0.4]}
        assert det.saturated_layers(history) == ["a"]

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            SaturationDetector().all_saturated({})

    @pytest.mark.parametrize("kwargs", [
        {"window": 1}, {"tolerance": 0.0}, {"min_epochs": -1},
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            SaturationDetector(**kwargs)

    def test_only_recent_window_considered(self):
        det = SaturationDetector(window=3, tolerance=0.05)
        # Early movement, recent plateau -> saturated.
        assert det.layer_saturated([0.1, 0.9, 0.5, 0.5, 0.5])
