"""Extension features: XNOR 1-bit datapath and report export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    Pipeline,
    QuantConfig,
    QuantizeStage,
    build_context,
)
from repro.core.export import (
    load_report_json,
    report_to_dict,
    save_report_csv,
    save_report_json,
)
from repro.core.report import ExperimentReport, TableRow
from repro.pim.xnor import XNORAccelerator, binarize, xnor_gemm


class TestBinarize:
    def test_signs(self):
        assert np.array_equal(binarize(np.array([-0.5, 0.0, 2.0])), [-1, 1, 1])

    def test_output_is_pm_one(self, rng):
        out = binarize(rng.normal(size=50))
        assert set(np.unique(out)) <= {-1, 1}


class TestXNORAccelerator:
    def test_matches_integer_matmul(self, rng):
        weights = binarize(rng.normal(size=(37, 11)))
        acts = binarize(rng.normal(size=(6, 37)))
        assert np.array_equal(xnor_gemm(acts, weights), acts @ weights)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_exact_pm1_gemm(self, k_dim, o_dim, seed):
        rng = np.random.default_rng(seed)
        weights = binarize(rng.normal(size=(k_dim, o_dim)))
        acts = binarize(rng.normal(size=(3, k_dim)))
        assert np.array_equal(xnor_gemm(acts, weights), acts @ weights)

    def test_stats_counted(self, rng):
        engine = XNORAccelerator()
        engine.load_weights(binarize(rng.normal(size=(10, 4))))
        engine.matvec(binarize(rng.normal(size=10)))
        assert engine.stats.xnor_ops == 40
        assert engine.stats.popcounts == 4

    def test_rejects_non_sign_inputs(self, rng):
        engine = XNORAccelerator()
        with pytest.raises(ValueError):
            engine.load_weights(rng.normal(size=(4, 2)))

    def test_requires_load(self):
        with pytest.raises(RuntimeError):
            XNORAccelerator().matvec(np.ones(4, dtype=int))

    def test_shape_check(self, rng):
        engine = XNORAccelerator()
        engine.load_weights(binarize(rng.normal(size=(10, 4))))
        with pytest.raises(ValueError):
            engine.matvec(np.ones(5, dtype=int))

    def test_as_pim_array(self, rng):
        engine = XNORAccelerator()
        weights = binarize(rng.normal(size=(6, 3)))
        engine.load_weights(weights)
        array = engine.as_pim_array()
        assert np.array_equal(array.read_bits(), (weights + 1) // 2)


def make_report():
    report = ExperimentReport("VGG19", "cifar10-syn", ["conv1", "conv2", "fc"])
    report.rows.append(
        TableRow(1, [16, 16, 16], 0.5, 0.47, 1.0, 8, 1.0)
    )
    report.rows.append(
        TableRow(2, [16, 8, 16], 0.55, 0.46, 2.0, 5, 0.52,
                 channel_counts=[32], label="")
    )
    return report


class TestReportExport:
    def test_dict_roundtrip_fields(self):
        payload = report_to_dict(make_report())
        assert payload["architecture"] == "VGG19"
        assert len(payload["rows"]) == 2
        assert payload["rows"][1]["bit_widths"] == [16, 8, 16]

    def test_json_roundtrip(self, tmp_path):
        report = make_report()
        path = tmp_path / "report.json"
        save_report_json(report, path)
        loaded = load_report_json(path)
        assert loaded.architecture == report.architecture
        assert loaded.rows[1].bit_widths == report.rows[1].bit_widths
        assert loaded.rows[1].channel_counts == report.rows[1].channel_counts
        assert loaded.rows[0].train_complexity == 1.0

    def test_csv_contents(self, tmp_path):
        path = tmp_path / "report.csv"
        save_report_csv(make_report(), path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3  # header + 2 rows
        assert "bit_widths" in lines[0]
        assert "[16, 8, 16]" in lines[2]

    def test_export_from_live_runner(self, tmp_path):
        config = ExperimentConfig(
            model=ModelConfig(arch="vgg11", num_classes=10,
                              width_multiplier=0.0625, image_size=8),
            data=DataConfig(train_per_class=2, test_per_class=2, image_size=8,
                            train_batch_size=8, test_batch_size=16),
            quant=QuantConfig(max_iterations=1, max_epochs_per_iteration=2,
                              min_epochs_per_iteration=1, saturation_window=2,
                              saturation_tolerance=0.9),
        )
        report = Pipeline([QuantizeStage()]).run(build_context(config))
        save_report_json(report, tmp_path / "live.json")
        loaded = load_report_json(tmp_path / "live.json")
        assert loaded.rows[0].bit_widths == report.rows[0].bit_widths
