"""Backend registry, config threading, and cache-key stability.

The cache-key pins are load-bearing: PR-5 (per-layer overrides) and
PR-6 (the master service) recorded results under these exact hashes,
so any change to ``ExperimentConfig.to_dict()`` that shifts them
orphans every existing ``.repro-cache`` entry.  A backend-less config
must keep hashing exactly as it did before backends existed; only an
explicit non-default ``backend`` may (and must) change the key.
"""

import numpy as np
import pytest

from repro.api import experiments
from repro.api.config import ExperimentConfig
from repro.backend import (DEFAULT_BACKEND, ArrayBackend, active_backend,
                           available_backends, get_backend, register_backend,
                           set_active_backend, use_backend)

# sha256(canonical_json(to_dict())) recorded before this PR introduced
# the backend field — the regression contract for historical caches.
PINNED_KEYS = {
    "default": ("a97431af07fa27dbe6f8fd28a4054c51"
              "ac4c750451fe5bcbbe5ac63641db8933"),
    "vgg19-cifar10-quant": ("8453ffc1e13ae742a521418ef21aec20"
                          "4c5dd1beb1db3afcac13d26f271067f4"),
    "vgg11-micro-smoke": ("21ef20295fc964c65ca95a2cc6e763ae"
                        "23e36ed3fd7927ad6a783b0924c8ec43"),
    "search-smoke-bits": ("c4ad9161b53bf289b00ea6e89602d034"
                        "1376bb2df2ef00e5e8803554a6580293"),
}

# ``vgg11-micro-smoke`` on ``fast`` as it hashed while fast ran its own
# float32 kernels, whose results differ from today's: entries stored
# under it are stale and must not be served.
STALE_FAST_KEY = ("e90c21880bfa6b0ce17509e4d887fb9b"
                  "293aabea374cc7579d11f3a160f531cd")


class TestRegistry:
    def test_both_backends_registered(self):
        assert available_backends() == ("fast", "reference")

    def test_default_is_reference(self):
        assert DEFAULT_BACKEND == "reference"
        assert active_backend().name == "reference"

    def test_get_backend_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("cuda")

    def test_register_rejects_reserved_name(self):
        class Bad(ArrayBackend):
            name = "base"

        with pytest.raises(ValueError):
            register_backend(Bad())

    def test_use_backend_restores_on_exit(self):
        assert active_backend().name == "reference"
        with use_backend("fast"):
            assert active_backend().name == "fast"
            with use_backend("reference"):
                assert active_backend().name == "reference"
            assert active_backend().name == "fast"
        assert active_backend().name == "reference"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("fast"):
                raise RuntimeError("boom")
        assert active_backend().name == "reference"

    def test_set_active_backend(self):
        set_active_backend("fast")
        try:
            assert active_backend().name == "fast"
        finally:
            set_active_backend("reference")

    def test_dtype_policy(self):
        assert get_backend("reference").dtype == np.float64
        assert get_backend("fast").dtype == np.float32

    def test_array_creation_follows_backend(self):
        with use_backend("fast"):
            backend = active_backend()
            assert backend.zeros((2, 3)).dtype == np.float32
            assert backend.ones(4).dtype == np.float32
            assert backend.asarray([1, 2, 3]).dtype == np.float32


class TestConfigThreading:
    def test_default_backend_field(self):
        assert ExperimentConfig().backend == "reference"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ExperimentConfig(backend="cuda")

    def test_default_backend_omitted_from_dict(self):
        assert "backend" not in ExperimentConfig().to_dict()

    def test_explicit_backend_serialized_and_round_trips(self):
        config = ExperimentConfig(backend="fast")
        data = config.to_dict()
        assert data["backend"] == "fast"
        restored = ExperimentConfig.from_dict(data)
        assert restored.backend == "fast"
        assert restored.cache_key() == config.cache_key()

    def test_evolve_backend(self):
        config = experiments.get_config("vgg11-micro-smoke")
        assert config.evolve(backend="fast").backend == "fast"

    def test_build_context_activates_backend(self):
        from repro.api.context import build_context

        config = experiments.get_config("vgg11-micro-smoke")
        build_context(config.evolve(backend="fast"))
        try:
            assert active_backend().name == "fast"
        finally:
            set_active_backend("reference")


class TestCacheKeyRegression:
    def test_default_config_key_unchanged(self):
        assert ExperimentConfig().cache_key() == PINNED_KEYS["default"]

    @pytest.mark.parametrize("preset", ["vgg19-cifar10-quant",
                                        "vgg11-micro-smoke"])
    def test_preset_keys_unchanged(self, preset):
        assert experiments.get_config(preset).cache_key() == \
            PINNED_KEYS[preset]

    def test_search_preset_key_unchanged(self):
        assert experiments.get_search("search-smoke-bits").cache_key() == \
            PINNED_KEYS["search-smoke-bits"]

    def test_fast_backend_changes_the_key(self):
        config = experiments.get_config("vgg11-micro-smoke")
        assert config.evolve(backend="fast").cache_key() != \
            config.cache_key()

    def test_fast_key_carries_the_fast_revision(self):
        # Fast results changed under the same config; the revision moves
        # fast keys off the stale entries and leaves every other key,
        # and the dict form, as they were.
        config = experiments.get_config("vgg11-micro-smoke").evolve(
            backend="fast")
        assert config.cache_key() != STALE_FAST_KEY
        assert "fast_revision" not in config.to_dict()
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.cache_key() == config.cache_key()

    def test_explicit_reference_backend_keeps_the_key(self):
        # `backend="reference"` spelled out must hash like the field was
        # never there, or half the historical cache goes stale.
        config = experiments.get_config("vgg11-micro-smoke")
        assert config.evolve(backend="reference").cache_key() == \
            PINNED_KEYS["vgg11-micro-smoke"]


class TestApplyBackend:
    def test_run_kind(self):
        config = experiments.get_config("vgg11-micro-smoke")
        assert experiments.apply_backend("run", config, "fast").backend == \
            "fast"

    def test_none_is_identity(self):
        config = experiments.get_config("vgg11-micro-smoke")
        assert experiments.apply_backend("run", config, None) is config

    def test_sweep_kind_pins_every_point(self):
        from repro.orchestration import expand

        sweep = experiments.get_sweep("smoke-seeds")
        pinned = experiments.apply_backend("sweep", sweep, "fast")
        points = expand(pinned)
        assert points and all(p.config.backend == "fast" for p in points)

    def test_search_kind_pins_the_base(self):
        search = experiments.get_search("search-smoke-bits")
        pinned = experiments.apply_backend("search", search, "fast")
        assert pinned.base.backend == "fast"
        assert not pinned.preset

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            experiments.apply_backend("job", None, "fast")


class TestServiceSpecBackend:
    def test_preset_spec_with_backend(self):
        from repro.service.master import resolve_spec

        kind, name, payload = resolve_spec(
            {"preset": "vgg11-micro-smoke", "backend": "fast"}
        )
        assert kind == "run" and payload.backend == "fast"

    def test_inline_config_spec_with_backend(self):
        from repro.service.master import resolve_spec

        config = experiments.get_config("vgg11-micro-smoke").to_dict()
        kind, name, payload = resolve_spec(
            {"config": config, "backend": "fast"}
        )
        assert kind == "run" and payload.backend == "fast"

    def test_spec_without_backend_stays_reference(self):
        from repro.service.master import resolve_spec

        _, _, payload = resolve_spec({"preset": "vgg11-micro-smoke"})
        assert payload.backend == "reference"


class TestCacheRecordsBackend:
    def test_store_stamps_producing_backend(self, tmp_path):
        from repro.orchestration import ResultCache

        cache = ResultCache(tmp_path)
        config = experiments.get_config("vgg11-micro-smoke")
        cache.store(config, {"report": {"rows": []}})
        entry = cache.read_entry(config.cache_key())
        assert entry["backend"] == "reference"

        fast = config.evolve(backend="fast")
        cache.store(fast, {"report": {"rows": []}})
        assert cache.read_entry(fast.cache_key())["backend"] == "fast"
