"""Utilities: seeding, serialization, tables."""

import errno
import os
import stat

import numpy as np
import pytest

from repro.utils import (
    format_table,
    load_checkpoint,
    save_checkpoint,
    save_json,
    seed_everything,
    spawn_rngs,
)
from repro.utils.serialization import atomic_write


class TestSeeding:
    def test_seed_everything_returns_generator(self):
        rng = seed_everything(7)
        assert isinstance(rng, np.random.Generator)

    def test_deterministic(self):
        a = seed_everything(5).normal(size=3)
        b = seed_everything(5).normal(size=3)
        assert np.array_equal(a, b)

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(3, 4)
        assert len(rngs) == 4
        draws = [r.normal() for r in rngs]
        assert len(set(draws)) == 4

    def test_spawn_deterministic(self):
        a = [r.normal() for r in spawn_rngs(11, 2)]
        b = [r.normal() for r in spawn_rngs(11, 2)]
        assert a == b


class TestSerialization:
    def test_roundtrip(self, tmp_path, micro_vgg):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, micro_vgg.state_dict(), metadata={"epoch": 3})
        state, metadata = load_checkpoint(path)
        assert metadata == {"epoch": 3}
        micro_vgg.load_state_dict(state)

    def test_no_metadata(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, {"w": np.ones(3)})
        state, metadata = load_checkpoint(path)
        assert metadata is None
        assert np.array_equal(state["w"], np.ones(3))

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "ckpt.npz"
        save_checkpoint(path, {"w": np.zeros(2)})
        assert path.exists()

    def test_values_preserved_exactly(self, tmp_path, rng):
        path = tmp_path / "ckpt.npz"
        original = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=7)}
        save_checkpoint(path, original)
        state, _ = load_checkpoint(path)
        for key, value in original.items():
            assert np.array_equal(state[key], value)

    def test_failed_json_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        save_json(path, {"rows": [1, 2, 3]})
        good = path.read_bytes()
        real_fdopen = os.fdopen

        class DiskFull:
            """A file handle that fills the disk halfway through a write."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fdopen",
                          lambda fd, mode: DiskFull(real_fdopen(fd, mode)))
            with pytest.raises(OSError):
                save_json(path, {"rows": [4, 5, 6, 7, 8, 9]})
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
    def test_writers_honour_the_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            save_json(tmp_path / "run.json", {"rows": []})
            atomic_write(tmp_path / "sweep.json",
                         lambda handle: handle.write(b"{}\n"))
        finally:
            os.umask(previous)
        for name in ("run.json", "sweep.json"):
            mode = stat.S_IMODE((tmp_path / name).stat().st_mode)
            assert mode == 0o666 & ~umask, (name, oct(mode))


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["a", "bb"], [["1", "2"], ["33", "4"]])
        lines = text.split("\n")
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert set(lines[1]) <= {"-", "+"}

    def test_title(self):
        text = format_table(["x"], [["1"]], title="My Table")
        assert text.startswith("My Table")

    def test_float_formatting(self):
        text = format_table(["v"], [[3.14159265]])
        assert "3.142" in text

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["1"]])

    def test_column_width_fits_longest(self):
        text = format_table(["h"], [["longvalue"]])
        header_line = text.split("\n")[0]
        assert len(header_line) >= len("longvalue")
