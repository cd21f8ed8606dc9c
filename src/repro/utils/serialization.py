"""Serialization utilities: JSON payloads and ``.npz`` checkpoints."""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path

import numpy as np


def atomic_write(path, write) -> None:
    """Write ``path`` via temp file + rename, creating parent directories.

    ``write`` receives a binary file handle.  A crash (or raised
    exception) mid-write never leaves a partial file at ``path`` — an
    existing file there survives untouched, and the temp file is
    removed.  The file gets the mode a plain ``open()`` would give it,
    ``0o666`` less the process umask (``mkstemp`` would force 0600).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.parent / f".{path.name}-{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_json(path, payload: dict) -> None:
    """Write a JSON-serializable payload atomically (see :func:`atomic_write`)."""
    data = (json.dumps(payload, indent=2, sort_keys=False) + "\n").encode("utf-8")
    atomic_write(path, lambda handle: handle.write(data))


def load_json(path) -> dict:
    """Read a JSON payload written by :func:`save_json`."""
    return json.loads(Path(path).read_text())


def save_checkpoint(path, state_dict: dict, metadata: dict | None = None) -> None:
    """Save a model state dict (and JSON-serializable metadata) to .npz.

    The write is atomic (temp file + rename): a crash mid-write — the
    very event checkpoints guard against — can never corrupt an
    existing checkpoint at ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(state_dict)
    if metadata is not None:
        payload["__metadata__"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        )
    atomic_write(path, lambda handle: np.savez(handle, **payload))


def load_checkpoint(path) -> tuple[dict, dict | None]:
    """Load a checkpoint; returns (state_dict, metadata-or-None)."""
    with np.load(Path(path), allow_pickle=False) as archive:
        state = {}
        metadata = None
        for key in archive.files:
            if key == "__metadata__":
                metadata = json.loads(archive[key].tobytes().decode("utf-8"))
            else:
                state[key] = archive[key]
    return state, metadata
