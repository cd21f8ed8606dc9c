"""Shared utilities: checkpoints, JSON payloads, table rendering."""

from repro.utils.serialization import (
    load_checkpoint,
    load_json,
    save_checkpoint,
    save_json,
)
from repro.utils.tables import format_table

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_json",
    "load_json",
    "format_table",
]
