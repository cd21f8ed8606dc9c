"""Content-addressed result cache for completed experiment runs.

A completed run is keyed by ``sha256(canonical_json(config.to_dict()))``
(:meth:`~repro.api.config._ConfigBase.cache_key`) and stored as one JSON
entry under ``.repro-cache/<key[:2]>/<key>.json``.  Because the key is
derived from the config *content*, the cache is shared by every caller
that resolves to the same config — ``repro run``, ``repro sweep``, and
programmatic :class:`~repro.orchestration.runner.SweepRunner` use — and
is safe to publish between CI steps or machines.

Transport between hosts is first-class: :meth:`ResultCache.export_archive`
publishes every entry as a tarball, :meth:`ResultCache.import_archive` /
:meth:`ResultCache.merge` fold a tarball or another cache directory into
this one.  Merging is two-phase — conflicts (same key, different
contents) are detected *before* anything is written and raised as a
:class:`CacheMergeConflict`, never silently overwritten: identical
configs must produce identical results, so a conflict means
non-determinism or corruption and deserves a loud stop.

Corrupted or incompatible entries are treated as misses and recomputed;
writes are atomic (temp file + rename) so parallel workers never expose
half-written entries.
"""

from __future__ import annotations

import io
import json
import re
import tarfile
from pathlib import Path, PurePosixPath

from repro.utils.serialization import atomic_write, save_json

CACHE_VERSION = 1
DEFAULT_CACHE_DIR = ".repro-cache"

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class CacheMergeConflict(RuntimeError):
    """Same cache key with different contents on the two sides of a merge."""

    def __init__(self, keys):
        self.keys = sorted(keys)
        shown = ", ".join(key[:12] for key in self.keys[:4])
        if len(self.keys) > 4:
            shown += ", ..."
        super().__init__(
            f"cache merge conflict on {len(self.keys)} key(s) ({shown}): "
            "the same config hash maps to different results on the two "
            "sides; identical configs must produce identical results, so "
            "refusing to overwrite either side"
        )


def _validate_entry(entry, key: str) -> dict | None:
    """``entry`` if it is a well-formed cache entry for ``key``, else None."""
    if not isinstance(entry, dict):
        return None
    if entry.get("version") != CACHE_VERSION or entry.get("key") != key:
        return None
    payload = entry.get("payload")
    if not isinstance(payload, dict) or "report" not in payload:
        return None
    return entry


class ResultCache:
    """Filesystem cache mapping config content hashes to run payloads."""

    def __init__(self, root=DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def load(self, config) -> dict | None:
        """Payload of a completed run of ``config``, or None on miss.

        Any unreadable, unparsable, or structurally-invalid entry is a
        miss — a corrupted cache never breaks a sweep, it only costs a
        recomputation (which then overwrites the bad entry).
        """
        entry = self.read_entry(config.cache_key())
        return None if entry is None else entry["payload"]

    def store(self, config, payload: dict) -> Path:
        """Atomically persist ``payload`` as the result of ``config``.

        The entry records which tensor backend produced it (informational
        — the key already encodes a non-default ``backend`` through
        ``config.to_dict()``, so entries from different backends never
        collide).
        """
        return self.write_entry({
            "version": CACHE_VERSION,
            "key": config.cache_key(),
            "config": config.to_dict(),
            "backend": getattr(config, "backend", "reference"),
            "payload": payload,
        })

    def read_entry(self, key: str) -> dict | None:
        """The full validated entry dict for ``key``, or None on miss."""
        try:
            entry = json.loads(self.path_for(key).read_text())
        except (OSError, ValueError):
            return None
        return _validate_entry(entry, key)

    def write_entry(self, entry: dict) -> Path:
        """Atomically write one full entry dict (keyed by its own key)."""
        path = self.path_for(entry["key"])
        save_json(path, entry)
        return path

    def keys(self) -> list[str]:
        """Sorted keys of every entry file on disk (validity not checked)."""
        if not self.root.exists():
            return []
        return sorted(
            path.stem
            for path in self.root.glob("*/*.json")
            if _KEY_RE.match(path.stem)
        )

    # ------------------------------------------------------------------
    # Transport: merge another cache / publish and ingest tarballs.
    # ------------------------------------------------------------------
    def merge(self, other) -> dict:
        """Fold every valid entry of ``other`` (cache or root path) in.

        Two-phase: all incoming entries are checked against existing
        ones first, so a :class:`CacheMergeConflict` is raised before a
        single entry is written.  Invalid source entries are counted and
        skipped (same policy as :meth:`load`).  Returns merge stats:
        ``{"merged", "identical", "skipped_invalid"}``.
        """
        if not isinstance(other, ResultCache):
            other = ResultCache(other)
        stats = {"merged": 0, "identical": 0, "skipped_invalid": 0}
        incoming = []
        for key in other.keys():
            entry = other.read_entry(key)
            if entry is None:
                stats["skipped_invalid"] += 1
            else:
                incoming.append((key, entry))
        self._merge_entries(incoming, stats)
        return stats

    def _merge_entries(self, incoming, stats: dict) -> None:
        # Conflicts are checked both against entries already on disk and
        # between incoming entries themselves (a re-packed archive can
        # carry the same key twice) — duplicate keys must agree exactly,
        # never resolve last-wins.
        additions: dict[str, dict] = {}
        conflicts = set()
        for key, entry in incoming:
            pending = additions.get(key)
            if pending is not None:
                if pending != entry:
                    conflicts.add(key)
                else:
                    stats["identical"] += 1
                continue
            mine = self.read_entry(key)
            if mine is None:
                additions[key] = entry
            elif mine == entry:
                stats["identical"] += 1
            else:
                conflicts.add(key)
        if conflicts:
            raise CacheMergeConflict(conflicts)
        for entry in additions.values():
            self.write_entry(entry)
            stats["merged"] += 1

    def export_archive(self, path) -> dict:
        """Publish every valid entry as a gzip tarball at ``path``.

        Members reuse the cache's own ``<key[:2]>/<key>.json`` layout and
        are written in sorted key order.  Returns
        ``{"exported", "skipped_invalid"}``.
        """
        stats = {"exported": 0, "skipped_invalid": 0}
        entries = []
        for key in self.keys():
            entry = self.read_entry(key)
            if entry is None:
                stats["skipped_invalid"] += 1
            else:
                entries.append((key, entry))

        def write(handle):
            with tarfile.open(fileobj=handle, mode="w:gz") as tar:
                for key, entry in entries:
                    data = json.dumps(entry, indent=2).encode("utf-8")
                    info = tarfile.TarInfo(name=f"{key[:2]}/{key}.json")
                    info.size = len(data)
                    tar.addfile(info, io.BytesIO(data))

        atomic_write(path, write)
        stats["exported"] = len(entries)
        return stats

    def import_archive(self, path) -> dict:
        """Merge entries from an :meth:`export_archive` tarball.

        Members are parsed in memory and re-written through
        :meth:`write_entry` — never extracted to disk — so hostile member
        paths cannot escape the cache root.  Members that are not
        ``<key>.json`` files holding a valid entry for that key are
        counted as ``skipped_invalid``.  Conflict semantics match
        :meth:`merge`.
        """
        stats = {"merged": 0, "identical": 0, "skipped_invalid": 0}
        incoming = []
        with tarfile.open(path, mode="r:*") as tar:
            for member in tar:
                if not member.isfile():
                    continue
                stem = PurePosixPath(member.name).name
                key = stem[: -len(".json")] if stem.endswith(".json") else ""
                handle = tar.extractfile(member)
                if not _KEY_RE.match(key) or handle is None:
                    stats["skipped_invalid"] += 1
                    continue
                try:
                    entry = json.loads(handle.read().decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    entry = None
                entry = _validate_entry(entry, key)
                if entry is None:
                    stats["skipped_invalid"] += 1
                else:
                    incoming.append((key, entry))
        self._merge_entries(incoming, stats)
        return stats

    # ------------------------------------------------------------------
    def __contains__(self, config) -> bool:
        return self.load(config) is not None

    def entry_count(self) -> int:
        """Number of entries currently on disk (for tests/diagnostics)."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
