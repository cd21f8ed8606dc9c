"""Run fingerprint and host-speed probe for perfbench run records."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path


def probe(repeats: int = 5) -> dict:
    """Time a fixed BLAS loop and a fixed interpreter loop (medians, ms).

    The probe runs no repository code, so a change in it between runs
    is the host, not the commit.  It sits beside the metrics and gates
    nothing.
    """
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((192, 192))
    blas, interp = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(30):
            matrix @ matrix
        blas.append(time.perf_counter() - start)
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        interp.append(time.perf_counter() - start)
    return {
        "blas_ms": statistics.median(blas) * 1e3,
        "interp_ms": statistics.median(interp) * 1e3,
    }


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources (names and contents)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def fingerprint(root: Path) -> dict:
    """Host and commit facts that do not need the program loaded."""
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src"),
    }
