"""Where and on what a result was measured."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None  # benchmark checkouts are plain file trees; src_sha256 identifies the code
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_hash(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            out[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
    return out


def collect(root: Path) -> dict:
    return {
        "git_commit": _git_commit(root),
        "src_sha256": _source_hash(root / "src" / "thermosim"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "machine": platform.machine(),
    }
