"""Run metadata recorded with every result: host, interpreter, numpy/BLAS, source revision."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a process, in MB (10^6 bytes)."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM in {status}")


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded, when it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git; ``unknown`` elsewhere."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_metadata(root: Path, seed: int, workload: str, params: Dict[str, object]) -> Dict[str, object]:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(root),
    }
