"""Shared pieces of the workloads: run context, outcome, metric table, oracle."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: (name, unit, better) of every end-to-end metric; each workload reports all of them.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("lat_p50_ms", "ms", "lower"),
)

#: How many times each workload sets the program up; ``setup_s`` is the median.
SETUP_REPEATS = 5


@dataclass
class Context:
    root: Path  #: checkout root (holds ``src/`` and ``perfbench/``)
    workdir: Path  #: scratch directory of this run, inside the checkout
    seed: int
    seconds: float
    trace: bool
    workload: str = ""

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def spans_path(self) -> Path:
        """Where a traced run writes its spans when it ends (kept for inspection)."""
        return self.root / ".perfbench" / "results" / f"{self.workload}-seed{self.seed}.spans.json"

    def python_env(self) -> Dict[str, str]:
        """Environment for a child Python that imports the program from ``src``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    report: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def oracle_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` herb ids per row: a stable ``np.argsort`` on the negated scores.

    Only the herbs scoring at least the row's ``k``-th largest value can make
    the list, so the stable sort runs over that (id-ascending) slice — the
    same order a stable sort of the whole row gives, at a fraction of the cost
    on a large vocabulary.
    """
    k = min(k, scores.shape[1])
    out = np.empty((scores.shape[0], k), dtype=np.int64)
    kth = np.partition(scores, scores.shape[1] - k, axis=1)[:, scores.shape[1] - k]
    for row in range(scores.shape[0]):
        candidates = np.flatnonzero(scores[row] >= kth[row])
        order = np.argsort(-scores[row, candidates], kind="stable")
        out[row] = candidates[order[:k]]
    return out
