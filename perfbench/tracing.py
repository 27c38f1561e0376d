"""In-memory span tracer that wraps the program's public callables from outside.

A span is ``(id, name, start, end, parent_id, request_id, attrs)``.  The
tracer keeps spans in a list and writes them out once, at the end; it never
touches the program's own files — :func:`Tracer.patch` swaps a module or
class attribute for a timing wrapper and :meth:`Tracer.restore` puts every
original back.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from benchstats import percentile, self_time

Span = Tuple[int, str, float, float, Optional[int], Optional[str], Optional[dict]]


class Tracer:
    """Collects spans; parents come from a per-thread stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.events: List[Tuple[str, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        request_id: Optional[str] = None,
        describe: Optional[Callable[[tuple, dict, Any], dict]] = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        parent, parent_rid = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        rid = request_id if request_id is not None else parent_rid
        stack.append((span_id, rid))
        start = self.clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = self.clock()
            stack.pop()
            attrs = describe(args, kwargs, result) if describe is not None else None
            self.spans.append((span_id, name, start, end, parent, rid, attrs))

    def record(self, name: str, start: float, end: float, request_id: Optional[str] = None,
               attrs: Optional[dict] = None) -> None:
        """Add a span measured by the caller (no parent)."""
        self.spans.append((next(self._ids), name, start, end, None, request_id, attrs))

    def event(self, kind: str, payload: Any) -> None:
        self.events.append((kind, payload))

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, describe=None) -> Callable:
        """``fn`` timed in a span named ``name``; ``describe`` adds attributes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, describe=describe)

        return traced

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Replace ``owner.attr``, remembering the original for :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind every ``repro.*`` module global that names ``original``.

        Modules that did ``from ... import name`` hold their own reference, so
        patching only the defining module would miss their calls.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "events": self.events}, handle)


def load_spans(path: str) -> Tuple[List[Span], List[Tuple[str, Any]]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    spans = [tuple(span) for span in data["spans"]]
    return spans, [tuple(event) for event in data["events"]]  # type: ignore[return-value]


def layer_table(spans: Iterable[Span]) -> Dict[str, dict]:
    """Per span name: count, busy time, self time and p50/p99 duration (seconds)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    table: Dict[str, dict] = {}
    durations: Dict[str, List[float]] = defaultdict(list)
    for span_id, name, start, end, _, _, _ in spans:
        row = table.setdefault(name, {"count": 0, "busy_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["busy_s"] += end - start
        row["self_s"] += self_time(start, end, children.get(span_id, ()))
        durations[name].append(end - start)
    for name, row in table.items():
        row["p50_s"] = percentile(durations[name], 50.0)
        row["p99_s"] = percentile(durations[name], 99.0)
    return table


def format_layer_table(table: Dict[str, dict]) -> List[str]:
    lines = [f"{'layer':<34}{'count':>9}{'busy_ms':>12}{'self_ms':>12}{'p50_us':>11}{'p99_us':>11}"]
    for name in sorted(table, key=lambda key: -table[key]["busy_s"]):
        row = table[name]
        lines.append(
            f"{name:<34}{row['count']:>9}{row['busy_s'] * 1e3:>12.1f}{row['self_s'] * 1e3:>12.1f}"
            f"{row['p50_s'] * 1e6:>11.1f}{row['p99_s'] * 1e6:>11.1f}"
        )
    return lines
