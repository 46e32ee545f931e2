"""In-memory spans: record them, merge them across processes, and sum them up.

A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the
index of the enclosing span in the same list, or -1. Times come from
``time.monotonic_ns``, one clock for every process on the machine, so
spans written by a command can be nested under the benchmark step that
started it.
"""

from __future__ import annotations

import threading
import time


class Recorder:
    """Span list of one process; each thread nests under its own open spans.

    Spans opened in a thread with nothing open (an ingest worker, say)
    nest under the root span.
    """

    def __init__(self, root: str):
        self.spans: list[list] = [[root, time.monotonic_ns(), 0, -1]]
        self.counts: dict[str, int] = {}
        self._local = threading.local()

    def open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [0])
        index = len(self.spans)
        self.spans.append([name, time.monotonic_ns(), 0, stack[-1]])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic_ns()
        self._local.stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def finish(self) -> None:
        self.spans[0][2] = time.monotonic_ns()


def graft(tree: list[list], spans: list[list], parent: int) -> None:
    """Append another process's spans to ``tree``, its root nested under ``parent``."""
    offset = len(tree)
    for name, start, end, up in spans:
        tree.append([name, start, end, parent if up < 0 else up + offset])


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(index, []))
        for index, (_, start, end, _) in enumerate(spans)
    ]


def outermost_s(spans: list[list], match) -> float:
    """Seconds in spans whose name matches, not counting those inside another match."""
    total = 0
    for name, start, end, parent in spans:
        if not match(name):
            continue
        while parent >= 0 and not match(spans[parent][0]):
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total / 1e9


def summary(spans: list[list]) -> dict:
    """Calls, total and self seconds per span name, and self seconds per layer."""
    by_name: dict[str, dict] = {}
    layers: dict[str, float] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (end - start) / 1e9
        entry["self_s"] += own / 1e9
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own / 1e9
    return {"spans": dict(sorted(by_name.items())), "layer_self_s": dict(sorted(layers.items()))}
