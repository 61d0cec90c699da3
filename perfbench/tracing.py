"""Spans recorded around the benchmark's calls into the program, and
call counts from a cProfile pass.

Spans live in memory as ``[name, start_ns, end_ns, parent, item]``
rows and are written once, when the run ends.  A span's self time is
its duration minus the durations of its direct children; the self time
of an ``item`` span is the benchmark's own overhead around the calls.
"""

from __future__ import annotations

import cProfile
import json
import time
from collections import defaultdict
from pathlib import Path

# Profiler layers: the program modules the issue names, dataclass-made
# methods (their code objects are compiled from "<string>"), and C
# functions.  Everything else (stdlib, the benchmark) is "other".
LAYERS = ("parser", "mizar", "translate", "hol", "declarations", "thf",
          "thfcheck", "patterns", "generated", "builtin")


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    item = 0

    def span(self, name: str) -> "NullTracer":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


NULL = NullTracer()


class ProfilingTracer(NullTracer):
    """Profiles what runs inside the outermost span, one item."""

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()
        self._depth = 0

    def __enter__(self) -> None:
        self._depth += 1
        if self._depth == 1:
            self.profiler.enable()

    def __exit__(self, *exc) -> bool:
        self._depth -= 1
        if self._depth == 0:
            self.profiler.disable()
        return False


class Tracer:
    """Records nested spans; ``item`` tags every span opened while it
    is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = 0
        self._open: list[int] = []
        self._name = ""

    def span(self, name: str) -> "Tracer":
        self._name = name
        return self

    def __enter__(self) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([self._name, time.perf_counter_ns(), 0, parent,
                           self.item])

    def __exit__(self, *exc) -> bool:
        self.spans[self._open.pop()][2] = time.perf_counter_ns()
        return False

    def self_times(self) -> dict[str, int]:
        """Total self time in ns per span name."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, int] = defaultdict(int)
        for row, t in zip(self.spans, own):
            totals[row[0]] += t
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start_ns", "end_ns", "parent", "item"]
        with path.open("w", encoding="utf-8") as out:
            json.dump({"fields": fields, "spans": self.spans}, out)


def layer_of(code) -> str:
    if isinstance(code, str):
        return "builtin"
    filename = code.co_filename
    if filename == "<string>":
        return "generated"
    path = Path(filename)
    if path.parent.name == "mizthf" and path.stem in LAYERS:
        return path.stem
    return "other"


def layer_profile(profiler) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and self time per layer, summed over the raw profiler
    entries.  ``pstats`` would merge entries sharing a (file, line,
    name) label, and every dataclass-made method is labelled
    ``<string>:2``, so its counts are not exact."""
    calls: dict[str, int] = defaultdict(int)
    inline: dict[str, float] = defaultdict(float)
    for entry in profiler.getstats():
        layer = layer_of(entry.code)
        calls[layer] += entry.callcount
        inline[layer] += entry.inlinetime
    return calls, inline


def code_calls(profiler, layer: str, name: str) -> int:
    """Calls of the function ``name`` of a program module."""
    return sum(entry.callcount for entry in profiler.getstats()
               if not isinstance(entry.code, str)
               and entry.code.co_name == name
               and layer_of(entry.code) == layer)
