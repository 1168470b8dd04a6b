"""Outside-in span tracer for the benchmark's traced runs.

The program under test carries no instrumentation of its own. A `Tracer`
replaces chosen functions of the `regiondeblur` modules, chosen methods of
object instances (the CNN layers) and the `numpy.fft` / `scipy.fft`
transforms with wrappers that record spans and counters, and puts every
original back when it is closed.

A span is (name, start, end, parent). Spans live in memory until the run
ends; `write` dumps them to one JSON file. A span's self time is its
duration minus the durations of its children: the run is single-threaded,
so spans nest and children never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "regiondeblur"
# Transforms counted in both numpy.fft and scipy.fft. Only the package
# namespaces are patched, so a transform that calls another one internally
# is still counted once.
FFT_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


@dataclass
class LayerStats:
    """Aggregate of every span of one name inside a window."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    raised: int = 0

    def percentile_ms(self, q: float) -> float:
        if not self.durations:
            return 0.0
        ordered = sorted(self.durations)
        return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    """Records spans from wrappers it installs; `close` uninstalls them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._raised: set[int] = set()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        spans, stack, raised = self.spans, self._stack, self._raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, time.perf_counter(), parent=stack[-1] if stack else -1))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised.add(index)
                raise
            finally:
                spans[index].end = time.perf_counter()
                stack.pop()
            if count is not None:
                spans[index].counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def _count_fft(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            data = args[0] if args else next(iter(kwargs.values()), None)
            nbytes = getattr(data, "nbytes", 0) + result.nbytes
            for index in stack:
                counts = spans[index].counts
                counts["fft_calls"] = counts.get("fft_calls", 0) + 1
                counts["fft_bytes"] = counts.get("fft_bytes", 0) + nbytes
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def trace_function(self, module, attr: str, count=None) -> None:
        """Wrap `module.attr` as span `<layer>.<attr>`, where the layer is the
        module's last dotted name, and rebind every package module that
        imported the same function object by name."""
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[-1]
        wrapped = self._wrap(f"{layer}.{attr}", original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)

    def trace_method(self, obj, attr: str, name: str, count=None) -> None:
        """Wrap one instance's bound method; other instances are untouched."""
        self._patch(obj, attr, self._wrap(name, getattr(obj, attr), count))

    def count_ffts(self) -> None:
        import numpy.fft
        import scipy.fft

        for module in (numpy.fft, scipy.fft):
            for attr in FFT_TRANSFORMS:
                if hasattr(module, attr):
                    self._patch(module, attr, self._count_fft(getattr(module, attr)))

    def close(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading -----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; two marks delimit a window."""
        return len(self.spans)

    def aggregate(self, begin: int = 0, end: int | None = None) -> dict[str, LayerStats]:
        """Per-name calls, busy time, self time, durations and counts."""
        end = len(self.spans) if end is None else end
        child_time = [0.0] * end
        for span in self.spans[:end]:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        stats: dict[str, LayerStats] = defaultdict(LayerStats)
        for index in range(begin, end):
            span = self.spans[index]
            duration = span.end - span.start
            entry = stats[span.name]
            entry.calls += 1
            entry.busy_s += duration
            entry.self_s += duration - child_time[index]
            entry.durations.append(duration)
            entry.raised += int(index in self._raised)
            for key, value in span.counts.items():
                entry.counts[key] += value
        return stats

    def covered_seconds(self, begin: int, end: int) -> float:
        """Wall time inside root spans of the window (roots never overlap)."""
        return sum(s.end - s.start for s in self.spans[begin:end] if s.parent < 0)

    def write(self, path, extra: dict) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]
        summary = {
            name: {"calls": st.calls, "busy_s": st.busy_s, "self_s": st.self_s,
                   "median_s": statistics.median(st.durations), **st.counts}
            for name, st in sorted(self.aggregate().items())
        }
        path.write_text(json.dumps({**extra, "summary": summary, "spans": rows}) + "\n")
