"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: `Tracer.wrap` replaces a public
function at the module attribute where callers look it up (for example
``qrngkit.cli.write_stream_ndjson`` or ``qrngkit.simulate.dead_time_filter``)
with a wrapper that records a span around the call. Private helpers are never
wrapped, so their cost lands in the self time of the public caller.

A span is a dict with ``id``, ``parent``, ``name``, ``start`` and ``end``
(perf_counter seconds) and optional ``counts``. Self time is the span's
duration minus the time its direct children cover; calls are single-threaded,
so children never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


def layer_of(name: str) -> str:
    """Layer of a span name: its first dotted component (``fileio.read_bits``)."""
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``count(args, kwargs, result)`` may return a dict of counts stored on
        the span; it runs after the span has ended.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec["counts"] = count(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span in ``spans``, keyed by span id."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summarize(spans: list[dict]) -> dict:
    """Per-name totals, per-name self times, per-layer self times and summed counts."""
    self_t = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        own[s["name"]] += self_t[s["id"]]
        layer[layer_of(s["name"])] += self_t[s["id"]]
        for key, value in s.get("counts", {}).items():
            counts[key] += value
    return {"total": total, "self": own, "layer": layer, "counts": counts}
