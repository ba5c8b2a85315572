"""Benchmark-owned spans and sums over the program's own trace events.

Spans are recorded from the benchmark's files, around calls into each
layer's public functions; they stay in memory until the run ends.  The
program's tracer (``repro.obs.trace``) is only *read*: its events arrive
in Chrome form (``chrome_trace`` / ``Router.fleet_trace``) and are summed
here by category and name.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class SpanLog:
    """Nested spans: ``(name, start, end, parent, op, count)``.

    ``count`` is how many identical calls the span encloses, so a
    microsecond-scale call can be timed as one loop; per-call figures
    divide by it.  Single-threaded by design — the benchmark is a closed
    loop with one client."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None, count: int = 1):
        index = len(self.spans)
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
            "count": count,
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def per_call_s(self, name: str) -> list[float]:
        """Seconds per enclosed call, one entry per span called ``name``."""
        return [
            (s["end"] - s["start"]) / s["count"]
            for s in self.spans
            if s["name"] == name
        ]

    def median_s(self, name: str) -> float:
        """Median seconds per call over the spans called ``name``; 0.0
        when the layer was not exercised (no such span)."""
        samples = self.per_call_s(name)
        return statistics.median(samples) if samples else 0.0

    def self_ms(self) -> dict:
        """Per span name: total duration minus the part covered by child
        spans, in milliseconds (children never overlap: one thread)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            own = (s["end"] - s["start"]) - child[i]
            totals[s["name"]] = totals.get(s["name"], 0.0) + own * 1e3
        return totals

    def mirror_into(self, tracer) -> None:
        """Copy every span into the program's tracer (cat ``bench``, host
        lane) so one Chrome file holds both.  Called once, at export."""
        for i, s in enumerate(self.spans):
            tracer.complete(
                s["name"],
                "bench",
                0,
                s["start"],
                s["end"] - s["start"],
                {"id": i, "parent": s["parent"], "op": s["op"], "count": s["count"]},
            )


def trace_sums(trace: dict) -> dict:
    """Sums over a Chrome trace's program events (microseconds → seconds),
    restricted to the window the benchmark's mirrored ``op`` spans cover
    (warm-up and probe activity lie outside it).

    Returns the event count, counts and total seconds of the host-side
    ``graph.replay`` spans, the per-lane ``stream`` execution spans,
    ``worker.chunk`` and ``router.serve``, and the number of distinct
    stream lanes seen."""
    events = [e for e in trace["traceEvents"] if e.get("ph") in ("X", "i")]
    ops = [e for e in events if e.get("cat") == "bench" and e["name"] == "op"]
    begin = min(e["ts"] for e in ops)
    end = max(e["ts"] + e["dur"] for e in ops)
    out = {
        "events": 0,
        "graph_replay_n": 0, "graph_replay_s": 0.0,
        "stream_n": 0, "stream_s": 0.0,
        "worker_chunk_s": 0.0, "router_serve_s": 0.0,
    }
    lanes = set()
    for event in events:
        if event.get("cat") == "bench" or not begin <= event["ts"] <= end:
            continue
        out["events"] += 1
        if event["ph"] != "X":
            continue
        dur = float(event["dur"]) / 1e6
        cat, name = event.get("cat"), event["name"]
        if cat == "graph" and name == "graph.replay":
            out["graph_replay_n"] += 1
            out["graph_replay_s"] += dur
        elif cat == "stream":
            out["stream_n"] += 1
            out["stream_s"] += dur
            lanes.add((event["pid"], event["tid"]))
        elif name == "worker.chunk":
            out["worker_chunk_s"] += dur
        elif name == "router.serve":
            out["router_serve_s"] += dur
    out["stream_lanes"] = len(lanes)
    return out
