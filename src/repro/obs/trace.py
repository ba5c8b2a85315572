"""Structured tracing: a ring-buffered span/instant recorder per process.

Design constraints, in order:

1. **Near-zero cost when disabled.**  The tracer is process-scoped and
   the emit points on the hot paths (``Runtime.launch``, stream group
   execution, graph-replay tasks) guard on one module-attribute ``is
   None`` test — the same discipline the runtime already uses for
   ``profiler``.  Nothing is allocated, formatted, or timestamped
   unless a tracer is installed.
2. **Thread-safe recording.**  Host threads sharing a runtime (each
   draining the stream pool or replaying a graph in turn) emit
   concurrently; recording appends one dict to
   a ``deque(maxlen=capacity)`` under a lock.  The deque is the ring
   buffer: when full, the oldest events drop (counted on ``dropped``)
   rather than growing without bound in a long serving run.
3. **Monotonic clocks.**  Timestamps are ``time.perf_counter`` seconds —
   monotonic but with an arbitrary per-process epoch, which is why the
   cross-process merge below carries a clock offset per process.

Event model — a strict subset of the Chrome trace-event format (the
JSON Perfetto and ``chrome://tracing`` load natively):

- **span** (phase ``"X"``, a *complete* event): a named duration on one
  thread lane — an engine invocation, a graph replay, a router admit
  sweep.  Carries ``ts`` + ``dur``.
- **instant** (phase ``"i"``): a point event — a JIT promotion, a graph
  capture, a chunk dispatch.

``tid`` maps execution lanes: :data:`HOST_TID` (0) is the host/calling
thread's synchronous launches; the stream pool records on
:data:`POOL_TID` (1).  ``pid`` is assigned at
export time: a single-process export is pid 0; the fleet merge gives
the router pid 0 and worker ``i`` pid ``i + 1``, with Chrome metadata
events naming each.

Cross-process merge: each worker ships its raw event buffer plus its
``perf_counter`` reading at reply time; the puller brackets the
request/reply with its own clock and estimates the offset NTP-style
(``offset = worker_now - (t_send + t_recv) / 2``).  Subtracting the
offset maps every worker timestamp onto the puller's clock, and
:func:`merge_process_traces` rebases the union so the merged trace
starts at t=0.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager

from repro.errors import VMError

#: Version stamp of the trace wire/file format (the ``trace`` serving
#: frame and the ``otherData`` block of exported Chrome JSON).
TRACE_JSON_VERSION = 1

#: The host/calling thread's lane, and the stream pool's.
HOST_TID = 0
POOL_TID = 1

#: Default ring capacity (events kept per process).
DEFAULT_CAPACITY = 65536


class Tracer:
    """A bounded, thread-safe recorder of span/instant events.

    Use :func:`install` / :func:`uninstall` to manage the process
    tracer; emit points guard on :func:`active` (or the module
    attribute ``ACTIVE``) being non-None.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, clock=time.perf_counter) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._events: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Events emitted in total (including any the ring dropped).
        self.recorded = 0

    # -- recording -----------------------------------------------------------
    def now(self) -> float:
        """The tracer's monotonic clock, in seconds (arbitrary epoch)."""
        return self._clock()

    def instant(self, name: str, cat: str, tid: int = HOST_TID, args: dict | None = None) -> None:
        """Record a point event at the current clock reading."""
        event = {"name": name, "cat": cat, "ph": "i", "ts": self._clock(), "tid": tid}
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)
            self.recorded += 1

    def complete(
        self,
        name: str,
        cat: str,
        tid: int,
        start_s: float,
        dur_s: float,
        args: dict | None = None,
    ) -> None:
        """Record a finished span from caller-measured timestamps (the
        hot-path form: callers read :meth:`now` before and after the
        guarded region, avoiding context-manager overhead)."""
        event = {
            "name": name, "cat": cat, "ph": "X",
            "ts": start_s, "dur": dur_s, "tid": tid,
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)
            self.recorded += 1

    @contextmanager
    def span(self, name: str, cat: str, tid: int = HOST_TID, args: dict | None = None):
        """Record the enclosed block as one span (cold-path convenience)."""
        start = self._clock()
        try:
            yield self
        finally:
            self.complete(name, cat, tid, start, self._clock() - start, args)

    # -- export --------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events lost to the ring bound."""
        with self._lock:
            return self.recorded - len(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> list[dict]:
        """A snapshot copy of the buffered events (raw clock seconds),
        each a JSON-safe flat dict — the wire form workers ship."""
        with self._lock:
            return [dict(e) for e in self._events]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.recorded = 0

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self)}/{self.capacity} events buffered, "
            f"{self.dropped} dropped)"
        )


# ---------------------------------------------------------------------------
# The process tracer
# ---------------------------------------------------------------------------

#: The installed process tracer, or None.  Hot paths read this attribute
#: directly (``trace.ACTIVE is not None``) — keep it a plain module
#: global so the disabled check stays one dict lookup + identity test.
ACTIVE: Tracer | None = None


def install(tracer: Tracer | None = None, capacity: int = DEFAULT_CAPACITY) -> Tracer:
    """Install (and return) the process tracer: the given one, or a
    fresh ring of ``capacity`` events.  Tracing is process-scoped
    because the trace's pid axis is the process — one buffer collects
    every thread and lane of this process."""
    global ACTIVE
    ACTIVE = tracer if tracer is not None else Tracer(capacity=capacity)
    return ACTIVE


def uninstall() -> Tracer | None:
    """Remove and return the process tracer (its buffer intact)."""
    global ACTIVE
    tracer, ACTIVE = ACTIVE, None
    return tracer


def active() -> Tracer | None:
    """The installed process tracer, or None."""
    return ACTIVE


# ---------------------------------------------------------------------------
# Chrome trace-event export and the fleet merge
# ---------------------------------------------------------------------------

def _thread_name(tid: int) -> str:
    return "host" if tid == HOST_TID else "pool"


def _chrome_events(
    events: list[dict], pid: int, offset_s: float, base_s: float
) -> list[dict]:
    """Convert raw events (clock seconds) to Chrome form: microsecond
    timestamps on a common clock (``ts - offset - base``)."""
    out = []
    for event in events:
        converted = {
            "name": event["name"],
            "cat": event["cat"],
            "ph": event["ph"],
            "ts": (float(event["ts"]) - offset_s - base_s) * 1e6,
            "pid": pid,
            "tid": int(event.get("tid", HOST_TID)),
        }
        if event["ph"] == "X":
            converted["dur"] = float(event.get("dur", 0.0)) * 1e6
        if event["ph"] == "i":
            converted["s"] = "t"  # instant scope: thread
        if "args" in event:
            converted["args"] = event["args"]
        out.append(converted)
    return out


def merge_process_traces(processes: list[dict]) -> dict:
    """Merge per-process event buffers into one Chrome trace object.

    Each entry of ``processes`` describes one process::

        {"name": "worker-0", "pid": 1, "events": [...],
         "offset_s": 0.0123}   # offset_s maps its clock onto pid 0's

    Timestamps are rebased so the earliest event across the fleet lands
    at t=0; metadata events name every process and thread lane.  The
    result serializes with ``json.dumps`` and loads in Perfetto.
    """
    base = min(
        (
            float(e["ts"]) - float(p.get("offset_s", 0.0))
            for p in processes
            for e in p["events"]
        ),
        default=0.0,
    )
    trace_events: list[dict] = []
    for proc in processes:
        pid = int(proc["pid"])
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": HOST_TID,
            "args": {"name": str(proc["name"])},
        })
        for tid in sorted({int(e.get("tid", HOST_TID)) for e in proc["events"]}):
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": _thread_name(tid)},
            })
        trace_events.extend(
            _chrome_events(proc["events"], pid, float(proc.get("offset_s", 0.0)), base)
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_v": TRACE_JSON_VERSION, "producer": "repro.obs"},
    }


def chrome_trace(tracer: Tracer, name: str = "repro", pid: int = 0) -> dict:
    """This process's buffer as one Chrome trace object."""
    return merge_process_traces(
        [{"name": name, "pid": pid, "events": tracer.events(), "offset_s": 0.0}]
    )


# ---------------------------------------------------------------------------
# Summaries (the ``trace summarize`` CLI)
# ---------------------------------------------------------------------------

def load_trace(text: str) -> dict:
    """Parse Chrome trace JSON (object or bare event-array form),
    raising :class:`~repro.errors.VMError` on malformed input."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise VMError(f"malformed trace JSON: {exc}") from exc
    if isinstance(data, list):
        data = {"traceEvents": data}
    if not isinstance(data, dict) or not isinstance(data.get("traceEvents"), list):
        raise VMError("not a Chrome trace: expected a traceEvents array")
    return data


def summarize_trace(trace: dict) -> dict:
    """Aggregate a Chrome trace into per-phase and per-process rows.

    Returns ``{"phases": [...], "processes": [...]}``: one phase row per
    event category (spans, instants, total/mean span milliseconds) and
    one process row per pid (name, lanes, events, busy milliseconds).
    """
    events = trace["traceEvents"]
    names: dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[int(event["pid"])] = str(event.get("args", {}).get("name", ""))

    phases: dict[str, dict] = {}
    processes: dict[int, dict] = {}
    for event in events:
        ph = event.get("ph")
        if ph not in ("X", "i"):
            continue
        pid = int(event.get("pid", 0))
        dur_ms = float(event.get("dur", 0.0)) / 1e3 if ph == "X" else 0.0
        row = phases.setdefault(
            str(event.get("cat", "?")), {"spans": 0, "instants": 0, "busy_ms": 0.0}
        )
        row["spans" if ph == "X" else "instants"] += 1
        row["busy_ms"] += dur_ms
        prow = processes.setdefault(
            pid, {"events": 0, "busy_ms": 0.0, "lanes": set()}
        )
        prow["events"] += 1
        prow["busy_ms"] += dur_ms
        prow["lanes"].add(int(event.get("tid", HOST_TID)))

    phase_rows = [
        {
            "cat": cat,
            "spans": row["spans"],
            "instants": row["instants"],
            "busy_ms": row["busy_ms"],
            "mean_ms": row["busy_ms"] / row["spans"] if row["spans"] else 0.0,
        }
        for cat, row in sorted(phases.items())
    ]
    process_rows = [
        {
            "pid": pid,
            "process": names.get(pid, f"pid-{pid}"),
            "lanes": len(row["lanes"]),
            "events": row["events"],
            "busy_ms": row["busy_ms"],
        }
        for pid, row in sorted(processes.items())
    ]
    return {"phases": phase_rows, "processes": process_rows}
