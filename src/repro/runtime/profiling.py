"""Per-launch execution profiling: what every launch cost, observed.

This module records what every launch actually cost — wall time,
instruction count, bits moved, engine used, how many launches shared
its engine invocation — as a :class:`NodeProfile`, keyed by the
launch's **specialization-key string**, its stream and its tier: one
site per distinct kernel specialization per stream, whichever path
issued it (a synchronous launch, an eager stream drain or a graph
replay records the same way).  Each record also carries the program
name, for coarser dashboard aggregation.

A :class:`Profile` is a bag of those records with per-stream
aggregation, a versioned JSON serialization and :meth:`~Profile.merge`,
so a profile gathered in one process (a serving worker exports its own
on ``pull_state``) can be read and combined in another.  A profile
observes; nothing reads it to decide anything (JIT promotion is the
manager's own invocation count).

Recording is thread-safe (host threads sharing a runtime may record
concurrently) and costs nothing when disabled: the engines' hot paths check a single
``profiler is None`` before doing any bookkeeping.
"""

from __future__ import annotations

import json
import threading
import time
from typing import IO, Iterable, Mapping

from repro.errors import VMError

#: Stream index recorded for synchronous (non-stream) launches.
HOST_STREAM = -1

#: Engine tag recorded for launches served by the compiled (JIT) tier.
COMPILED = "compiled"


def spec_string(key: tuple) -> str:
    """Canonical string form of a specialization key.

    ``repr`` of the key tuple — deterministic across processes (the
    fingerprint component is a sha256 hex digest, not a salted hash), so
    a profile saved from one run matches keys computed in another.
    """
    return repr(key)


class NodeProfile:
    """Accumulated cost of one profiled launch site.

    Identity is ``(spec, stream, engine)``: the specialization-key
    string, the stream whose lane ran the launch (:data:`HOST_STREAM`
    for synchronous launches) and the tier.  The engine is part of the
    identity because one launch site can execute under different tiers
    over its lifetime — the compiled tier promotes a hot site mid-run,
    and its costs must not accumulate into the interpreted record.  All
    counters accumulate across calls; divide by :attr:`calls` for
    per-launch means.  ``group_size`` is how many launches shared the
    *most recent* recorded engine invocation (grouping can differ call
    to call), not an accumulated property.
    """

    __slots__ = (
        "program",
        "spec",
        "engine",
        "stream",
        "group_size",
        "calls",
        "wall_s",
        "blocks",
        "instructions",
        "global_bits_loaded",
        "global_bits_stored",
    )

    def __init__(
        self, program: str, spec: str, engine: str, stream: int, group_size: int = 1
    ) -> None:
        self.program = program
        self.spec = spec
        self.engine = engine
        self.stream = stream
        self.group_size = group_size
        self.calls = 0
        self.wall_s = 0.0
        self.blocks = 0
        self.instructions = 0
        self.global_bits_loaded = 0
        self.global_bits_stored = 0

    @property
    def key(self) -> tuple:
        return (self.spec, self.stream, self.engine)

    @property
    def mean_wall_s(self) -> float:
        """Mean wall time of one launch at this site."""
        return self.wall_s / self.calls if self.calls else 0.0

    @property
    def bytes_touched(self) -> int:
        """Global-memory bytes moved across all recorded calls."""
        return (self.global_bits_loaded + self.global_bits_stored) // 8

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: Mapping) -> "NodeProfile":
        node = cls(
            program=data["program"],
            spec=data["spec"],
            engine=data["engine"],
            stream=data["stream"],
            group_size=data.get("group_size", 1),
        )
        node.calls = int(data["calls"])
        node.wall_s = float(data["wall_s"])
        node.blocks = int(data.get("blocks", 0))
        node.instructions = int(data.get("instructions", 0))
        node.global_bits_loaded = int(data.get("global_bits_loaded", 0))
        node.global_bits_stored = int(data.get("global_bits_stored", 0))
        return node

    def __repr__(self) -> str:
        return (
            f"NodeProfile({self.program!r} on "
            f"stream {self.stream}, {self.calls} calls, "
            f"{self.mean_wall_s * 1e6:.1f} us/call)"
        )


#: Stat counters copied from an ``ExecutionStats`` snapshot delta into a
#: node record (shared across every engine invocation attribution).
_STAT_FIELDS = (
    ("blocks", "blocks_run"),
    ("instructions", "instructions"),
    ("global_bits_loaded", "global_bits_loaded"),
    ("global_bits_stored", "global_bits_stored"),
)

#: 2: records lost the graph scope (``scope`` / ``ident`` / ``group``);
#: a replayed launch records under its spec string like any other.
_JSON_VERSION = 2


class StatsTimer:
    """Times one engine invocation and captures its ``ExecutionStats``
    delta: a context manager the launch executor
    (:func:`repro.runtime.executor.execute`) holds around the engine
    call, reading ``wall`` and ``delta`` afterwards for the profile
    record.  Only the engine call belongs inside the block: dependency
    waits, JIT compilation and recording bookkeeping must stay outside
    the measurement.
    """

    __slots__ = ("_stats", "_before", "_start", "wall", "delta")

    def __init__(self, stats) -> None:
        self._stats = stats

    def __enter__(self) -> "StatsTimer":
        self._before = self._stats.snapshot()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall = time.perf_counter() - self._start
        after = self._stats.snapshot()
        self.delta = {k: after[k] - self._before[k] for k in after}


def split_counts(delta: Mapping, n: int) -> list[dict]:
    """Split an integer stat delta into ``n`` member shares whose sum is
    exactly the original (remainders go to the leading members) — naive
    per-member ``value / n`` truncates away up to ``n - 1`` units per
    counter per invocation."""
    shares: list[dict] = [{} for _ in range(n)]
    for key, value in delta.items():
        base, rem = divmod(int(value), n)
        for i in range(n):
            shares[i][key] = base + (1 if i < rem else 0)
    return shares


class Profile:
    """A set of :class:`NodeProfile` records with aggregation and JSON.

    One ``Profile`` can absorb launches from every execution mode at
    once — synchronous launches, eager stream groups and graph replays
    all record into the runtime's active profiler — and is safe to share
    across host threads.
    """

    def __init__(self) -> None:
        self.nodes: dict[tuple, NodeProfile] = {}
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------
    def record(
        self,
        program: str,
        spec: str,
        engine: str,
        stream: int,
        wall_s: float,
        stats_delta: Mapping | None = None,
        group_size: int = 1,
    ) -> NodeProfile:
        """Accumulate one launch's measurements into its site record.

        ``stats_delta`` is an ``ExecutionStats`` snapshot difference for
        the *engine invocation*; callers attributing one coalesced
        invocation to several launches divide it (and ``wall_s``) before
        recording each.
        """
        key = (spec, stream, engine)
        with self._lock:
            node = self.nodes.get(key)
            if node is None:
                node = NodeProfile(program, spec, engine, stream)
                self.nodes[key] = node
            node.calls += 1
            node.wall_s += wall_s
            node.group_size = group_size
            if stats_delta:
                for attr, stat in _STAT_FIELDS:
                    setattr(node, attr, getattr(node, attr) + int(stats_delta.get(stat, 0)))
        return node

    def record_group(
        self,
        program: str,
        specs: Iterable[str],
        engine: str,
        stream: int,
        wall_s: float,
        stats_delta: Mapping | None = None,
    ) -> None:
        """Attribute one coalesced engine invocation evenly across its
        member launches (they run the same program on one stacked grid,
        so an even split is the honest per-launch estimate).  Integer
        counters split with the remainder spread over the first members,
        so group totals equal the invocation's exact delta."""
        specs = list(specs)
        n = len(specs)
        shares = split_counts(stats_delta, n) if stats_delta else [None] * n
        for spec, share in zip(specs, shares):
            self.record(
                program, spec, engine, stream, wall_s / n,
                stats_delta=share, group_size=n,
            )

    # -- aggregation --------------------------------------------------------
    def per_stream(self) -> dict[int, dict]:
        """Totals per stream index: calls, wall seconds, bytes touched."""
        out: dict[int, dict] = {}
        with self._lock:
            for node in self.nodes.values():
                agg = out.setdefault(
                    node.stream, {"calls": 0, "wall_s": 0.0, "bytes": 0}
                )
                agg["calls"] += node.calls
                agg["wall_s"] += node.wall_s
                agg["bytes"] += node.bytes_touched
        return out

    def merge(self, other: "Profile") -> "Profile":
        """Absorb ``other``'s records (summing shared sites); returns self."""
        with other._lock:
            records = [node.to_dict() for node in other.nodes.values()]
        for data in records:
            incoming = NodeProfile.from_dict(data)
            key = incoming.key
            with self._lock:
                node = self.nodes.get(key)
                if node is None:
                    self.nodes[key] = incoming
                    continue
                node.calls += incoming.calls
                node.wall_s += incoming.wall_s
                for attr, _ in _STAT_FIELDS:
                    setattr(node, attr, getattr(node, attr) + getattr(incoming, attr))
        return self

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        with self._lock:
            nodes = [node.to_dict() for node in self.nodes.values()]
        return json.dumps({"version": _JSON_VERSION, "nodes": nodes}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Profile":
        """Parse a profile written by :meth:`to_json`.

        Every malformed input — truncated payload, non-object JSON, a
        missing or mangled ``nodes`` list, unknown version — raises a
        :class:`VMError` naming the problem, never a bare decode error
        and never a silently empty profile: a consumer reading this data
        must not mistake garbage for measurements.
        """
        try:
            data = json.loads(text)
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            raise VMError(f"profile JSON is truncated or malformed: {exc}") from exc
        if not isinstance(data, dict):
            raise VMError(
                f"profile JSON must be an object, got {type(data).__name__}"
            )
        version = data.get("version")
        if version != _JSON_VERSION:
            raise VMError(
                f"unsupported profile version {version!r} "
                f"(this build reads version {_JSON_VERSION})"
            )
        nodes = data.get("nodes")
        if not isinstance(nodes, list):
            raise VMError("profile JSON is missing its 'nodes' list")
        profile = cls()
        for record in nodes:
            try:
                node = NodeProfile.from_dict(record)
            except (KeyError, TypeError, ValueError) as exc:
                raise VMError(f"malformed profile node record: {exc}") from exc
            profile.nodes[node.key] = node
        return profile

    def save(self, fp: IO[str] | str) -> None:
        """Write the profile as JSON to a path or open text file."""
        if isinstance(fp, str):
            with open(fp, "w", encoding="utf-8") as handle:
                handle.write(self.to_json())
        else:
            fp.write(self.to_json())

    @classmethod
    def load(cls, fp: IO[str] | str) -> "Profile":
        """Read a profile previously written by :meth:`save`."""
        if isinstance(fp, str):
            with open(fp, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        return cls.from_json(fp.read())

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        streams = self.per_stream()
        total = sum(agg["wall_s"] for agg in streams.values())
        return (
            f"Profile({len(self.nodes)} sites over {len(streams)} streams, "
            f"{total * 1e3:.2f} ms recorded)"
        )
