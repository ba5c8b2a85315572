"""Per-launch execution profiling: what every launch cost, observed.

This module records what every launch actually cost — wall time,
instruction count, bits moved, engine used, how many launches shared
its engine invocation — as a :class:`NodeProfile`, keyed by the
launch's **specialization key** and its tier: one site per
distinct kernel specialization and tier, whichever path issued it (a
synchronous launch, an eager stream drain or a graph replay records
the same way).  Each record also carries the program
name, for coarser dashboard aggregation.

A :class:`Profile` is a bag of those records, living in the process
that recorded it: nothing serializes, merges or ships one.  Its readers
are the standing benchmark's step probe and the tests.  A profile
observes; nothing reads it to decide anything (JIT promotion is the
manager's own invocation count).

Recording is thread-safe (host threads sharing a runtime may record
concurrently) and costs nothing when disabled: the engines' hot paths check a single
``profiler is None`` before doing any bookkeeping.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Mapping

#: Engine tag recorded for launches served by the compiled (JIT) tier.
COMPILED = "compiled"


class NodeProfile:
    """Accumulated cost of one profiled launch site.

    Identity is ``(spec, engine)``: the specialization key
    ``(program, const scalars)`` and the tier.  The engine is part of the
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
        "group_size",
        "calls",
        "wall_s",
        "blocks",
        "instructions",
        "global_bits_loaded",
        "global_bits_stored",
    )

    def __init__(
        self, program: str, spec: tuple, engine: str, group_size: int = 1
    ) -> None:
        self.program = program
        self.spec = spec
        self.engine = engine
        self.group_size = group_size
        self.calls = 0
        self.wall_s = 0.0
        self.blocks = 0
        self.instructions = 0
        self.global_bits_loaded = 0
        self.global_bits_stored = 0

    @property
    def mean_wall_s(self) -> float:
        """Mean wall time of one launch at this site."""
        return self.wall_s / self.calls if self.calls else 0.0

    def __repr__(self) -> str:
        return (
            f"NodeProfile({self.program!r} on {self.engine}, {self.calls} calls, "
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
    """A set of :class:`NodeProfile` records, keyed by site.

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
        spec: tuple,
        engine: str,
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
        key = (spec, engine)
        with self._lock:
            node = self.nodes.get(key)
            if node is None:
                node = NodeProfile(program, spec, engine)
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
        specs: Iterable[tuple],
        engine: str,
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
                program, spec, engine, wall_s / n,
                stats_delta=share, group_size=n,
            )

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        with self._lock:
            nodes = list(self.nodes.values())
        total = sum(node.wall_s for node in nodes)
        return f"Profile({len(nodes)} sites, {total * 1e3:.2f} ms recorded)"
