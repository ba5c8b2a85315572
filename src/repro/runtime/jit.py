"""The compiled execution tier: counted promotion of hot
specializations out of the interpreters.

The two interpreted engines — the sequential interpreter and the
grid-vectorized batched executor — both pay per-statement Python
dispatch on every launch.  The lowering pipeline
(:mod:`repro.compiler.lower`) removes that cost for an
already-specialized launch by running the batched engine's walk — its
statement walk and its instruction handlers — once at compile time with
the pointers left symbolic, and emitting what it did as flat,
straight-line numpy source.  This module is the *runtime* half of the tier:

- :class:`JitCache` — a bounded LRU of
  :class:`~repro.compiler.lower.LoweredKernel` objects keyed by
  :func:`~repro.compiler.pipeline.specialization_key` — the program
  object and its const scalars — the number of launches the kernel
  stacks and the pointer parameters the stack shares (a kernel loads
  what it reads through those once, so it serves only stacks that agree
  there), with the eviction discipline of the runtime's
  :class:`~repro.runtime.runtime.SpecializationCache`.  An entry holds
  its program alive;
- :class:`JitManager` — the promotion policy plus a bounded *bailout
  memo*: specializations the pipeline declined (``LoweringBailout``) are
  remembered so a hot-but-unloweable signature does not re-attempt the
  whole pass pipeline on every launch.

Promotion is counted, not timed: the manager keeps, per
specialization, the number of invocations it left interpreted; the
invocation after :data:`PROMOTE_AFTER` of them compiles, and every
launch after that runs the cached callable — interpret → batched →
compiled, with no API change at any call site.  The decision is a pure
function of the launch sequence (no clock, no profiler), so the tier a
launch runs on repeats run to run.  Cold signatures never pay a
compile; a hot specialization is hot at every group size and shared
set and stays hot for the manager's lifetime.

Execution stays bit-exact: lowering either reproduces the batched
engine's results (and error behaviour, and statistics) exactly — the
kernel is what that engine's handlers did — or bails out and the launch
falls back to the batched engine.  The differential harness locks the
tier in as one of its five modes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence

from repro.compiler.lower import LoweredKernel, LoweringBailout, lower_program
from repro.compiler.pipeline import specialization_key
from repro.obs import trace as obs_trace
from repro.vm.interp import ExecutionStats
from repro.vm.memory import GlobalMemory

#: Invocations of one specialization left interpreted before the next
#: one compiles.  Lowering is the batched engine's own walk, so its cost
#: scales with the launch it replaces: over 32 (program, group size)
#: points — the served decode linear and 15 harness programs, lowering
#: 0.9-7.5 ms — ``lower_ms / (batched_ms - compiled_ms)`` reads 2.2-4.6
#: invocations, median 3.0 (``tools/jit_breakeven.py``; table in
#: docs/jit.md).  After 4 a specialization has cost what compiling it
#: would have, whatever it costs — so no cost model weighs the count.
PROMOTE_AFTER = 4

#: Compiled kernels kept per manager (LRU beyond this).
DEFAULT_MAX_ENTRIES = 64


class JitCache:
    """Bounded LRU of compiled (lowered) kernels, keyed by
    ``(specialization key, stacked launches, shared pointer
    parameters)`` — the compiled twin of
    the runtime's :class:`~repro.runtime.runtime.SpecializationCache`,
    with the same eviction discipline and the same
    ``hits``/``misses``/``evictions`` counters."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._kernels: OrderedDict[tuple, LoweredKernel] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: tuple) -> Optional[LoweredKernel]:
        """The cached kernel for ``key``, or None.  A hit refreshes
        recency; a miss only counts (insertion happens via :meth:`put`
        once compilation succeeds — bailed-out keys never consume an
        entry)."""
        kernel = self._kernels.get(key)
        if kernel is not None:
            self.hits += 1
            self._kernels.move_to_end(key)
            return kernel
        self.misses += 1
        return None

    def put(self, key: tuple, kernel: LoweredKernel) -> None:
        self._kernels[key] = kernel
        self._kernels.move_to_end(key)
        while len(self._kernels) > self.max_entries:
            self._kernels.popitem(last=False)
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._kernels)

    def __repr__(self) -> str:
        return (
            f"JitCache({len(self)}/{self.max_entries} entries, "
            f"{self.hits} hits, {self.misses} misses, {self.evictions} evicted)"
        )


class JitManager:
    """Owns one memory's compiled tier: cache, bailout memo, promotion
    count, counters.

    One manager per :class:`~repro.runtime.runtime.Runtime` (attached by
    ``enable_jit()``; shared with its stream pool as ``pool.jit``), so
    every execution path — synchronous launches, eager streams, graph
    replays — consults the same cache and the same count.
    Thread-safe: host threads (synchronous launches beside a draining
    pool) may call into it concurrently; compilation runs under the lock so one hot signature
    compiles exactly once.
    """

    def __init__(
        self,
        memory: GlobalMemory,
        shared_capacity: int = 228 * 1024,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        self.memory = memory
        self.shared_capacity = shared_capacity
        self.cache = JitCache(max_entries)
        #: Specializations the pipeline declined, with the bailout reason
        #: — bounded like the cache so unloweable traffic cannot grow it.
        self._bailed: OrderedDict[tuple, str] = OrderedDict()
        #: Invocations left interpreted, per specialization key — LRU
        #: under the same bound, so key churn that never promotes cannot
        #: grow it.
        self._seen: OrderedDict[tuple, int] = OrderedDict()
        self._max_memo = 4 * max_entries
        self._lock = threading.Lock()
        #: Successful compilations (pass pipeline ran to the end).
        self.compiled = 0
        #: Lowering attempts that declined (``LoweringBailout``).
        self.bailouts = 0
        #: Launches actually executed on the compiled tier (a stacked
        #: invocation counts each launch it carries).
        self.promotions = 0

    # -- policy --------------------------------------------------------------
    @staticmethod
    def _entry(key: tuple, launches: int, shared: tuple) -> tuple:
        """The cache / memo entry of a stack: one launch shares nothing."""
        return (key, launches, tuple(shared) if launches > 1 else ())

    def maybe_compile(
        self,
        program,
        args: Sequence,
        forced: bool = False,
        key: Optional[tuple] = None,
        launches: int = 1,
        shared: tuple = (),
    ) -> Optional[LoweredKernel]:
        """The compiled kernel this launch should run, or None to stay
        interpreted.  ``launches > 1`` asks for the kernel that runs a
        group of that many hazard-independent launches of this one
        specialization as a single stacked grid, ``shared`` naming the
        pointer parameters every one of them passes the same value for
        (ignored for a single launch): kernels (and bailouts) are cached
        per ``(key, launches, shared)``, the count is per
        specialization, so a hot key is hot at every group size.

        ``forced=True`` (an explicit ``engine="compiled"``) compiles
        immediately and leaves the count alone; otherwise the first
        :data:`PROMOTE_AFTER` invocations of a specialization that find
        no kernel stay interpreted and the next one compiles.  Either
        way a known bailed-out specialization answers None from the memo
        without re-running the pipeline, and an already-compiled one
        answers from the cache without touching the count.
        """
        if key is None:
            key = specialization_key(program, args)
        entry = self._entry(key, launches, shared)
        with self._lock:
            kernel = self.cache.lookup(entry)
            if kernel is not None:
                return kernel
            reason = self._bailed.get(entry)
            if reason is not None:
                self._bailed.move_to_end(entry)
                return None
            if not forced:
                seen = self._seen[key] = self._seen.get(key, 0) + 1
                self._seen.move_to_end(key)
                while len(self._seen) > self._max_memo:
                    self._seen.popitem(last=False)
                if seen <= PROMOTE_AFTER:
                    return None
        with self._lock:
            # Re-check under the lock: a racing launch may have compiled
            # (or bailed) this key since the count was taken.
            kernel = self.cache.lookup(entry)
            if kernel is not None:
                return kernel
            if entry in self._bailed:
                return None
            tracer = obs_trace.ACTIVE
            try:
                kernel = lower_program(
                    program, args, self.memory, self.shared_capacity, launches, entry[2]
                )
            except LoweringBailout as exc:
                self.bailouts += 1
                self._bailed[entry] = str(exc)
                while len(self._bailed) > self._max_memo:
                    self._bailed.popitem(last=False)
                if tracer is not None:
                    tracer.instant(
                        f"jit.bailout:{program.name}",
                        "jit",
                        obs_trace.HOST_TID,
                        {"reason": str(exc)},
                    )
                return None
            self.cache.put(entry, kernel)
            self.compiled += 1
            if tracer is not None:
                tracer.instant(
                    f"jit.promote:{program.name}",
                    "jit",
                    obs_trace.HOST_TID,
                    {"forced": forced, "compiled": self.compiled},
                )
            return kernel

    def run(
        self,
        kernel: LoweredKernel,
        args_list: Sequence[Sequence],
        stats: Optional[ExecutionStats] = None,
    ) -> ExecutionStats:
        """Execute one compiled invocation — the launches ``kernel``
        stacks — against the manager's memory.  ``promotions`` counts
        launches, not invocations."""
        with self._lock:
            self.promotions += len(args_list)
        return kernel.run_many(self.memory, args_list, stats)

    # -- introspection -------------------------------------------------------
    def bailout_reason(
        self, program, args: Sequence, launches: int = 1, shared: tuple = ()
    ) -> Optional[str]:
        """Why a specialization (at this group size, sharing these
        pointers) stays interpreted, or None if it never bailed (useful
        in tests and bug reports)."""
        entry = self._entry(specialization_key(program, args), launches, shared)
        with self._lock:
            return self._bailed.get(entry)

    def __repr__(self) -> str:
        return (
            f"JitManager({self.cache!r}, "
            f"{self.compiled} compiled, {self.bailouts} bailouts, "
            f"{self.promotions} promotions)"
        )
