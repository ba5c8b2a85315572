"""The compiled execution tier: profile-driven promotion of hot
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
  :func:`~repro.compiler.pipeline.specialization_key` and the number of
  launches the kernel stacks, the same discipline (and the same key) as
  the runtime's :class:`~repro.runtime.runtime.SpecializationCache`, so
  a compiled kernel lives alongside its interpreted specialization;
- :class:`JitManager` — the promotion policy plus a bounded *bailout
  memo*: specializations the pipeline declined (``LoweringBailout``) are
  remembered so a hot-but-unloweable signature does not re-attempt the
  whole pass pipeline on every launch.

Promotion is profile-driven, closing the tiered-PGO loop: the active
profiler records per-specialization wall time
(:meth:`~repro.runtime.profiling.Profile.spec_heat`); once a signature's
accumulated interpreted time clears ``threshold_s``, the next launch
compiles it and every launch after that runs the cached callable —
interpret → batched → compiled, with no API change at any call site.
Cold signatures never pay a compile; promoted signatures stay promoted
for the manager's lifetime (the cache hit short-circuits the heat check,
so a profiler reset — the serving loop installs a fresh profile per
trace — cannot demote them).

Execution stays bit-exact: lowering either reproduces the batched
engine's results (and error behaviour, and statistics) exactly — the
kernel is what that engine's handlers did — or bails out and the launch
falls back to the batched engine.  The differential harness locks the
tier in as one of its six modes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence

from repro.compiler.lower import LoweredKernel, LoweringBailout, lower_program
from repro.compiler.pipeline import specialization_key
from repro.obs import trace as obs_trace
from repro.runtime.profiling import Profile, spec_string
from repro.vm.interp import ExecutionStats
from repro.vm.memory import GlobalMemory

#: Accumulated interpreted seconds per specialization before it promotes.
DEFAULT_THRESHOLD_S = 0.02

#: Compiled kernels kept per manager (LRU beyond this).
DEFAULT_MAX_ENTRIES = 64


class JitCache:
    """Bounded LRU of compiled (lowered) kernels, keyed by
    ``(specialization key, stacked launches)`` — the compiled twin of
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
    policy, counters.

    One manager per :class:`~repro.runtime.runtime.Runtime` (attached by
    ``enable_jit()``; shared with its stream pool as ``pool.jit``), so
    every execution path — synchronous launches, eager streams, graph
    replays — consults the same cache and the same heat policy.
    Thread-safe: host threads (synchronous launches beside a draining
    pool) may call into it concurrently; compilation runs under the lock so one hot signature
    compiles exactly once.
    """

    def __init__(
        self,
        memory: GlobalMemory,
        shared_capacity: int = 228 * 1024,
        threshold_s: float = DEFAULT_THRESHOLD_S,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if threshold_s < 0.0:
            raise ValueError(f"threshold_s must be non-negative, got {threshold_s}")
        self.memory = memory
        self.shared_capacity = shared_capacity
        self.threshold_s = threshold_s
        self.cache = JitCache(max_entries)
        #: Specializations the pipeline declined, with the bailout reason
        #: — bounded like the cache so unloweable traffic cannot grow it.
        self._bailed: OrderedDict[tuple, str] = OrderedDict()
        self._max_bailed = 4 * max_entries
        self._lock = threading.Lock()
        #: Successful compilations (pass pipeline ran to the end).
        self.compiled = 0
        #: Lowering attempts that declined (``LoweringBailout``).
        self.bailouts = 0
        #: Launches actually executed on the compiled tier (a stacked
        #: invocation counts each launch it carries).
        self.promotions = 0
        #: Kernels restored from a tuning store (no pass pipeline run).
        self.rehydrated = 0
        #: Store-loaded heat per spec string — counts toward the
        #: promotion threshold alongside live profiler heat, so a fresh
        #: process promotes hot specializations on first launch.
        self._preheat: dict[str, float] = {}
        #: Store-loaded kernel records per spec string, decoded lazily
        #: at promotion time (a corrupt record degrades to a compile).
        self._stored: dict[str, dict] = {}

    # -- policy --------------------------------------------------------------
    def maybe_compile(
        self,
        program,
        args: Sequence,
        profiler: Optional[Profile] = None,
        forced: bool = False,
        key: Optional[tuple] = None,
        launches: int = 1,
    ) -> Optional[LoweredKernel]:
        """The compiled kernel this launch should run, or None to stay
        interpreted.  ``launches > 1`` asks for the kernel that runs a
        group of that many hazard-independent launches of this one
        specialization as a single stacked grid: kernels (and bailouts)
        are cached per ``(key, launches)``, heat is per specialization,
        so a hot key is hot at every group size.

        ``forced=True`` (an explicit ``engine="compiled"``) skips the
        heat check and compiles immediately; otherwise the launch
        promotes only when the accumulated interpreted time for its
        specialization — live profiler heat plus any store-seeded
        :meth:`preheat` — has reached ``threshold_s`` (no profiler and
        no preheat → never promote).  Either way a known bailed-out
        specialization
        answers None from the memo without re-running the pipeline, and
        an already-compiled one answers from the cache without
        consulting the heat at all — promotion is sticky.
        """
        if key is None:
            key = specialization_key(program, args)
        entry = (key, launches)
        with self._lock:
            kernel = self.cache.lookup(entry)
            if kernel is not None:
                return kernel
            reason = self._bailed.get(entry)
            if reason is not None:
                self._bailed.move_to_end(entry)
                return None
        if not forced:
            spec = spec_string(key)
            pre = self._preheat.get(spec)
            if profiler is None and pre is None:
                return None
            heat = pre or 0.0
            if profiler is not None:
                heat += profiler.spec_heat(spec)
            if heat < self.threshold_s:
                return None
        with self._lock:
            # Re-check under the lock: a racing launch may have compiled
            # (or bailed) this key while the heat check ran.
            kernel = self.cache.lookup(entry)
            if kernel is not None:
                return kernel
            if entry in self._bailed:
                return None
            tracer = obs_trace.ACTIVE
            # The store persists single-launch kernels only; a stacked
            # one re-lowers.
            record = (
                self._stored.pop(spec_string(key), None) if launches == 1 else None
            )
            if record is not None:
                from repro.errors import VMError
                from repro.store import decode_kernel

                try:
                    kernel = decode_kernel(record, self.memory, key)
                except VMError:
                    kernel = None  # corrupt record: fall through and compile
                if kernel is not None:
                    self.cache.put(entry, kernel)
                    self.rehydrated += 1
                    if tracer is not None:
                        tracer.instant(
                            f"jit.rehydrate:{program.name}",
                            "jit",
                            obs_trace.HOST_TID,
                            {"rehydrated": self.rehydrated},
                        )
                    return kernel
            try:
                kernel = lower_program(
                    program, args, self.memory, self.shared_capacity, launches
                )
            except LoweringBailout as exc:
                self.bailouts += 1
                self._bailed[entry] = str(exc)
                while len(self._bailed) > self._max_bailed:
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

    # -- store warm-start ----------------------------------------------------
    def preheat(self, heats: dict) -> None:
        """Seed per-spec heat from a tuning store: a fresh process
        promotes store-hot specializations on their first launch instead
        of re-paying interpreted warmup.  Adds to (never replaces) any
        previously seeded heat."""
        with self._lock:
            for spec, seconds in heats.items():
                self._preheat[spec] = self._preheat.get(spec, 0.0) + float(seconds)

    def stage_kernels(self, records: list) -> int:
        """Stage store-loaded kernel records for lazy rehydration: when a
        staged specialization promotes, its kernel is decoded from the
        record instead of re-lowered.  Malformed list entries are
        skipped; a record that later fails to decode degrades to a cold
        compile.  Returns the number staged."""
        staged = 0
        with self._lock:
            for record in records:
                spec = record.get("spec") if isinstance(record, dict) else None
                if not isinstance(spec, str):
                    continue
                self._stored[spec] = record
                staged += 1
        return staged

    # -- introspection -------------------------------------------------------
    def bailout_reason(
        self, program, args: Sequence, launches: int = 1
    ) -> Optional[str]:
        """Why a specialization (at this group size) stays interpreted,
        or None if it never bailed (useful in tests and bug reports)."""
        entry = (specialization_key(program, args), launches)
        with self._lock:
            return self._bailed.get(entry)

    def counters(self) -> dict:
        """JSON-friendly counter snapshot (shipped in worker state
        exports)."""
        with self._lock:
            return {
                "compiled": self.compiled,
                "bailouts": self.bailouts,
                "promotions": self.promotions,
                "rehydrated": self.rehydrated,
                "cache_hits": self.cache.hits,
                "cache_misses": self.cache.misses,
                "cache_evictions": self.cache.evictions,
            }

    def __repr__(self) -> str:
        return (
            f"JitManager(threshold_s={self.threshold_s}, {self.cache!r}, "
            f"{self.compiled} compiled, {self.bailouts} bailouts, "
            f"{self.promotions} promotions)"
        )
