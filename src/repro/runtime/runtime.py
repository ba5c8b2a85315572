"""The Tilus runtime system (paper Section 8.1, step 4).

Maintains the runtime state the paper describes (a kernel's
``AllocateGlobal`` workspace is the engines' own: each reserves its
blocks' spans when the instruction runs and frees them when the launch
ends):

1. an **execution context** (the profiler and JIT manager every launch
   path consults, plus the launch counter), shared with a lazily created
   **stream pool** (:mod:`repro.runtime.streams`) for asynchronous
   launches: ``launch(..., stream=...)`` queues and returns a handle,
   hazards on global-memory ranges are ordered automatically, and the
   next drain point — a ``wait``, a ``synchronize``, a graph replay, or
   this runtime's own synchronous ``launch`` / ``download`` — runs the
   pending launches grouped, on the calling thread;
2. a **kernel specialization cache** keyed on the program object, so a
   program is prepared once and every later launch of it — whatever its
   scalars — skips the compiler entirely.  A rebuilt template is a new
   program and is prepared again.

Execution is delegated to the launch executor
(:mod:`repro.runtime.executor`), which every launch path shares: it
picks one of the two VM engines — the sequential interpreter or the
grid-vectorized batched executor (policy: batched for every batchable
program, whatever its grid size) — or the compiled tier, times the engine, records
the profile and emits the span.  What the engines run is the program
:func:`repro.compiler.pipeline.prepare_program` verified, simplified and
stripped of dead code; the CUDA artifact (shared-memory plan,
instruction selection, emitted source) is ``compile_program``'s, which
the launch path never builds.

A third, **compiled** tier sits above both (:mod:`repro.runtime.jit`):
with :meth:`Runtime.enable_jit` (or ``engine="compiled"``), hot
specializations are lowered to flat numpy source by
:mod:`repro.compiler.lower` and executed as cached callables.
Promotion is counted — a signature promotes once the manager has left
``PROMOTE_AFTER`` invocations of it interpreted; no clock or profiler
is read — and bit-exact: signatures the pipeline cannot lower fall back
to the batched engine.

The runtime is the one owner of engine state: the layers above
(:mod:`repro.ops`, :mod:`repro.llm.batching`, :mod:`repro.serving`) read
``runtime.jit`` / ``runtime.profiler`` instead of keeping copies.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.compiler.pipeline import prepare_program, specialization_key
from repro.dtypes import DataType
from repro.errors import VMError
from repro.ir.program import Program
from repro.obs import trace as obs_trace
from repro.runtime.executor import (
    ContextAttr,
    ExecutionContext,
    Lane,
    Site,
    execute,
)
from repro.runtime.profiling import Profile
from repro.runtime.streams import LaunchHandle, Stream, StreamPool
from repro.vm.interp import ExecutionStats
from repro.vm.memory import GlobalMemory, TensorView

#: The tiers a runtime or a launch may ask for.
ENGINES = ("auto", "sequential", "batched", "compiled")

#: Where synchronous launches are accounted.
_HOST_SITE = Site("launch", "runtime")


class SpecializationCache:
    """Bounded LRU of prepared programs, keyed by the program object.

    Preparation does not depend on the launch's scalars, so launches of
    one program with different const-bound arguments (split-k's ``k0``)
    share an entry; only the JIT and stacking keep the full
    :func:`~repro.compiler.pipeline.specialization_key`.  An entry holds
    its program alive, so a recycled ``id`` cannot alias a dead one.

    ``max_entries`` bounds memory: least-recently-used programs are evicted
    once the bound is exceeded; ``hits``/``misses``/``evictions`` expose
    the cache behaviour to tests and benchmarks.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._programs: OrderedDict[Program, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, program: Program) -> Program:
        """Return ``program``, prepared
        (:func:`~repro.compiler.pipeline.prepare_program`) on its first
        request; an ill-typed program raises there and is not cached."""
        if program in self._programs:
            self.hits += 1
            self._programs.move_to_end(program)
            return program
        prepare_program(program)
        self.misses += 1
        self._programs[program] = None
        while len(self._programs) > self.max_entries:
            self._programs.popitem(last=False)
            self.evictions += 1
        return program

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._programs)

    def __repr__(self) -> str:
        return (
            f"SpecializationCache({len(self)}/{self.max_entries} entries, "
            f"{self.hits} hits, {self.misses} misses, {self.evictions} evicted)"
        )


class Runtime:
    """Device handle: memory, kernel cache, execution engines, launch API.

    ``engine`` selects how kernels execute:

    - ``"auto"`` (default): the grid-vectorized batched executor for
      every program it can run (single-block grids included), the
      sequential interpreter for block-varying view shapes — and the
      compiled tier for promoted-hot specializations once
      :meth:`enable_jit` is on;
    - ``"sequential"`` / ``"batched"``: force one engine for every launch;
    - ``"compiled"``: force the JIT tier (falling back to batched for
      specializations the lowering pipeline declines).
    """

    def __init__(
        self,
        dram_bytes: int = 1 << 30,
        shared_capacity: int = 228 * 1024,
        engine: str = "auto",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        self.memory = GlobalMemory(dram_bytes)
        # The host lane: both engines share the memory and the stats
        # object, so ``stats()`` reflects every launch regardless of engine.
        self._lane = Lane(self.memory, shared_capacity, obs_trace.HOST_TID)
        self.interpreter = self._lane.interpreter
        self.batched = self._lane.batched
        self.engine = engine
        self.cache = SpecializationCache()
        #: Shared with the stream pool (see :meth:`stream_pool`).
        self.context = ExecutionContext()
        self._pool: StreamPool | None = None
        if engine == "compiled":
            self.enable_jit()

    #: Active profiler (see :meth:`enable_profiling`), or None.
    profiler = ContextAttr()
    #: Attached :class:`~repro.runtime.jit.JitManager` (see
    #: :meth:`enable_jit`), or None.
    jit = ContextAttr()

    # -- profiling -----------------------------------------------------------
    def enable_profiling(self, profile: Profile | None = None) -> Profile:
        """Start recording per-launch execution profiles.

        Returns the active :class:`~repro.runtime.profiling.Profile`:
        the given ``profile`` (installed, replacing any active one), the
        already-active one, or a fresh one.  Every later launch —
        synchronous, streamed, or graph-replayed through this runtime's
        pool — records a per-node cost into it.  The profile is an
        in-process observation: nothing reads it to decide how a launch
        executes, and nothing ships it to another process.
        """
        if profile is not None:
            self.profiler = profile
        elif self.profiler is None:
            self.profiler = Profile()
        return self.profiler

    def disable_profiling(self) -> Profile | None:
        """Stop recording; returns the profile collected so far."""
        profile, self.profiler = self.profiler, None
        return profile

    # -- tracing -------------------------------------------------------------
    def enable_tracing(self, tracer=None, capacity: int = obs_trace.DEFAULT_CAPACITY):
        """Install (and return) the process tracer
        (:mod:`repro.obs.trace`).  Tracing is process-scoped — the
        trace's pid axis is the process, and one ring buffer collects
        the host lane plus the stream pool's — so this delegates to
        :func:`repro.obs.trace.install`; the emit points across the
        stack (launches, stream groups, graph replays, JIT promotions)
        fire only while a tracer is installed and cost
        one ``is None`` test otherwise."""
        return obs_trace.install(tracer, capacity=capacity)

    def disable_tracing(self):
        """Uninstall and return the process tracer (buffer intact), or
        None if tracing was off."""
        return obs_trace.uninstall()

    # -- tiered JIT ----------------------------------------------------------
    def enable_jit(self):
        """Attach the compiled execution tier (:mod:`repro.runtime.jit`).

        Returns the active :class:`~repro.runtime.jit.JitManager`: the
        already-attached one, or a fresh one holding at most
        :data:`~repro.runtime.jit.DEFAULT_MAX_ENTRIES` kernels.
        From here on every execution path through this runtime —
        synchronous launches, eager streams, graph replays — promotes a
        specialization to its compiled kernel once the manager has left
        :data:`~repro.runtime.jit.PROMOTE_AFTER` invocations of it
        interpreted (explicit ``engine="compiled"`` launches compile at
        once).  Specializations the lowering pipeline declines fall back
        to the batched engine, bit-exactly.
        """
        if self.jit is None:
            self.context.attach_jit(self.memory, self.interpreter.shared_capacity)
        return self.jit

    # -- streams ------------------------------------------------------------
    def stream_pool(self, num_streams: int = 4) -> StreamPool:
        """The runtime's stream pool, created on first use.

        The pool shares this runtime's device memory, so tensors uploaded
        through :meth:`upload` are visible to its launches.  The number
        of stream labels is fixed on first call; later calls return the
        same pool.
        """
        if self._pool is None:
            self._pool = StreamPool(
                self.memory,
                num_streams=num_streams,
                shared_capacity=self.interpreter.shared_capacity,
            )
            self._pool.context = self.context
        return self._pool

    def synchronize(self) -> None:
        """Retire all asynchronously launched kernels; re-raise their
        first error."""
        if self._pool is not None:
            self._pool.synchronize()

    def capture(
        self, num_streams: int = 4
    ) -> "repro.runtime.graphs.ExecutionGraph":  # noqa: F821
        """Begin an execution-graph capture on the runtime's stream pool.

        Used as a context manager: every launch inside the ``with`` block
        — streamed or synchronous — is recorded into the returned
        :class:`~repro.runtime.graphs.ExecutionGraph` instead of
        executing (preparation still goes through the specialization
        cache, so captured nodes hold prepared programs).  After the
        block, ``graph.replay(bindings)`` re-executes the frozen launch
        DAG without re-running scheduling, hazard analysis, or
        coalescing decisions.  Nothing served captures a graph (split-k
        issues ``stream="auto"`` launches); the benchmark's step probe
        and the tests' serial-replay reference do.  See
        :mod:`repro.runtime.graphs`.
        """
        return self.stream_pool(num_streams).capture()

    # -- memory -------------------------------------------------------------
    def upload(self, values: np.ndarray, dtype: DataType) -> int:
        """Copy a host array into device memory; returns its address."""
        return self.memory.upload(values, dtype)

    def empty(self, shape: Sequence[int], dtype: DataType) -> int:
        """Allocate uninitialized device memory for an output tensor."""
        return self.memory.alloc_output(shape, dtype)

    def write(self, addr: int, values: np.ndarray, dtype: DataType) -> None:
        """Copy a host array into the device tensor at ``addr`` (pending
        asynchronous launches retire first: program order)."""
        if self._pool is not None:
            self._pool.drain()
        values = np.asarray(values)
        TensorView(self.memory.buffer, addr * 8, dtype, values.shape).write_all(values)

    def download(self, addr: int, shape: Sequence[int], dtype: DataType) -> np.ndarray:
        """Copy a device tensor back to the host (pending asynchronous
        launches retire first: program order)."""
        if self._pool is not None:
            self._pool.drain()
        return self.memory.download(addr, shape, dtype)

    def free(self, addr: int) -> None:
        """Release the device tensor at ``addr`` for reuse by a later
        allocation of its size (pending asynchronous launches retire
        first: nothing queued can still read or write it).  A double or
        unknown free raises :class:`~repro.errors.VMError`."""
        if self._pool is not None:
            self._pool.drain()
        self.memory.free(addr)

    # -- execution -------------------------------------------------------------
    def launch(
        self,
        program: Program,
        args: Sequence,
        engine: str | None = None,
        stream: "Stream | str | None" = None,
    ) -> LaunchHandle | None:
        """Prepare (once per program object), then execute; a synchronous
        launch returns None once it has run.

        An ill-typed program raises :class:`~repro.errors.TypeCheckError`
        before anything is cached or run.

        ``stream`` makes the launch asynchronous: pass a
        :class:`~repro.runtime.streams.Stream` label (from
        :meth:`stream_pool`) or ``"auto"`` — which decides nothing: the
        launch joins its pool's one pending list either way.  Async
        launches return a :class:`~repro.runtime.streams.LaunchHandle`;
        ``handle.wait()`` / :meth:`synchronize`
        drain them, and so does a later synchronous launch or
        :meth:`download` (program order).  Ordering on
        overlapping global-memory ranges is enforced automatically
        (writes serialize, reads share), so grouped execution stays
        bit-exact with serial issue.
        """
        if engine is not None and engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        if stream is not None and stream != "auto" and not isinstance(stream, Stream):
            raise ValueError(
                f"stream must be a Stream, 'auto', or None, got {stream!r}"
            )
        if len(args) != len(program.params):
            # Check before touching the cache: a truncated zip would
            # otherwise build a bogus specialization key and cache a program
            # for a launch that can never run.
            raise VMError(
                f"{program.name} expects {len(program.params)} args, got {len(args)}"
            )
        key = specialization_key(program, args)
        self.cache.get(program)
        requested = engine or self.engine
        if stream is None and self._pool is not None and self._pool.capturing:
            # During graph capture every launch is recorded, including
            # synchronous ones (like stream="auto").
            stream = "auto"
        if stream is not None:
            pool = stream.pool if isinstance(stream, Stream) else self.stream_pool()
            handle = pool.submit(
                program,
                args,
                stream=stream if isinstance(stream, Stream) else None,
                engine=requested,
                key=key,
            )
            self.context.launches += 1
            return handle
        if self._pool is not None:
            self._pool.drain()  # program order: earlier async launches first
        try:
            execute(
                self._lane, self.context, program, [args], requested, [key],
                _HOST_SITE,
            )
        except VMError as exc:
            raise VMError(f"kernel {program.name!r} failed: {exc}") from exc
        self.context.launches += 1

    def stats(self) -> ExecutionStats:
        """Counters over every launch: the synchronous engines' shared
        stats plus, when streams are in use, the pool's."""
        if self._pool is None:
            return self.interpreter.stats
        total = ExecutionStats()
        total.merge(self.interpreter.stats)
        total.merge(self._pool.stats)
        return total

    def metrics(self) -> dict:
        """One flat snapshot of every runtime-level counter, under the
        frozen dot-namespaced contract
        (:data:`repro.obs.metrics.RUNTIME_METRICS_KEYS`).  Subsumes the
        per-subsystem counter objects — the specialization cache, the
        merged :class:`~repro.vm.interp.ExecutionStats`, the stream
        pool, the JIT manager — without replacing them; absent
        subsystems report zeros so the key set never varies."""
        from repro.obs.metrics import RUNTIME_METRICS_KEYS, validate_metrics

        stats = self.stats()
        pool = self._pool
        jit = self.jit
        snapshot = {
            "runtime.launches": self.context.launches,
            "runtime.spec_cache.entries": len(self.cache),
            "runtime.spec_cache.hits": self.cache.hits,
            "runtime.spec_cache.misses": self.cache.misses,
            "runtime.spec_cache.evictions": self.cache.evictions,
            "runtime.stats.blocks_run": stats.blocks_run,
            "runtime.stats.instructions": stats.instructions,
            "runtime.stats.global_bits_loaded": stats.global_bits_loaded,
            "runtime.stats.global_bits_stored": stats.global_bits_stored,
            "runtime.stats.shared_bits_loaded": stats.shared_bits_loaded,
            "runtime.stats.shared_bits_stored": stats.shared_bits_stored,
            "runtime.stats.copy_async_issued": stats.copy_async_issued,
            "runtime.stats.dot_ops": stats.dot_ops,
            "runtime.stats.synchronizations": stats.synchronizations,
            "streams.count": len(pool.streams) if pool is not None else 0,
            "streams.launches": pool.launches if pool is not None else 0,
            "streams.executions": pool.executions if pool is not None else 0,
            "jit.enabled": int(jit is not None),
            "jit.compiled": jit.compiled if jit is not None else 0,
            "jit.bailouts": jit.bailouts if jit is not None else 0,
            "jit.promotions": jit.promotions if jit is not None else 0,
            "jit.cache.hits": jit.cache.hits if jit is not None else 0,
            "jit.cache.misses": jit.cache.misses if jit is not None else 0,
            "jit.cache.evictions": jit.cache.evictions if jit is not None else 0,
        }
        return validate_metrics(snapshot, RUNTIME_METRICS_KEYS, "Runtime")
