"""The compiled execution tier: counted promotion of hot
specializations out of the interpreters.

The two interpreted engines — the sequential interpreter and the
grid-vectorized batched executor — both pay per-statement Python
dispatch on every launch.  The lowering pipeline
(:mod:`repro.compiler.lower`) removes that cost for an
already-specialized launch by running the batched engine's walk — its
statement walk and its instruction handlers — once at compile time with
the pointers left symbolic, and emitting what it did as flat,
straight-line numpy source.  This module is the *runtime* half of the
tier, :class:`JitManager`: the promotion policy and its state per
specialization —

- the compiled :class:`~repro.compiler.lower.LoweredKernel` objects,
  keyed by :func:`~repro.compiler.pipeline.specialization_key` — the
  program object and its const scalars — the number of launches the
  kernel stacks and the pointer parameters the stack shares (a kernel
  loads what it reads through those once, so it serves only stacks that
  agree there);
- the *bailout memo*: specializations the pipeline declined
  (``LoweringBailout``), with the reason, so a hot-but-unloweable
  signature does not re-attempt the whole pass pipeline on every launch;
- the invocation count of each specialization left interpreted.

That state lives on the program, one entry per manager in a
:class:`weakref.WeakKeyDictionary` (the way the program memoizes
``supports_batched``), so it dies with whichever of the two goes first:
no manager table holds a program alive, and a kernel's reference back
to its program is a cycle the collector reclaims.

Promotion is counted, not timed: the manager keeps, per
specialization, the number of invocations it left interpreted; the
invocation after :data:`PROMOTE_AFTER` of them compiles, and every
launch after that runs the cached callable — interpret → batched →
compiled, with no API change at any call site.  The decision is a pure
function of the launch sequence (no clock, no profiler), so the tier a
launch runs on repeats run to run.  Cold signatures never pay a
compile; a hot specialization is hot at every group size and shared
set and stays hot for as long as the program and the manager live.

Execution stays bit-exact: lowering either reproduces the batched
engine's results (and error behaviour, and statistics) exactly — the
kernel is what that engine's handlers did — or bails out and the launch
falls back to the batched engine.  The differential harness locks the
tier in as one of its five modes.
"""

from __future__ import annotations

import threading
import weakref
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

#: Where a program keeps its JIT state: one :class:`_ProgramState` per
#: manager, weakly keyed by the manager.
_STATE_ATTR = "_jit_state"


class _ProgramState:
    """One manager's compiled tier for one program.  Entries key on the
    const scalars of the launch's specialization key (its program is the
    object holding them), the stacked launches and the shared pointer
    parameters; the count keys on the scalars alone."""

    __slots__ = ("kernels", "bailed", "seen")

    def __init__(self) -> None:
        self.kernels: dict[tuple, LoweredKernel] = {}
        #: Entries the pipeline declined, with the bailout reason.
        self.bailed: dict[tuple, str] = {}
        #: Invocations left interpreted, per specialization.
        self.seen: dict[tuple, int] = {}


class JitManager:
    """Owns one memory's compiled tier: the promotion policy and its
    counters; its kernels, bailout memo and counts live on each program
    (see the module docstring).

    One manager per :class:`~repro.runtime.runtime.Runtime` (attached by
    ``enable_jit()``; shared with its stream pool as ``pool.jit``), so
    every execution path — synchronous launches, eager streams, graph
    replays — consults the same kernels and the same count.
    Thread-safe: host threads (synchronous launches beside a draining
    pool) may call into it concurrently; compilation runs under the lock
    so one hot signature compiles exactly once.
    """

    def __init__(
        self, memory: GlobalMemory, shared_capacity: int = 228 * 1024
    ) -> None:
        self.memory = memory
        self.shared_capacity = shared_capacity
        self._lock = threading.Lock()
        #: Successful compilations (pass pipeline ran to the end).
        self.compiled = 0
        #: Lowering attempts that declined (``LoweringBailout``).
        self.bailouts = 0
        #: Launches actually executed on the compiled tier (a stacked
        #: invocation counts each launch it carries).
        self.promotions = 0
        #: Lookups that found a compiled kernel, and lookups that did not.
        self.hits = 0
        self.misses = 0

    # -- policy --------------------------------------------------------------
    def _state(self, program) -> _ProgramState:
        """This manager's state on ``program``, made on first use."""
        states = program.__dict__.get(_STATE_ATTR)
        if states is None:
            states = program.__dict__.setdefault(
                _STATE_ATTR, weakref.WeakKeyDictionary()
            )
        state = states.get(self)
        if state is None:
            state = states[self] = _ProgramState()
        return state

    @staticmethod
    def _entry(key: tuple, launches: int, shared: tuple) -> tuple:
        """The kernel / memo entry of a stack on its program: the key's
        scalars, the stack size and the shared pointers (one launch
        shares nothing)."""
        return (key[1], launches, tuple(shared) if launches > 1 else ())

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
        (ignored for a single launch): kernels (and bailouts) are kept
        per ``(key, launches, shared)``, the count is per
        specialization, so a hot key is hot at every group size.

        ``forced=True`` (an explicit ``engine="compiled"``) compiles
        immediately and leaves the count alone; otherwise the first
        :data:`PROMOTE_AFTER` invocations of a specialization that find
        no kernel stay interpreted and the next one compiles.  Either
        way a known bailed-out specialization answers None from the memo
        without re-running the pipeline, and an already-compiled one
        answers its kernel without touching the count.
        """
        if key is None:
            key = specialization_key(program, args)
        entry = self._entry(key, launches, shared)
        with self._lock:
            state = self._state(program)
            kernel = state.kernels.get(entry)
            if kernel is not None:
                self.hits += 1
                return kernel
            self.misses += 1
            if entry in state.bailed:
                return None
            if not forced:
                seen = state.seen[key[1]] = state.seen.get(key[1], 0) + 1
                if seen <= PROMOTE_AFTER:
                    return None
            tracer = obs_trace.ACTIVE
            try:
                kernel = lower_program(
                    program, args, self.memory, self.shared_capacity, launches, entry[2]
                )
            except LoweringBailout as exc:
                self.bailouts += 1
                state.bailed[entry] = str(exc)
                if tracer is not None:
                    tracer.instant(
                        f"jit.bailout:{program.name}",
                        "jit",
                        obs_trace.HOST_TID,
                        {"reason": str(exc)},
                    )
                return None
            state.kernels[entry] = kernel
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
    def kernels(self, program) -> list[LoweredKernel]:
        """The kernels this manager compiled for ``program``, one per
        scalars, group size and shared set."""
        with self._lock:
            return list(self._state(program).kernels.values())

    def bailout_reason(
        self, program, args: Sequence, launches: int = 1, shared: tuple = ()
    ) -> Optional[str]:
        """Why a specialization (at this group size, sharing these
        pointers) stays interpreted, or None if it never bailed (useful
        in tests and bug reports)."""
        entry = self._entry(specialization_key(program, args), launches, shared)
        with self._lock:
            return self._state(program).bailed.get(entry)

    def __repr__(self) -> str:
        return (
            f"JitManager({self.compiled} compiled, {self.bailouts} bailouts, "
            f"{self.promotions} promotions, {self.hits} hits, {self.misses} misses)"
        )
