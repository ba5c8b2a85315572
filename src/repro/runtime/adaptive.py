"""Adaptive runtime: profile-guided capture and online auto-reoptimization.

The profiling subsystem (:mod:`repro.runtime.profiling`) closed the PGO
loop *mechanically* — ``graph.optimize(profile)`` re-places a captured
DAG by measured cost — but left it **manual**: serving code had to call
:meth:`~repro.ops.QuantizedLinear.reoptimize` by hand, and a fresh
capture still froze stream placement with zero
knowledge of what anything costs.  This module makes the loop automatic
and continuous, which is where profile-guided systems actually pay off
(cf. the PGO survey in PAPERS.md):

**Profile-guided capture** — ``runtime.capture(profile=...)`` /
``pool.capture(profile=...)`` hands a prior
:class:`~repro.runtime.profiling.Profile` to the capture itself.  At
instantiate time the node placement is
recomputed from measured per-node costs — longest-processing-time list
scheduling over the hazard DAG, never worse than round-robin under the
makespan estimate — and the **stream count is capped to the measured
parallelism**: the smallest stream count whose estimated makespan is
within :data:`STREAM_CAP_SLACK` of the best over all counts wins, so a
serial chain collapses onto one stream instead of paying cross-stream
event waits for nothing.  Signatures the profile has never seen fall
back to today's heuristics unchanged; a non-empty profile that matches
*nothing* in the capture is rejected loudly (see
:meth:`~repro.runtime.graphs.ExecutionGraph.optimize` for the same
contract) rather than silently misoptimizing.

**Online auto-reoptimization** — an :class:`AdaptivePolicy` attachable
to a :class:`~repro.runtime.runtime.Runtime`
(:meth:`~repro.runtime.runtime.Runtime.enable_adaptive`) or a
:class:`~repro.runtime.streams.StreamPool` (``pool.adaptive``).
``policy.manage(graph)`` wraps a captured graph in an
:class:`AdaptiveGraph` — same ``replay``/``bind`` surface — and from
then on the policy counts profiled replays of the live image.  After
``warmup_replays`` of them it **atomically swaps** the live graph for
its ``optimize(profile)`` image (one attribute store: a replay that
races the swap finishes on whichever image it started with — there are
no torn reads).  Every later window re-evaluates against the *window's*
cost deltas (not the all-time means, which would dampen drift) and
re-swaps only when the estimated makespan gain clears ``min_gain`` —
the hysteresis that keeps two placements scoring within ``min_gain`` of
each other from flapping.

Wired through :class:`~repro.ops.QuantizedLinear` (captured split-k
graphs are managed automatically once ``runtime.enable_adaptive()`` is
on — no more explicit ``reoptimize()``) and the
:mod:`repro.llm.batching` decode loop (which captures on the decode
linear's runtime; swaps are counted on
``TraceResult.auto_reoptimizations``).  The policy's observed profile
also feeds :meth:`repro.autotune.tuner.Autotuner.tune_profiled`
directly — pass the policy where a profile is expected.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from repro.errors import VMError
from repro.obs import trace as obs_trace
from repro.runtime.profiling import NodeProfile, Profile

#: Stream-count capping slack: the smallest stream count whose estimated
#: makespan is within this fraction of the best over all counts is
#: chosen (fewer streams = fewer cross-stream event waits at replay).
STREAM_CAP_SLACK = 0.05


# ---------------------------------------------------------------------------
# Pure scheduling core (shared by capture, optimize, and the policy; pure
# functions over plain data so property tests can drive them directly)
# ---------------------------------------------------------------------------


def round_robin_placement(node_indices: Iterable[int], num_streams: int) -> dict[int, int]:
    """The baseline heuristic: nodes onto streams in submission order."""
    return {i: k % num_streams for k, i in enumerate(sorted(node_indices))}


def lpt_placement(
    num_streams: int, costs: Mapping[int, float], deps: Mapping[int, tuple]
) -> dict[int, int]:
    """Longest-processing-time list scheduling over a hazard DAG.

    Nodes are scheduled most-expensive-first among those whose
    dependencies are already placed; each goes to the stream with the
    earliest predicted finish (``max(stream available, deps ready) +
    cost``).  For independent nodes this is classic LPT onto the
    least-loaded stream; dependent nodes land where their predecessors
    let them start soonest.  Fully deterministic: ties break on node
    index and stream index, so equal cost maps yield equal placements.
    ``deps`` entries may reference nodes outside ``costs`` (eliminated
    nodes); those are ignored.
    """
    live_set = set(costs)
    remaining = set(costs)
    scheduled: dict[int, int] = {}
    finish: dict[int, float] = {}
    avail = [0.0] * num_streams
    while remaining:
        ready = [
            i
            for i in remaining
            if all(d in scheduled for d in deps.get(i, ()) if d in live_set)
        ]
        ready.sort(key=lambda i: (-costs[i], i))
        i = ready[0]
        ready_time = max(
            (finish[d] for d in deps.get(i, ()) if d in live_set),
            default=0.0,
        )
        best_stream = min(
            range(num_streams),
            key=lambda s: (max(avail[s], ready_time) + costs[i], s),
        )
        start = max(avail[best_stream], ready_time)
        finish[i] = start + costs[i]
        avail[best_stream] = finish[i]
        scheduled[i] = best_stream
        remaining.discard(i)
    return scheduled


def estimated_makespan(
    placement: Mapping[int, int],
    costs: Mapping[int, float],
    deps: Mapping[int, tuple],
) -> float:
    """Predicted finish time of a placement: streams execute their nodes
    FIFO in node-index order (exactly the replay contract), each node
    starting once its stream is free and its placed dependencies have
    finished.  Dependencies outside ``placement`` (eliminated nodes) are
    skipped."""
    finish: dict[int, float] = {}
    avail: dict[int, float] = {}
    for i in sorted(placement):
        stream = placement[i]
        ready = max(
            (finish[d] for d in deps.get(i, ()) if d in finish), default=0.0
        )
        start = max(avail.get(stream, 0.0), ready)
        finish[i] = start + costs[i]
        avail[stream] = finish[i]
    return max(avail.values(), default=0.0)


def guided_placement(
    num_streams: int, costs: Mapping[int, float], deps: Mapping[int, tuple]
) -> dict[int, int]:
    """The capture-time placement: LPT over the hazard DAG, kept only
    when its estimated makespan does not exceed plain round-robin's —
    LPT is a heuristic, not an optimum, and this guard makes
    "profile-guided capture is never estimated worse than the baseline"
    an invariant rather than a hope (property-tested)."""
    lpt = lpt_placement(num_streams, costs, deps)
    rr = round_robin_placement(costs, num_streams)
    if estimated_makespan(lpt, costs, deps) <= estimated_makespan(rr, costs, deps):
        return lpt
    return rr


# ---------------------------------------------------------------------------
# The adaptive policy and its managed-graph facade
# ---------------------------------------------------------------------------


class AdaptiveGraph:
    """A captured graph under :class:`AdaptivePolicy` management.

    Exposes the :class:`~repro.runtime.graphs.ExecutionGraph` surface the
    serving layers use — ``replay``/``bind`` plus read-only introspection
    via attribute passthrough — while the policy swaps the **live image**
    underneath.  :meth:`replay` reads the live image exactly once, so a
    swap landing mid-replay on another thread is invisible: each replay
    runs one consistent image end to end, and its profile records carry
    that image's signature.
    """

    def __init__(
        self, policy: "AdaptivePolicy", graph, outputs=None, warm=False
    ) -> None:
        self._policy = policy
        self._outputs = tuple(outputs) if outputs is not None else None
        self._live = graph
        #: Captured from a trusted (store-loaded) profile: the
        #: first-window free swap is disabled, so an already-converged
        #: placement only swaps when measured costs clear ``min_gain``.
        self._warm = bool(warm)
        #: Guards this graph's replay counting, evaluation and swap.
        #: Per-facade, not policy-wide: one graph's (potentially long)
        #: optimize pass must not stall the bookkeeping of every other
        #: graph the same policy manages.
        self._lock = threading.Lock()
        #: Profiled replays observed since management began.
        self._profiled_replays = 0
        #: Replay count at the last policy evaluation — the window
        #: anchor.  Evaluation triggers on ``replays - last >= warmup``,
        #: never on exact multiples: a counter that jumps past a
        #: boundary (racing replays, external perturbation) still
        #: evaluates within one warmup window instead of never again.
        self._last_evaluated = 0
        #: (signature, profiler, per-ident (calls, wall)) at the last
        #: evaluation — the window baseline.  Holds the profiler object
        #: itself: an ``id()`` could be reused by a later allocation and
        #: make a stale baseline pass the identity check.
        self._snapshot: tuple = (None, None, {})
        #: Times the live image was swapped (automatic or explicit).
        self.swaps = 0
        #: Policy evaluations run against this graph.
        self.evaluations = 0

    # -- surface -------------------------------------------------------------
    @property
    def live(self):
        """The current live :class:`~repro.runtime.graphs.ExecutionGraph`."""
        return self._live

    @property
    def policy(self) -> "AdaptivePolicy":
        return self._policy

    @property
    def pool(self):
        return self._live.pool

    @property
    def signature(self) -> str:
        return self._live.signature

    def bind(self, name: str, value, nbytes: int | None = None) -> None:
        # Under the graph lock: a bind racing a window-boundary swap
        # could otherwise land on the retired image after the optimize
        # pass snapshotted its bindings, and silently vanish.
        with self._lock:
            self._live.bind(name, value, nbytes)

    def __enter__(self) -> "AdaptiveGraph":
        """Capture through the facade (``pool.capture()`` returns one
        when a policy is attached to the pool): recording happens on the
        live image, the managed surface comes back to the caller."""
        self._live.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        return self._live.__exit__(exc_type, exc, tb)

    def replay(self, bindings=None, *, serial: bool = False) -> None:
        """Replay the live image once, then let the policy observe it.

        The single ``self._live`` read is the atomicity contract: the
        whole replay — argument rebinding, group execution, profile
        attribution — happens against one image even if the policy swaps
        concurrently.
        """
        image = self._live
        image.replay(bindings, serial=serial)
        self._policy._after_replay(self, image)

    def optimize(self, profile=None, outputs=None):
        """Explicit re-optimization of a *managed* graph: swap the live
        image in place and return ``self``, so call sites that replace
        their graph with ``graph.optimize(...)`` (the pre-adaptive
        :meth:`~repro.ops.QuantizedLinear.reoptimize` pattern) keep the
        graph under management instead of unwrapping it.  Runs under
        this graph's lock so it cannot interleave with (or be silently
        overwritten by) the policy's own evaluation/swap path."""
        with self._lock:
            image = self._live
            self._swap(
                image.optimize(
                    profile, outputs=outputs if outputs is not None else self._outputs
                ),
                profiler=self._policy.profile,
            )
        return self

    def _swap(self, optimized, profiler: Profile | None = None) -> None:
        """Install a new live image (a single attribute store — atomic
        under the interpreter; callers hold the policy lock).  The
        window baseline resets to the new image's *current* recorded
        totals: when a pure re-placement keeps the signature, pre-swap
        history must not leak into the next window's deltas."""
        if profiler is not None:
            self._snapshot = (
                optimized.signature,
                profiler,
                {
                    ident: (rec.calls, rec.wall_s)
                    for ident, rec in profiler.graph_nodes(
                        optimized.signature
                    ).items()
                },
            )
        else:
            self._snapshot = (None, None, {})
        self._live = optimized
        self.swaps += 1
        tracer = obs_trace.ACTIVE
        if tracer is not None:
            tracer.instant(
                "adaptive.swap",
                "adaptive",
                obs_trace.HOST_TID,
                {"signature": optimized.signature, "swaps": self.swaps},
            )

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._live, name)

    def __len__(self) -> int:
        return len(self._live)

    def __repr__(self) -> str:
        return (
            f"AdaptiveGraph({self._live!r}, {self.swaps} swaps, "
            f"{self._profiled_replays} profiled replays)"
        )


class AdaptivePolicy:
    """Online auto-reoptimization: swap live graphs for their
    profile-optimized images as measured costs come in.

    ``warmup_replays`` profiled replays of a managed graph's signature
    form one **profile window**.  At the first window boundary the live
    image is unconditionally swapped for its
    :meth:`~repro.runtime.graphs.ExecutionGraph.optimize` image built
    from that window's measured costs — the capture-time heuristic has
    served its purpose once real numbers exist.  Every later window
    re-evaluates: the window's per-node cost deltas score the live
    placement against a fresh LPT candidate, and the swap re-runs only
    when the estimated makespan gain is at least ``min_gain``
    (relative) — the hysteresis that keeps two placements scoring
    within ``min_gain`` of each other from flapping back and forth.

    Swaps are atomic (one attribute store on the
    :class:`AdaptiveGraph`); replays racing a swap complete on the image
    they started with, and their profile records attribute to that
    image's signature.  ``swaps``/``evaluations`` expose the policy's
    behaviour to tests and serving counters; ``profile`` is the profiler
    the policy last observed, accepted directly by
    :meth:`~repro.autotune.tuner.Autotuner.tune_profiled`.
    """

    def __init__(self, warmup_replays: int = 8, min_gain: float = 0.10) -> None:
        if warmup_replays < 1:
            raise ValueError(
                f"warmup_replays must be positive, got {warmup_replays}"
            )
        if min_gain < 0.0:
            raise ValueError(f"min_gain must be non-negative, got {min_gain}")
        self.warmup_replays = warmup_replays
        self.min_gain = min_gain
        #: Automatic swaps performed (explicit ``optimize()`` calls on a
        #: managed graph do not count here; see ``AdaptiveGraph.swaps``).
        self.swaps = 0
        #: Window evaluations run (each may or may not swap).
        self.evaluations = 0
        #: The profiler last observed recording a managed replay — the
        #: handle to pass to ``Autotuner.tune_profiled``.
        self.profile: Profile | None = None
        self._lock = threading.Lock()

    def manage(self, graph, outputs=None, warm=False) -> AdaptiveGraph:
        """Put a captured graph under management; returns the
        :class:`AdaptiveGraph` facade to replay instead of the raw graph.
        ``outputs`` forwards to ``optimize`` (names the pointer bindings
        that are externally observable; ``None`` = all of them).
        ``warm=True`` marks a graph captured from a trusted store-loaded
        profile: the unconditional first-window swap is skipped, so a
        warm boot that is already converged performs **zero** swaps and
        only re-places if live measurements beat ``min_gain``.
        Managing a graph this policy already manages (``capture()`` on
        a pool with the policy attached returns one) returns the same
        facade, marked warm when ``warm=True``; a facade bound to a
        *different* policy is re-homed — its live image is wrapped
        under this policy, so the caller's knobs and counters apply
        rather than silently staying with whichever policy wrapped it
        first."""
        if isinstance(graph, AdaptiveGraph):
            if graph.policy is self:
                if warm:
                    graph._warm = True
                return graph
            graph = graph.live
        return AdaptiveGraph(self, graph, outputs=outputs, warm=warm)

    # -- the feedback loop ---------------------------------------------------
    def _after_replay(self, agraph: AdaptiveGraph, image) -> None:
        """Observe one completed replay of ``image``; called by the
        facade on the replaying thread.  Counting, evaluation and the
        swap all run under the *graph's* lock — concurrent replays of a
        shared graph cannot double-swap a window, while other managed
        graphs' bookkeeping proceeds unblocked."""
        profiler = image.pool.profiler
        if profiler is None:
            return  # unprofiled replay: nothing measured, nothing to do
        self.profile = profiler  # single store: atomic
        with agraph._lock:
            agraph._profiled_replays += 1
            # Threshold check, not a modulo: a counter that skips past
            # the exact multiple (replays racing an evaluation, or any
            # batch of increments landing together) would never hit
            # ``% warmup == 0`` again and the graph would never
            # reoptimize.  The anchor makes every window boundary
            # reachable regardless of how the count got there.
            if agraph._profiled_replays - agraph._last_evaluated < self.warmup_replays:
                return
            agraph._last_evaluated = agraph._profiled_replays
            self._evaluate(agraph, image, profiler)

    def _evaluate(self, agraph: AdaptiveGraph, image, profiler: Profile) -> None:
        if image is not agraph._live:
            # This replay raced a swap: it ran (and measured) an image
            # that is no longer live.  Optimizing the stale image would
            # re-install work the previous swap already superseded —
            # skip; the live image's own windows drive the next decision.
            return
        window = self._window(agraph, image, profiler)
        if window is None:
            return  # no new profiled traffic for this image's signature
        with self._lock:  # policy-wide counters only; never held long
            self.evaluations += 1
        agraph.evaluations += 1
        tracer = obs_trace.ACTIVE
        if tracer is not None:
            tracer.instant(
                "adaptive.evaluate",
                "adaptive",
                obs_trace.HOST_TID,
                {"signature": image.signature, "swaps": agraph.swaps},
            )
        first = agraph.swaps == 0 and not agraph._warm
        costs, matched = image._profiled_costs(window)
        if not first and matched == 0:
            return
        optimized = image.optimize(window, outputs=agraph._outputs)
        if not first:
            # Score the candidate as instantiated, not as LPT proposed
            # it: execution groups pull their members onto one stream.
            deps = {node.index: node.deps for node in image.nodes}
            current = {node.index: node.stream_index for node in image.nodes}
            current_span = estimated_makespan(current, costs, deps)
            live = image._live_indices(agraph._outputs)
            candidate = {
                old: node.stream_index for old, node in zip(live, optimized.nodes)
            }
            candidate_span = estimated_makespan(candidate, costs, deps)
            if current_span <= 0.0:
                return
            gain = (current_span - candidate_span) / current_span
            # Hysteresis: only a shift that clears min_gain re-runs the
            # swap; placements scoring within min_gain never flap.
            if gain <= 0.0 or gain < self.min_gain:
                return
        agraph._swap(optimized, profiler=profiler)
        with self._lock:
            self.swaps += 1

    def _window(
        self, agraph: AdaptiveGraph, image, profiler: Profile
    ) -> Profile | None:
        """The profile *window*: a synthetic :class:`Profile` holding the
        per-node cost deltas recorded for ``image`` since the last
        evaluation.  Windows — not all-time means — drive re-swaps, so a
        genuine cost shift is visible immediately instead of being
        averaged away by history.  Returns ``None`` when the window is
        empty (no profiled replays landed for this signature)."""
        signature = image.signature
        recorded = profiler.graph_nodes(signature)
        prev_sig, prev_profiler, prev = agraph._snapshot
        if prev_sig != signature or prev_profiler is not profiler:
            prev = {}
        window = Profile()
        new_calls = 0
        for ident, rec in recorded.items():
            prev_calls, prev_wall = prev.get(ident, (0, 0.0))
            delta_calls = rec.calls - prev_calls
            if delta_calls <= 0:
                continue
            node = NodeProfile(
                signature, ident, rec.program, rec.spec, rec.engine, rec.stream
            )
            node.calls = delta_calls
            node.wall_s = max(rec.wall_s - prev_wall, 0.0)
            window.nodes[node.key] = node
            new_calls += delta_calls
        agraph._snapshot = (
            signature,
            profiler,
            {ident: (rec.calls, rec.wall_s) for ident, rec in recorded.items()},
        )
        return window if new_calls else None

    def __repr__(self) -> str:
        return (
            f"AdaptivePolicy(warmup_replays={self.warmup_replays}, "
            f"min_gain={self.min_gain}, {self.swaps} swaps in "
            f"{self.evaluations} evaluations)"
        )
