"""Execution-graph capture & replay: record the launch DAG once, replay
it with zero scheduling or hazard analysis.

The multi-stream runtime (:mod:`repro.runtime.streams`) pays a fixed
orchestration tax on *every* ``submit``: resolve the launch's global
byte ranges (``launch_ranges``), scan outstanding launches for hazards
(``ranges_conflict``), pick a stream, and re-prove coalescing
eligibility on the worker.  Launch-bound workloads — the serving decode
loop re-submits an *identical* DAG every step — pay that tax per step
for answers that never change.  This module is the CUDA-graph analogue
for the simulator: **capture** the DAG once, freeze every decision, and
**replay** it by driving the per-stream engines directly.

Capture
-------
::

    with runtime.capture() as g:          # or pool.capture()
        runtime.launch(prog, args, stream=s0)
        runtime.launch(prog2, args2, stream="auto")
    g.bind("act", act_addr, act_nbytes)   # designate rebindable slots
    g.replay({"act": new_act_addr})

Inside the ``with`` block nothing executes: every launch is recorded as
a :class:`GraphNode` holding the program, its arguments, its resolved
global byte ranges, its hazard dependencies (computed against every
earlier recorded node — writes serialize, reads share, exactly the live
semantics), its frozen stream assignment (the caller's stream, or the
same round-robin + memory-aware placement the live scheduler would
pick), and its tier decision (the interpreted engine it is frozen to,
and whether the compiled tier was forced).  Handles returned during capture
are inert: ``wait()`` is a no-op, so code written for eager streams
(e.g. ``ops.QuantizedLinear``'s split-k path) captures unchanged.

On exit the graph **instantiates**: nodes are partitioned into
*execution groups*, one engine invocation each at replay, by
:func:`~repro.runtime.streams.form_groups` — the same first-fit rule
the eager drain applies to pending launches.  Groups form over the whole
DAG in submission order, whatever stream each node was captured on: a
node joins a group when both run the same program on the batched engine
with one grid shape, identical shape-contributing scalars,
pairwise-disjoint ranges, and no dependency on or after the group head.
A node's dependencies are *all* earlier nodes it conflicts with, so a
member conflicts with nothing it is hoisted over, and every group edge
points at a group with an earlier head: head order is a topological
order.  The group runs on its head's stream (its members' placement is
rewritten to it), on whatever tier its specialization key has reached —
a stacked compiled kernel or
:meth:`~repro.vm.batched.BatchedExecutor.launch_many`.

Replay
------
:meth:`ExecutionGraph.replay` is the pool's inline group loop over the
frozen groups: under the pool lock, on the calling thread, it retires
whatever eager work is still pending (program order), rebinds the
arguments, and runs each group in head order on its stream's lane
through the launch executor (:mod:`repro.runtime.executor`) — no
``analyze_access``, no ``launch_ranges``, no ``ranges_conflict``, no
scheduler, no mergeability probing, no thread hand-off.  Replay is
bit-exact with eager stream submission of the same launches and with
``replay(serial=True)`` — the *same loop* over singleton groups, each
node on its own captured stream: the ungrouped debugging oracle and the
exact (not group-amortized) per-node profile collector.

Rebinding
---------
``bind(name, base, nbytes)`` designates a device buffer: every pointer
argument inside ``[base, base + nbytes)`` becomes a rebindable slot
(its offset into the buffer is preserved, so e.g. split-k's per-slice
``p + s*slice_bytes`` pointers rebase correctly).  ``bind(name, value)``
without ``nbytes`` designates a scalar slot by exact value.  At replay,
``bindings`` maps names to new values; every rebound launch is
validated against its capture-time **specialization key** — pointer
swaps keep the key (kernels are address-agnostic), while any scalar
change that would alter shapes or the compiled kernel is rejected.
Rebinding carries the CUDA-graph contract: new buffers must preserve
the capture-time aliasing relationships (disjoint stays disjoint).
Hazard analysis is *not* re-run — that is the point — but the one case
it rests on is checked: two rebound pointer spans that overlap raise
:class:`VMError`, as :meth:`~ExecutionGraph.bind` does at capture.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping, Sequence

from repro.compiler.pipeline import specialization_key
from repro.errors import VMError
from repro.ir import instructions as insts
from repro.obs import trace as obs_trace
from repro.ir.program import Program
from repro.runtime.adaptive import (
    STREAM_CAP_SLACK,
    estimated_makespan,
    guided_placement,
    lpt_placement,
)
from repro.runtime.executor import Site, resolve_engine
from repro.runtime.profiling import Profile, spec_string
from repro.runtime.streams import (
    Stream,
    StreamPool,
    form_groups,
    launch_ranges,
    ranges_conflict,
)

_SIDE_EFFECT_ATTR = "_graph_has_side_effects"


def _has_side_effects(program: Program) -> bool:
    """True when the program observably acts beyond its memory writes
    (``PrintTensor``), so dead-node elimination must never drop it.
    Memoized on the program object."""
    cached = program.__dict__.get(_SIDE_EFFECT_ATTR)
    if cached is None:
        cached = any(
            isinstance(inst, insts.PrintTensor)
            for inst in program.body.instructions()
        )
        program.__dict__[_SIDE_EFFECT_ATTR] = cached
    return cached


def _intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


class GraphNode:
    """One captured launch: everything the live runtime decides per
    submission, frozen at capture time."""

    __slots__ = ("index", "program", "args", "ranges", "deps", "stream_index",
                 "engine", "grid", "key", "requested")

    def __init__(self, index, program, args, ranges, deps, stream_index,
                 engine, grid, key, requested) -> None:
        self.index = index
        self.program = program
        self.args = args
        self.ranges = ranges
        self.deps = deps            # indices of earlier conflicting nodes
        self.stream_index = stream_index
        self.engine = engine        # frozen: "sequential" | "batched"
        self.grid = grid
        self.key = key              # capture-time specialization key
        #: Tier asked of each replay: "compiled" stays forced; anything
        #: else was consumed into ``engine`` and replays as "auto"
        #: (promotable on heat).  Not part of the plan or the signature.
        self.requested = requested

    def placed(self, index, deps, stream_index, engine) -> "GraphNode":
        """This launch under another schedule (optimize / apply_plan)."""
        return GraphNode(index, self.program, self.args, self.ranges, deps,
                         stream_index, engine, self.grid, self.key, self.requested)

    def __repr__(self) -> str:
        return (
            f"GraphNode({self.index}: {self.program.name} on stream "
            f"{self.stream_index}, deps={list(self.deps)})"
        )


class CapturedLaunchHandle:
    """The inert handle returned by a launch recorded during capture.

    Nothing executed, so there is nothing to wait for: ``wait()`` is a
    no-op and ``done`` is always True.  This lets eager-stream call sites
    (``handle.wait()`` / ``pool.synchronize()``) capture unchanged.
    """

    __slots__ = ("program", "args", "node", "graph", "error")

    def __init__(self, program, args, node: GraphNode, graph) -> None:
        self.program = program
        self.args = args
        self.node = node
        self.graph = graph
        self.error = None

    # Mirror the LaunchHandle surface used by callers.
    done = True

    def wait(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"CapturedLaunchHandle({self.program.name}, node={self.node.index})"


class _Binding:
    """A designated rebindable region (pointer span) or value (scalar)."""

    __slots__ = ("name", "base", "nbytes")

    def __init__(self, name: str, base, nbytes: int | None) -> None:
        self.name = name
        self.base = base
        self.nbytes = nbytes

    @property
    def is_pointer(self) -> bool:
        return self.nbytes is not None


#: Wire-format version of the serialized graph plan (bump on any change
#: to the schema below; readers reject unknown versions loudly).
PLAN_JSON_VERSION = 1


class GraphPlan:
    """The transportable half of an :class:`ExecutionGraph`: every
    *decision* the capture froze — per-node stream placement, engine
    choice, specialization identity, grid shape and hazard edges — with
    none of the process-local state (programs, device addresses).

    This is what ships across a process boundary in the sharded-serving
    stack: a worker (or the router) serializes a captured graph's plan as
    versioned JSON, and the receiving process — which holds an
    *isomorphic* capture of the same launch DAG, because specialization
    keys and graph signatures are deterministic across processes — applies
    it with :meth:`ExecutionGraph.apply_plan`.  Live objects never cross
    the wire: no pickle, no addresses, no compiled kernels.

    Per-node ``spec`` strings are the cross-process identity check: a plan
    only applies to a graph whose node sequence carries the same
    specialization keys and grids in the same order.
    """

    __slots__ = ("signature", "num_streams", "nodes")

    def __init__(self, signature: str, num_streams: int, nodes: list[dict]) -> None:
        self.signature = signature
        self.num_streams = num_streams
        #: One dict per node: ``index``, ``program`` (name), ``spec``
        #: (specialization-key string), ``engine``, ``stream``, ``grid``,
        #: ``deps`` — all JSON-native types.
        self.nodes = nodes

    @classmethod
    def from_graph(cls, graph: "ExecutionGraph") -> "GraphPlan":
        nodes = [
            {
                "index": node.index,
                "program": node.program.name,
                "spec": spec_string(node.key),
                "engine": node.engine,
                "stream": node.stream_index,
                "grid": list(node.grid),
                "deps": list(node.deps),
            }
            for node in graph.nodes
        ]
        return cls(graph.signature, len(graph.pool.streams), nodes)

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": PLAN_JSON_VERSION,
                "kind": "execution-graph-plan",
                "signature": self.signature,
                "num_streams": self.num_streams,
                "nodes": self.nodes,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "GraphPlan":
        """Parse a plan written by :meth:`to_json`.  Malformed input —
        truncated JSON, wrong kind, unknown version, mangled node list —
        raises :class:`VMError` naming the problem, never a silently
        unusable plan: a worker about to re-place its graph from this
        data must not mistake garbage for a schedule."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise VMError(f"graph plan JSON is truncated or malformed: {exc}") from exc
        if not isinstance(data, dict) or data.get("kind") != "execution-graph-plan":
            raise VMError("graph plan JSON is not an execution-graph-plan object")
        version = data.get("version")
        if version != PLAN_JSON_VERSION:
            raise VMError(
                f"unsupported graph-plan version {version!r} "
                f"(this build reads version {PLAN_JSON_VERSION})"
            )
        nodes = data.get("nodes")
        if not isinstance(nodes, list):
            raise VMError("graph plan JSON is missing its 'nodes' list")
        required = {"index", "program", "spec", "engine", "stream", "grid", "deps"}
        for record in nodes:
            if not isinstance(record, dict) or not required.issubset(record):
                raise VMError(
                    f"malformed graph-plan node record: {record!r} "
                    f"(need keys {sorted(required)})"
                )
        return cls(data["signature"], int(data["num_streams"]), nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        streams = sorted({n["stream"] for n in self.nodes})
        return (
            f"GraphPlan({self.signature}, {len(self.nodes)} nodes over "
            f"streams {streams})"
        )


class _Group:
    """An execution group: one engine invocation at replay, on one stream."""

    __slots__ = ("stream_index", "node_indices", "engine", "program",
                 "requested", "keys", "site")

    def __init__(self, stream_index, nodes: list[GraphNode], signature: str,
                 index: int | None = None) -> None:
        self.stream_index = stream_index
        self.node_indices = [n.index for n in nodes]
        self.engine = nodes[0].engine
        self.program = nodes[0].program
        self.requested = nodes[0].requested
        self.keys = [n.key for n in nodes]
        # Lane-level execution spans carry cat "stream" (like eager
        # groups); "graph" is the lifecycle lane.  Nodes record under the
        # group's stream, so every node keeps one profile site.
        self.site = Site(
            "replay", "stream", signature, stream_index, self.node_indices, index
        )


def _group_costs(stacks, node_costs: Mapping[int, float]) -> dict[int, float]:
    """Cost of each execution group as a unit of placement: a stacked
    invocation's time is recorded split evenly over its members, so the
    members' costs sum back to it."""
    return {
        gi: sum(node_costs[node.index] for node in stack)
        for gi, stack in enumerate(stacks)
    }


class ExecutionGraph:
    """A captured launch DAG over a :class:`~repro.runtime.streams.
    StreamPool`, replayable without scheduling or hazard analysis.

    Lifecycle: ``pool.capture()`` (or ``runtime.capture()``) creates the
    graph idle; entering it as a context manager records submissions;
    exiting instantiates it (execution groups + dependency edges frozen);
    :meth:`replay` then executes it any number of times.  See the module
    docstring for semantics.
    """

    def __init__(self, pool: StreamPool, profile: Profile | None = None) -> None:
        self.pool = pool
        #: Prior profile consulted at capture/instantiate time
        #: (profile-guided capture; see :mod:`repro.runtime.adaptive`).
        self._capture_profile = profile
        self.nodes: list[GraphNode] = []
        self.replays = 0
        self._phase = "idle"  # idle -> capturing -> ready (or aborted)
        self._rr = 0
        self._bindings: dict[str, _Binding] = {}
        self._groups: list[_Group] = []
        self._slot_map: dict[str, list[tuple]] | None = None
        # Rebinding cache; read and written under the pool lock only.
        self._bound_args: list[tuple] | None = None
        self._last_values: dict | None = None
        self._signature: str | None = None

    # -- capture ------------------------------------------------------------
    def __enter__(self) -> "ExecutionGraph":
        if self._phase != "idle":
            raise VMError(f"cannot re-enter a graph in phase {self._phase!r}")
        if self.pool._capture is not None:
            raise VMError("another capture is already active on this pool")
        self.pool._capture = self
        self._phase = "capturing"
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.pool._capture = None
        if exc_type is None:
            try:
                self._instantiate()
            except BaseException:
                # A failed instantiation (e.g. a capture profile that
                # matches nothing) must not leave the graph looking like
                # an active capture: later use should say "aborted".
                self._phase = "aborted"
                raise
            self._phase = "ready"
        else:
            self._phase = "aborted"

    def _record(
        self,
        program: Program,
        args: Sequence,
        stream: Stream | None = None,
        engine: str = "auto",
    ) -> CapturedLaunchHandle:
        """Record one launch: hazard analysis, scheduling and the tier
        decision run here, once, never again."""
        if self._phase != "capturing":
            raise VMError("graph is not capturing")
        if len(args) != len(program.params):
            raise VMError(
                f"{program.name} expects {len(program.params)} args, got {len(args)}"
            )
        args = tuple(args)
        ranges = launch_ranges(program, args)
        deps = tuple(
            node.index
            for node in self.nodes
            if ranges_conflict(node.ranges, ranges)
        )
        if stream is not None:
            if stream.pool is not self.pool:
                raise VMError("stream belongs to a different pool")
            stream_index = stream.index
        elif deps:
            # Memory-aware placement, like the live scheduler: FIFO order
            # on the conflicting stream replaces a cross-stream wait.
            stream_index = self.nodes[deps[-1]].stream_index
        else:
            stream_index = self._rr % len(self.pool.streams)
            self._rr += 1
        grid = program.grid_size(args)
        # Captured nodes only ever freeze an interpreted engine (plans
        # stay portable to processes without a JIT manager); the compiled
        # tier is decided at each replay, forced when it was forced here.
        node = GraphNode(
            index=len(self.nodes),
            program=program,
            args=args,
            ranges=ranges,
            deps=deps,
            stream_index=stream_index,
            engine=resolve_engine(engine, program),
            grid=grid,
            key=specialization_key(program, args),
            requested="compiled" if engine == "compiled" else "auto",
        )
        self.nodes.append(node)
        return CapturedLaunchHandle(program, args, node, self)

    # -- instantiation ------------------------------------------------------
    def _instantiate(self, costs: Mapping[int, float] | None = None) -> None:
        """Freeze the execution groups and the stream each runs on.

        Groups form over the whole DAG by
        :func:`~repro.runtime.streams.form_groups`.  The group is the unit
        of placement: it runs on its head node's stream, unless measured
        per-node ``costs`` (:meth:`optimize`) or a capture profile
        (:meth:`_apply_capture_profile`) re-place the groups by LPT.
        The members' ``stream_index`` is rewritten to the group's
        stream, so every node keeps one profile site and ``plan()`` /
        ``apply_plan()`` / ``optimize()`` reproduce groups and placement.
        """
        stacks = form_groups(self.nodes, lambda node: node.deps)
        # Creation order is head-node order, and every dependency of a
        # group precedes its head: group edges point backwards, so replay
        # runs a group's dependencies before its dependents.
        node_group = {
            node.index: gi for gi, stack in enumerate(stacks) for node in stack
        }
        group_deps = {
            gi: tuple(sorted(
                {node_group[dep] for node in stack for dep in node.deps} - {gi}
            ))
            for gi, stack in enumerate(stacks)
        }
        placement = {gi: stack[0].stream_index for gi, stack in enumerate(stacks)}
        if costs is not None:
            placement = lpt_placement(
                len(self.pool.streams), _group_costs(stacks, costs), group_deps
            )
        elif self._capture_profile is not None and self.nodes:
            placement = self._apply_capture_profile(
                self._capture_profile, stacks, group_deps, placement
            )
        groups: list[_Group] = []
        for gi, stack in enumerate(stacks):
            for node in stack:
                node.stream_index = placement[gi]
            groups.append(_Group(placement[gi], stack, self.signature, gi))
        self._groups = groups
        tracer = obs_trace.ACTIVE
        if tracer is not None:
            tracer.instant(
                "graph.capture",
                "graph",
                obs_trace.HOST_TID,
                {
                    "signature": self.signature,
                    "nodes": len(self.nodes),
                    "groups": len(groups),
                },
            )

    def _apply_capture_profile(
        self,
        profile: Profile,
        stacks: list[list[GraphNode]],
        group_deps: Mapping[int, tuple],
        heuristic: dict[int, int],
    ) -> dict[int, int]:
        """Profile-guided group placement at capture time.

        Measured per-node costs (this graph's signature, falling back to
        specialization-key means for nodes the signature scope missed)
        drive a guided LPT placement of the execution groups over the
        hazard DAG, and the **stream count is capped to the measured
        parallelism**: the smallest count whose estimated makespan is within
        :data:`~repro.runtime.adaptive.STREAM_CAP_SLACK` of the best
        over all counts wins.  The re-placement is applied only when its
        estimated makespan stays within that same slack of the heuristic
        placement's — profile-guided capture never regresses the
        estimate beyond the slack it deliberately trades for fewer
        streams (the estimate ignores per-stream replay overhead, which
        is exactly what fewer streams save).  An empty profile changes
        nothing (cold start); a
        non-empty profile matching *no* node is rejected with
        :class:`VMError` — a wrong profile file must not silently
        misoptimize.
        """
        if len(profile) == 0:
            return heuristic  # cold start: nothing measured yet
        node_costs, matched = self._profiled_costs(profile)
        if matched == 0:
            raise VMError(
                f"capture profile ({len(profile)} sites) matches no node of "
                f"this graph (signature {self.signature}): neither the "
                "signature nor any node's specialization key was ever "
                "recorded — wrong profile?  Capture without profile= to "
                "use the heuristic placement."
            )
        costs = _group_costs(stacks, node_costs)
        heuristic_span = estimated_makespan(heuristic, costs, group_deps)
        candidates = []
        for k in range(1, len(self.pool.streams) + 1):
            placement = guided_placement(k, costs, group_deps)
            candidates.append(
                (placement, estimated_makespan(placement, costs, group_deps))
            )
        best_span = min(span for _, span in candidates)
        for placement, span in candidates:  # ascending stream count
            if span <= best_span * (1.0 + STREAM_CAP_SLACK):
                break
        if span <= heuristic_span * (1.0 + STREAM_CAP_SLACK):
            return placement
        return heuristic

    # -- rebinding ----------------------------------------------------------
    def bind(self, name: str, value, nbytes: int | None = None) -> None:
        """Designate a rebindable argument slot set.

        With ``nbytes``, ``value`` is a device buffer base address: every
        *pointer* argument in ``[value, value + nbytes)`` rebinds with
        its intra-buffer offset preserved.  Without ``nbytes``, ``value``
        designates *scalar* slots by exact match (rebinding those is
        validated against the specialization key — a change that would
        alter the compiled kernel or any shape is rejected at replay).
        """
        if name in self._bindings:
            raise VMError(f"binding {name!r} already registered")
        if nbytes is not None:
            for other in self._bindings.values():
                if other.is_pointer and (
                    other.base < value + nbytes and value < other.base + other.nbytes
                ):
                    raise VMError(
                        f"binding {name!r} overlaps binding {other.name!r}"
                    )
        self._bindings[name] = _Binding(name, value, nbytes)
        self._slot_map = None  # rebuild lazily

    def _build_slot_map(self) -> None:
        slot_map: dict[str, list[tuple]] = {name: [] for name in self._bindings}
        for node in self.nodes:
            for j, (param, value) in enumerate(zip(node.program.params, node.args)):
                owner = None
                for binding in self._bindings.values():
                    if binding.is_pointer:
                        if (
                            param.dtype.is_pointer
                            and binding.base <= value < binding.base + binding.nbytes
                        ):
                            matched = (node.index, j, value - binding.base)
                        else:
                            continue
                    elif not param.dtype.is_pointer and value == binding.base:
                        matched = (node.index, j, None)
                    else:
                        continue
                    if owner is not None:
                        raise VMError(
                            f"argument {j} of node {node.index} "
                            f"({node.program.name}) matches bindings "
                            f"{owner!r} and {binding.name!r}"
                        )
                    owner = binding.name
                    slot_map[binding.name].append(matched)
        self._slot_map = slot_map

    def _apply_bindings(self, bindings: Mapping) -> None:
        unknown = set(bindings) - set(self._bindings)
        if unknown:
            raise VMError(
                f"unknown bindings {sorted(unknown)}; registered: "
                f"{sorted(self._bindings)}"
            )
        if self._slot_map is None:
            self._build_slot_map()
        values = {
            name: bindings.get(name, b.base) for name, b in self._bindings.items()
        }
        if values == self._last_values and self._bound_args is not None:
            return  # identity with the previous replay: nothing to rebind
        # The aliasing contract's checkable half (bind() enforces the same
        # on the captured spans): frozen hazard edges and groups assume
        # distinct bindings stay disjoint.
        spans = sorted(
            (values[name], values[name] + b.nbytes, name)
            for name, b in self._bindings.items() if b.is_pointer
        )
        for (_, end, name), (start, _, other) in zip(spans, spans[1:]):
            if start < end:
                raise VMError(
                    f"rebinding makes binding {name!r} overlap binding {other!r}: "
                    "replayed buffers must stay disjoint, as captured"
                )
        new_args = [list(node.args) for node in self.nodes]
        for name, entries in self._slot_map.items():
            base = values[name]
            for node_index, arg_index, delta in entries:
                new_args[node_index][arg_index] = (
                    base if delta is None else base + delta
                )
        bound = [tuple(a) for a in new_args]
        for node, args in zip(self.nodes, bound):
            if args == node.args:
                continue
            key = specialization_key(node.program, args)
            if key != node.key:
                raise VMError(
                    f"rebinding changes the specialization key of node "
                    f"{node.index} ({node.program.name}): replayed buffers "
                    "must keep the capture-time shapes and scalars"
                )
        self._bound_args = bound
        self._last_values = dict(values)

    # -- replay -------------------------------------------------------------
    def replay(
        self, bindings: Mapping | None = None, *, serial: bool = False
    ) -> None:
        """Execute the captured DAG once, on the calling thread.

        ``bindings`` rebinds designated slots (see :meth:`bind`); omitted
        names keep their capture-time values.  ``serial=True`` runs the
        same loop over singleton groups — one engine invocation per node
        in submission order, each on its own captured stream: the
        bit-exactness oracle for the grouped replay and the exact
        per-node profile collector.  Raises :class:`VMError` at the first
        failing group (the remaining groups do not execute).

        Rebinding and execution happen under the pool lock, so host
        threads replaying one graph with different ``bindings`` each run
        their own arguments, and eager launches issued before the replay
        retire first (program order).
        """
        if self._phase != "ready":
            raise VMError(
                f"graph is not replayable (phase {self._phase!r}); "
                "capture must have completed without error"
            )
        tracer = obs_trace.ACTIVE
        trace_start = tracer.now() if tracer is not None else 0.0
        pool = self.pool
        with pool._lock:
            pool.drain()
            self._apply_bindings(bindings or {})
            bound = self._bound_args
            groups = self._groups
            if serial:
                groups = [
                    _Group(node.stream_index, [node], self.signature)
                    for node in self.nodes
                ]
            try:
                for group in groups:
                    pool.run_group(
                        pool.streams[group.stream_index], group.program,
                        [bound[i] for i in group.node_indices],
                        group.requested, group.engine, group.keys, group.site,
                    )
            except Exception as exc:
                raise VMError(f"graph replay failed: {exc}") from exc
        if tracer is not None:
            tracer.complete(
                "graph.replay",
                "graph",
                obs_trace.HOST_TID,
                trace_start,
                tracer.now() - trace_start,
                {
                    "signature": self.signature,
                    "nodes": len(self.nodes),
                    "serial": serial,
                },
            )
        self.replays += 1

    # -- profile-guided optimization ----------------------------------------
    @property
    def signature(self) -> str:
        """Stable identity of the captured DAG: a hash over the node
        sequence's specialization keys, engines and grids.  Pointer
        arguments are excluded (the keys are address-agnostic), so the
        same plan captured against fresh buffers — or in another process
        — produces the same signature, which is how a serialized
        :class:`~repro.runtime.profiling.Profile` finds this graph's
        per-node records again."""
        if self._signature is None:
            tokens = [
                f"{spec_string(node.key)}|{node.engine}|{node.grid}"
                for node in self.nodes
            ]
            digest = hashlib.sha256("\n".join(tokens).encode()).hexdigest()
            self._signature = f"graph:{digest[:16]}"
        return self._signature

    def _live_indices(self, outputs: Iterable[str] | None) -> list[int]:
        """Indices of nodes that must survive dead-node elimination.

        A node is **live** when any of:

        - its write ranges intersect a bound output span (``outputs``
          names a subset of the pointer bindings; ``None`` means every
          pointer binding is an observable output);
        - a later live node *reads* bytes it writes (RAW reachability —
          WAW alone does not resurrect a node: an unread, un-bound write
          is unobservable even if overwritten);
        - its ranges are conservative (whole-memory: static analysis
          failed, so everything it does may be observed);
        - it has side effects beyond memory (``PrintTensor``), or it
          writes nothing that analysis resolved (pure/opaque nodes are
          kept rather than guessed at).

        When the graph has no pointer bindings and ``outputs`` is None,
        *all of device memory* is presumed observable (the host can
        download any buffer), so nothing is eliminated.  Passing an
        explicit — possibly empty — ``outputs`` asserts the bound spans
        are the only externally read memory.
        """
        pointer_bindings = {
            name: b for name, b in self._bindings.items() if b.is_pointer
        }
        if outputs is None:
            if not pointer_bindings:
                return list(range(len(self.nodes)))
            spans = [
                (float(b.base), float(b.base + b.nbytes))
                for b in pointer_bindings.values()
            ]
        else:
            spans = []
            for name in outputs:
                binding = pointer_bindings.get(name)
                if binding is None:
                    raise VMError(
                        f"outputs names {name!r}, which is not a pointer "
                        f"binding of this graph (registered: "
                        f"{sorted(pointer_bindings)})"
                    )
                spans.append((float(binding.base), float(binding.base + binding.nbytes)))
        live = [False] * len(self.nodes)
        later_reads: list[tuple[float, float]] = []
        later_conservative = False
        for i in reversed(range(len(self.nodes))):
            node = self.nodes[i]
            conservative = any(end == float("inf") for _, end, _ in node.ranges)
            writes = [
                (float(s), float(e)) for s, e, w in node.ranges if w and s < e
            ]
            reads = [
                (float(s), float(e)) for s, e, w in node.ranges if not w and s < e
            ]
            keep = (
                conservative
                or _has_side_effects(node.program)
                or not writes  # pure/opaque nodes are kept, not guessed at
                or later_conservative  # an opaque later node may read anything
                or any(_intervals_overlap(w, span) for w in writes for span in spans)
                or any(_intervals_overlap(w, r) for w in writes for r in later_reads)
            )
            if keep:
                live[i] = True
                later_reads.extend(reads)
                later_conservative = later_conservative or conservative
        return [i for i in range(len(self.nodes)) if live[i]]

    def _profiled_costs(self, profile: Profile) -> tuple[dict[int, float], int]:
        """Per-node cost estimates from a profile, with the match count.

        Each node takes its measured mean wall seconds under this graph's
        signature; nodes the signature scope never recorded fall back to
        the profile-wide mean of their **specialization key** (so a
        profile gathered from a *different* capture of the same kernels —
        another batch size, eager traffic — still informs placement).
        Nodes matched by neither cost the mean of the matched ones (or
        1.0 when nothing matched), so unprofiled nodes neither dominate
        nor vanish from the balance.  ``matched`` is how many nodes got a
        real measurement — zero means the profile knows nothing about
        this graph.
        """
        recorded = profile.graph_nodes(self.signature)
        costs: dict[int, float | None] = {}
        known: list[float] = []
        matched = 0
        for node in self.nodes:
            rec = recorded.get(node.index)
            mean: float | None = None
            if rec is not None and rec.calls and rec.mean_wall_s > 0.0:
                mean = rec.mean_wall_s
            else:
                spec_mean = profile.spec_seconds(spec_string(node.key))
                if spec_mean is not None and spec_mean > 0.0:
                    mean = spec_mean
            if mean is not None:
                matched += 1
                known.append(mean)
            costs[node.index] = mean
        default = sum(known) / len(known) if known else 1.0
        return (
            {i: (default if mean is None else mean) for i, mean in costs.items()},
            matched,
        )

    def profile_matches(self, profile: Profile | None) -> bool:
        """True when ``profile`` holds at least one record describing
        this graph — a signature or specialization-key match — i.e. the
        condition under which :meth:`optimize` will consume it rather
        than raise.  Batch re-optimizers (``QuantizedLinear.reoptimize``)
        use this to degrade unmatched graphs to uniform-cost
        re-balancing instead of aborting mid-loop."""
        if profile is None or not len(profile):
            return False
        return self._profiled_costs(profile)[1] > 0

    def optimize(
        self,
        profile: Profile | None = None,
        outputs: Iterable[str] | None = None,
    ) -> "ExecutionGraph":
        """Profile-guided re-instantiation: a new, independently
        replayable graph over the same pool with

        - **dead nodes eliminated** — nodes whose writes are never read
          by a later live node and never alias a bound output span (see
          :meth:`_live_indices`; with no pointer bindings and ``outputs``
          unset, nothing is dropped — all memory is presumed observable);
        - **execution groups re-derived** over the surviving nodes (the
          instantiate pass runs again: nodes an eliminated launch kept
          apart may now stack into one execution);
        - **group placement re-balanced** by longest-processing-time
          list scheduling over the groups' hazard DAG, a group costing
          the sum of its members' measured per-node costs from
          ``profile`` (collected under this graph's :attr:`signature` by
          any profiled replay, falling back to specialization-key means
          for nodes the signature scope missed) instead of the
          capture-time round-robin/memory-aware heuristic — unprofiled
          nodes cost the profiled mean, ``profile=None`` degrades to
          uniform costs (pure re-balancing), and a non-empty profile
          that matches *nothing* in this graph raises :class:`VMError`
          instead of silently misoptimizing.

        Hazard edges are *not* recomputed — they came from capture and
        remain valid for any placement (cross-stream edges become event
        waits at replay).  Pointer/scalar bindings carry over; the
        original graph stays replayable and the two share no mutable
        state.  Replaying the optimized graph is bit-exact with the
        original up to the eliminated (unobservable) writes.

        Note on signatures: pure re-placement preserves the node
        sequence, so the optimized graph keeps the original's
        :attr:`signature` and existing profiles keep matching; once
        elimination drops nodes the sequence — and therefore the
        signature — changes, and further refinement needs a profile
        recorded from the optimized graph itself.
        """
        if self._phase != "ready":
            raise VMError(
                f"cannot optimize a graph in phase {self._phase!r}; "
                "capture must have completed without error"
            )
        live = self._live_indices(outputs)
        if profile is not None and len(profile):
            costs, matched = self._profiled_costs(profile)
            if matched == 0:
                raise VMError(
                    f"profile ({len(profile)} sites) contains no record "
                    f"matching this graph (signature {self.signature}): "
                    "neither the signature nor any node's specialization "
                    "key was ever recorded — wrong profile?  Pass "
                    "profile=None for uniform-cost re-balancing."
                )
        else:
            costs = {node.index: 1.0 for node in self.nodes}
        remap = {old: new for new, old in enumerate(live)}
        optimized = ExecutionGraph(self.pool)
        for old in live:
            node = self.nodes[old]
            optimized.nodes.append(
                node.placed(
                    remap[old],
                    tuple(remap[d] for d in node.deps if d in remap),
                    node.stream_index,
                    node.engine,
                )
            )
        optimized._instantiate({remap[old]: costs[old] for old in live})
        # Bindings carry over; the slot map is rebuilt lazily against the
        # remapped node indices on the first replay.
        optimized._bindings = dict(self._bindings)
        optimized._phase = "ready"
        return optimized

    # -- plan transport -----------------------------------------------------
    def plan(self) -> GraphPlan:
        """This graph's transportable schedule: placement, engines,
        specialization identities and hazard edges as a
        :class:`GraphPlan` (versioned JSON via ``plan().to_json()``).
        Programs and device addresses stay behind — the receiving
        process applies the plan to its own isomorphic capture with
        :meth:`apply_plan`."""
        if self._phase != "ready":
            raise VMError(
                f"cannot export the plan of a graph in phase {self._phase!r}; "
                "capture must have completed without error"
            )
        return GraphPlan.from_graph(self)

    def apply_plan(self, plan: GraphPlan) -> "ExecutionGraph":
        """Re-instantiate this graph under a :class:`GraphPlan` recorded
        elsewhere — the receiving half of cross-process placement
        transfer.

        The plan must describe *this* DAG: node counts, per-node
        specialization-key strings, grids and hazard edges are all
        validated (they are deterministic across processes, so a capture
        of the same launch sequence in another process matches exactly);
        any mismatch raises :class:`VMError` — a plan for a different
        graph must not silently misplace this one.  Stream placement
        *and* engine choices come from the plan (a profile-guided
        placement decided in one process lands unchanged in another);
        the resulting graph is new and independently replayable, with
        pointer/scalar bindings carried over, exactly like
        :meth:`optimize`.
        """
        if self._phase != "ready":
            raise VMError(
                f"cannot apply a plan to a graph in phase {self._phase!r}; "
                "capture must have completed without error"
            )
        if len(plan.nodes) != len(self.nodes):
            raise VMError(
                f"plan describes {len(plan.nodes)} nodes but this graph has "
                f"{len(self.nodes)} — not the same DAG"
            )
        num_streams = len(self.pool.streams)
        applied = ExecutionGraph(self.pool)
        for node, record in zip(self.nodes, plan.nodes):
            spec = spec_string(node.key)
            if record["spec"] != spec or tuple(record["grid"]) != tuple(node.grid):
                raise VMError(
                    f"plan node {node.index} does not describe this graph's "
                    f"node {node.index} ({node.program.name}): specialization "
                    "key or grid differs — wrong plan?"
                )
            if tuple(record["deps"]) != tuple(node.deps):
                raise VMError(
                    f"plan node {node.index} carries different hazard edges "
                    f"({record['deps']} vs {list(node.deps)}): the captures "
                    "are not isomorphic"
                )
            if record["engine"] not in ("sequential", "batched"):
                raise VMError(f"plan node {node.index}: unknown engine "
                              f"{record['engine']!r}")
            stream = int(record["stream"])
            if not 0 <= stream < num_streams:
                raise VMError(
                    f"plan places node {node.index} on stream {stream}, but "
                    f"this pool has {num_streams} streams"
                )
            applied.nodes.append(
                node.placed(node.index, node.deps, stream, record["engine"])
            )
        applied._instantiate()
        applied._bindings = dict(self._bindings)
        applied._phase = "ready"
        return applied

    # -- introspection ------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    @property
    def stream_indices(self) -> tuple[int, ...]:
        """Distinct stream indices the captured DAG executes on."""
        return tuple(sorted({node.stream_index for node in self.nodes}))

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"ExecutionGraph({len(self.nodes)} nodes in {len(self._groups)} "
            f"groups over streams {list(self.stream_indices)}, "
            f"{self.replays} replays, phase={self._phase})"
        )
