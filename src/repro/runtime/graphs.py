"""Execution-graph capture & replay: record the launch DAG once, replay
it with zero hazard analysis or group formation.

The stream pool (:mod:`repro.runtime.streams`) pays a fixed
orchestration tax on *every* ``submit``: resolve the launch's global
byte ranges (``launch_ranges``), scan outstanding launches for hazards
(``ranges_conflict``), and re-prove coalescing eligibility.  This
module is the CUDA-graph analogue for the simulator: **capture** a
launch DAG once, freeze every decision, and **replay** it by driving
the pool's lane directly.

Nothing served captures a graph: a decode step is one synchronous
launch and split-k issues ``stream="auto"`` launches.  What remains is
the capture API (``Runtime.capture`` / ``StreamPool.capture``), kept
for the benchmark's step probe and as the tests' serial-replay
reference.

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
semantics) and the tier it was asked for, which every replay asks for
again, as an eager submission of it would.  The stream a launch names
is a label and is not recorded.  Handles returned during capture are
inert: ``wait()`` is a no-op, so code written for eager streams captures
unchanged.

On exit the graph **instantiates**: nodes are partitioned into
*execution groups*, one engine invocation each at replay, by
:func:`~repro.runtime.streams.form_groups` — the same first-fit rule
the eager drain applies to pending launches.  Groups form over the whole
DAG in submission order: a node joins a group when both run the same
program at the same requested tier (not ``sequential``) with one grid
shape, identical shape-contributing scalars, pairwise-disjoint ranges,
and no dependency on or after the group head.  A node's dependencies
are *all* earlier nodes it conflicts with, so a member conflicts with
nothing it is hoisted over, and every group edge points at a group with
an earlier head: head order is a topological order.  A group runs on
the pool's lane, on whatever tier its specialization key has reached —
a stacked compiled kernel or
:meth:`~repro.vm.batched.BatchedExecutor.launch_many`.

Replay
------
:meth:`ExecutionGraph.replay` is the pool's inline group loop over the
frozen groups: under the pool lock, on the calling thread, it retires
whatever eager work is still pending (program order), rebinds the
arguments, and runs each group in head order on the pool's lane
through the launch executor (:mod:`repro.runtime.executor`) — no
``analyze_access``, no ``launch_ranges``, no ``ranges_conflict``, no
mergeability probing, no thread hand-off.  Replay is bit-exact with
eager stream submission of the same launches and with
``replay(serial=True)`` — the *same loop* over singleton groups: the
ungrouped debugging oracle and the exact (not group-amortized)
per-launch profile collector.  A replayed launch records like an eager
one: under its specialization-key string and its tier.

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

from typing import Mapping

from repro.compiler.pipeline import specialization_key
from repro.errors import VMError
from repro.obs import trace as obs_trace
from repro.ir.program import Program
from repro.runtime.executor import Site
from repro.runtime.streams import (
    StreamPool,
    form_groups,
    launch_ranges,
    ranges_conflict,
)

#: Where a replayed group is accounted.  Lane-level execution spans
#: carry cat "stream" (like eager groups); "graph" is the lifecycle lane.
_REPLAY_SITE = Site("replay", "stream")

class GraphNode:
    """One captured launch: everything the live runtime decides per
    submission, frozen at capture time."""

    __slots__ = ("index", "program", "args", "ranges", "deps", "grid", "key",
                 "requested")

    def __init__(self, index, program, args, ranges, deps, grid, key,
                 requested) -> None:
        self.index = index
        self.program = program
        self.args = args
        self.ranges = ranges
        self.deps = deps            # indices of earlier conflicting nodes
        self.grid = grid
        self.key = key              # capture-time specialization key
        self.requested = requested  # the tier asked of every replay

    def __repr__(self) -> str:
        return (
            f"GraphNode({self.index}: {self.program.name}, "
            f"deps={list(self.deps)})"
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


class _Group:
    """An execution group: one engine invocation at replay."""

    __slots__ = ("node_indices", "program", "requested", "keys")

    def __init__(self, nodes: list[GraphNode]) -> None:
        self.node_indices = [n.index for n in nodes]
        self.program = nodes[0].program
        self.requested = nodes[0].requested
        self.keys = [n.key for n in nodes]


class ExecutionGraph:
    """A captured launch DAG over a :class:`~repro.runtime.streams.
    StreamPool`, replayable without scheduling or hazard analysis.

    Lifecycle: ``pool.capture()`` (or ``runtime.capture()``) creates the
    graph idle; entering it as a context manager records submissions;
    exiting instantiates it (execution groups + dependency edges frozen);
    :meth:`replay` then executes it any number of times.  See the module
    docstring for semantics.
    """

    def __init__(self, pool: StreamPool) -> None:
        self.pool = pool
        self.nodes: list[GraphNode] = []
        self.replays = 0
        self._phase = "idle"  # idle -> capturing -> ready (or aborted)
        self._bindings: dict[str, _Binding] = {}
        self._groups: list[_Group] = []
        self._slot_map: dict[str, list[tuple]] | None = None
        # Rebinding cache; read and written under the pool lock only.
        self._bound_args: list[tuple] | None = None
        self._last_values: dict | None = None

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
        self._phase = "aborted"  # unless instantiation completes
        if exc_type is None:
            self._instantiate()
            self._phase = "ready"

    def _record(
        self, program: Program, args: tuple, engine: str, key: tuple
    ) -> CapturedLaunchHandle:
        """Record one launch (its arguments checked and its
        specialization key computed by :meth:`StreamPool.submit`):
        hazard analysis runs here, once, never again."""
        if self._phase != "capturing":
            raise VMError("graph is not capturing")
        ranges = launch_ranges(program, args)
        deps = tuple(
            node.index
            for node in self.nodes
            if ranges_conflict(node.ranges, ranges)
        )
        node = GraphNode(
            index=len(self.nodes),
            program=program,
            args=args,
            ranges=ranges,
            deps=deps,
            grid=program.grid_size(args),
            key=key,
            requested=engine,
        )
        self.nodes.append(node)
        return CapturedLaunchHandle(program, args, node, self)

    # -- instantiation ------------------------------------------------------
    def _instantiate(self) -> None:
        """Freeze the execution groups.

        Groups form over the whole DAG by
        :func:`~repro.runtime.streams.form_groups`; creation order is
        head-node order, and every dependency of a group precedes its
        head, so replay runs a group's dependencies before its
        dependents.
        """
        groups = [
            _Group(stack) for stack in form_groups(self.nodes, lambda node: node.deps)
        ]
        self._groups = groups
        tracer = obs_trace.ACTIVE
        if tracer is not None:
            tracer.instant(
                "graph.capture",
                "graph",
                obs_trace.HOST_TID,
                {"nodes": len(self.nodes), "groups": len(groups)},
            )

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
        in submission order: the bit-exactness oracle for the grouped replay and the exact
        per-launch profile collector.  Raises :class:`VMError` at the first
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
                groups = [_Group([node]) for node in self.nodes]
            try:
                for group in groups:
                    pool.run_group(
                        group.program, [bound[i] for i in group.node_indices],
                        group.requested, group.keys, _REPLAY_SITE,
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
                {"nodes": len(self.nodes), "serial": serial},
            )
        self.replays += 1

    # -- introspection ------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"ExecutionGraph({len(self.nodes)} nodes in {len(self._groups)} "
            f"groups, {self.replays} replays, phase={self._phase})"
        )
