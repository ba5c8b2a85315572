"""Runtime system (paper Section 8.1, step 4)."""

from repro.runtime.graphs import ExecutionGraph, GraphNode
from repro.runtime.jit import JitCache, JitManager
from repro.runtime.profiling import NodeProfile, Profile
from repro.runtime.runtime import (
    ExecutionContext,
    Runtime,
    SpecializationCache,
)
from repro.runtime.streams import (
    LaunchHandle,
    Stream,
    StreamPool,
    launch_ranges,
)

__all__ = [
    "Runtime",
    "SpecializationCache",
    "ExecutionContext",
    "ExecutionGraph",
    "GraphNode",
    "JitCache",
    "JitManager",
    "Stream",
    "StreamPool",
    "LaunchHandle",
    "NodeProfile",
    "Profile",
    "launch_ranges",
]
