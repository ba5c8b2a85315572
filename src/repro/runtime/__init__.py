"""Runtime system (paper Section 8.1, step 4)."""

from repro.runtime.graphs import ExecutionGraph, GraphNode
from repro.runtime.jit import JitManager
from repro.runtime.profiling import NodeProfile, Profile
from repro.runtime.runtime import ExecutionContext, Runtime
from repro.runtime.streams import (
    LaunchHandle,
    Stream,
    StreamPool,
    launch_ranges,
)

__all__ = [
    "Runtime",
    "ExecutionContext",
    "ExecutionGraph",
    "GraphNode",
    "JitManager",
    "Stream",
    "StreamPool",
    "LaunchHandle",
    "NodeProfile",
    "Profile",
    "launch_ranges",
]
