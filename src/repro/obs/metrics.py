"""The metrics registry: frozen dot-namespaced snapshot contracts.

Before this module, every subsystem invented its own counter shape —
``ExecutionStats`` attributes, ``SpecializationCache.hits``,
``JitManager.counters()``, the ad-hoc
``counters`` dict on serving's ``done`` frames.  The registry replaces
none of those *mechanisms* (they stay the cheap in-band counters they
are) but gives them one read-side contract: a ``metrics()`` method
returning a **flat dict of dot-namespaced keys to numbers**, with the
key set frozen here and validated on every snapshot.

Namespaces:

- ``runtime.*``   — launches, the specialization cache, engine stats
- ``streams.*``   — pool width, launches, post-coalescing executions
- ``jit.*``       — compiled tier: promotion/bailout/cache counters
- ``batching.*``  — the continuous-batching simulator's shape
- ``router.*``    — fleet aggregates (``router.shed`` is the admission
  reject count — the door is where overload is measured)

Key stability is a CI-guarded contract (like the differential
harness's ``BASELINE_MODES``): renaming or dropping a key fails
``tests/test_obs.py`` until the frozen sets here *and* the literal
copies in the test are both updated — a deliberate two-touch change.
``metrics()`` implementations call :func:`validate_metrics` before
returning, so drift fails at the producing layer, not downstream.
"""

from __future__ import annotations

from repro.errors import VMError

#: ``Runtime.metrics()`` keys.
RUNTIME_METRICS_KEYS = frozenset({
    "runtime.launches",
    "runtime.spec_cache.entries",
    "runtime.spec_cache.hits",
    "runtime.spec_cache.misses",
    "runtime.spec_cache.evictions",
    "runtime.stats.blocks_run",
    "runtime.stats.instructions",
    "runtime.stats.global_bits_loaded",
    "runtime.stats.global_bits_stored",
    "runtime.stats.shared_bits_loaded",
    "runtime.stats.shared_bits_stored",
    "runtime.stats.copy_async_issued",
    "runtime.stats.dot_ops",
    "runtime.stats.synchronizations",
    "streams.count",
    "streams.launches",
    "streams.executions",
    "jit.enabled",
    "jit.compiled",
    "jit.bailouts",
    "jit.promotions",
    "jit.cache.hits",
    "jit.cache.misses",
    "jit.cache.evictions",
})

#: ``ContinuousBatchingSimulator.metrics()`` keys: the runtime contract
#: plus the simulator's own namespace.
SIMULATOR_METRICS_KEYS = RUNTIME_METRICS_KEYS | frozenset({
    "batching.max_batch",
    "batching.num_streams",
})

#: ``RouterResult.metrics()`` keys (fleet-wide; per-worker detail lives
#: on ``RouterResult.per_worker()``).
ROUTER_METRICS_KEYS = frozenset({
    "router.completed",
    "router.shed",
    "router.redispatched",
    "router.respawns",
    "router.total_tokens",
    "router.kernel_launches",
    "router.graph_captures",
    "router.graph_replays",
    "router.jit_compiled",
    "router.jit_promotions",
    "router.slo_attainment",
    "router.simulated_makespan_s",
    "router.wall_s",
})


def validate_metrics(snapshot: dict, contract: frozenset, owner: str) -> dict:
    """Assert ``snapshot`` honors ``contract``: exactly the frozen keys,
    every value a plain number (JSON-safe).  Returns the snapshot, so
    producers end with ``return validate_metrics(m, KEYS, "Runtime")``.
    """
    got = set(snapshot)
    if got != contract:
        missing = sorted(contract - got)
        extra = sorted(got - contract)
        raise VMError(
            f"{owner} metrics drifted from the frozen contract: "
            f"missing={missing}, unexpected={extra}"
        )
    for key, value in snapshot.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise VMError(
                f"{owner} metric {key!r} is {type(value).__name__}, "
                "expected int or float"
            )
    return snapshot


def zero_metrics(contract: frozenset) -> dict:
    """An all-zero snapshot of ``contract`` (for producers whose
    subsystem is absent — e.g. a simulator with no kernel-in-the-loop
    runtime — so the key contract holds unconditionally)."""
    return {key: 0 for key in sorted(contract)}
