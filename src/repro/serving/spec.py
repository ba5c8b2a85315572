"""The worker specification: how to rebuild an identical engine anywhere.

Sharded serving never ships weights, programs or buffers between
processes — it ships a small versioned-JSON *recipe* and every worker
rebuilds the same state from it deterministically:

- the decode weight matrix is drawn from ``default_rng(weight_seed)``,
  so every process quantizes and device-transforms bit-identical
  weights;
- model / GPU / dtype references are **names** resolved against the
  in-process registries (:data:`~repro.llm.models.MODELS`,
  :data:`~repro.perf.gpus.GPUS`,
  :func:`~repro.dtypes.registry.dtype_from_name`);
- specialization keys are structural sha256 hashes, so a decode
  kernel built from a spec in one process carries the key of the same
  kernel in another.

This is what makes the JSON-only wire protocol sufficient: identity
lives in the recipe, not in any live object.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from repro.errors import VMError

#: Version 2 dropped the ``adaptive`` field, version 3 the JIT
#: promotion-threshold override, version 4 the tuning-store path (specs
#: are an ephemeral router → worker recipe, so an older document is
#: refused by its version, not read).
SPEC_JSON_VERSION = 4

#: The Python type each field's annotation names.
_FIELD_TYPES = {"str": str, "int": int, "bool": bool}

#: The least value each count may take: shapes and groups are at least
#: one, a seed is what ``default_rng`` accepts, and ``num_streams`` may
#: be 0 (the per-request reference path, see ``num_streams`` below).
_MINIMUM = {
    "group_size": 1,
    "linear_k": 1,
    "linear_n": 1,
    "linear_group": 1,
    "weight_seed": 0,
    "max_batch": 1,
    "num_streams": 0,
}


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to build one worker's simulator, by value."""

    #: Model name in :data:`repro.llm.models.MODELS` (analytic timings).
    model: str = "Gemma-2-9B"
    #: Serving system ("tilus" | "ladder" | "vllm") and its weight dtype.
    system: str = "tilus"
    weight_dtype: str = "u4"
    #: GPU name in :data:`repro.perf.gpus.GPUS`.
    gpu: str = "L40S"
    group_size: int = 128
    #: Kernel-in-the-loop decode linear: shape, dtype, quant group and
    #: the RNG seed its weights are drawn from.
    linear_k: int = 64
    linear_n: int = 16
    linear_dtype: str = "i6"
    linear_group: int = 32
    weight_seed: int = 0
    #: Engine knobs: :meth:`build_simulator` turns them into a configured
    #: runtime and simulator.
    max_batch: int = 8
    #: ``0`` selects the per-request reference decode path (one
    #: ``program_for(1)`` launch per request); any other value the served
    #: path (one ``program_for(max_batch)`` launch per step).  Only 0
    #: versus not-0 matters: every value from 1 up serves alike.
    num_streams: int = 4
    #: Read by nothing and not passed to the simulator: kept so
    #: existing recipes (``replace(..., use_graphs=False)``) still parse.
    use_graphs: bool = True
    profile: bool = False
    #: Attach the compiled tier: hot decode specializations promote out
    #: of the interpreter (see :mod:`repro.runtime.jit`).
    jit: bool = False
    #: Install a process tracer in the worker (see
    #: :mod:`repro.obs.trace`): the worker buffers span/instant events
    #: and ships them on ``pull_trace`` for the router's fleet merge.
    trace: bool = False

    def __post_init__(self) -> None:
        """Refuse a recipe that cannot serve when it is made — through
        the constructor and :meth:`from_json` alike — not when a worker
        built from it fails or hangs: each field must have its
        annotation's type (a ``bool`` is not an ``int``, nor an ``int``
        a ``bool``) and each count its range."""
        for spec_field in fields(self):
            name, value = spec_field.name, getattr(self, spec_field.name)
            kind = _FIELD_TYPES[spec_field.type]
            if not isinstance(value, kind) or (
                kind is int and isinstance(value, bool)
            ):
                raise VMError(
                    f"worker spec field {name!r} must be {kind.__name__}, "
                    f"got {type(value).__name__} {value!r}"
                )
            if name in _MINIMUM and value < _MINIMUM[name]:
                raise VMError(
                    f"worker spec field {name!r} must be at least "
                    f"{_MINIMUM[name]}, got {value}"
                )

    # -- JSON round-trip -----------------------------------------------------
    def to_json(self) -> str:
        body = {"version": SPEC_JSON_VERSION, "kind": "worker-spec"}
        body.update(asdict(self))
        return json.dumps(body)

    @classmethod
    def from_json(cls, text: str) -> "WorkerSpec":
        try:
            body = json.loads(text)
        except json.JSONDecodeError as exc:
            raise VMError(f"malformed worker spec JSON: {exc}") from exc
        if not isinstance(body, dict) or body.get("kind") != "worker-spec":
            raise VMError("not a worker-spec JSON document")
        if body.get("version") != SPEC_JSON_VERSION:
            raise VMError(
                f"worker-spec version mismatch: got {body.get('version')!r}, "
                f"expected {SPEC_JSON_VERSION}"
            )
        fields = {k: v for k, v in body.items() if k not in ("version", "kind")}
        try:
            return cls(**fields)
        except TypeError as exc:
            raise VMError(f"malformed worker spec: {exc}") from exc

    # -- deterministic rebuild -----------------------------------------------
    def serving_config(self):
        """The analytic :class:`~repro.llm.engine.ServingConfig` this
        spec names (also what the router's admission estimator uses)."""
        from repro.dtypes.registry import dtype_from_name
        from repro.llm.engine import ServingConfig
        from repro.perf.gpus import gpu_by_name

        return ServingConfig(
            self.system,
            dtype_from_name(self.weight_dtype),
            gpu_by_name(self.gpu),
            group_size=self.group_size,
        )

    def model_config(self):
        from repro.llm.models import MODELS

        try:
            return MODELS[self.model]
        except KeyError as exc:
            raise VMError(f"unknown model in worker spec: {self.model!r}") from exc

    def build_simulator(self):
        """Build this spec's kernel-in-the-loop
        :class:`~repro.llm.batching.ContinuousBatchingSimulator`.

        This is the one place the recipe's engine fields become state:
        they configure a fresh :class:`~repro.runtime.runtime.Runtime`
        (the compiled tier), the decode
        linear is prepared on it, and the simulator reads them from
        there.

        Bit-determinism contract: two processes building from equal
        specs produce simulators whose per-request decode outputs (and
        therefore :attr:`~repro.llm.batching.RequestResult.output_digest`
        values) agree bit-for-bit for equal ``rid`` s.
        """
        import numpy as np

        from repro import ops
        from repro.dtypes.registry import dtype_from_name
        from repro.llm.batching import ContinuousBatchingSimulator
        from repro.runtime import Runtime

        runtime = Runtime()
        if self.jit:
            runtime.enable_jit()
        weight = np.random.default_rng(self.weight_seed).standard_normal(
            (self.linear_k, self.linear_n)
        )
        linear = ops.prepare_linear(
            weight,
            dtype_from_name(self.linear_dtype),
            group_size=self.linear_group,
            runtime=runtime,
        )
        return ContinuousBatchingSimulator(
            self.model_config(),
            self.serving_config(),
            max_batch=self.max_batch,
            decode_linear=linear,
            num_streams=self.num_streams,
            profile=self.profile,
        )
