"""End-to-end LLM serving latency simulation (paper Sections 9.4-9.5).

The simulator decomposes each serving stage into the kernel calls a
vLLM-style engine issues — quantized matmuls for the block linears,
an f16 lm-head GEMM, attention (KV-cache bound during decode,
compute-bound during prefill) — and adds the framework overheads that
dominate small models (kernel launches, Python glue, sampling).

Weight-memory accounting reproduces the OOM cells of Figures 12 and 13:
a configuration whose weights plus working set exceed device DRAM raises
:class:`~repro.errors.OutOfMemoryError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dtypes import DataType, float16
from repro.errors import OutOfMemoryError, UnsupportedKernelError
from repro.llm.models import ModelConfig
from repro.perf.gpus import GpuSpec
from repro.perf.systems import ALL_SYSTEMS, CuBLAS, System
from repro.perf.workload import MatmulWorkload

#: Framework (vLLM) overheads, calibrated against the paper's Figure 12.
PER_LAYER_OVERHEAD = 0.13e-3   # s per transformer block per step
STEP_OVERHEAD = 2.0e-3         # s per engine step (scheduler, sampler)
WORKING_SET_BYTES = 1536 * 1024**2  # activations, CUDA context, fragmentation

#: Prefill GEMM efficiency by serving system.  vLLM's f16 path exceeds the
#: fp32-accumulate roofline because cuBLAS uses fp16 accumulation for
#: large GEMMs; quantized paths pay a dequant tax on tensor-core issue
#: slots (higher for Ladder, which also lacks pipelining).
PREFILL_TC_EFFICIENCY = {"vllm": 1.24, "tilus": 0.95, "ladder": 0.80}


@dataclass(frozen=True)
class ServingConfig:
    """One serving setup: engine, weight type, device."""

    system: str                  # "vllm" | "tilus" | "ladder"
    weight_dtype: DataType       # float16 for vllm, quantized otherwise
    gpu: GpuSpec
    group_size: int = 128

    def kernel_system(self) -> System:
        if self.system == "vllm":
            return ALL_SYSTEMS["cublas"]
        return ALL_SYSTEMS[self.system]


class ServingSimulator:
    """Latency and memory model of one model on one serving config.

    Both are frozen, so what depends on them alone (:meth:`weight_bytes`)
    or on them and the batch size (the block linears' and the lm head's
    kernel latencies) is computed once per instance and kept: a serving
    loop asks for thousands of decode steps over a handful of batch
    sizes.  What reads ``context`` is computed every step.
    """

    def __init__(self, model: ModelConfig, config: ServingConfig) -> None:
        self.model = model
        self.config = config
        self._weight_bytes: int | None = None
        self._linear_time: dict[int, float] = {}
        self._lm_head: dict[int, float] = {}

    # -- memory ------------------------------------------------------------
    def weight_bytes(self) -> int:
        """Device bytes for weights: quantized blocks + f16 head/embeddings."""
        if self._weight_bytes is None:
            self._weight_bytes = self._count_weight_bytes()
        return self._weight_bytes

    def _count_weight_bytes(self) -> int:
        m, c = self.model, self.config
        block_bits = m.linear_params * c.weight_dtype.nbits
        scale_bytes = 0
        if c.weight_dtype.nbits < 16:
            groups = max(1, m.hidden_size // c.group_size)
            # Scales per linear: (k/group) * n * 2B, summed over blocks.
            scale_bytes = sum(
                (l.k // c.group_size) * l.n * 2
                for l in m.block_linears()
                if l.k >= c.group_size
            ) * m.num_layers
        head_bytes = 2 * m.lm_head_params * 2  # embeddings + lm head, f16
        return block_bits // 8 + scale_bytes + head_bytes

    def memory_required(self, batch: int, context: int = 2048) -> int:
        kv = batch * context * self.model.kv_bytes_per_token()
        return self.weight_bytes() + kv + WORKING_SET_BYTES

    def check_memory(self, batch: int, context: int = 2048) -> None:
        required = self.memory_required(batch, context)
        if required > self.config.gpu.dram_bytes:
            raise OutOfMemoryError(
                f"{self.model} ({self.config.weight_dtype} weights) needs "
                f"{required / 1024**3:.1f} GiB but {self.config.gpu} has "
                f"{self.config.gpu.dram_bytes / 1024**3:.0f} GiB"
            )

    # -- kernels -------------------------------------------------------------
    def _linear_latency(self, m: int, k: int, n: int) -> float:
        c = self.config
        system = self.kernel_or_raise()
        workload = MatmulWorkload(
            m=m, n=n, k=k, weight_dtype=c.weight_dtype, group_size=c.group_size
        )
        return system.matmul_latency(workload, c.gpu)

    def kernel_or_raise(self) -> System:
        system = self.config.kernel_system()
        probe = MatmulWorkload(
            m=1,
            n=self.model.hidden_size,
            k=self.model.hidden_size,
            weight_dtype=self.config.weight_dtype,
            group_size=self.config.group_size,
        )
        system.check(probe, self.config.gpu)
        return system

    def _attention_decode_time(self, batch: int, context: int) -> float:
        """KV-cache read is the decode-attention bottleneck."""
        bytes_read = batch * context * self.model.kv_bytes_per_token()
        return bytes_read / (self.config.gpu.mem_bandwidth * 0.80)

    def _lm_head_time(self, m: int) -> float:
        time = self._lm_head.get(m)
        if time is None:
            workload = MatmulWorkload(
                m=m,
                n=self.model.vocab_size,
                k=self.model.hidden_size,
                weight_dtype=float16,
            )
            time = self._lm_head[m] = CuBLAS().matmul_latency(workload, self.config.gpu)
        return time

    def _block_linears_time(self, batch: int) -> float:
        """Every block linear of every layer at ``m = batch``."""
        time = self._linear_time.get(batch)
        if time is None:
            m = self.model
            time = self._linear_time[batch] = sum(
                self._linear_latency(batch, l.k, l.n) for l in m.block_linears()
            ) * m.num_layers
        return time

    # -- stages --------------------------------------------------------------
    def decode_step_latency(self, batch: int, context: int = 256) -> float:
        """One decode step with ``batch`` in-flight requests (continuous
        batching: every request contributes one token => m = batch).
        ``context`` is the per-request KV history length (the paper's
        decode benchmarks start from short dummy prompts)."""
        self.check_memory(batch, context)
        m = self.model
        return (
            self._block_linears_time(batch)
            + self._attention_decode_time(batch, context)
            + self._lm_head_time(batch)
            + m.num_layers * PER_LAYER_OVERHEAD
            + STEP_OVERHEAD
        )

    def prefill_latency(self, prompt_tokens: int) -> float:
        """Prefill of one prompt (m = prompt length for every linear)."""
        self.check_memory(batch=1, context=prompt_tokens)
        self.kernel_or_raise()  # surface ERR/unsupported before estimating
        m, c = self.model, self.config
        flops = 2.0 * prompt_tokens * m.linear_params
        eff = PREFILL_TC_EFFICIENCY[c.system]
        gemm_time = flops / (c.gpu.tc_fp16_flops * eff)
        # Causal attention: 2 matmuls of T x T x head_dim per head per layer.
        attn_flops = (
            2 * 2 * m.num_layers * m.num_heads * m.head_dim * prompt_tokens**2 / 2
        )
        attn_time = attn_flops / (c.gpu.tc_fp16_flops * 0.55)
        # Quantized paths read weights once; that traffic is hidden at
        # prefill (compute-bound) so only the GEMM/attention terms count.
        return (
            gemm_time
            + attn_time
            + self._lm_head_time(1)
            + m.num_layers * PER_LAYER_OVERHEAD
            + STEP_OVERHEAD
        )


@dataclass(frozen=True)
class StageResult:
    """Outcome of simulating one (system, dtype) cell of Figure 12/13."""

    label: str
    latency_ms: float | None
    error: str | None = None  # "OOM" | "ERR" | "unsupported"

    @property
    def ok(self) -> bool:
        return self.latency_ms is not None


def simulate_cell(
    model: ModelConfig,
    config: ServingConfig,
    stage: str,
    tokens: int,
) -> StageResult:
    """Evaluate one figure cell; maps failures onto the paper's labels."""
    sim = ServingSimulator(model, config)
    label = f"{config.system}/{config.weight_dtype}"
    try:
        if stage == "decode":
            latency = sim.decode_step_latency(batch=tokens)
        elif stage == "prefill":
            latency = sim.prefill_latency(prompt_tokens=tokens)
        else:
            raise ValueError(f"unknown stage {stage!r}")
    except OutOfMemoryError:
        return StageResult(label, None, "OOM")
    except UnsupportedKernelError as exc:
        kind = "ERR" if "Hopper" in str(exc) or "illegal" in str(exc) else "unsupported"
        return StageResult(label, None, kind)
    return StageResult(label, latency * 1e3)
