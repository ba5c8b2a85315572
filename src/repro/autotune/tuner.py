"""Autotuner for the quantized matmul template (paper Section 9.3).

"A single virtual machine program template is implemented to support
matrix multiplication with all quantized types, taking tile sizes as
tunable hyperparameters ... around 200 configurations per operator."

The tuner enumerates the valid :class:`~repro.kernels.MatmulConfig` points
for a workload, scores each with a config-aware analytical estimate
(occupancy, wave quantization, pipelining overlap, split-k reduction
traffic) and returns the best.  Results are memoized per workload key,
mirroring the paper's compiled-kernel cache.  Nothing is executed: the
ranking is analytical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import AutotuneError, CompilationError
from repro.kernels.config import MatmulConfig, default_configs
from repro.perf.gpus import GpuSpec, L40S
from repro.perf.workload import MatmulWorkload

#: Kernel launch overhead used by the per-config estimate (s).
_LAUNCH = 2.8e-6


def enumerate_valid_configs(workload: MatmulWorkload, gpu: GpuSpec) -> list[MatmulConfig]:
    """All template configurations that can compile for this workload."""
    out: list[MatmulConfig] = []
    for base in default_configs():
        for sk in (1, 2, 4, 8):
            cfg = MatmulConfig(
                base.block_m,
                base.block_n,
                base.block_k,
                base.warps_m,
                base.warps_n,
                base.num_stages,
                split_k=sk,
            )
            try:
                cfg.validate(workload.weight_dtype)
            except CompilationError:
                continue
            if workload.n % cfg.block_n or workload.k % cfg.block_k:
                continue
            if (workload.k // cfg.block_k) % sk:
                continue
            if cfg.shared_bytes(workload.act_dtype.nbits, workload.weight_dtype.nbits) > gpu.shared_mem_per_sm:
                continue
            if cfg.block_m > 2 * workload.m and cfg.block_m > 16:
                continue  # grossly oversized m tiles only waste work
            out.append(cfg)
    return out


def config_latency_estimate(
    workload: MatmulWorkload, cfg: MatmulConfig, gpu: GpuSpec
) -> float:
    """Analytical latency of one configuration (s).

    Models the effects the tuner must trade off:

    - *occupancy / wave quantization*: few blocks leave SMs idle, so the
      achieved DRAM bandwidth scales with grid utilization;
    - *split-k*: multiplies the grid (helping small-m workloads fill the
      GPU) at the cost of a partial-sum reduction pass;
    - *pipelining*: ``num_stages >= 2`` overlaps memory with compute,
      otherwise the two serialize;
    - *tile efficiency*: padding waste when the tile overshoots ``m``.
    """
    grid_m = math.ceil(workload.m / cfg.block_m)
    grid_n = workload.n // cfg.block_n
    blocks = grid_m * grid_n * cfg.split_k
    # Each SM runs a limited number of blocks concurrently; approximate
    # concurrency by shared-memory occupancy.
    smem = max(1, cfg.shared_bytes(workload.act_dtype.nbits, workload.weight_dtype.nbits))
    blocks_per_sm = max(1, min(gpu.max_blocks_per_sm, gpu.shared_mem_per_sm // smem))
    concurrent = gpu.num_sms * min(blocks_per_sm, 2)
    utilization = min(1.0, blocks / concurrent)

    padded_m = grid_m * cfg.block_m

    # DRAM traffic with tiling reuse: every column stripe re-reads the A
    # panel unless it fits in L2; every row stripe re-reads B (L2 absorbs
    # a fraction).  Split-k partials cost an extra f32 read+write pass.
    a_fits_l2 = workload.act_bytes <= gpu.l2_bytes * 0.5
    a_traffic = workload.act_bytes * (1.0 if a_fits_l2 else grid_n * 0.25)
    b_traffic = (workload.weight_bytes + workload.scale_bytes) * (
        1.0 if grid_m == 1 else 1.0 + 0.25 * (grid_m - 1)
    )
    io_bytes = a_traffic + b_traffic + workload.out_bytes * cfg.split_k
    mem = io_bytes / (gpu.mem_bandwidth * 0.92 * utilization)

    flops = 2.0 * padded_m * workload.n * workload.k
    compute = flops / (gpu.tc_fp16_flops * 0.80)
    # Per-iteration issue cost (addresses, predicates, synchronization):
    # many small tiles serialize on the instruction pipeline.
    k_iters = workload.k // (cfg.block_k * cfg.split_k)
    waves = max(1.0, blocks / concurrent)
    issue = waves * k_iters * 0.05e-6
    # Reduction pass for split-k partials.
    reduction = (
        (cfg.split_k - 1) * workload.m * workload.n * 4 * 2 / (gpu.mem_bandwidth * 0.92)
        if cfg.split_k > 1
        else 0.0
    )
    if cfg.num_stages >= 2:
        core = max(mem, compute)
    else:
        core = mem + compute
    return core + issue + reduction + _LAUNCH * cfg.split_k


@dataclass(frozen=True)
class AutotuneResult:
    """Winning configuration and its surrounding statistics."""

    config: MatmulConfig
    estimated_latency: float
    num_candidates: int

    def describe(self) -> str:
        return (
            f"{self.config.describe()} @ {self.estimated_latency * 1e6:.1f} us "
            f"(of {self.num_candidates} candidates)"
        )


class Autotuner:
    """Memoizing tuner: one search per (workload shape, dtype, gpu)."""

    def __init__(self, gpu: GpuSpec = L40S) -> None:
        self.gpu = gpu
        self._cache: dict[tuple, AutotuneResult] = {}

    def _key(self, workload: MatmulWorkload) -> tuple:
        return (
            workload.m,
            workload.n,
            workload.k,
            workload.weight_dtype.name,
            workload.act_dtype.name,
            self.gpu.name,
        )

    def tune(self, workload: MatmulWorkload) -> AutotuneResult:
        """Return the best configuration for ``workload`` (memoized)."""
        key = self._key(workload)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        candidates = enumerate_valid_configs(workload, self.gpu)
        if not candidates:
            raise AutotuneError(
                f"no valid configuration for {workload.describe()} on {self.gpu}"
            )
        scored = [
            (config_latency_estimate(workload, cfg, self.gpu), cfg)
            for cfg in candidates
        ]
        scored.sort(key=lambda pair: pair[0])
        best_latency, best_cfg = scored[0]
        result = AutotuneResult(best_cfg, best_latency, len(candidates))
        self._cache[key] = result
        return result
