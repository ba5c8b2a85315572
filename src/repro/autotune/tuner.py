"""Autotuner for the quantized matmul template (paper Section 9.3).

"A single virtual machine program template is implemented to support
matrix multiplication with all quantized types, taking tile sizes as
tunable hyperparameters ... around 200 configurations per operator."

The tuner enumerates the valid :class:`~repro.kernels.MatmulConfig` points
for a workload, scores each with a config-aware analytical estimate
(occupancy, wave quantization, pipelining overlap, split-k reduction
traffic) and returns the best.  Results are memoized per workload key,
mirroring the paper's compiled-kernel cache.

Two refinement tiers: :meth:`Autotuner.tune` is purely analytical, and
:meth:`Autotuner.tune_measured` executes the analytical head of the
ranking.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import AutotuneError, CompilationError
from repro.kernels.config import MatmulConfig, default_configs
from repro.perf.gpus import GpuSpec, L40S
from repro.perf.workload import MatmulWorkload

#: Kernel launch overhead used by the per-config estimate (s).
_LAUNCH = 2.8e-6


def enumerate_valid_configs(
    workload: MatmulWorkload, gpu: GpuSpec, include_split_k: bool = True
) -> list[MatmulConfig]:
    """All template configurations that can compile for this workload."""
    out: list[MatmulConfig] = []
    for base in default_configs():
        split_ks = (1, 2, 4, 8) if include_split_k else (1,)
        for sk in split_ks:
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
    """Memoizing tuner: one search per (workload shape, dtype, gpu).

    The memo is a bounded LRU — the same discipline as the runtime's
    kernel specialization cache — so a long-lived tuner fed a stream of
    distinct workloads (a serving fleet re-tuning per shape) holds at
    most ``max_entries`` results instead of growing without bound.
    ``hits``/``misses``/``evictions`` expose the behaviour to tests and
    serving counters.
    """

    def __init__(
        self,
        gpu: GpuSpec = L40S,
        max_entries: int = 64,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.gpu = gpu
        self.max_entries = max_entries
        self._cache: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- the memo ------------------------------------------------------------
    def _cache_get(self, key: tuple):
        """The memoized entry for ``key`` — a hit, recency refreshed —
        or None (the miss is counted by :meth:`_cache_put`)."""
        entry = self._cache.get(key)
        if entry is not None:
            self.hits += 1
            self._cache.move_to_end(key)
        return entry

    def _cache_put(self, key: tuple, entry) -> None:
        self.misses += 1
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self.evictions += 1

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
        cached = self._cache_get(key)
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
        self._cache_put(key, result)
        return result

    def cache_size(self) -> int:
        return len(self._cache)

    def counters(self) -> dict:
        """JSON-friendly memo counter snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._cache),
        }

    # -- measured tuning -----------------------------------------------------
    def _trial_configs(self, workload: MatmulWorkload, top_k: int) -> list[MatmulConfig]:
        """The analytical head of the ranking — the candidates worth the
        cost of real execution (split-k needs the runtime workspace
        reduction pass, so trials stick to single-kernel configs)."""
        candidates = enumerate_valid_configs(workload, self.gpu, include_split_k=False)
        scored = sorted(
            ((config_latency_estimate(workload, cfg, self.gpu), cfg) for cfg in candidates),
            key=lambda pair: pair[0],
        )
        trials = [cfg for _, cfg in scored[:top_k]]
        if not trials:
            raise AutotuneError(
                f"no measurable configuration for {workload.describe()} on {self.gpu}"
            )
        return trials

    def _trial_program(self, workload: MatmulWorkload, cfg: MatmulConfig):
        """Instantiate the template for one trial configuration."""
        from repro.kernels import quantized_matmul_program
        from repro.quant import QuantScheme

        scheme = QuantScheme(
            workload.weight_dtype, group_size=min(workload.group_size, workload.k)
        )
        program = quantized_matmul_program(
            workload.m, workload.n, workload.k, workload.act_dtype, scheme, cfg
        )
        return program, scheme

    def _measure_config(
        self, workload: MatmulWorkload, cfg: MatmulConfig, runtime, repeats: int, rng
    ) -> float:
        """Best-of-``repeats`` wall time of one configuration on the VM."""
        from repro.dtypes import float16, uint8
        from repro.kernels import matmul_layouts
        from repro.quant import quantize_weight, transform_weight

        program, scheme = self._trial_program(workload, cfg)
        q, scales = quantize_weight(
            rng.standard_normal((workload.k, workload.n)), scheme
        )
        lay = matmul_layouts(cfg, workload.weight_dtype)
        packed = transform_weight(q, workload.weight_dtype, lay.b_warp)
        a = workload.act_dtype.quantize(
            rng.standard_normal((workload.m, workload.k))
        )
        args = [
            runtime.upload(a, workload.act_dtype),
            runtime.upload(packed, uint8),
            runtime.upload(float16.quantize(scales), float16),
            runtime.empty([workload.m, workload.n], workload.act_dtype),
        ]
        # Untimed warmup: the first launch of a fresh configuration pays
        # the one-time lowering/compile cost (a specialization-cache
        # miss).  Folding that into the timed loop inflates the first
        # sample and, with min-of-repeats, silently biases single-repeat
        # measurements; every timed launch below hits the spec cache.
        runtime.launch(program, args)
        elapsed = math.inf
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            runtime.launch(program, args)
            elapsed = min(elapsed, time.perf_counter() - start)
        return elapsed

    def tune_measured(
        self,
        workload: MatmulWorkload,
        runtime=None,
        top_k: int = 3,
        repeats: int = 3,
    ) -> AutotuneResult:
        """Refine the analytical ranking by executing the top candidates.

        The ``top_k`` analytically best configurations are instantiated as
        real VM programs and launched ``repeats`` times each on the given
        (or a fresh) :class:`~repro.runtime.Runtime`; the fastest measured
        wall-clock wins.  Every repeat of a trial after the first is a
        specialization-cache hit: a trial launches one program object.
        Results are memoized per workload key.
        """
        import numpy as np

        from repro.runtime import Runtime

        key = self._key(workload) + ("measured",)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        trials = self._trial_configs(workload, top_k)
        runtime = runtime if runtime is not None else Runtime()
        rng = np.random.default_rng(0)
        best_cfg, best_time = None, math.inf
        for cfg in trials:
            elapsed = self._measure_config(workload, cfg, runtime, repeats, rng)
            if elapsed < best_time:
                best_cfg, best_time = cfg, elapsed
        result = AutotuneResult(best_cfg, best_time, len(trials))
        self._cache_put(key, result)
        return result
