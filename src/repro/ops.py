"""High-level operator API: quantize, transform, prepare and run.

This is the entry point a downstream user reaches for first::

    import numpy as np
    from repro import ops
    from repro.dtypes import int6

    a = np.random.randn(32, 256).astype(np.float16)
    w = np.random.randn(256, 64)
    result = ops.quantized_matmul(a, w, weight_dtype=int6, group_size=128)

Everything happens through the real stack: the weight is quantized and
layout-transformed, the matmul template is instantiated and prepared
(verifier, simplifier, dead-code elimination), and the program is
executed bit-accurately on the VM.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.dtypes import DataType, float16, float32, uint8
from repro.kernels import (
    MatmulConfig,
    matmul_layouts,
    quantized_matmul_program,
    splitk_reduce_program,
    splitk_slice_program,
)
from repro.quant import QuantScheme, quantize_weight, transform_weight
from repro.runtime import Runtime


@dataclass
class QuantizedLinear:
    """A reusable quantized-weight operator (weights resident on device).

    Programs are memoized per activation row count ``m``, and a program
    is prepared once (on itself, at its first launch), so repeated calls
    are launch-only — no template re-instantiation and no compiler pass
    on the hot path.

    With ``config.split_k >= 2`` the product runs as ``split_k``
    independent slice kernels plus a reduce kernel
    (:mod:`repro.kernels.splitk`), all issued as ``stream="auto"``
    launches: the slices write disjoint workspace slabs, so the drain
    stacks them into one batched invocation (their ``k0`` scalars
    differ, so a forced compiled tier runs them one by one), and the
    reduce is hazard-ordered behind them.  Waiting on the reduce is the
    drain point that runs them.

    **Buffer lifetime.**  A call allocates its activation, its output and
    (split-k) its f32 partials, and frees them once the result is
    downloaded — every launch of the call has retired by then — and the
    next call's buffers of the same sizes reuse the spans
    (:meth:`~repro.vm.memory.GlobalMemory.free`).  The weight and scale
    buffers live as long as the operator: they are freed when
    it is collected.  Launches the caller issues itself on ``b_addr`` /
    ``s_addr`` must keep the operator alive until they retire.
    """

    runtime: Runtime
    scheme: QuantScheme
    config: MatmulConfig
    k: int
    n: int
    b_addr: int
    s_addr: int
    act_dtype: DataType = float16

    #: Bound on memoized per-``m`` programs (oldest dropped beyond this):
    #: a program's prepared state and compiled kernels live on it, so a
    #: linear called at many row counts does not keep them all alive.
    MAX_PROGRAMS = 32

    def __post_init__(self) -> None:
        self._programs: dict = {}
        release = weakref.finalize(self, _free_all, self.runtime, self.b_addr, self.s_addr)
        release.atexit = False

    def _memoized(self, key, build):
        program = self._programs.pop(key, None)
        if program is None:
            program = build()
        self._programs[key] = program  # reinsert = most recently used
        while len(self._programs) > self.MAX_PROGRAMS:
            self._programs.pop(next(iter(self._programs)))
        return program

    def program_for(self, m: int):
        """The matmul program specialized to ``m`` rows (memoized, bounded)."""
        return self._memoized(
            m,
            lambda: quantized_matmul_program(
                m, self.n, self.k, self.act_dtype, self.scheme, self.config
            ),
        )

    def splitk_programs_for(self, m: int):
        """The (slice, reduce) program pair for ``m`` rows (memoized)."""
        return self._memoized(
            ("splitk", m),
            lambda: (
                splitk_slice_program(
                    m, self.n, self.k, self.act_dtype, self.scheme, self.config
                ),
                splitk_reduce_program(m, self.n, self.config.split_k, self.act_dtype),
            ),
        )

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """Compute ``a @ dequant(W)`` for activations ``a[m, k]``."""
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[1] != self.k:
            raise ValueError(f"activations must be [m, {self.k}], got {a.shape}")
        m = a.shape[0]
        buffers = [
            self.runtime.upload(self.act_dtype.quantize(a), self.act_dtype),
            self.runtime.empty([m, self.n], self.act_dtype),
        ]
        a_addr, c_addr = buffers
        try:
            if self.config.split_k >= 2:
                buffers.append(self.runtime.empty([self.config.split_k, m, self.n], float32))
                self._launch_splitk(m, a_addr, buffers[2], c_addr)
            else:
                program = self.program_for(m)
                self.runtime.launch(program, [a_addr, self.b_addr, self.s_addr, c_addr])
            return self.runtime.download(c_addr, [m, self.n], self.act_dtype)
        finally:
            _free_all(self.runtime, *buffers)

    def _launch_splitk(self, m: int, a_addr: int, p_addr: int, c_addr: int) -> None:
        """Queue the split-k slice launches and the reduce into
        ``c_addr``, through the f32 partials at ``p_addr``."""
        sk = self.config.split_k
        slice_prog, reduce_prog = self.splitk_programs_for(m)
        slice_bytes = m * self.n * 4
        tiles_per_slice = (self.k // self.config.block_k) // sk
        for s in range(sk):
            self.runtime.launch(
                slice_prog,
                [a_addr, self.b_addr, self.s_addr, p_addr + s * slice_bytes, s * tiles_per_slice],
                stream="auto",
            )
        # Waiting on the reduce retires every launch of the call and
        # re-raises a failure of any of them (the reduce depends on all).
        self.runtime.launch(reduce_prog, [p_addr, c_addr], stream="auto").wait()


def _free_all(runtime: Runtime, *addrs: int) -> None:
    for addr in addrs:
        runtime.free(addr)


def _default_config(weight_dtype: DataType) -> MatmulConfig:
    """Smallest tile whose per-thread weight fragment is byte-aligned.

    Odd bit widths need more elements per thread (paper Section 7.2), so
    the fallback widens the n/k tile until alignment holds.
    """
    from repro.errors import CompilationError

    for bn, bk in ((8, 16), (16, 16), (8, 32), (16, 32), (32, 32)):
        candidate = MatmulConfig(block_m=16, block_n=bn, block_k=bk)
        try:
            candidate.validate(weight_dtype)
            return candidate
        except CompilationError:
            continue
    raise CompilationError(f"no default tile configuration for {weight_dtype}")


def prepare_linear(
    weight: np.ndarray,
    weight_dtype: DataType,
    group_size: int = 128,
    config: MatmulConfig | None = None,
    runtime: Runtime | None = None,
    streams: int = 0,
) -> QuantizedLinear:
    """Quantize and device-transform a weight matrix once, for many calls.

    ``streams`` is accepted and decides nothing: every split-k call
    issues its launches the same way (see :class:`QuantizedLinear`).
    The benchmark's workloads still pass it; it goes when they stop.
    """
    weight = np.asarray(weight, dtype=np.float64)
    k, n = weight.shape
    scheme = QuantScheme(weight_dtype, group_size=min(group_size, k))
    config = config or _default_config(weight_dtype)
    runtime = runtime or Runtime()
    q, scales = quantize_weight(weight, scheme)
    lay = matmul_layouts(config, weight_dtype)
    packed = transform_weight(q, weight_dtype, lay.b_warp)
    b_addr = runtime.upload(packed, uint8)
    s_addr = runtime.upload(float16.quantize(scales), float16)
    return QuantizedLinear(
        runtime=runtime,
        scheme=scheme,
        config=config,
        k=k,
        n=n,
        b_addr=b_addr,
        s_addr=s_addr,
    )


def quantized_matmul(
    a: np.ndarray,
    weight: np.ndarray,
    weight_dtype: DataType,
    group_size: int = 128,
    config: MatmulConfig | None = None,
) -> np.ndarray:
    """One-shot quantized matmul: ``a[m,k] @ dequant(quantize(weight[k,n]))``."""
    linear = prepare_linear(weight, weight_dtype, group_size, config)
    return linear(a)


def reference_quantized_matmul(
    a: np.ndarray,
    weight: np.ndarray,
    weight_dtype: DataType,
    group_size: int = 128,
) -> np.ndarray:
    """Numpy reference of the same computation (float16 scales)."""
    from repro.quant import dequantize_weight

    weight = np.asarray(weight, dtype=np.float64)
    k = weight.shape[0]
    scheme = QuantScheme(weight_dtype, group_size=min(group_size, k))
    q, scales = quantize_weight(weight, scheme)
    deq = dequantize_weight(q, float16.quantize(scales), scheme)
    return float16.quantize(np.asarray(a, dtype=np.float64) @ deq)
