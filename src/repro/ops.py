"""High-level operator API: quantize, transform, compile and run.

This is the entry point a downstream user reaches for first::

    import numpy as np
    from repro import ops
    from repro.dtypes import int6

    a = np.random.randn(32, 256).astype(np.float16)
    w = np.random.randn(256, 64)
    result = ops.quantized_matmul(a, w, weight_dtype=int6, group_size=128)

Everything happens through the real stack: the weight is quantized and
layout-transformed, the matmul template is instantiated and compiled
(verifier, planners, instruction selection, CUDA emission), and the
program is executed bit-accurately on the VM.
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


class _NullCapture:
    """Context stand-in when graph capture is disabled: launches inside
    the block execute eagerly and no graph is produced."""

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


@dataclass
class QuantizedLinear:
    """A reusable quantized-weight operator (weights resident on device).

    Programs are memoized per activation row count ``m``; combined with the
    runtime's specialization cache this makes repeated calls launch-only —
    no template re-instantiation and no re-lowering on the hot path.

    With ``config.split_k >= 2`` the product runs as ``split_k``
    independent slice kernels plus a reduce kernel
    (:mod:`repro.kernels.splitk`); ``streams > 0`` issues each slice on
    its own stream of the runtime's pool (the slices write disjoint
    workspace slabs, so they execute concurrently, and the reduce is
    hazard-ordered behind all of them automatically).

    The streamed split-k fan-out is **graph-captured** (``use_graphs``,
    on by default): the first call for a row count ``m`` records the
    slice + reduce launch DAG once (:mod:`repro.runtime.graphs`), and
    every later call replays it with the activation, workspace and
    output pointers rebound — per-call scheduling, hazard analysis and
    coalescing decisions are all skipped.

    **Buffer lifetime.**  A call allocates its activation, its output and
    (split-k) its f32 partials, and frees them once the result is
    downloaded — the download retires every launch of the call, a graph
    replay included, and the next call's buffers of the same sizes reuse
    the spans (:meth:`~repro.vm.memory.GlobalMemory.free`).  The weight
    and scale buffers live as long as the operator: they are freed when
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
    #: Streams to spread split-k slices over (0 = synchronous launches).
    streams: int = 0
    #: Capture the streamed split-k DAG once per ``m`` and replay it.
    use_graphs: bool = True

    #: Bound on memoized per-``m`` programs (oldest evicted beyond this),
    #: mirroring the runtime cache's LRU bound one layer down.
    MAX_PROGRAMS = 32

    def __post_init__(self) -> None:
        self._programs: dict = {}
        self._graphs: dict = {}
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
        """Issue the split-k slice launches (one stream per slice when
        streaming) and the hazard-ordered reduce into ``c_addr``, through
        the f32 partials at ``p_addr``.

        When streaming with ``use_graphs``, the fan-out is captured as an
        execution graph on the first call per ``m`` and replayed (with
        the a/p/c buffers rebound) on every later call.
        """
        sk = self.config.split_k
        slice_prog, reduce_prog = self.splitk_programs_for(m)
        slice_bytes = m * self.n * 4
        tiles_per_slice = (self.k // self.config.block_k) // sk
        if self.streams > 0:
            pool = self.runtime.stream_pool(self.streams)
            graph = self._graphs.get(m) if self.use_graphs else None
            if graph is not None:
                graph.replay({"a": a_addr, "p": p_addr, "c": c_addr})
                return
            capture = (
                self.runtime.capture(self.streams)
                if self.use_graphs
                else _NullCapture()
            )
            with capture as g:
                for s in range(sk):
                    self.runtime.launch(
                        slice_prog,
                        [
                            a_addr,
                            self.b_addr,
                            self.s_addr,
                            p_addr + s * slice_bytes,
                            s * tiles_per_slice,
                        ],
                        stream=pool.streams[s % len(pool.streams)],
                    )
                self.runtime.launch(reduce_prog, [p_addr, c_addr], stream="auto").wait()
            if g is not None:
                a_bytes = (m * self.k * self.act_dtype.nbits + 7) // 8
                c_bytes = (m * self.n * self.act_dtype.nbits + 7) // 8
                g.bind("a", a_addr, a_bytes)
                g.bind("p", p_addr, sk * slice_bytes)
                g.bind("c", c_addr, c_bytes)
                self._graphs[m] = g
                while len(self._graphs) > self.MAX_PROGRAMS:
                    self._graphs.pop(next(iter(self._graphs)))
                g.replay()  # first call executes via the fresh graph
        else:
            for s in range(sk):
                self.runtime.launch(
                    slice_prog,
                    [
                        a_addr,
                        self.b_addr,
                        self.s_addr,
                        p_addr + s * slice_bytes,
                        s * tiles_per_slice,
                    ],
                )
            self.runtime.launch(reduce_prog, [p_addr, c_addr])


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

    ``streams`` (with a ``config`` whose ``split_k >= 2``) spreads the
    split-k slice kernels over that many runtime streams per call.
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
        streams=streams,
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
