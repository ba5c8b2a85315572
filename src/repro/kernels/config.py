"""Kernel hyperparameters: the tunable tile configuration.

The paper generates *all* quantized matmul kernels from one VM program
template parameterized by tile sizes (Section 9.2, "a single parameterized
Tilus program template").  :class:`MatmulConfig` is that parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dtypes import DataType
from repro.errors import CompilationError
from repro.layout import MMA_CONFIGS, WARP_SIZE, MmaConfig


@dataclass(frozen=True)
class MatmulConfig:
    """Tile sizes and scheduling knobs for the quantized matmul template.

    Attributes:
        block_m/block_n/block_k: thread-block tile sizes.
        warps_m/warps_n: warp grid within the block (warps = warps_m * warps_n).
        num_stages: software pipelining depth; 1 disables shared-memory
            staging (registers are loaded straight from global memory as in
            paper Figure 2), >= 2 enables ``cp.async`` multi-buffering.
        split_k: k-dimension parallelization factor (Stream-K style); each
            of the ``split_k`` block groups reduces a K/split_k slice and
            partial results are combined through the global workspace.
    """

    block_m: int = 16
    block_n: int = 8
    block_k: int = 16
    warps_m: int = 1
    warps_n: int = 1
    num_stages: int = 1
    split_k: int = 1

    @property
    def num_warps(self) -> int:
        return self.warps_m * self.warps_n

    @property
    def num_threads(self) -> int:
        return self.num_warps * WARP_SIZE

    @property
    def warp_n(self) -> int:
        """Columns owned by one warp."""
        return self.block_n // self.warps_n

    @property
    def warp_m(self) -> int:
        """Rows owned by one warp."""
        return self.block_m // self.warps_m

    def mma(self) -> MmaConfig:
        """The ``mma.m16n8k16`` atom, built once (:data:`MMA_CONFIGS`)."""
        return MMA_CONFIGS["mma.m16n8k16"]

    def validate(self, weight_dtype: DataType) -> None:
        """Raise :class:`CompilationError` when the config cannot express a
        valid kernel for the given weight type."""
        mma = self.mma()
        if self.block_m % (self.warps_m * mma.m) != 0:
            raise CompilationError(
                f"block_m={self.block_m} must be a multiple of warps_m*{mma.m}"
            )
        if self.block_n % (self.warps_n * mma.n) != 0:
            raise CompilationError(
                f"block_n={self.block_n} must be a multiple of warps_n*{mma.n}"
            )
        if self.block_k % mma.k != 0:
            raise CompilationError(f"block_k={self.block_k} must be a multiple of {mma.k}")
        if self.num_stages < 1:
            raise CompilationError("num_stages must be >= 1")
        if self.split_k < 1:
            raise CompilationError("split_k must be >= 1")
        # The weight fragment of each thread must be byte-aligned for the
        # u8 reinterpretation (paper Section 7.2).
        rk = self.block_k // mma.k
        rn = self.warp_n // mma.n
        locals_per_thread = rk * rn * mma.b_layout.local_size
        bits = locals_per_thread * weight_dtype.nbits
        if bits % 8 != 0:
            raise CompilationError(
                f"weight tile holds {bits} bits per thread for {weight_dtype}; "
                f"pick block_k/block_n so bits-per-thread is byte-aligned"
            )

    def shared_bytes(self, act_bits: int, weight_bits: int) -> int:
        """Shared-memory footprint of the staged pipeline (bytes)."""
        if self.num_stages < 2:
            return 0
        a_bytes = self.block_m * self.block_k * act_bits // 8
        b_bytes = self.block_k * self.block_n * weight_bits // 8
        return self.num_stages * (a_bytes + b_bytes)

    def describe(self) -> str:
        return (
            f"BM{self.block_m}xBN{self.block_n}xBK{self.block_k}"
            f"_w{self.warps_m}x{self.warps_n}_s{self.num_stages}_k{self.split_k}"
        )


def default_configs() -> list[MatmulConfig]:
    """The tuning space: ~200 configurations per operator (paper 9.3)."""
    configs = []
    for bm in (16, 32, 64, 128):
        for bn in (8, 16, 32, 64, 128):
            for bk in (16, 32, 64):
                for wm, wn in ((1, 1), (2, 1), (1, 2), (2, 2), (4, 1), (2, 4)):
                    for stages in (1, 2, 3):
                        cfg = MatmulConfig(bm, bn, bk, wm, wn, stages)
                        if bm % (wm * 16) or bn % (wn * 8) or cfg.num_warps > 8:
                            continue
                        configs.append(cfg)
    return configs
