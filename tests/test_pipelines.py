"""Weight-loading pipeline models (paper Figure 1)."""

from repro.dtypes import uint4, uint8
from repro.perf import (
    L40S,
    PIPELINES,
    ladder_pipeline,
    tilus_pipeline,
    triton_pipeline,
)

TILE = 16 * 8  # one mma-sized weight tile
FIG1_TILE = 64 * 64  # one staged weight tile of Figure 1's stage table


class TestStageStructure:
    def test_triton_has_conversion_bottleneck(self):
        p = triton_pipeline(TILE, uint4)
        assert len(p.stages) == 4
        bottleneck = p.bottleneck()
        assert bottleneck is not None
        assert "convert layout" in bottleneck.name
        assert not bottleneck.pipelined

    def test_ladder_has_no_pipelined_stage(self):
        p = ladder_pipeline(TILE, uint4)
        assert all(not s.pipelined for s in p.stages)
        assert p.bottleneck().name.startswith("ldg")

    def test_tilus_fully_pipelined(self):
        p = tilus_pipeline(TILE, uint4)
        assert all(s.pipelined for s in p.stages)
        assert p.serial_bytes() == 0.0
        assert p.bottleneck() is None

    def test_tilus_view_stage_free(self):
        p = tilus_pipeline(TILE, uint4)
        view = next(s for s in p.stages if "View" in s.name)
        assert view.bytes_moved == 0.0


class TestCriticalPath:
    def test_ordering_matches_figure1(self):
        """Per-tile critical time: Tilus < Triton < Ladder for u4."""
        tilus = tilus_pipeline(TILE, uint4).critical_time(L40S)
        triton = triton_pipeline(TILE, uint4).critical_time(L40S)
        ladder = ladder_pipeline(TILE, uint4).critical_time(L40S)
        assert tilus == 0.0
        assert tilus < triton
        # Ladder's GMEM stage at DRAM bandwidth dominates Triton's SMEM
        # conversion for this tile size.
        assert ladder > 0

    def test_conversion_cost_independent_of_weight_width(self):
        """Triton's conversion moves f16 data: same cost for u2 and u8."""
        from repro.dtypes import uint2

        c2 = triton_pipeline(TILE, uint2)
        c8 = triton_pipeline(TILE, uint8)
        conv2 = next(s for s in c2.stages if s.is_bottleneck).bytes_moved
        conv8 = next(s for s in c8.stages if s.is_bottleneck).bytes_moved
        assert conv2 == conv8

    def test_total_bytes_scale_with_width(self):
        p2 = tilus_pipeline(TILE, uint8)
        p1 = tilus_pipeline(TILE, uint4)
        assert p2.total_bytes() == 2 * p1.total_bytes()


class TestFigure1Tile:
    def test_serial_bytes_per_system(self):
        """Tilus: no serial work; Triton: the conversion's two f16
        passes; Ladder: everything serial, more than Triton."""
        serial = {
            name: factory(FIG1_TILE, uint4).serial_bytes()
            for name, factory in PIPELINES.items()
        }
        assert serial["tilus"] == 0
        assert serial["triton"] == 2 * FIG1_TILE * 2
        assert serial["ladder"] > serial["triton"]

    def test_critical_times(self):
        t = {
            name: factory(FIG1_TILE, uint4).critical_time(L40S)
            for name, factory in PIPELINES.items()
        }
        assert t["tilus"] == 0.0
        assert t["tilus"] < t["triton"] < t["ladder"] * 10


class TestScopes:
    def test_stage_scopes_match_figure(self):
        p = tilus_pipeline(TILE, uint4)
        assert [(s.src, s.dst) for s in p.stages] == [
            ("GMEM", "SMEM"),
            ("SMEM", "REGS"),
            ("REGS", "REGS"),
            ("REGS", "REGS"),
        ]

    def test_ladder_skips_smem_on_load(self):
        p = ladder_pipeline(TILE, uint4)
        assert (p.stages[0].src, p.stages[0].dst) == ("GMEM", "REGS")
