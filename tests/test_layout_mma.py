"""Tensor-core instruction layouts and ldmatrix compatibility."""

import pytest

from repro.errors import LayoutError
from repro.layout import (
    MMA_CONFIGS,
    MmaConfig,
    ldmatrix_m8n8_layout,
    ldmatrix_unit_layout,
    local,
    mma_m16n8k8,
    mma_m16n8k16,
    spatial,
    supports_ldmatrix,
)


class TestMmaConfigs:
    def test_m16n8k8_shapes(self):
        cfg = mma_m16n8k8()
        assert (cfg.m, cfg.n, cfg.k) == (16, 8, 8)
        assert cfg.a_layout.shape == (16, 8)
        assert cfg.b_layout.shape == (8, 8)
        assert cfg.c_layout.shape == (16, 8)

    def test_m16n8k16_shapes(self):
        cfg = mma_m16n8k16()
        assert cfg.a_layout.shape == (16, 16)
        assert cfg.b_layout.shape == (16, 8)

    def test_all_operands_bijective_one_warp(self):
        for cfg in MMA_CONFIGS.values():
            for operand in (cfg.a_layout, cfg.b_layout, cfg.c_layout):
                assert operand.num_threads == 32
                assert operand.is_bijective()

    def test_paper_figure2_layouts(self):
        """The FP16xINT6 example's layouts are exactly the mma operands."""
        cfg = mma_m16n8k16()
        assert cfg.a_layout == local(2, 1).compose(
            local(1, 2)
        ).compose(spatial(8, 4)).compose(local(1, 2)) or cfg.a_layout.equivalent(
            # column_local(2,2).spatial(8,4).local(1,2) as written in Fig 2
            __import__("repro.layout", fromlist=["column_local"]).column_local(2, 2)
            .spatial(8, 4)
            .local(1, 2)
        )

    def test_shape_validation(self):
        with pytest.raises(LayoutError):
            MmaConfig(
                name="bad",
                m=16,
                n=8,
                k=8,
                a_layout=local(2, 2),  # wrong shape
                b_layout=mma_m16n8k8().b_layout,
                c_layout=mma_m16n8k8().c_layout,
            )


class TestLdmatrix:
    def test_unit_layouts(self):
        assert ldmatrix_unit_layout().shape == (8, 16)
        assert ldmatrix_m8n8_layout().shape == (8, 8)

    def test_unit_is_self_compatible(self):
        assert supports_ldmatrix(ldmatrix_unit_layout())
        assert supports_ldmatrix(ldmatrix_m8n8_layout())

    def test_mma_a_layout_compatible(self):
        assert supports_ldmatrix(mma_m16n8k16().a_layout)
        assert supports_ldmatrix(mma_m16n8k8().a_layout)

    def test_c_layout_compatible(self):
        assert supports_ldmatrix(mma_m16n8k16().c_layout)

    def test_plain_spatial_not_compatible(self):
        assert not supports_ldmatrix(spatial(4, 8))

    def test_wrong_rank_rejected(self):
        assert not supports_ldmatrix(local(128))
