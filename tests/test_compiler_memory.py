"""Shared-memory planning (Section 8.1 step 1)."""

import pytest

from repro.compiler import plan_shared_memory
from repro.dtypes import float16, float32, uint8
from repro.errors import CompilationError
from repro.lang import ProgramBuilder, pointer
from repro.layout import spatial


class TestSharedPlanner:
    def test_offsets_are_disjoint_and_aligned(self):
        pb = ProgramBuilder("p", grid=[1])
        a = pb.allocate_shared(float16, [32, 32])   # 2048 B
        b = pb.allocate_shared(uint8, [100])        # 100 B
        c = pb.allocate_shared(float32, [16, 16])   # 1024 B
        prog = pb.finish()
        plan = plan_shared_memory(prog)
        offs = [plan.offset_of(t) for t in (a, b, c)]
        assert all(o % 16 == 0 for o in offs)
        spans = sorted(zip(offs, [2048, 112, 1024]))
        for (o1, s1), (o2, _) in zip(spans, spans[1:]):
            assert o1 + s1 <= o2
        assert plan.total_bytes >= 2048 + 112 + 1024

    def test_free_enables_reuse(self):
        pb = ProgramBuilder("reuse", grid=[1])
        a = pb.allocate_shared(float16, [64, 32])  # 4096 B
        pb.free_shared(a)
        b = pb.allocate_shared(float16, [64, 32])
        prog = pb.finish()
        plan = plan_shared_memory(prog)
        assert plan.offset_of(b) == plan.offset_of(a)
        assert plan.total_bytes == 4096

    def test_no_reuse_without_free(self):
        pb = ProgramBuilder("noreuse", grid=[1])
        a = pb.allocate_shared(float16, [64, 32])
        b = pb.allocate_shared(float16, [64, 32])
        prog = pb.finish()
        plan = plan_shared_memory(prog)
        assert plan.offset_of(a) != plan.offset_of(b)
        assert plan.total_bytes == 8192

    def test_partial_reuse_first_fit(self):
        pb = ProgramBuilder("ff", grid=[1])
        a = pb.allocate_shared(float16, [64, 32])  # 4096
        b = pb.allocate_shared(uint8, [256])       # 256
        pb.free_shared(a)
        c = pb.allocate_shared(uint8, [1000])      # fits in a's hole
        prog = pb.finish()
        plan = plan_shared_memory(prog)
        assert plan.offset_of(c) == plan.offset_of(a)
        assert plan.total_bytes == 4096 + 256

    def test_capacity_enforced(self):
        pb = ProgramBuilder("big", grid=[1])
        pb.allocate_shared(float16, [256, 256])  # 128 KiB
        prog = pb.finish()
        with pytest.raises(CompilationError, match="shared memory"):
            plan_shared_memory(prog, capacity_bytes=64 * 1024)

    def test_loop_allocation_planned_once(self):
        pb = ProgramBuilder("loop", grid=[1])
        with pb.for_range(8):
            pb.allocate_shared(float16, [16, 16])
        prog = pb.finish()
        plan = plan_shared_memory(prog)
        assert plan.total_bytes == 512

    def test_missing_tensor_raises(self):
        pb = ProgramBuilder("x", grid=[1])
        prog = pb.finish()
        plan = plan_shared_memory(prog)
        from repro.ir import TensorType, TensorVar
        from repro.ir.scope import MemoryScope

        ghost = TensorVar("g", TensorType(MemoryScope.SHARED, float16, (4, 4)))
        with pytest.raises(CompilationError):
            plan.offset_of(ghost)
