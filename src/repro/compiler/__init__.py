"""Compiler: verification, simplification, memory planning, instruction
selection, low-precision lowering and CUDA code generation."""

from repro.compiler.banks import (
    XorSwizzle,
    bank_of,
    conflict_degree,
    default_swizzle,
    recommend_swizzle,
    shared_load_conflicts,
)
from repro.compiler.codegen import cuda_type, expr_to_c, generate_cuda
from repro.compiler.dce import eliminate_dead_code
from repro.compiler.lower import (
    PASS_NAMES,
    LoweredKernel,
    LoweringBailout,
    lower_program,
)
from repro.compiler.lowprec import (
    CastRecipe,
    build_cast_recipe,
    cast_cost_per_element,
    fallback_load_plan,
    fallback_store_plan,
)
from repro.compiler.memory_planner import MemoryPlan, plan_shared_memory
from repro.compiler.pipeline import (
    CompiledKernel,
    compile_program,
    prepare_program,
    specialization_key,
)
from repro.compiler.selection import (
    MemoryAccess,
    SelectionReport,
    contiguous_run_elements,
    select_copy_async,
    select_instructions,
    select_memory_access,
)
from repro.compiler.simplify import simplify_expr, simplify_program
from repro.compiler.verify import VerificationReport, verify_program

__all__ = [
    "XorSwizzle",
    "bank_of",
    "conflict_degree",
    "default_swizzle",
    "recommend_swizzle",
    "shared_load_conflicts",
    "eliminate_dead_code",
    "lower_program",
    "LoweredKernel",
    "LoweringBailout",
    "PASS_NAMES",
    "compile_program",
    "prepare_program",
    "CompiledKernel",
    "specialization_key",
    "verify_program",
    "VerificationReport",
    "simplify_expr",
    "simplify_program",
    "plan_shared_memory",
    "MemoryPlan",
    "select_instructions",
    "select_memory_access",
    "select_copy_async",
    "contiguous_run_elements",
    "MemoryAccess",
    "SelectionReport",
    "build_cast_recipe",
    "cast_cost_per_element",
    "CastRecipe",
    "fallback_load_plan",
    "fallback_store_plan",
    "generate_cuda",
    "cuda_type",
    "expr_to_c",
]
