"""Differential fuzz suite: all execution modes ≡ sequential interpreter.

Every case is a randomized generated program (mixed dtypes including
sub-byte, control flow, shared-memory staging, register reinterpretation,
tensor-core tiles) — or a full kernel-template instantiation
(software-pipelined matmul, split-k partial/reduce pair) — executed by
the sequential interpreter, the grid-vectorized batched executor, the
multi-stream runtime, the execution-graph capture-and-replay path, and
the JIT compiled tier (pass-pipeline lowering to straight-line
compiled kernels, with batched fallback on bailout), and compared
**bit-for-bit**, plus execution-stat parity.  This is the safety net
behind the batched executor, the stream subsystem, the graph subsystem,
the compiled tier, and any future refactor of any engine.  The same
cases carry the graph subsystem's property that stream labels decide
nothing; the replicated cases carry a second — whether a stack's
launches share an input pointer decides nothing.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.ir.stmt import ForStmt
from repro.vm import select_engine
from tests.harness import generate_case, run_differential
from tests.harness.differential import (
    MODES,
    _run_engine,
    check_labels_decide_nothing,
    check_sharing_decides_nothing,
)
from tests.harness.generator import SHARING_FORMS

#: Number of generated programs in the suite (acceptance floor: 250).
NUM_CASES = 256

#: Program families the generator must cover (baseline — CI fails if the
#: family count ever drops below this set).
BASELINE_FAMILIES = {
    "pipeline",
    "subbyte_view",
    "shared",
    "dot",
    "reduce",
    "lookup",
    "pipelined_matmul",
    "splitk",
}

#: Execution modes the harness must lock together (baseline — CI fails if
#: a mode is ever dropped, the same way the family set is guarded).
BASELINE_MODES = {
    "sequential",
    "batched",
    "stream",
    "graph-replay",
    "jit",
}

#: Replicated cases (one plan issued 5..8 times) whose ``jit`` mode ran
#: at least one *stacked* compiled kernel — several launches of one
#: specialization in one lowered call.  Pinned (the harness gates the
#: streams, so coalescing is deterministic): CI fails if the stacked
#: compiled path's coverage drops, the way the mode set is guarded.
BASELINE_STACKED_COMPILED_CASES = 14


@pytest.mark.parametrize("seed", range(NUM_CASES))
def test_engines_agree_bit_exactly(seed):
    case = generate_case(seed)
    run_differential(case)


#: The generated cases whose plan issues more than one launch (split-k
#: pairs and the replicated plans): the ones where stream labels can
#: differ at all and where a graph has groups to form.
MULTI_LAUNCH_SEEDS = [
    seed for seed in range(NUM_CASES) if len(generate_case(seed).launch_plan()) > 1
]


@pytest.mark.parametrize("seed", MULTI_LAUNCH_SEEDS)
def test_stream_labels_decide_nothing(seed):
    check_labels_decide_nothing(generate_case(seed))


#: The seeds whose plan is issued several times over: the stacks.
REPLICATED_SEEDS = [
    seed for seed in range(NUM_CASES) if generate_case(seed).copies > 1
]


@pytest.mark.parametrize("seed", REPLICATED_SEEDS)
def test_sharing_an_input_pointer_decides_nothing(seed):
    check_sharing_decides_nothing(seed)


def test_replicated_cases_take_the_sharing_forms_in_turn():
    """The differential run itself (not only the property) keeps the
    stack with nothing in common and the partly shared one covered: the
    replicated seeds alternate the three forms, and each form is some
    seed's alone (with one input, ``mixed`` is ``shared``)."""

    def specs(case):
        return [spec for _, spec in case.launch_plan()]

    taken = {name: [] for name in SHARING_FORMS}
    for seed in REPLICATED_SEEDS:
        default = specs(generate_case(seed))
        forms = [n for n in SHARING_FORMS if specs(generate_case(seed, n)) == default]
        if len(forms) == 1:
            taken[forms[0]].append(seed)
    assert all(taken.values()), taken


def test_the_graph_properties_see_every_multi_launch_family():
    assert len(MULTI_LAUNCH_SEEDS) >= NUM_CASES // 8
    assert {generate_case(seed).family for seed in MULTI_LAUNCH_SEEDS} >= {
        "splitk", "pipelined_matmul", "dot",
    }


def test_suite_meets_case_floor():
    assert NUM_CASES >= 250


def test_suite_covers_all_execution_modes():
    assert set(MODES) == BASELINE_MODES


def test_jit_mode_executes_stacked_compiled_groups():
    replicated = [
        case for case in map(generate_case, range(NUM_CASES)) if case.copies > 1
    ]
    assert len(replicated) == NUM_CASES // 16
    stacked = [case.seed for case in replicated if _run_engine(case, "jit")[2]]
    assert len(stacked) == BASELINE_STACKED_COMPILED_CASES, stacked


def test_generator_covers_all_families():
    families = Counter(generate_case(seed).family for seed in range(NUM_CASES))
    assert set(families) == BASELINE_FAMILIES
    # Every family contributes a meaningful number of cases.
    assert all(count >= 10 for count in families.values()), families


def test_generator_exercises_subbyte_dtypes():
    subbyte = {
        dt.name
        for seed in range(NUM_CASES)
        for _, dt in generate_case(seed).inputs
        if dt.is_subbyte
    }
    assert len(subbyte) >= 3, subbyte


def test_splitk_cases_are_multi_launch():
    # Every split-k case is a two-launch plan (per replicated copy) with
    # a RAW dependency through the workspace buffer — the stream mode's
    # hazard coverage.
    found = 0
    for seed in range(NUM_CASES):
        case = generate_case(seed)
        if case.family != "splitk":
            continue
        found += 1
        plan = case.launch_plan()
        assert len(plan) == 2 * case.copies
        (_, partial_args), (_, reduce_args) = plan[:2]
        assert partial_args[-1] == reduce_args[0]  # shared workspace buffer
    assert found >= 10


def test_generated_programs_select_batched_engine():
    # The auto policy must route every generated program to the batched
    # engine (none of them has block-varying view shapes).
    case = generate_case(0)
    assert select_engine(case.program) == "batched"


#: Harness cases of the two matmul families whose k-loop — the ``cp.async``
#: ring, or the split-k slice's ``kt = base + t`` — has two or more steps:
#: every one distributes, on both tiers (counted at seeds 0..255; 16 more
#: split-k cases have one k-tile per slice).
BASELINE_DISTRIBUTED_MATMUL_CASES = {"pipelined_matmul": 27, "splitk": 12}


def test_every_matmul_k_loop_distributes():
    """A census of loop distribution over the harness's matmul families:
    the first launch of every ``pipelined_matmul`` and ``splitk`` case
    runs its k-loop distributed on the batched engine and in the
    compiled tier's lowering trace, not unrolled — every one whose loop
    has two or more steps (a split-k slice of one k-tile has one)."""
    from repro.compiler.lower import lower_program
    from repro.vm import BatchedExecutor, batched
    from tests.harness.differential import _device_image, _resolve_args

    original = batched.TileWalk.distributed
    taken: list = []

    def spy(self, loop, extent, active):
        taken.append(original(self, loop, extent, active))
        return taken[-1]

    counts = {tier: Counter() for tier in ("batched", "compiled")}
    with mock.patch.object(batched.TileWalk, "distributed", spy):
        for seed in range(NUM_CASES):
            case = generate_case(seed)
            if case.family not in BASELINE_DISTRIBUTED_MATMUL_CASES:
                continue
            program, spec = case.launch_plan()[0]
            (loop,) = [s for s in program.body.walk() if isinstance(s, ForStmt)]
            if int(loop.extent.value) < 2:
                continue
            for tier in counts:
                memory, _, buffers, _ = _device_image(case)
                args = _resolve_args(spec, buffers)
                taken.clear()
                if tier == "batched":
                    BatchedExecutor(memory).launch(program, args)
                else:
                    lower_program(program, args, memory)
                assert taken == [True], (tier, seed, case.family)
                counts[tier][case.family] += 1
    assert counts["batched"] == counts["compiled"] == BASELINE_DISTRIBUTED_MATMUL_CASES
