#!/usr/bin/env python3
"""Where a compiled kernel's time goes, statement by statement.

``python tools/kernel_profile.py --m B`` lowers the serving decode
linear (``WorkerSpec(jit=True)``: i6 x f16, k=64, n=16) as one
``program_for(B)`` launch over a ``[B, k]`` activation matrix — the
form serving takes: a served decode step is one such launch with
``B = max_batch`` (8 by default).  ``python tools/kernel_profile.py
--launches G [--program decode|<seed>] [--private]`` lowers one kernel
as ``G`` stacked launches instead — ``decode`` is ``G`` launches of the
decode linear's ``program_for(1)`` (the per-request reference path's
group form), a number is that seed's differential-harness case.

Either kernel runs with a timer around every emitted statement: 300
runs after 50 warm-ups, the median microseconds of each statement
beside the rows (leading axis) of the array it makes, and the share
each tile-semantics table entry (``_gb``, ``_viewp``, ``_tab`` ...)
owns.  The same kernel at a quarter of ``B`` or ``G`` is timed beside
it: a statement whose time does not move with a quarter of the rows is
call-bound (numpy's per-call overhead), one that shrinks towards a
quarter is data-bound.

With ``--launches``, the launches read their inputs (the decode linear's weights and scales)
through one pointer, as a serving step's do, and the kernel is lowered
with that shared set — what the launch seam asks the JIT for — so the
weight side of the table holds one launch's rows.  ``--private`` gives
every launch its own copy instead: nothing is shared and the table is
the stacked form's.  The last line prints ``run_many`` for both.
``--private`` has no meaning for ``--m``: one launch shares nothing.

Statements run one at a time in a dict namespace, so their sum reads a
little above the whole kernel's ``run_many`` median.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

import numpy as np  # noqa: E402

from repro.compiler.lower import _HELPERS, LoweringBailout, lower_program  # noqa: E402
from repro.dtypes import uint8  # noqa: E402
from repro.ir import instructions as insts  # noqa: E402
from repro.runtime.executor import shared_pointers  # noqa: E402
from repro.vm import tileops  # noqa: E402
from repro.vm.interp import ExecutionStats  # noqa: E402

RUNS, WARMUPS = 300, 50
_TARGET = re.compile(r"(t\d+) = ")
_ENTRY = re.compile(r"\b(" + "|".join(sorted(tileops.KERNEL_NAMESPACE)) + r")\(")


def decode_linear():
    from repro.serving import WorkerSpec

    return WorkerSpec(jit=True, num_streams=8).build_simulator().decode_linear


def decode_step(m: int):
    """The serving decode linear's ``program_for(m)`` and its one launch
    over an ``[m, k]`` activation and an ``[m, n]`` output matrix."""
    linear = decode_linear()
    runtime = linear.runtime
    args = [
        runtime.upload(np.random.default_rng(0).standard_normal((m, linear.k)), linear.act_dtype),
        linear.b_addr,
        linear.s_addr,
        runtime.empty([m, linear.n], linear.act_dtype),
    ]
    return linear.program_for(m), runtime.memory, [args]


def decode_launches(launches: int, private: bool = False):
    """The serving decode linear and ``launches`` independent launches
    of it (one activation row and one output each) on the linear's
    weights and scales — or, ``private``, each on its own copy of them."""
    linear = decode_linear()
    runtime, program = linear.runtime, linear.program_for(1)
    rng = np.random.default_rng(0)

    def operand(param, addr: int, launch: int) -> int:
        if not (private and launch):
            return addr
        (view,) = (
            inst.out.ttype for inst in program.body.instructions()
            if isinstance(inst, insts.ViewGlobal) and inst.ptr is param
        )
        nbytes = tileops.tensor_nbytes(view.shape, view.dtype, "global")
        return runtime.upload(runtime.memory.buffer[addr : addr + nbytes].copy(), uint8)

    args_list = [
        [
            runtime.upload(rng.standard_normal((1, linear.k)), linear.act_dtype),
            operand(program.params[1], linear.b_addr, launch),
            operand(program.params[2], linear.s_addr, launch),
            runtime.empty([1, linear.n], linear.act_dtype),
        ]
        for launch in range(launches)
    ]
    return program, runtime.memory, args_list


def harness_launches(seed: int, launches: int, private: bool = False):
    """The first launch of harness case ``seed``, ``launches`` times over
    into separate outputs, on the shared inputs or on ``private`` copies."""
    from tests.harness import generate_case
    from tests.harness.differential import _device_image, _resolve_args

    case = generate_case(seed)
    if case.copies > 1:
        raise SystemExit(f"case {seed} is already a replicated plan; pick another seed")
    per_copy = len(case.launch_plan())
    case = case.replicated(launches, range(len(case.inputs)) if private else ())
    memory, _host, buffers, _outs = _device_image(case)
    plan = case.launch_plan()[::per_copy]
    return plan[0][0], memory, [_resolve_args(spec, buffers) for _, spec in plan]


def entry_of(statement: str) -> str:
    """The table entries a statement calls (``_rq+_ew``), or what else it is."""
    if statement.startswith("del "):
        return "del"
    if statement.startswith("stats."):
        return "stats"
    names = _ENTRY.findall(statement)
    return "+".join(dict.fromkeys(names)) if names else "numpy"


def lower(program, memory, args_list):
    """The kernel the launch seam would ask for: ``args_list`` stacked,
    sharing the pointers every launch passes the same value for."""
    return lower_program(
        program, args_list[0], memory, launches=len(args_list),
        shared=shared_pointers(program, args_list),
    )


def run_many_us(kernel, memory, args_list) -> float:
    """Median microseconds of the whole kernel."""
    clock = time.perf_counter
    whole = []
    for run in range(-WARMUPS, RUNS):
        start = clock()
        kernel.run_many(memory, args_list)
        if run >= 0:
            whole.append(clock() - start)
    return float(np.median(whole)) * 1e6


def profile(program, memory, args_list):
    """Lower and time: ``(statements, rows of each statement's array,
    median us of each, whole-kernel median us, lowering ms)``."""
    start = time.perf_counter()
    kernel = lower(program, memory, args_list)
    lower_ms = (time.perf_counter() - start) * 1e3
    # run_many validates and builds the pointer arguments; keep them.
    seen = {}
    probe = dataclasses.replace(kernel, _fn=lambda mem, ptrs, stats: seen.update(ptrs=ptrs))
    probe.run_many(memory, args_list)
    statements = [line.strip() for line in kernel.source.splitlines()[1:]]
    codes = [compile(s, "<statement>", "exec") for s in statements]
    namespace = dict(_HELPERS, **kernel.consts)
    samples = np.empty((RUNS, len(codes)))
    rows = [""] * len(codes)
    clock = time.perf_counter
    for run in range(-WARMUPS, RUNS):
        namespace.update(mem=memory.buffer, ptrs=seen["ptrs"], stats=ExecutionStats())
        for i, code in enumerate(codes):
            start = clock()
            exec(code, namespace)  # noqa: S102 - the kernel's own source
            if run >= 0:
                samples[run, i] = clock() - start
            elif run == -WARMUPS and _TARGET.match(statements[i]):
                made = namespace[_TARGET.match(statements[i]).group(1)]
                rows[i] = str(made.shape[0]) if np.ndim(made) else ""
    whole = run_many_us(kernel, memory, args_list)
    return statements, rows, np.median(samples, axis=0) * 1e6, whole, lower_ms


def by_entry(statements, micros) -> dict:
    totals: dict = {}
    for statement, us in zip(statements, micros):
        entry = entry_of(statement)
        calls, total = totals.get(entry, (0, 0.0))
        totals[entry] = (calls + 1, total + us)
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--m", type=int, metavar="B",
                      help="one program_for(B) decode launch: what a served step runs")
    size.add_argument("--launches", type=int, metavar="G")
    parser.add_argument("--program", default="decode", help="decode (default) or a harness seed")
    parser.add_argument("--private", action="store_true",
                        help="every launch reads its own copy of the inputs (nothing shared)")
    opts = parser.parse_args(argv)
    if opts.m is not None and (opts.program != "decode" or opts.private):
        parser.error("--m profiles the decode linear's one launch: no --program, no --private")

    def build(count: int, private: bool):
        if opts.m is not None:
            return decode_step(count)
        if opts.program == "decode":
            return decode_launches(count, private)
        return harness_launches(int(opts.program), count, private)

    count = opts.launches if opts.m is None else opts.m
    small = max(1, count // 4)
    try:
        statements, rows, micros, whole, lower_ms = profile(*build(count, opts.private))
        q_statements, _, q_micros, q_whole, _ = profile(*build(small, opts.private))
        if opts.m is None:
            program, memory, args_list = build(count, not opts.private)
            other = run_many_us(lower(program, memory, args_list), memory, args_list)
    except LoweringBailout as exc:
        print(f"not lowered: {exc}")
        return 2
    label = "G" if opts.m is None else "B"
    head = f"{label}={count}"
    q_head = f"{label}={small}"
    if len(q_statements) == len(statements):
        print(f"{'line':>4} {'rows':>4} {head + ' us':>9} {q_head + ' us':>9} {'ratio':>5}  statement")
        for i, (s, r, us, q_us) in enumerate(zip(statements, rows, micros, q_micros), 1):
            if not s.startswith("del "):
                print(f"{i:>4} {r:>4} {us:>9.1f} {q_us:>9.1f} {us / max(q_us, 1e-9):>5.1f}  {s[:88]}")
        print()
    total = float(micros.sum())
    quarter = by_entry(q_statements, q_micros)
    print(f"{'entry':<12} {'calls':>5} {head + ' us':>9} {'share':>6} {q_head + ' us':>9} {'ratio':>5}")
    for entry, (calls, us) in sorted(by_entry(statements, micros).items(), key=lambda kv: -kv[1][1]):
        q_us = quarter.get(entry, (0, 0.0))[1]
        print(
            f"{entry:<12} {calls:>5} {us:>9.1f} {us / total:>6.1%} {q_us:>9.1f} "
            f"{us / max(q_us, 1e-9):>5.1f}"
        )
    if opts.m is None:
        shared_us, private_us = (other, whole) if opts.private else (whole, other)
        inputs = f" — inputs shared {shared_us:.0f} us, private {private_us:.0f} us"
    else:
        inputs = ""
    print(
        f"\n{len(statements)} statements ({sum(not s.startswith('del ') for s in statements)} "
        f"without del); statement medians sum to {total:.0f} us ({q_head}: {q_micros.sum():.0f}); "
        f"run_many median {whole:.0f} us ({q_head}: {q_whole:.0f}){inputs}; "
        f"lower_program {lower_ms:.1f} ms"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
