#!/usr/bin/env python3
"""After how many invocations does compiling a specialization pay?

``python tools/jit_breakeven.py [--seeds S ...]`` is the measurement
behind ``repro.runtime.jit.PROMOTE_AFTER``.  For the serving decode
linear at G = 1 / 2 / 8 stacked launches and each differential-harness
seed at G = 1 / 3 it times, as medians, what the JIT manager trades:
``lower_program`` (paid once), one ``BatchedExecutor.launch_many`` (what
every interpreted invocation costs) and one ``LoweredKernel.run_many``
(what a compiled one costs; lowered, as the launch seam asks, with the
pointers the launches share), and prints the break-even invocation count
``lower / (batched - compiled)`` per point with a min / median / max
row.  Lowering is the batched engine's own walk with the pointers left
symbolic, so the ratio stays in a narrow band whatever the program
costs — which is why the threshold is a count and needs no cost model.
"""

from __future__ import annotations

import argparse
import statistics
import time

# First: kernel_profile (this directory) puts src/ and the repo root on
# sys.path, which the repro and tests.harness imports below need.
from kernel_profile import decode_launches, harness_launches, lower  # isort: skip

from repro.compiler.lower import LoweringBailout
from repro.runtime.jit import PROMOTE_AFTER
from repro.vm.batched import BatchedExecutor

SEEDS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200, 233, 250)
LOWERINGS, RUNS, WARMUPS = 5, 40, 5


def median_ms(call, runs: int, warmups: int = 0) -> float:
    samples = []
    for run in range(-warmups, runs):
        start = time.perf_counter()
        call()
        if run >= 0:
            samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def measure(program, memory, args_list):
    """``(lower ms, batched ms, compiled ms)`` of one (program, G) point."""
    kernel = lower(program, memory, args_list)
    batched = BatchedExecutor(memory)
    return (
        median_ms(lambda: lower(program, memory, args_list), LOWERINGS),
        median_ms(lambda: batched.launch_many(program, args_list), RUNS, WARMUPS),
        median_ms(lambda: kernel.run_many(memory, args_list), RUNS, WARMUPS),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=list(SEEDS),
                        help="differential-harness seeds (default: %(default)s)")
    opts = parser.parse_args(argv)
    points = [("decode", g, decode_launches) for g in (1, 2, 8)] + [
        (f"seed {seed}", g, lambda g, seed=seed: harness_launches(seed, g))
        for seed in opts.seeds for g in (1, 3)
    ]
    print(f"{'program':<10} {'G':>2} {'lower ms':>9} {'batched ms':>10} "
          f"{'compiled ms':>11} {'break-even':>10}")
    evens = []
    for name, launches, build in points:
        try:
            lower_ms, batched_ms, compiled_ms = measure(*build(launches))
        except (LoweringBailout, SystemExit) as exc:
            print(f"{name:<10} {launches:>2} skipped: {exc}")
            continue
        evens.append(lower_ms / (batched_ms - compiled_ms))
        print(f"{name:<10} {launches:>2} {lower_ms:>9.2f} {batched_ms:>10.2f} "
              f"{compiled_ms:>11.2f} {evens[-1]:>10.1f}")
    print(f"\n{len(evens)} points: break-even min {min(evens):.1f} / median "
          f"{statistics.median(evens):.1f} / max {max(evens):.1f} invocations; "
          f"PROMOTE_AFTER = {PROMOTE_AFTER}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
