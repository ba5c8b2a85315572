#!/usr/bin/env python3
"""Trim a suite result to the committed record of one PR:
``python tools/bench_trim.py bench_out/result.json --pr 16 > BENCH_16.json``.

``bench/run.py --all`` writes ``result.json`` with everything a run
produced (span self times, worker masks, per-run detail).  What a PR
commits at the repo root is the part later PRs compare against: every
end-to-end metric with its raw per-run values, median and spread, the
traced run's per-layer metrics, operation and failure counts, the
environment and the commit.  The layout under ``workloads`` is
``result.json``'s own, so ``bench/run.py --compare BENCH_15.json
BENCH_16.json`` reads two of these as it reads two suite results.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from bench.stats import spread  # noqa: E402 - the suite's own definition

_KEPT = ("attempted", "failed", "ops_per_run", "work_unit", "pooled_latency", "per_layer")


def trim(result: dict, pr: int, commit: str) -> dict:
    workloads = {}
    for name, body in result["workloads"].items():
        kept = {key: body[key] for key in _KEPT}
        kept["end_to_end"] = {
            metric: {**row, "spread": spread(row["values"])}
            for metric, row in body["end_to_end"].items()
        }
        workloads[name] = kept
    return {
        "schema": result["schema"],
        "pr": pr,
        "commit": commit,
        "seed": result["seed"],
        "seconds": result["seconds"],
        "repeats": result["repeats"],
        "env": result["env"],
        "calib_session_median_ms": result["calib_session_median_ms"],
        "discarded_runs": len(result["discarded_runs"]),
        "workloads": workloads,
        "derived": result["derived"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", help="bench/run.py --all's result.json")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument(
        "--commit", help="commit the suite ran on (default: git HEAD, '+dirty' if modified)"
    )
    args = parser.parse_args(argv)
    commit = args.commit
    if commit is None:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        if subprocess.run(["git", "status", "--porcelain"], capture_output=True, text=True).stdout:
            commit += "+dirty"
    with open(args.result) as handle:
        result = json.load(handle)
    json.dump(trim(result, args.pr, commit), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
