"""The benchmark's own arithmetic and plumbing (collected by tier-1).

Everything but the smoke run is pure-function; the smoke run is one
subprocess that drives all four workloads, untraced and traced, with two
tiny operations per phase.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from bench import run as bench_run  # noqa: F401 — puts src/ on sys.path
from bench import stats
from bench.probes import SPAN_METRICS
from bench.spans import SpanLog
from bench.workloads import (
    SERVING_METRICS,
    SHAPES,
    SPECTRUM_OPS,
    WARMUP,
    WAVE_CYCLE,
    WORKLOADS,
    make_wave,
    mismatched_ops,
    oracle_digests,
    spectrum_op,
)
from repro.serving.spec import WorkerSpec

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class TestGenerators:
    def test_wave_is_a_function_of_seed_stream_and_index(self):
        assert make_wave(3, 5, 8) == make_wave(3, 5, 8)
        assert make_wave(3, 5, 8) != make_wave(4, 5, 8)
        assert make_wave(3, 5, 8) != make_wave(3, 6, 8)
        assert make_wave(3, 5, 8) != make_wave(3, 5, 8, WARMUP)

    def test_waves_repeat_their_composition_under_fresh_rids(self):
        first, again = make_wave(3, 2, 8), make_wave(3, 2 + WAVE_CYCLE, 8)
        assert [dataclasses.replace(r, rid=0) for r in first] == [
            dataclasses.replace(r, rid=0) for r in again
        ]
        assert not {r.rid for r in first} & {r.rid for r in again}

    def test_wave_shape_and_unique_rids(self):
        waves = [make_wave(1, i, 32, s) for i in range(20) for s in (0, 1)]
        rids = [r.rid for wave in waves for r in wave]
        assert len(set(rids)) == len(rids) and min(rids) >= 0
        for wave in waves:
            assert len(wave) == 32
            assert [r.arrival_s for r in wave] == sorted(r.arrival_s for r in wave)
            assert all(4 <= r.output_tokens <= 32 for r in wave)
            assert all(r.prompt_tokens in (64, 128, 256, 512) for r in wave)

    def test_spectrum_is_315_distinct_specializations_per_seed(self):
        ops = [spectrum_op(2, i) for i in range(SPECTRUM_OPS)]
        keys = {(op.dtype, op.variant, op.m, op.k, op.n) for op in ops}
        assert len(keys) == SPECTRUM_OPS == 315
        assert ops == [spectrum_op(2, i) for i in range(SPECTRUM_OPS)]
        assert ops != [spectrum_op(3, i) for i in range(SPECTRUM_OPS)]
        per_pair = {}
        for op in ops:
            per_pair.setdefault((op.dtype, op.variant), set()).add((op.m, op.k, op.n))
        assert len(per_pair) == 63 and {len(v) for v in per_pair.values()} == {5}

    def test_any_prefix_has_the_same_shape_mix(self):
        ops = [spectrum_op(5, i) for i in range(240)]
        for start in range(0, 240 - 12, 12):
            window = {(op.m, op.k, op.n) for op in ops[start:start + 12]}
            assert window == set(SHAPES)


class TestStatistics:
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        def tail(n):
            got = stats.tail_percentile(list(range(n)))
            return got[0] if got else None

        assert tail(39) is None
        assert tail(40) == 75.0
        assert tail(99) == 75.0
        assert tail(100) == 90.0
        assert tail(200) == 95.0
        assert tail(1000) == 99.0
        assert tail(10000) == 99.9

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 50) == 50
        assert stats.percentile(values, 90) == 90
        assert stats.percentile([7.0], 90) == 7.0

    def test_full_speed_rate_ignores_slow_periods_and_weighs_every_kind(self):
        rng = np.random.default_rng(0)
        kinds = [(v, m) for v in ("direct", "splitk") for m in (1, 48)]
        cost_s = {kind: 0.05 * (1 + (kind[0] == "splitk")) * (1 + (kind[1] == 48)) for kind in kinds}
        factors = [kinds[i % 4] for i in range(240)]
        slow = np.where(rng.random(240) < 0.4, 1.5, 1.0)  # the machine, 40 % of the time

        def measured(costs):
            walls = [costs[kind] * s for kind, s in zip(factors, slow)]
            return stats.full_speed_rate(walls, [1.0] * 240, factors)

        true = 240 / sum(cost_s[kind] for kind in factors)
        rate = measured(cost_s)
        assert abs(rate / true - 1) < 0.05
        assert rate > 1.1 * 240 / sum(cost_s[kind] * s for kind, s in zip(factors, slow))
        # A regression confined to one variant shows with that variant's
        # share of the mix, wherever the fast operations happened to fall.
        dearer = {kind: c * (1.25 if kind[0] == "splitk" else 1.0) for kind, c in cost_s.items()}
        expected = sum(cost_s[kind] for kind in factors) / sum(dearer[kind] for kind in factors)
        assert abs(measured(dearer) / rate / expected - 1) < 0.01
        # Failed operations (no work) are left out, not divided by.
        assert stats.full_speed_rate([1.0, 2.0], [0.0, 4.0], [(0,), (0,)]) == 2.0

    def test_compare_verdicts(self):
        steady = [100.0, 101.0, 99.0]
        row = stats.compare_metric(steady, [102.0, 103.0, 101.0], "lower", 0.10)
        assert row["verdict"] == "within"
        row = stats.compare_metric(steady, [120.0, 121.0, 119.0], "lower", 0.10)
        assert row["verdict"] == "worse" and row["ratio_b_over_a"] == 1.2
        row = stats.compare_metric(steady, [80.0, 81.0, 79.0], "higher", 0.10)
        assert row["verdict"] == "worse"
        noisy = [100.0, 130.0, 80.0]
        row = stats.compare_metric(steady, noisy, "lower", 0.10)
        assert row["verdict"] == "unresolved"
        # Wide spread, but every B run beats every A run: resolved.
        row = stats.compare_metric(steady, [50.0, 70.0, 60.0], "lower", 0.10)
        assert row["verdict"] == "within"

    def test_span_self_time_subtracts_children(self):
        log = SpanLog()
        with log.span("outer"):
            with log.span("inner", count=4):
                pass
        outer, inner = log.spans
        inner["start"], inner["end"] = 1.0, 3.0
        outer["start"], outer["end"] = 0.0, 10.0
        assert inner["parent"] == 0 and outer["parent"] is None
        assert log.self_ms() == {"outer": 8000.0, "inner": 2000.0}
        assert log.per_call_s("inner") == [0.5]
        assert log.median_s("absent") == 0.0


def python_pids() -> set:
    """Every python process on the machine, zombies included."""
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                comm = Path("/proc", entry, "comm").read_text()
            except OSError:  # ended meanwhile
                continue
            if comm.startswith("python"):
                found.add(int(entry))
    return found


class TestContract:
    def test_names_units_and_bounds(self):
        names = [w["name"] for w in SPEC["workloads"]]
        assert tuple(names) == WORKLOADS
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names += [m["name"] for m in metrics]
        assert len(set(names)) == len(names)
        assert all(NAME.fullmatch(name) for name in names)
        assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
        assert all(m["better"] in ("lower", "higher") for m in metrics)
        assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])

    def test_span_and_serving_metrics_are_declared_with_their_units(self):
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name, unit in {**SPAN_METRICS, **SERVING_METRICS}.items():
            assert declared[name] == unit, name

    def test_smoke_run_emits_every_metric_on_every_workload(self, tmp_path):
        before = python_pids()
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        # serve_pool spawns a worker (and multiprocessing its resource
        # tracker): none may outlive the command, not even as a zombie.
        assert python_pids() <= before
        results = [json.loads(l) for l in done.stdout.splitlines() if l.startswith("{")]
        assert len(results) == 2 * len(WORKLOADS)
        wanted = {
            0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for i, result in enumerate(results):
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted[i % 2], WORKLOADS[i // 2]
        for name in WORKLOADS:
            trace = json.loads((tmp_path / f"trace_{name}.json").read_text())
            cats = {e.get("cat") for e in trace["traceEvents"]}
            assert "bench" in cats and len(cats) > 2, name


class TestOracle:
    def test_tampered_or_missing_digest_fails_its_operation(self):
        wave = make_wave(0, 0, 3)
        rids = [r.rid for r in wave]
        oracle = oracle_digests(WorkerSpec(), rids)
        assert set(oracle) == set(rids) and all(oracle.values())
        served = dict(oracle)
        assert mismatched_ops([(0, rids, served)], oracle) == set()
        tampered = dict(oracle)
        tampered[rids[1]] = "0" * 16
        lost = {rid: d for rid, d in oracle.items() if rid != rids[2]}
        records = [(0, rids, served), (1, rids, tampered), (2, rids, lost)]
        assert mismatched_ops(records, oracle) == {1, 2}
