"""Standing wall-clock benchmark driver (see bench/README.md).

One run (the ``BENCHMARK.json`` command)::

    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1

The whole suite, a comparison of two suite results, or a smoke run::

    python3 bench/run.py --all --seed N --out DIR
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --smoke
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, as close as a script can read it

import argparse
import contextlib
import ctypes
import fcntl
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import stats  # noqa: E402 — needs ROOT on sys.path
from bench.spans import SpanLog, trace_sums  # noqa: E402

SPEC_FILE = ROOT / "BENCHMARK.json"
#: Operations per ``--seconds`` second in a traced run.  Traced phases run
#: a fixed count (not a duration) so the program's counters repeat exactly
#: for a given seed; the rates put the traced phase near 2/3 of
#: ``--seconds`` at the seed commit.
TRACE_OPS_PER_S = {
    "decode_interp": 1.0,
    "decode_jit": 4.0,
    "serve_pool": 1.2,
    "matmul_spectrum": 7.5,
}
SETUP_SAMPLES = 3
#: Untraced repeats per workload in the suite (the pooled-percentile rule
#: and ``stats.spread`` are sized for exactly this many).
REPEATS = 3
#: Exit code of a run that completed but had operations fail a check.
EXIT_INCORRECT = 3
TRACE_CAPACITY = 1 << 18
LOCK_WAIT_S = 150.0
CALIB_TOLERANCE = 0.10
MAX_RERUNS = 2
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>
#: What the processes of a finished run get to end by themselves before
#: the supervisor kills their process group.
STRAGGLER_GRACE_S = 10.0


def load_spec() -> dict:
    with open(SPEC_FILE) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Supervisor: no process outlives the command
# ---------------------------------------------------------------------------

def supervise(argv) -> int:
    """Run the benchmark proper (``argv`` + ``--supervised``) as a child
    in a session of its own, and return only when every process it
    started, directly or not, has ended and been waited for.

    A run starts processes it is not the parent of and cannot wait for:
    ``multiprocessing``'s resource tracker (started with the first spawned
    worker, it ends when its owner has exited) and the trackers of the
    ``--setup-only`` children.  Orphaned, they fall to PID 1, which in a
    container need not reap them — they stayed behind as zombies.  As
    *child subreaper* this process inherits every orphan below it
    instead, so ``waitpid`` sees them all."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    command = [sys.executable, str(Path(__file__).resolve()), *argv, "--supervised"]
    child = os.posix_spawn(sys.executable, command, os.environ, setsid=True)
    status, deadline = None, None
    try:
        while True:
            # Block while the run is on; poll once it is over.
            pid, raw = os.waitpid(-1, 0 if status is None else os.WNOHANG)
            if pid == child:
                status = os.waitstatus_to_exitcode(raw)
                deadline = time.monotonic() + STRAGGLER_GRACE_S
            elif pid == 0:
                if deadline is not None and time.monotonic() > deadline:
                    kill_session(child)
                    deadline = None
                time.sleep(0.01)
    except ChildProcessError:  # no child left
        return status if status is not None else 1
    except BaseException:  # interrupted: take the run down, still reap it
        kill_session(child)
        with contextlib.suppress(ChildProcessError):
            while True:
                os.waitpid(-1, 0)
        raise


def kill_session(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


# ---------------------------------------------------------------------------
# Environment: pinning, lock, memory
# ---------------------------------------------------------------------------

def pin(cpus_arg: str | None) -> list[int]:
    """Pin this process to the first allowed CPU; returns the allowed CPUs
    (worker *i* is pinned to ``cpus[i mod len]``).  Unpinned, the threaded
    runtime is bimodal on a small guest (see README), so numbers taken
    without pinning measure the guest scheduler."""
    if cpus_arg:
        cpus = [int(c) for c in cpus_arg.split(",")]
    else:
        cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus


@contextlib.contextmanager
def machine_lock(out_dir: Path, held_by_parent: bool):
    """Exclusive lock file under the output directory, so two benchmark
    invocations never share the machine."""
    if held_by_parent:
        yield
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "bench.lock", "w") as handle:
        deadline = time.monotonic() + LOCK_WAIT_S
        while True:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                if time.monotonic() > deadline:
                    raise SystemExit("bench: another benchmark holds bench.lock")
                time.sleep(0.5)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def peak_rss_mb(pids) -> float:
    """Max RSS of this process plus every live worker, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def environment(cpus, workload) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "allowed_cpus": cpus,
        "driver_affinity": sorted(os.sched_getaffinity(0)),
        "worker_affinity": workload.worker_affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# One phase: a closed loop with one client
# ---------------------------------------------------------------------------

class Phase:
    """The operations of one closed-loop phase and their outcomes."""

    def __init__(self) -> None:
        self.latencies_s: list[float] = []
        self.work: list[float] = []
        self.errors: dict[int, str] = {}
        self.wall_s = 0.0

    @property
    def indices(self) -> range:
        """Operations are issued in index order from 0."""
        return range(len(self.work))

    @property
    def work_per_s(self) -> float:
        return sum(self.work) / self.wall_s if self.wall_s else 0.0


def run_phase(workload, spans, seconds=None, count=None) -> Phase:
    """Issue operations 0, 1, 2, ... one at a time: the next is issued
    when the previous call returns.  Stops after ``count`` operations, or
    at the first operation boundary past ``seconds``."""
    phase = Phase()
    workload.begin_phase()
    begin = time.perf_counter()
    index = 0
    while (count is None or index < count) and (
        seconds is None or time.perf_counter() - begin < seconds
    ):
        with spans.span("op", op=index) as record:
            try:
                work = workload.run_op(index, spans)
            except Exception as exc:  # noqa: BLE001 — one failed operation, counted
                work = 0.0
                phase.errors[index] = f"{type(exc).__name__}: {exc}"
                if len(phase.errors) <= 3:
                    traceback.print_exc(file=sys.stderr)
        phase.latencies_s.append(record["end"] - record["start"])
        phase.work.append(work)
        index += 1
    phase.wall_s = time.perf_counter() - begin
    return phase


def set_up(workload, spans, cpus, trace: bool) -> None:
    """Everything before the first measured operation: build (or spawn to
    ``ready``) and the fixed warm-up operations."""
    workload.setup(trace, spans, cpus)
    with spans.span("setup.warmup"):
        workload.warmup()


def setup_only_sample(args, cpus) -> float:
    """Set-up time of a fresh process: a child that stops at the point
    where the first measured operation would start."""
    out = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only", "--cpus", ",".join(map(str, cpus)), "--supervised",
        ],
        capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run_untraced(args, cpus, smoke: bool) -> dict:
    from bench.workloads import build_workload

    pre_s = time.perf_counter() - _T0
    setups = [] if smoke else [
        setup_only_sample(args, cpus) for _ in range(SETUP_SAMPLES - 1)
    ]
    spans = SpanLog()
    workload = build_workload(args.workload, args.seed, smoke=smoke)
    own_begin = time.perf_counter()
    try:
        set_up(workload, spans, cpus, trace=False)
        setups.append(pre_s + time.perf_counter() - own_begin)
        calib = [stats.calibrate()]
        phase = run_phase(
            workload, spans,
            seconds=None if smoke else args.seconds,
            count=2 if smoke else None,
        )
        calib.append(stats.calibrate())
        rss = peak_rss_mb(workload.pids())
        env = environment(cpus, workload)
        failed = set(phase.errors) | workload.verify(spans)
    finally:
        workload.close()
    lat_ms = [s * 1e3 for s in phase.latencies_s]
    factors = [workload.op_factors(index) for index in phase.indices]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_work_per_s": (
            stats.full_speed_rate(phase.latencies_s, phase.work, factors), "1/s",
        ),
        "peak_rss_mb": (rss, "MB"),
    }
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": 0, "env": env,
        "attempted": len(phase.indices), "failed": len(failed),
        "failed_ops": sorted(failed), "errors": phase.errors,
        "metrics": metrics, "work_unit": workload.unit,
        # Whole-phase figures, reported but not bounded: on a shared guest
        # they follow the neighbours' load (see README, "peak_work_per_s").
        "raw_wall": {
            "work_per_s": phase.work_per_s,
            "op_p50_ms": stats.percentile(lat_ms, 50),
            "op_p90_ms": stats.percentile(lat_ms, 90),
        },
        "setup_samples_s": setups, "calib_ms": calib,
        "measured_wall_s": phase.wall_s, "op_latencies_ms": lat_ms,
        "op_work": phase.work, "op_factors": factors,
        "self_ms": spans.self_ms(),
    }


def run_traced(args, cpus, smoke: bool, out_dir: Path) -> dict:
    from bench.probes import SPAN_METRICS, run_probes
    from bench.workloads import build_workload
    from repro.obs import trace as obs_trace

    count = 2 if smoke else max(3, round(TRACE_OPS_PER_S[args.workload] * args.seconds))
    ref_count = max(1, count // 3)
    calib = [stats.calibrate()]

    # Reference phase: the same first operations, program tracer off, on a
    # system of its own (so caches and captured graphs start equal).
    ref_spans = SpanLog()
    reference = build_workload(args.workload, args.seed, smoke=smoke)
    try:
        set_up(reference, ref_spans, cpus, trace=False)
        ref_phase = run_phase(reference, ref_spans, count=ref_count)
        ref_failed = set(ref_phase.errors) | reference.verify(ref_spans)
    finally:
        reference.close()

    spans = SpanLog()
    workload = build_workload(args.workload, args.seed, smoke=smoke)
    try:
        with spans.span("setup"):
            set_up(workload, spans, cpus, trace=True)
        tracer = obs_trace.install(capacity=TRACE_CAPACITY)
        try:
            before = workload.counters()
            phase = run_phase(workload, spans, count=count)
            after = workload.counters()
        finally:
            obs_trace.uninstall()
        layer = workload.phase_metrics()
        run_probes(workload, phase.indices, spans, smoke=smoke)
        calib.append(stats.calibrate())
        failed = set(phase.errors) | workload.verify(spans)
        # Export: the benchmark's spans join the program's own events in
        # one Chrome file (the fleet merge reads the installed tracer).
        dropped = tracer.dropped
        spans.mirror_into(tracer)
        obs_trace.install(tracer)
        try:
            trace = workload.program_trace(tracer)
        finally:
            obs_trace.uninstall()
        env = environment(cpus, workload)
    finally:
        workload.close()

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace_{args.workload}.json"
    with open(trace_path, "w") as handle:
        json.dump(trace, handle)

    delta = {key: after[key] - before[key] for key in after}
    sums = trace_sums(trace)
    paired = [
        traced / ref
        for traced, ref in zip(phase.latencies_s, ref_phase.latencies_s)
    ]
    layer.update(program_metrics(delta, after, sums, phase, workload))
    layer["obs.trace_overhead"] = (statistics.median(paired) - 1.0, "ratio")
    layer["obs.events"] = (sums["events"], "count")
    layer["obs.dropped"] = (trace["otherData"].get("dropped", dropped), "count")
    layer["bench.calib_ms"] = (statistics.median(calib), "ms")
    for name, unit in SPAN_METRICS.items():
        scale = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
        layer[name] = (spans.median_s(name) * scale, unit)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": 1, "env": env,
        "attempted": len(phase.indices) + len(ref_phase.indices),
        "failed": len(failed) + len(ref_failed),
        "failed_ops": {"reference": sorted(ref_failed), "traced": sorted(failed)},
        "errors": {"reference": ref_phase.errors, "traced": phase.errors},
        "metrics": layer, "traced_ops": count, "reference_ops": ref_count,
        "trace_file": str(trace_path), "calib_ms": calib,
        "traced_wall_s": phase.wall_s, "self_ms": spans.self_ms(),
    }


def ratio(num, den) -> float:
    return num / den if den else 0.0


def program_metrics(delta, after, sums, phase, workload) -> dict:
    """Per-layer figures from the program's own counters (deltas over the
    traced phase) and trace events (sums over the traced phase)."""
    kernels = workload.kernels_launched(phase.indices)
    lanes_wall = sums["stream_lanes"] * phase.wall_s
    wave_wall = sums["worker_chunk_s"] or phase.wall_s
    serving = workload.spec is not None
    return {
        "vm.instr_per_kernel": (ratio(delta["runtime.stats.instructions"], kernels), "count"),
        "vm.gbits_per_kernel": (
            ratio(
                delta["runtime.stats.global_bits_loaded"]
                + delta["runtime.stats.global_bits_stored"],
                kernels,
            ),
            "bit",
        ),
        # Lookups since the system was built: a steady decode phase makes
        # none (graph replay consults no cache), so a delta would read 0/0.
        "runtime.spec_cache.hit_ratio": (
            ratio(
                after["runtime.spec_cache.hits"],
                after["runtime.spec_cache.hits"] + after["runtime.spec_cache.misses"],
            ),
            "ratio",
        ),
        "runtime.spec_cache.evictions": (delta["runtime.spec_cache.evictions"], "count"),
        "runtime.streams.coalesce_ratio": (
            ratio(delta["streams.executions"], delta["streams.launches"]), "ratio",
        ),
        "runtime.jit.promotion_ratio": (
            ratio(delta["jit.promotions"], delta["streams.launches"]), "ratio",
        ),
        "runtime.jit.compiled": (after["jit.compiled"], "count"),
        "runtime.jit.bailouts": (after["jit.bailouts"], "count"),
        "runtime.graphs.replay_host_ms": (
            ratio(sums["graph_replay_s"], sums["graph_replay_n"]) * 1e3, "ms",
        ),
        "runtime.streams.exec_us": (ratio(sums["stream_s"], sums["stream_n"]) * 1e6, "us"),
        "runtime.streams.lane_busy_share": (ratio(sums["stream_s"], lanes_wall), "ratio"),
        "llm.batching.host_share": (
            1.0 - ratio(sums["graph_replay_s"], wave_wall) if serving else 0.0, "ratio",
        ),
        "serving.pool.worker_busy_share": (
            ratio(sums["worker_chunk_s"], workload.workers * sums["router_serve_s"])
            if serving and workload.workers else 0.0,
            "ratio",
        ),
    }


def emit(result: dict, out_dir: Path) -> int:
    """Print every metric by name, persist the run's detail, and end with
    the one-line result object the harness reads."""
    out_dir.mkdir(parents=True, exist_ok=True)
    detail = out_dir / f"run_{result['workload']}_t{result['trace']}.json"
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    with open(detail, "w") as handle:
        json.dump({**result, "metrics": metrics}, handle, indent=1)
    for name, metric in metrics.items():
        print(f"{result['workload']:16s} {name:38s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in result.get("raw_wall", {}).items():
        print(f"{result['workload']:16s} whole-phase {name:26s} {value:14.6g} (not bounded)")
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else EXIT_INCORRECT


def run_single(args) -> int:
    out_dir = Path(args.out)
    cpus = pin(args.cpus)
    if args.setup_only:
        from bench.workloads import build_workload

        workload = build_workload(args.workload, args.seed)
        try:
            set_up(workload, SpanLog(), cpus, trace=False)
            elapsed = time.perf_counter() - _T0
        finally:
            workload.close()
        print(json.dumps({"setup_s": elapsed}))
        return 0
    with machine_lock(out_dir, args.lock_held):
        return run_one(args, cpus, out_dir, smoke=False)


def run_one(args, cpus, out_dir: Path, smoke: bool) -> int:
    if args.trace:
        return emit(run_traced(args, cpus, smoke, out_dir), out_dir)
    return emit(run_untraced(args, cpus, smoke), out_dir)


def run_smoke(args) -> int:
    """Every workload, untraced then traced, two tiny operations per
    phase, in this one process: checks that every metric is produced and
    every check runs — the numbers mean nothing."""
    from bench.workloads import WORKLOADS

    out_dir = Path(args.out)
    cpus = pin(args.cpus)
    status = 0
    with machine_lock(out_dir, args.lock_held):
        for name in WORKLOADS:
            for trace in (0, 1):
                args.workload, args.trace = name, trace
                status = max(status, run_one(args, cpus, out_dir, smoke=True))
    return status


# ---------------------------------------------------------------------------
# The suite: repeats, interleaving, noise guard, pooled percentiles
# ---------------------------------------------------------------------------

def child_run(workload, args, trace: int, out_dir: Path) -> dict:
    """One run in a fresh subprocess; returns its persisted detail."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", str(out_dir), "--lock-held", "--supervised",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    sys.stderr.write(done.stderr)
    if done.returncode not in (0, EXIT_INCORRECT):  # anything else: it crashed
        raise SystemExit(f"bench: run of {workload} exited {done.returncode}")
    with open(out_dir / f"run_{workload}_t{trace}.json") as handle:
        return json.load(handle)


def guarded_run(workload, args, trace, out_dir, calibs, discarded) -> dict:
    """Noise guard: a run whose calibration is more than 10 % off the
    session median is discarded and repeated, at most twice; every
    discarded run is reported.  (The first two runs of a session have no
    median to be compared with and are kept.)"""
    for attempt in range(MAX_RERUNS + 1):
        detail = child_run(workload, args, trace, out_dir)
        calib = statistics.median(detail["calib_ms"])
        session = statistics.median(calibs + [calib])
        steady = abs(calib / session - 1.0) <= CALIB_TOLERANCE
        if steady or len(calibs) < 2 or attempt == MAX_RERUNS:
            break
        discarded.append(
            {"workload": workload, "trace": trace, "calib_ms": calib,
             "session_median_ms": session, "attempt": attempt}
        )
    calibs.append(calib)
    return detail


def run_suite(args) -> int:
    from bench.workloads import WORKLOADS

    spec = load_spec()
    out_dir = Path(args.out)
    calibs: list[float] = []
    discarded: list[dict] = []
    runs = {name: [] for name in WORKLOADS}
    traced = {}
    with machine_lock(out_dir, False):
        # Interleaved across workloads so machine drift hits all equally.
        for _ in range(REPEATS):
            for name in WORKLOADS:
                runs[name].append(guarded_run(name, args, 0, out_dir, calibs, discarded))
        for name in WORKLOADS:
            traced[name] = guarded_run(name, args, 1, out_dir, calibs, discarded)

    result = {
        "schema": 1, "seed": args.seed, "seconds": args.seconds,
        "repeats": REPEATS, "env": runs[WORKLOADS[0]][0]["env"],
        "calib_session_median_ms": statistics.median(calibs),
        "discarded_runs": discarded, "workloads": {},
    }
    failed = 0
    for name in WORKLOADS:
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs[name]]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "values": values,
                "median": statistics.median(values),
            }
        raw_wall = {
            key: statistics.median(run["raw_wall"][key] for run in runs[name])
            for key in runs[name][0]["raw_wall"]
        }
        pooled = [ms for run in runs[name] for ms in run["op_latencies_ms"]]
        tail = stats.tail_percentile(pooled)
        attempted = sum(run["attempted"] for run in runs[name]) + traced[name]["attempted"]
        fails = sum(run["failed"] for run in runs[name]) + traced[name]["failed"]
        failed += fails
        result["workloads"][name] = {
            "end_to_end": end_to_end,
            "raw_wall": raw_wall,
            "pooled_latency": {
                "samples": len(pooled),
                "p50_ms": stats.percentile(pooled, 50),
                "tail_percentile": tail[0] if tail else None,
                "tail_ms": tail[1] if tail else None,
            },
            "per_layer": traced[name]["metrics"],
            "attempted": attempted, "failed": fails,
            "fail_ratio": fails / attempted,
            "ops_per_run": [run["attempted"] for run in runs[name]],
            "traced_ops": traced[name]["traced_ops"],
            "work_unit": runs[name][0]["work_unit"],
            "self_ms": traced[name]["self_ms"],
            "worker_affinity": runs[name][0]["env"]["worker_affinity"],
        }
    pool = result["workloads"]["serve_pool"]["end_to_end"]["peak_work_per_s"]["median"]
    single = result["workloads"]["decode_jit"]["end_to_end"]["peak_work_per_s"]["median"]
    result["derived"] = {
        "serving.pool.scaling": {
            "value": pool / single, "unit": "ratio",
            "base": "decode_jit peak_work_per_s", "ideal": 2.0,
        }
    }
    with open(out_dir / "result.json", "w") as handle:
        json.dump(result, handle, indent=1)
    print_suite(result)
    print(f"wrote {out_dir / 'result.json'}; fail_ratio "
          f"{failed}/{sum(w['attempted'] for w in result['workloads'].values())}")
    return 1 if failed else 0


def print_suite(result: dict) -> None:
    for name, body in result["workloads"].items():
        print(f"== {name}  (ops per run {body['ops_per_run']}, failed {body['failed']}/{body['attempted']})")
        for metric, row in body["end_to_end"].items():
            values = " ".join(f"{v:.6g}" for v in row["values"])
            print(f"  {metric:36s} {row['median']:14.6g} {row['unit']:6s} [{values}]")
        raw = body["raw_wall"]
        print(
            f"  whole-phase (unbounded): {raw['work_per_s']:.6g} {body['work_unit']}/s, "
            f"op p50 {raw['op_p50_ms']:.4g} ms, p90 {raw['op_p90_ms']:.4g} ms"
        )
        pooled = body["pooled_latency"]
        if pooled["tail_percentile"] is not None:
            print(
                f"  pooled op latency: p50 {pooled['p50_ms']:.4g} ms, "
                f"p{pooled['tail_percentile']:g} {pooled['tail_ms']:.4g} ms "
                f"over {pooled['samples']} samples"
            )
        for metric, row in body["per_layer"].items():
            print(f"  {metric:36s} {row['value']:14.6g} {row['unit']}")
    for metric, row in result["derived"].items():
        print(f"== {metric} {row['value']:.4g} (base: {row['base']}, ideal {row['ideal']})")
    for run in result["discarded_runs"]:
        print(f"discarded: {run}")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def run_compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    worse = 0
    print(f"{'workload':16s} {'metric':14s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>8s} {'spread':>8s} {'bound':>6s}  verdict")
    for name, body in a["workloads"].items():
        for metric in spec["end_to_end"]:
            row = stats.compare_metric(
                body["end_to_end"][metric["name"]]["values"],
                b["workloads"][name]["end_to_end"][metric["name"]]["values"],
                metric["better"], metric["bound"],
            )
            worse += row["verdict"] == "worse"
            print(
                f"{name:16s} {metric['name']:14s} {row['a_median']:12.5g} "
                f"{row['b_median']:12.5g} {row['ratio_b_over_a']:8.3f} "
                f"{row['spread']:8.3f} {row['bound']:6.2f}  {row['verdict']}"
            )
    return 1 if worse else 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / "bench_out"))
    parser.add_argument("--all", action="store_true", help="run the whole suite")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true",
                        help="2 tiny operations per phase, no repeats")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--lock-held", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cpus", help=argparse.SUPPRESS)
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if not args.supervised:
        return supervise(sys.argv[1:] if argv is None else list(argv))
    try:
        import repro  # noqa: F401 — the program under test
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.smoke:
        return run_smoke(args)
    if args.all:
        return run_suite(args)
    if not args.workload:
        parser.error("one of --workload, --all, --compare, --smoke is required")
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
