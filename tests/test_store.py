"""The persistent tuning store's trust boundary, proven hostile-first.

A store entry crosses process lifetimes, so everything about it is
adversarial by default: this suite injects every corruption class the
failure matrix names (truncation, version skew, kind/key mismatch,
bit flips, stale stamps), races publish/load/gc across threads and
spawned processes, SIGKILLs a publisher mid-write, and property-tests
(hypothesis) that whatever survives a round-trip is bit-identical to
what went in.  The degradation half then proves the loud-but-soft
contract end to end: every store failure raises :class:`VMError` *at
the store layer* but the engine, the JIT tier, the tuner, and a real
spawned serving worker all degrade to a cold compile and still serve
bit-exact — no crash path exists.
"""

import json
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VMError
from repro.runtime.jit import PROMOTE_AFTER
from repro.runtime.profiling import Profile
from repro.store import STORE_JSON_VERSION, TuningStore, decode_kernel, encode_kernel
from repro.vm.tileops import KERNEL_NAMESPACE, KERNEL_NAMESPACE_STAMP

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _rewrite(store: TuningStore, kind: str, key: str, mutate) -> str:
    """Corrupt a published entry in place: load its JSON body, apply
    ``mutate(body) -> body-or-text``, write the result back raw (no
    checksum repair — that's the point)."""
    path = store.entry_path(kind, key)
    with open(path, "r", encoding="utf-8") as handle:
        body = json.loads(handle.read())
    mutated = mutate(body)
    text = mutated if isinstance(mutated, str) else json.dumps(mutated)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _sample_profile() -> Profile:
    profile = Profile()
    profile.record("s", 0, "prog", "spec-a", "batched", 0, 0.25)
    profile.record("s", 1, "prog", "spec-a", "batched", 1, 0.75)
    profile.record("s", 2, "prog", "spec-b", "sequential", 0, 0.05)
    return profile


def _linear_fixture():
    """A tiny quantized linear and a forced-lowered kernel of it."""
    from repro import ops
    from repro.compiler.lower import lower_program
    from repro.compiler.pipeline import specialization_key
    from repro.dtypes.registry import dtype_from_name

    weight = np.random.default_rng(0).standard_normal((64, 16))
    linear = ops.prepare_linear(weight, dtype_from_name("i6"), group_size=32)
    runtime = linear.runtime
    act = np.random.default_rng(1).standard_normal((1, 64))
    act_addr = runtime.upload(linear.act_dtype.quantize(act), linear.act_dtype)
    out_addr = runtime.empty([1, linear.n], linear.act_dtype)
    args = [act_addr, linear.b_addr, linear.s_addr, out_addr]
    program = linear.program_for(1)
    kernel = lower_program(program, args, runtime.memory)
    key = specialization_key(program, args)
    return linear, runtime, program, args, out_addr, kernel, key


# ---------------------------------------------------------------------------
# Basics: addressing, counters, stamps
# ---------------------------------------------------------------------------


class TestStoreBasics:
    def test_publish_load_roundtrip(self, tmp_path):
        store = TuningStore(str(tmp_path))
        payload = {"a": [1, 2.5, "x"], "b": {"nested": True}}
        path = store.publish("profile", "k", payload)
        assert os.path.exists(path)
        assert store.load("profile", "k") == payload
        assert store.counters() == {
            "hits": 1, "misses": 0, "publishes": 1, "gc_evictions": 0,
        }

    def test_absent_entry_is_counted_miss_not_error(self, tmp_path):
        store = TuningStore(str(tmp_path))
        assert store.load("profile", "never-published") is None
        assert store.counters()["misses"] == 1

    def test_entry_id_content_addressed(self, tmp_path):
        # Same (kind, key) → same id in any process; kind participates
        # in the hash so kinds can never collide on a shared key.
        assert TuningStore.entry_id("plan", "k") == TuningStore.entry_id("plan", "k")
        assert TuningStore.entry_id("plan", "k") != TuningStore.entry_id("jit", "k")
        store = TuningStore(str(tmp_path))
        store.publish("plan", "k", {"p": 1})
        store.publish("jit", "k", {"j": 2})
        assert store.load("plan", "k") == {"p": 1}
        assert store.load("jit", "k") == {"j": 2}

    def test_stamp_compares_equal_across_json_shapes(self, tmp_path):
        # Producer stamps with a tuple, consumer expects a list (or the
        # tuple): JSON normalization makes them one shape.
        store = TuningStore(str(tmp_path))
        store.publish("rankings", "k", {"v": 1}, stamp=(3, 12, 0.5))
        assert store.load("rankings", "k", expect_stamp=[3, 12, 0.5]) == {"v": 1}
        assert store.load("rankings", "k", expect_stamp=(3, 12, 0.5)) == {"v": 1}

    def test_republish_overwrites_atomically(self, tmp_path):
        store = TuningStore(str(tmp_path))
        store.publish("profile", "k", {"gen": 1})
        store.publish("profile", "k", {"gen": 2})
        assert store.load("profile", "k") == {"gen": 2}
        assert store.entry_count() == 1

    def test_rejects_bad_caps(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            TuningStore(str(tmp_path), max_entries=0)
        with pytest.raises(ValueError, match="max_bytes"):
            TuningStore(str(tmp_path), max_bytes=0)


# ---------------------------------------------------------------------------
# Garbage collection: LRU + size caps, tmp sweep, read safety
# ---------------------------------------------------------------------------


class TestGarbageCollection:
    def test_count_cap_evicts_least_recently_used(self, tmp_path):
        store = TuningStore(str(tmp_path), max_entries=3)
        for i in range(3):
            path = store.publish("profile", f"k{i}", {"i": i})
            os.utime(path, (1000.0 + i, 1000.0 + i))
        # k0 is oldest; publishing k3 must evict exactly it.
        store.publish("profile", "k3", {"i": 3})
        assert store.load("profile", "k0") is None
        assert store.load("profile", "k1") == {"i": 1}
        assert store.gc_evictions == 1

    def test_byte_cap_evicts(self, tmp_path):
        store = TuningStore(str(tmp_path), max_bytes=2048)
        for i in range(8):
            path = store.publish("profile", f"k{i}", {"blob": "x" * 400})
            os.utime(path, (1000.0 + i, 1000.0 + i))
        store.gc()
        sizes = sum(
            os.path.getsize(os.path.join(str(tmp_path), n))
            for n in os.listdir(str(tmp_path)) if n.endswith(".json")
        )
        assert sizes <= 2048
        assert store.gc_evictions >= 1
        # Newest entry always survives.
        assert store.load("profile", "k7") == {"blob": "x" * 400}

    def test_load_refreshes_recency(self, tmp_path):
        store = TuningStore(str(tmp_path), max_entries=2)
        old = store.publish("profile", "old", {"i": 0})
        os.utime(old, (1000.0, 1000.0))
        mid = store.publish("profile", "mid", {"i": 1})
        os.utime(mid, (2000.0, 2000.0))
        # Touch "old" via a load: it becomes most-recently-used, so the
        # next overflow evicts "mid" instead.
        assert store.load("profile", "old") == {"i": 0}
        store.publish("profile", "new", {"i": 2})
        assert store.load("profile", "old") == {"i": 0}
        assert store.load("profile", "mid") is None

    def test_gc_sweeps_orphaned_tmp_files(self, tmp_path):
        store = TuningStore(str(tmp_path))
        orphan = os.path.join(str(tmp_path), ".publish-deadbeef")
        with open(orphan, "w", encoding="utf-8") as handle:
            handle.write('{"version": 1, "kind": "profile", "truncat')
        store.gc()
        assert not os.path.exists(orphan)

    def test_eviction_mid_read_is_a_plain_miss(self, tmp_path):
        # The gc-vs-reader race distilled: the entry file vanishing
        # between entry_path and open must count as a miss, not raise.
        store = TuningStore(str(tmp_path))
        store.publish("profile", "k", {"i": 0})
        os.unlink(store.entry_path("profile", "k"))
        assert store.load("profile", "k") is None
        assert store.counters()["misses"] == 1


# ---------------------------------------------------------------------------
# Fault injection: the failure matrix, one corruption class at a time
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def _published(self, tmp_path):
        store = TuningStore(str(tmp_path))
        store.publish("profile", "k", {"value": 42}, stamp=[1, 2, 3.0])
        return store

    def test_truncated_json_raises_and_counts_miss(self, tmp_path):
        store = self._published(tmp_path)
        _rewrite(store, "profile", "k", lambda b: json.dumps(b)[:25])
        with pytest.raises(VMError, match="truncated or malformed"):
            store.load("profile", "k")
        assert store.counters()["misses"] == 1

    def test_non_object_body_raises(self, tmp_path):
        store = self._published(tmp_path)
        _rewrite(store, "profile", "k", lambda b: "[1, 2, 3]")
        with pytest.raises(VMError, match="must be a JSON object"):
            store.load("profile", "k")

    def test_wrong_version_raises(self, tmp_path):
        store = self._published(tmp_path)
        _rewrite(store, "profile", "k", lambda b: {**b, "version": STORE_JSON_VERSION + 1})
        with pytest.raises(VMError, match="unsupported version"):
            store.load("profile", "k")

    def test_wrong_kind_raises(self, tmp_path):
        store = self._published(tmp_path)
        _rewrite(store, "profile", "k", lambda b: {**b, "kind": "plan"})
        with pytest.raises(VMError, match="declares kind"):
            store.load("profile", "k")

    def test_key_mismatch_raises(self, tmp_path):
        store = self._published(tmp_path)
        _rewrite(store, "profile", "k", lambda b: {**b, "key": "other"})
        with pytest.raises(VMError, match="declares key"):
            store.load("profile", "k")

    def test_bit_flipped_payload_fails_checksum(self, tmp_path):
        store = self._published(tmp_path)
        _rewrite(
            store, "profile", "k",
            lambda b: {**b, "payload": {"value": 43}},  # checksum left stale
        )
        with pytest.raises(VMError, match="checksum"):
            store.load("profile", "k")

    def test_missing_checksum_raises(self, tmp_path):
        store = self._published(tmp_path)

        def drop(body):
            body.pop("checksum")
            return body

        _rewrite(store, "profile", "k", drop)
        with pytest.raises(VMError, match="checksum"):
            store.load("profile", "k")

    def test_stale_stamp_raises(self, tmp_path):
        store = self._published(tmp_path)
        with pytest.raises(VMError, match="stale"):
            store.load("profile", "k", expect_stamp=[1, 2, 999.0])
        # Without an expectation the same entry still loads fine.
        assert store.load("profile", "k") == {"value": 42}

    def test_corrupt_profile_payload_raises_at_parse(self, tmp_path):
        # Store-layer checks pass (checksum matches the corrupt payload
        # because it was *published* corrupt) but the Profile parser
        # rejects it — still a VMError, still pre-degradation.
        store = TuningStore(str(tmp_path))
        store.publish("profile", "s", {"version": 99, "nodes": "not-a-list"})
        with pytest.raises(VMError):
            store.load_profile("s")

    def test_every_corruption_counts_a_miss(self, tmp_path):
        store = self._published(tmp_path)
        _rewrite(store, "profile", "k", lambda b: "garbage")
        for _ in range(3):
            with pytest.raises(VMError):
                store.load("profile", "k")
        assert store.counters() == {
            "hits": 0, "misses": 3, "publishes": 1, "gc_evictions": 0,
        }


# ---------------------------------------------------------------------------
# Atomic publication: SIGKILL mid-publish leaves no torn entry
# ---------------------------------------------------------------------------


def _publish_forever(root: str) -> None:
    store = TuningStore(root, max_entries=64)
    payload = {"blob": "x" * 200_000}
    i = 0
    while True:
        store.publish("profile", f"victim-{i % 8}", payload, stamp=[i])
        i += 1


def _race_publish_load(root: str, seed: int) -> None:
    store = TuningStore(root, max_entries=6)
    for i in range(60):
        key = f"shared-{(seed + i) % 10}"
        store.publish("profile", key, {"seed": seed, "i": i})
        got = store.load(key=key, kind="profile")
        assert got is None or set(got) == {"seed", "i"}


class TestAtomicity:
    def test_sigkill_mid_publish_leaves_no_torn_entry(self, tmp_path):
        ctx = mp.get_context("spawn")
        child = ctx.Process(target=_publish_forever, args=(str(tmp_path),))
        child.start()
        deadline = time.time() + 30.0
        # Let the child get deep into its publish loop before killing it.
        while time.time() < deadline:
            if any(n.endswith(".json") for n in os.listdir(str(tmp_path))):
                break
            time.sleep(0.01)
        time.sleep(0.25)
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30.0)
        # Every *visible* entry must parse and checksum clean: a write
        # interrupted at any byte is invisible (tmp file), never torn.
        store = TuningStore(str(tmp_path))
        visible = [n for n in os.listdir(str(tmp_path)) if n.endswith(".json")]
        assert visible, "child never published — kill landed too early"
        loaded = 0
        for i in range(8):
            got = store.load("profile", f"victim-{i}")  # VMError = torn
            loaded += got is not None
        assert loaded == len(visible)
        # Any orphaned mid-write tmp file is swept, not published.
        store.gc()
        assert not any(
            n.startswith(".publish-") for n in os.listdir(str(tmp_path))
        )

    def test_tmp_files_invisible_to_readers(self, tmp_path):
        store = TuningStore(str(tmp_path))
        tmp = os.path.join(str(tmp_path), ".publish-inflight")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write('{"version": 1, "kind": "profile"')  # mid-write
        assert store.entry_count() == 0
        assert store.load("profile", "anything") is None  # miss, no error


# ---------------------------------------------------------------------------
# Concurrency: threads and processes racing one directory
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_threads_race_publish_load_gc(self, tmp_path):
        store = TuningStore(str(tmp_path), max_entries=8, max_bytes=1 << 20)
        failures = []

        def hammer(tid: int) -> None:
            try:
                for i in range(40):
                    key = f"k{(tid + i) % 12}"
                    store.publish("profile", key, {"tid": tid, "i": i})
                    got = store.load("profile", key)
                    assert got is None or set(got) == {"tid", "i"}
                    store.gc()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        counters = store.counters()
        assert counters["publishes"] == 8 * 40
        assert counters["hits"] + counters["misses"] == 8 * 40

    def test_two_spawned_processes_race_one_store(self, tmp_path):
        ctx = mp.get_context("spawn")
        children = [
            ctx.Process(target=_race_publish_load, args=(str(tmp_path), seed))
            for seed in (0, 5)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120.0)
        assert all(child.exitcode == 0 for child in children)
        # Whatever survived both processes' gc churn validates clean.
        store = TuningStore(str(tmp_path))
        for i in range(10):
            got = store.load("profile", f"shared-{i}")  # VMError = torn
            assert got is None or set(got) == {"seed", "i"}

    def test_gc_never_corrupts_a_concurrent_read(self, tmp_path):
        # One thread hammers loads of a hot key while another forces
        # eviction churn past a 1-entry cap: every load must be either
        # the full payload or a clean miss — never a partial read.
        store = TuningStore(str(tmp_path), max_entries=1)
        payload = {"blob": "y" * 5000}
        store.publish("profile", "hot", payload)
        stop = threading.Event()
        failures = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    got = store.load("profile", "hot")
                    assert got is None or got == payload
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        for i in range(60):
            store.publish("profile", f"churn-{i}", payload)
        stop.set()
        thread.join()
        assert not failures, failures


# ---------------------------------------------------------------------------
# Property tests: load-after-publish is bit-identical
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
    st.booleans(),
)
_payloads = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(_scalars, st.lists(_scalars, max_size=5)),
    max_size=6,
)


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(payload=_payloads)
    def test_payload_roundtrip_bit_identical(self, tmp_path_factory, payload):
        store = TuningStore(str(tmp_path_factory.mktemp("prop")))
        store.publish("rankings", "k", payload, stamp=[1])
        loaded = store.load("rankings", "k", expect_stamp=[1])
        # JSON-normalized equality IS bit equality here: floats survive
        # json round-trips exactly (repr-based), ints are exact.
        assert loaded == json.loads(json.dumps(payload))

    @settings(max_examples=25, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from(["s0", "s1"]),        # scope
                st.integers(min_value=0, max_value=7),  # ident
                st.sampled_from(["spec-a", "spec-b", "spec-c"]),
                st.sampled_from(["sequential", "batched"]),
                st.integers(min_value=0, max_value=3),  # stream
                st.floats(min_value=1e-9, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=12,
        )
    )
    def test_profile_roundtrip_bit_identical(self, tmp_path_factory, records):
        profile = Profile()
        for scope, ident, spec, engine, stream, wall in records:
            profile.record(scope, ident, "prog", spec, engine, stream, wall)
        store = TuningStore(str(tmp_path_factory.mktemp("prop")))
        store.publish_profile("scope", profile)
        loaded = store.load_profile("scope")
        assert loaded.to_json() == profile.to_json()
        assert loaded.stamp() == profile.stamp()
        for spec in ("spec-a", "spec-b", "spec-c"):
            assert loaded.spec_seconds(spec) == profile.spec_seconds(spec)


# ---------------------------------------------------------------------------
# Kernel codec: lowered kernels survive the disk, or degrade
# ---------------------------------------------------------------------------


class TestKernelCodec:
    def test_encode_decode_runs_bit_exact(self):
        linear, runtime, program, args, out_addr, kernel, key = _linear_fixture()
        record = encode_kernel(kernel)
        assert record is not None
        # The record is JSON-native end to end.
        revived = decode_kernel(
            json.loads(json.dumps(record)), runtime.memory, key
        )
        baseline = kernel.run(runtime.memory, args)
        reference = runtime.download(out_addr, [1, linear.n], linear.act_dtype)
        rerun = revived.run(runtime.memory, args)
        assert np.array_equal(
            reference,
            runtime.download(out_addr, [1, linear.n], linear.act_dtype),
        )
        assert baseline.snapshot() == rerun.snapshot()
        assert revived.spec == key

    def test_unpersistable_const_skips_kernel(self):
        from dataclasses import replace

        *_, kernel, _key = _linear_fixture()
        poisoned = replace(kernel, consts={"C0": object()})
        assert encode_kernel(poisoned) is None
        legacy = replace(kernel, consts=None)  # pre-store lowered kernel
        assert encode_kernel(legacy) is None

    def test_decode_rejects_corrupt_source(self):
        _, runtime, _, _, _, kernel, key = _linear_fixture()
        record = encode_kernel(kernel)
        broken = dict(record)
        broken["source"] = "def _jit_kernel(mem, ptrs, stats:\n    pass"
        with pytest.raises(VMError):
            decode_kernel(broken, runtime.memory, key)
        hostile = dict(record)
        hostile["source"] = "x = 1"  # no _jit_kernel definition at all
        with pytest.raises(VMError, match="_jit_kernel"):
            decode_kernel(hostile, runtime.memory, key)

    def test_decode_rejects_another_pipelines_kernel(self):
        """A record whose ``passes`` is not this pipeline's — a store an
        older commit published — is refused even though its source still
        runs: rehydrating it would keep serving that pipeline's kernel."""
        from repro.compiler.lower import PASS_NAMES

        _, runtime, _, _, _, kernel, key = _linear_fixture()
        record = encode_kernel(kernel)
        # The stamp is the pass list plus the table's generation: the
        # same passes over a table with fewer forms emit a slower kernel.
        assert record["passes"] == list(PASS_NAMES) + [KERNEL_NAMESPACE_STAMP]
        assert all(name in KERNEL_NAMESPACE_STAMP for name in KERNEL_NAMESPACE)
        older = dict(record, passes=["const-fold", "unroll", "flatten"])  # PR 15's
        with pytest.raises(VMError, match="lowered by passes"):
            decode_kernel(older, runtime.memory, key)
        parent = dict(record, passes=list(PASS_NAMES))  # PRs 16-20: no stamp
        with pytest.raises(VMError, match="lowered by passes"):
            decode_kernel(parent, runtime.memory, key)
        smaller = "table:" + ",".join(sorted(set(KERNEL_NAMESPACE) - {"_tab", "_place"}))
        with pytest.raises(VMError, match="lowered by passes"):
            decode_kernel(dict(record, passes=list(PASS_NAMES) + [smaller]), runtime.memory, key)
        unsigned = {k: v for k, v in record.items() if k != "passes"}
        with pytest.raises(VMError, match="lowered by passes"):
            decode_kernel(unsigned, runtime.memory, key)

    def test_decode_rejects_foreign_buffer_length(self):
        from repro.vm import GlobalMemory

        _, runtime, _, _, _, kernel, key = _linear_fixture()
        record = encode_kernel(kernel)
        with pytest.raises(VMError, match="buffer"):
            decode_kernel(record, GlobalMemory(1 << 16), key)


# ---------------------------------------------------------------------------
# Degradation: every failure ends in a served, bit-exact response
# ---------------------------------------------------------------------------


class TestEngineDegradation:
    def test_engine_warm_start_degrades_on_corrupt_entries(self, tmp_path):
        from repro.runtime import Runtime

        store = TuningStore(str(tmp_path))
        store.publish("profile", "shard", {"version": "junk"})
        _rewrite(store, "profile", "shard", lambda b: "truncated{")
        runtime = Runtime()
        runtime.attach_store(str(tmp_path), "shard")
        assert runtime.warm_start() is None
        # The runtime is alive and its metrics carry the counted miss.
        snapshot = runtime.metrics()
        assert snapshot["store.enabled"] == 1
        assert snapshot["store.misses"] == 1

    def test_engine_publish_then_warm_start_roundtrip(self, tmp_path):
        from repro.runtime import Runtime

        first = Runtime()
        first.attach_store(str(tmp_path), "shard")
        first.enable_profiling().merge(_sample_profile())
        assert first.publish_store()["profile"] is True
        second = Runtime()
        second.attach_store(str(tmp_path), "shard")
        assert second.profiler is None  # the caller spends the profile
        assert second.warm_start().spec_seconds("spec-a") == pytest.approx(0.5)

    def test_jit_rehydrates_without_compiling(self, tmp_path):
        from repro.runtime.jit import JitManager

        linear, runtime, program, args, out_addr, _, key = _linear_fixture()
        store = TuningStore(str(tmp_path))
        donor = JitManager(runtime.memory)
        compiled = donor.maybe_compile(program, args, forced=True, key=key)
        assert compiled is not None
        assert store.publish_jit("shard", donor) == 1

        fresh = JitManager(runtime.memory)
        payload = store.load_jit("shard")
        assert set(payload) == {"kernels"}
        assert fresh.stage_kernels(payload["kernels"]) == 1
        # The staged record is the heat: the key promotes on first sight
        # and the kernel comes off disk, not through the pass pipeline.
        kernel = fresh.maybe_compile(program, args, key=key)
        assert kernel is not None
        counters = fresh.counters()
        assert counters["rehydrated"] == 1 and counters["compiled"] == 0
        kernel.run(runtime.memory, args)
        reference = runtime.download(out_addr, [1, linear.n], linear.act_dtype)
        compiled.run(runtime.memory, args)
        assert np.array_equal(
            reference,
            runtime.download(out_addr, [1, linear.n], linear.act_dtype),
        )

    def test_parent_format_jit_record_still_stages_its_kernels(self, tmp_path):
        """A ``jit`` record published while promotion was timed carries a
        ``heat`` dict of seconds beside ``kernels``: it loads, the heat
        is ignored, and the kernel stages — hot at boot — and
        rehydrates."""
        from repro.runtime import Runtime
        from repro.runtime.profiling import spec_string

        linear, runtime, program, args, out_addr, kernel, key = _linear_fixture()
        store = TuningStore(str(tmp_path))
        store.publish("jit", "shard", {
            "heat": {spec_string(key): 0.31, "spec-never-compiled": 2.0},
            "kernels": [encode_kernel(kernel)],
        })
        assert list(store.load_jit("shard")["kernels"]) == [encode_kernel(kernel)]
        runtime.attach_store(str(tmp_path), "shard")
        runtime.enable_jit()
        runtime.warm_start()
        assert set(runtime.jit._stored) == {spec_string(key)}
        runtime.launch(program, args)  # engine="auto", first sight
        counters = runtime.jit.counters()
        assert (counters["rehydrated"], counters["compiled"]) == (1, 0)
        assert counters["promotions"] == 1
        # A heat-only record (no kernels) is still not a snapshot.
        store.publish("jit", "bare", {"heat": {}})
        with pytest.raises(VMError, match="not a JIT snapshot"):
            store.load_jit("bare")

    def test_jit_corrupt_record_degrades_to_cold_compile(self, tmp_path):
        from repro.runtime.jit import JitManager
        from repro.runtime.profiling import spec_string

        linear, runtime, program, args, out_addr, kernel, key = _linear_fixture()
        record = encode_kernel(kernel)
        record["source"] = "garbage("  # bit-rot on disk
        fresh = JitManager(runtime.memory)
        assert fresh.stage_kernels([record]) == 1
        got = fresh.maybe_compile(program, args, key=key)
        assert got is not None  # compiled cold, not crashed
        counters = fresh.counters()
        assert counters["compiled"] == 1 and counters["rehydrated"] == 0
        got.run(runtime.memory, args)
        kernel.run(runtime.memory, args)  # reference lowered pre-corruption

    def test_jit_relowers_over_another_pipelines_kernel(self, tmp_path):
        """The soft path of a stale pass list: counted as a compile, not
        a rehydration, and the republished record is the new pipeline's."""
        from repro.compiler.lower import PASS_NAMES
        from repro.runtime.jit import JitManager
        from repro.runtime.profiling import spec_string

        linear, runtime, program, args, out_addr, kernel, key = _linear_fixture()
        stale = dict(encode_kernel(kernel), passes=["const-fold", "unroll", "flatten"])
        fresh = JitManager(runtime.memory)
        assert fresh.stage_kernels([stale]) == 1
        got = fresh.maybe_compile(program, args, key=key)
        counters = fresh.counters()
        assert counters["compiled"] == 1 and counters["rehydrated"] == 0
        assert got.passes == PASS_NAMES
        kernel.run(runtime.memory, args)
        reference = runtime.download(out_addr, [1, linear.n], linear.act_dtype)
        got.run(runtime.memory, args)
        assert np.array_equal(
            reference, runtime.download(out_addr, [1, linear.n], linear.act_dtype)
        )
        store = TuningStore(str(tmp_path))
        assert store.publish_jit("shard", fresh) == 1
        (republished,) = store.load_jit("shard")["kernels"]
        assert republished["passes"] == list(PASS_NAMES) + [KERNEL_NAMESPACE_STAMP]

    def test_jit_relowers_a_kernel_of_the_unrolled_walk(self):
        """A record the walk wrote before it distributed loops — the pass
        list said ``unroll`` — still runs, but its k-loop is four copies
        of every statement: refused, lowered cold, and the kernel served
        unpacks the weights of every k-step in one call."""
        from unittest import mock

        from repro.compiler.lower import PASS_NAMES, lower_program
        from repro.runtime.jit import JitManager

        linear, runtime, program, args, out_addr, kernel, key = _linear_fixture()
        with mock.patch("repro.vm.batched.loop_split", return_value=None):
            unrolled = lower_program(program, args, runtime.memory)
        stamp = ["const-fold", "unroll", "forward", "flatten", KERNEL_NAMESPACE_STAMP]
        record = dict(encode_kernel(unrolled), passes=stamp)
        with pytest.raises(VMError, match="lowered by passes"):
            decode_kernel(record, runtime.memory, key)
        fresh = JitManager(runtime.memory)
        assert fresh.stage_kernels([record]) == 1
        got = fresh.maybe_compile(program, args, key=key)
        counters = fresh.counters()
        assert (counters["compiled"], counters["rehydrated"]) == (1, 0)
        assert got.passes == PASS_NAMES and "unroll+distribute" in PASS_NAMES
        assert got.source == kernel.source
        assert (unrolled.source.count("_viewp("), got.source.count("_viewp(")) == (4, 1)

    def test_warm_boot_rehydrates_single_launch_kernels_only(self, tmp_path):
        """A JIT-on simulator runs its decode steps as stacked compiled
        kernels; the store keeps only the single-launch one (records are
        keyed by specialization alone), so a warm boot rehydrates that
        kernel, re-lowers the stacks, and serves the same digests.  The
        cold boot interprets the key's first ``PROMOTE_AFTER``
        invocations; the warm boot none — the staged record is the
        heat."""
        from repro.llm.batching import Request, uniform_trace
        from repro.serving import WorkerSpec

        spec = WorkerSpec(
            linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
            max_batch=4, num_streams=4, jit=True,
            store_path=str(tmp_path),
        )
        # One request outlives the others: steps run at batch 4 (a
        # stacked kernel, once the key has been launched past the
        # constant) and then at batch 1 (the single-launch one).
        trace = uniform_trace(3, 0.0, prompt_tokens=64, output_tokens=8)
        trace.append(Request(0.0, 64, 16, rid=3))
        cold_sim = spec.build_simulator()
        cold = cold_sim.run(trace)
        cold_jit = cold_sim.decode_linear.runtime.jit
        stacks = {k.launches for k in cold_jit.cache._kernels.values()}
        assert 1 in stacks and max(stacks) > 1
        assert cold_sim.publish_store()["jit_kernels"] == 1
        stored = TuningStore(str(tmp_path)).load_jit(spec.store_scope())
        per_launch = next(
            k.nblocks for k in cold_jit.cache._kernels.values() if k.launches == 1
        )
        assert [r["nblocks"] for r in stored["kernels"]] == [per_launch]

        warm_sim = spec.build_simulator()
        warm = warm_sim.run(trace)
        warm_jit = warm_sim.decode_linear.runtime.jit
        assert warm_jit.rehydrated == 1
        # Every group size lowers on first sight, the stacks again.
        warm_stacks = {k.launches for k in warm_jit.cache._kernels.values()}
        assert warm_stacks >= stacks
        assert warm_jit.compiled == len(warm_stacks) - 1
        interpreted = PROMOTE_AFTER * spec.max_batch  # four batch-4 steps
        assert cold_jit.promotions == cold.kernel_launches - interpreted
        assert warm_jit.promotions == warm.kernel_launches == cold.kernel_launches
        assert {r.request.rid: r.output_digest for r in warm.results} == {
            r.request.rid: r.output_digest for r in cold.results
        }

    @pytest.mark.parametrize("failure", [VMError, OSError])
    def test_publish_is_best_effort_per_artifact(self, tmp_path, failure):
        """One artifact failing to publish (the store's own "swept 16
        times" VMError, or any OSError) must not cost the others: the
        kernel still lands, and still loads."""
        from repro.llm.batching import Request, uniform_trace
        from repro.serving import WorkerSpec

        spec = WorkerSpec(
            linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
            max_batch=4, num_streams=4, jit=True,
            store_path=str(tmp_path),
        )
        trace = uniform_trace(3, 0.0, prompt_tokens=64, output_tokens=4)
        trace.append(Request(0.0, 64, 8, rid=3))  # a batch-1 tail
        cold_sim = spec.build_simulator()
        cold = cold_sim.run(trace)

        def broken_publish(scope, profile):
            raise failure("injected: profile publication failed")

        cold_sim.decode_linear.runtime.store.publish_profile = broken_publish
        summary = cold_sim.publish_store()
        assert summary["profile"] is False and summary["errors"] == 1
        assert summary["jit_kernels"] == 1

        store = TuningStore(str(tmp_path))
        scope = spec.store_scope()
        assert store.load_profile(scope) is None
        warm_sim = spec.build_simulator()
        warm = warm_sim.run(trace)
        assert warm_sim.decode_linear.runtime.jit.rehydrated == 1
        assert {r.request.rid: r.output_digest for r in warm.results} == {
            r.request.rid: r.output_digest for r in cold.results
        }

    def test_runtime_published_state_warm_boots_a_spec_simulator(self, tmp_path):
        """The cross-path case: state published through
        ``Runtime.publish_store`` directly (no simulator involved in the
        publication) warm-boots a ``WorkerSpec``-built simulator."""
        from repro.llm.batching import Request, uniform_trace
        from repro.serving import WorkerSpec

        shape = dict(
            linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
            max_batch=4, num_streams=4,
        )
        trace = uniform_trace(8, 0.001, output_tokens=16)
        # A batch-1 tail: only single-launch kernels are persisted.
        trace.append(Request(0.0, 64, 24, rid=99))
        oracle = WorkerSpec(**shape).build_simulator().run(trace)
        # Without a store a JIT run is profiled only when asked to be.
        tuned = WorkerSpec(**shape, jit=True, profile=True)
        donor = tuned.build_simulator()
        donor.run(trace)
        runtime = donor.decode_linear.runtime
        runtime.attach_store(str(tmp_path), tuned.store_scope())
        summary = runtime.publish_store(donor.served_profile)
        assert summary == {"profile": True, "jit_kernels": 1, "errors": 0}

        warm_sim = WorkerSpec(
            **shape, jit=True, store_path=str(tmp_path),
        ).build_simulator()
        warm = warm_sim.run(trace)
        assert warm_sim.decode_linear.runtime.jit.rehydrated >= 1
        # Hot at boot: no launch of the warm run was interpreted.
        assert warm.jit_promotions == warm.kernel_launches
        assert {r.request.rid: r.output_digest for r in warm.results} == {
            r.request.rid: r.output_digest for r in oracle.results
        }

    def test_store_holding_stale_plan_records_still_warm_boots(self, tmp_path):
        """A directory published before placement went — profile + jit
        + one ``plan`` record per captured graph — warm-boots: the
        kernel rehydrates, digests equal the oracle's, and the plan
        files are never opened (a load would refresh their mtime and
        count a hit or a miss); they age out through ``gc()``."""
        from repro.llm.batching import Request, uniform_trace
        from repro.serving import WorkerSpec

        shape = dict(
            linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
            max_batch=4, num_streams=4,
        )
        spec = WorkerSpec(
            **shape, jit=True, store_path=str(tmp_path)
        )
        trace = uniform_trace(3, 0.0, prompt_tokens=64, output_tokens=4)
        trace.append(Request(0.0, 64, 12, rid=3))  # a batch-1 tail
        oracle = WorkerSpec(**shape).build_simulator().run(trace)
        donor = spec.build_simulator()
        donor.run(trace)
        assert donor.publish_store() == {
            "profile": True, "jit_kernels": 1, "errors": 0,
        }
        store = TuningStore(str(tmp_path))
        plans = [
            store.publish(
                "plan",
                f"{spec.store_scope()}:{graph.signature}",
                {"version": 1, "kind": "execution-graph-plan",
                 "signature": graph.signature, "num_streams": 4, "nodes": []},
            )
            for graph in donor.graphs.values()
        ]
        assert len(plans) >= 2

        def fingerprint(path):
            with open(path, "rb") as handle:
                return handle.read(), os.stat(path).st_mtime_ns

        before = [fingerprint(path) for path in plans]
        warm_sim = spec.build_simulator()
        warm = warm_sim.run(trace)
        runtime = warm_sim.decode_linear.runtime
        assert runtime.jit.rehydrated >= 1
        assert {r.request.rid: r.output_digest for r in warm.results} == {
            r.request.rid: r.output_digest for r in oracle.results
        }
        # Exactly the profile and the jit record were read.
        assert (runtime.store.hits, runtime.store.misses) == (2, 0)
        assert [fingerprint(path) for path in plans] == before

    def test_worker_serves_bit_exact_from_poisoned_store(self, tmp_path):
        """The acceptance property: a spawned worker whose store holds
        one corrupt entry per kind it consults still boots, serves, and
        matches the oracle digest-for-digest."""
        from repro.serving import Router, WorkerPool, WorkerSpec, poisson_trace

        spec = WorkerSpec(
            linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
            max_batch=4, num_streams=2, jit=True, store_path=str(tmp_path),
        )
        scope = spec.store_scope()
        store = TuningStore(str(tmp_path))
        for kind in ("profile", "jit"):
            with open(store.entry_path(kind, scope), "w", encoding="utf-8") as fh:
                fh.write('{"version": 1, "kind": "' + kind + '", "trunc')
        trace = poisson_trace(4, rate_rps=100.0, prompt_tokens=32, output_tokens=2)
        with WorkerPool(spec, 1) as pool:
            result = Router(pool, chunk_size=4).serve(trace, timeout_s=180.0)
        oracle = WorkerSpec(
            linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
            max_batch=4, num_streams=2, jit=True,
        ).build_simulator().run(trace)
        assert result.digests() == {
            r.request.rid: r.output_digest for r in oracle.results
        }

    def test_respawned_worker_boots_converged(self, tmp_path):
        """Generation 1 serves cold and publishes on shutdown; a fresh
        pool from the same spec boots warm: the decode kernel comes off
        disk instead of through the pass pipeline, same digests — warmup
        paid once per fleet, not once per process."""
        from repro.llm.batching import Request
        from repro.serving import Router, WorkerPool, WorkerSpec, poisson_trace

        spec = WorkerSpec(
            linear_k=64, linear_n=16, linear_dtype="i6", linear_group=32,
            max_batch=4, num_streams=4, jit=True,
            store_path=str(tmp_path),
        )
        trace = poisson_trace(
            8, rate_rps=500.0, prompt_tokens=64, output_tokens=16
        )
        # A batch-1 tail: only single-launch kernels are persisted.
        trace.append(Request(trace[-1].arrival_s, 64, 40, rid=len(trace)))
        with WorkerPool(spec, 1) as pool:
            gen1 = Router(pool, chunk_size=9).serve(trace, timeout_s=180.0)
            cold = pool.pull_state(0)["jit"]
        assert TuningStore(str(tmp_path)).entry_count() >= 1  # shutdown published
        with WorkerPool(spec, 1) as pool:
            gen2 = Router(pool, chunk_size=9).serve(trace, timeout_s=180.0)
            warm = pool.pull_state(0)["jit"]
        assert gen2.digests() == gen1.digests()
        assert (cold["rehydrated"], warm["rehydrated"]) == (0, 1)
        assert warm["compiled"] == cold["compiled"] - 1


# ---------------------------------------------------------------------------
# Tuner: stale-stamp eviction accounting + rankings surviving the process
# ---------------------------------------------------------------------------


class TestTunerStore:
    def test_stale_stamp_records_eviction(self):
        """Regression: a ``tune_profiled`` re-rank under a moved profile
        stamp silently discarded the memoized ranking — ``counters()``
        said nothing was evicted while the slot was overwritten."""
        from repro.autotune import Autotuner
        from repro.perf.gpus import L40S
        from repro.perf.workload import MatmulWorkload
        from repro.runtime import Runtime

        tuner = Autotuner(L40S)
        w = MatmulWorkload.of(16, 16, 64, "i6")
        runtime = Runtime()
        profile = Profile()
        profile.record("t", 0, "p", "spec", "batched", 0, 0.01)
        tuner.tune_profiled(w, profile, runtime=runtime, top_k=1, repeats=1)
        assert tuner.counters()["evictions"] == 0
        # Same stamp: a hit, nothing evicted.
        tuner.tune_profiled(w, profile, runtime=runtime, top_k=1, repeats=1)
        assert tuner.counters()["hits"] == 1
        assert tuner.counters()["evictions"] == 0
        # The profile moves: the stale slot is evicted AND counted.
        profile.record("t", 1, "p", "spec", "batched", 0, 0.01)
        tuner.tune_profiled(w, profile, runtime=runtime, top_k=1, repeats=1)
        assert tuner.counters()["evictions"] == 1
        assert tuner.cache_size() == 1  # still one slot per workload

    def test_rankings_survive_the_process(self, tmp_path):
        from repro.autotune import Autotuner
        from repro.perf.gpus import L40S
        from repro.perf.workload import MatmulWorkload
        from repro.runtime import Runtime

        w = MatmulWorkload.of(16, 16, 64, "i6")
        runtime = Runtime()
        profile = Profile()
        profile.record("t", 0, "p", "spec", "batched", 0, 0.01)
        first = Autotuner(L40S, store=str(tmp_path))
        won = first.tune_profiled(w, profile, runtime=runtime, top_k=1, repeats=1)
        # A "new process": fresh tuner, empty memo, same store + stamp.
        second = Autotuner(L40S, store=str(tmp_path))
        regained = second.tune_profiled(
            w, profile, runtime=runtime, top_k=1, repeats=1
        )
        assert regained == won  # config, latency and census bit-equal
        assert second.store.hits == 1

    def test_stale_store_ranking_is_ignored(self, tmp_path):
        from repro.autotune import Autotuner
        from repro.perf.gpus import L40S
        from repro.perf.workload import MatmulWorkload
        from repro.runtime import Runtime

        w = MatmulWorkload.of(16, 16, 64, "i6")
        runtime = Runtime()
        profile = Profile()
        profile.record("t", 0, "p", "spec", "batched", 0, 0.01)
        donor = Autotuner(L40S, store=str(tmp_path))
        donor.tune_profiled(w, profile, runtime=runtime, top_k=1, repeats=1)
        # New traffic moved the stamp: the stored ranking is stale and
        # the fresh tuner must re-rank, not serve it.
        profile.record("t", 1, "p", "spec", "batched", 0, 0.01)
        fresh = Autotuner(L40S, store=str(tmp_path))
        fresh.tune_profiled(w, profile, runtime=runtime, top_k=1, repeats=1)
        assert fresh.store.hits == 0  # stale stamp raised, degraded
        assert fresh.misses == 1
