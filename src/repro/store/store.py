"""The persistent tuning store: fleet-warm state that outlives a process.

Every other subsystem in the runtime learns *per process*: the
specialization cache, recorded :class:`~repro.runtime.profiling.Profile`
records, compiled kernels, and ``tune_profiled`` rankings
all die with the process that paid for them, so each spawned worker
(:mod:`repro.serving`) re-pays a warmup another worker already paid.
:class:`TuningStore` is the durable half of that loop — a
content-addressed on-disk store keyed by what the artifacts *are*
(program fingerprints inside specialization-key strings, dtype sets,
profile content stamps), not where they came from:

- serialized :class:`~repro.runtime.profiling.Profile` s (the
  ``tune_profiled`` input);
- JIT state: lowered-kernel **sources**
  (:class:`~repro.compiler.lower.LoweredKernel`), rehydratable in a
  fresh process without re-running the pass pipeline — a stored kernel
  is also the promotion heat: its specialization is hot at boot;
- ``tune_profiled`` rankings, keyed by workload and profile stamp.

Durability contract (what the fault-injection suite pins):

- **Atomic publication.**  Entries are written to a temp file in the
  store directory, flushed, fsynced, and ``os.replace``-d into place —
  a reader sees the whole entry or no entry, never a torn one, and a
  SIGKILL mid-publish leaves only an invisible temp file.
- **Loud-but-soft loads.**  Every malformed entry — truncated JSON,
  non-object body, wrong version, wrong kind, key mismatch, payload
  checksum mismatch, stale stamp — raises :class:`VMError` *at the
  store layer*; every caller in the engine stack catches it and
  degrades to a cold compile.  A bad entry never crashes a worker and
  never silently feeds garbage to an optimizer.
- **LRU/size-capped GC.**  The entry count and total byte size are
  bounded; eviction is least-recently-*used* (loads refresh mtime).
  GC unlinks whole entry files, and readers treat a file vanishing
  mid-read as a plain miss — eviction can never produce a partial read.

Counters (``hits``/``misses``/``publishes``/``gc_evictions``) surface
through ``Runtime.metrics()`` under the frozen ``store.*`` keys, and
publish/load/gc emit ``store``-category trace spans when a process
tracer is installed.
"""

from __future__ import annotations

import base64
import fcntl
import hashlib
import json
import os
import tempfile
import threading

import numpy as np

from repro.errors import VMError
from repro.obs import trace as obs_trace
from repro.vm.tileops import KERNEL_NAMESPACE_STAMP

__all__ = [
    "STORE_JSON_VERSION",
    "TuningStore",
    "encode_kernel",
    "decode_kernel",
]

#: Version stamp written into (and required of) every entry body.
STORE_JSON_VERSION = 1

#: Entry kinds the typed wrappers publish.
KINDS = ("profile", "rankings", "jit")

#: Default entry-count cap.
DEFAULT_MAX_ENTRIES = 256

#: Default total-size cap (bytes of entry files).
DEFAULT_MAX_BYTES = 64 << 20

#: Temp-file prefix: never matches the ``*.json`` entry glob, so a
#: SIGKILL-orphaned temp write is invisible to every reader.
_TMP_PREFIX = ".publish-"


def _canon(value):
    """JSON-normalize a value (tuples become lists, int keys become
    strings) so stamps and keys compare equal across a round-trip."""
    return json.loads(json.dumps(value))


def _payload_checksum(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Lowered-kernel (de)hydration
#
# A LoweredKernel is source + a constant pool; the source re-compiles in
# any process, but the pool holds numpy arrays, dtype objects and fancy-
# index tuples that must survive JSON.  Anything outside the encodable
# set makes the whole kernel unpersistable (encode_kernel returns None)
# — the fresh process just re-lowers, which is only a warmup cost.
# ---------------------------------------------------------------------------


def _encode_const(obj) -> dict:
    if isinstance(obj, np.ndarray):
        return {
            "kind": "ndarray",
            "dtype": obj.dtype.str,
            "shape": list(obj.shape),
            "data": base64.b64encode(obj.tobytes()).decode("ascii"),
        }
    if isinstance(obj, bool) or isinstance(obj, (int, float)):
        return {"kind": "scalar", "type": type(obj).__name__, "value": obj}
    if isinstance(obj, str):
        return {"kind": "str", "value": obj}
    if isinstance(obj, tuple) and all(isinstance(e, np.ndarray) for e in obj):
        return {"kind": "tuple", "items": [_encode_const(e) for e in obj]}
    name = getattr(obj, "name", None)
    if name is not None:
        from repro.dtypes.registry import dtype_from_name

        try:
            if dtype_from_name(name) is obj:
                return {"kind": "dtype", "name": name}
        except (KeyError, VMError, ValueError):
            pass
    raise VMError(f"unpersistable kernel constant of type {type(obj).__name__}")


def _decode_const(record: dict):
    kind = record.get("kind")
    if kind == "ndarray":
        data = base64.b64decode(record["data"])
        arr = np.frombuffer(data, dtype=np.dtype(record["dtype"]))
        arr = arr.reshape(tuple(record["shape"])).copy()
        arr.setflags(write=False)
        return arr
    if kind == "scalar":
        value = record["value"]
        caster = {"bool": bool, "int": int, "float": float}.get(record.get("type"))
        if caster is None:
            raise VMError(f"unknown scalar constant type {record.get('type')!r}")
        return caster(value)
    if kind == "str":
        return record["value"]
    if kind == "tuple":
        return tuple(_decode_const(e) for e in record["items"])
    if kind == "dtype":
        from repro.dtypes.registry import dtype_from_name

        return dtype_from_name(record["name"])
    raise VMError(f"unknown kernel constant kind {kind!r}")


def encode_kernel(kernel) -> dict | None:
    """A :class:`~repro.compiler.lower.LoweredKernel` as a JSON-native
    record, or ``None`` when its constant pool holds something that
    cannot survive serialization (the kernel is simply not persisted —
    a fresh process re-lowers it)."""
    if kernel.consts is None:
        return None
    try:
        consts = {
            name: _encode_const(obj) for name, obj in kernel.consts.items()
        }
    except VMError:
        return None
    return {
        "program_name": kernel.program_name,
        "spec": repr(kernel.spec),
        "grid": list(kernel.grid),
        "nblocks": kernel.nblocks,
        "ptr_indices": list(kernel.ptr_indices),
        "source": kernel.source,
        "passes": list(kernel.passes) + [KERNEL_NAMESPACE_STAMP],
        "buffer_len": kernel.buffer_len,
        "shared_used": bool(kernel.shared_used),
        "num_params": kernel.num_params,
        "consts": consts,
    }


def decode_kernel(record: dict, memory, key: tuple):
    """Rehydrate a stored kernel record against ``memory`` (the
    receiving process's :class:`~repro.vm.memory.GlobalMemory`) under
    specialization key ``key``.  Raises :class:`VMError` on any
    mismatch or corruption — the caller falls back to a cold lowering.
    """
    from repro.compiler.lower import _HELPERS, LoweredKernel, PASS_NAMES

    try:
        buffer_len = int(record["buffer_len"])
        source = record["source"]
        consts = {
            name: _decode_const(c) for name, c in record["consts"].items()
        }
        grid = tuple(int(g) for g in record["grid"])
        ptr_indices = tuple(int(i) for i in record["ptr_indices"])
        nblocks = int(record["nblocks"])
        num_params = int(record["num_params"])
        program_name = record["program_name"]
        shared_used = bool(record["shared_used"])
    except (KeyError, TypeError, ValueError) as exc:
        raise VMError(f"malformed stored kernel record: {exc}") from exc
    if not isinstance(source, str) or "_jit_kernel" not in source:
        raise VMError("stored kernel source is not a _jit_kernel definition")
    stamp = list(PASS_NAMES) + [KERNEL_NAMESPACE_STAMP]
    if record.get("passes") != stamp:
        # The source still runs (KERNEL_NAMESPACE only grows), but it is
        # what an older pipeline — other passes, or the same passes over a
        # table with fewer forms to pick from — emitted: serving it would
        # pin this process to that pipeline's speed for as long as the
        # store lives.
        raise VMError(
            f"stored kernel for {program_name} was lowered by passes "
            f"{record.get('passes')!r}, this pipeline runs {stamp!r}"
        )
    if buffer_len != len(memory.buffer):
        raise VMError(
            f"stored kernel for {program_name} was lowered against a "
            f"{buffer_len}-byte buffer, this memory has {len(memory.buffer)}"
        )
    try:
        code = compile(source, f"<store:{program_name}>", "exec")
        namespace = dict(_HELPERS)
        namespace.update(consts)
        exec(code, namespace)  # noqa: S102 - integrity-checked store entry
        fn = namespace["_jit_kernel"]
    except (SyntaxError, KeyError, ValueError) as exc:
        raise VMError(f"stored kernel source does not compile: {exc}") from exc
    return LoweredKernel(
        program_name=program_name,
        spec=key,
        grid=grid,
        nblocks=nblocks,
        ptr_indices=ptr_indices,
        source=source,
        passes=tuple(PASS_NAMES),
        buffer_len=buffer_len,
        shared_used=shared_used,
        num_consts=len(consts),
        num_params=num_params,
        consts=consts,
        _fn=fn,
    )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class TuningStore:
    """Content-addressed on-disk store of tuning artifacts.

    One directory holds every entry as ``<kind>-<sha256[:24]>.json``
    where the hash covers ``(kind, key)`` — the key being a caller-
    chosen content identity (a scope string, a graph signature, a
    workload key).  See the module docstring for the durability
    contract.  Thread-safe; multi-process-safe by construction (atomic
    rename is the only publication primitive, and GC tolerates racing
    unlinks).
    """

    def __init__(
        self,
        root: str,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = os.fspath(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.publishes = 0
        self.gc_evictions = 0

    # -- addressing ----------------------------------------------------------
    @staticmethod
    def entry_id(kind: str, key: str) -> str:
        digest = hashlib.sha256(f"{kind}\x00{key}".encode("utf-8")).hexdigest()
        return digest[:24]

    def entry_path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, f"{kind}-{self.entry_id(kind, key)}.json")

    # -- raw publish / load --------------------------------------------------
    def publish(self, kind: str, key: str, payload, stamp=None) -> str:
        """Atomically write one entry; returns its path.

        ``payload`` must be JSON-native.  ``stamp`` is an optional
        content fingerprint a loader can insist on (see ``expect_stamp``
        on :meth:`load`); it is stored JSON-normalized so producer and
        consumer compare equal shapes.
        """
        body = {
            "version": STORE_JSON_VERSION,
            "kind": kind,
            "key": key,
            "stamp": _canon(stamp),
            "payload": payload,
            "checksum": _payload_checksum(_canon(payload)),
        }
        text = json.dumps(body, sort_keys=True)
        path = self.entry_path(kind, key)
        tracer = obs_trace.ACTIVE
        start = tracer.now() if tracer is not None else 0.0
        for _attempt in range(16):
            fd, tmp = tempfile.mkstemp(prefix=_TMP_PREFIX, dir=self.root)
            try:
                # The exclusive flock marks this temp as *live*: GC's
                # orphan sweep skips locked temps, and the kernel drops
                # the lock if this process dies mid-write — so a
                # SIGKILL'd orphan is sweepable the moment it exists.
                fcntl.flock(fd, fcntl.LOCK_EX)
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                    handle.flush()
                    os.fsync(handle.fileno())
                    os.replace(tmp, path)  # rename with the lock held
                break
            except FileNotFoundError:
                # A racing GC won the lock in the instant between
                # mkstemp and flock and swept the temp.  Nothing was
                # published; write again.
                continue
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        else:
            raise VMError(
                f"store entry {kind}:{key} could not be published: the "
                "temp file was repeatedly swept by concurrent GC"
            )
        with self._lock:
            self.publishes += 1
        if tracer is not None:
            tracer.complete(
                f"store.publish:{kind}",
                "store",
                obs_trace.HOST_TID,
                start,
                tracer.now() - start,
                {"key": key, "bytes": len(text)},
            )
        self.gc()
        return path

    def load(self, kind: str, key: str, expect_stamp=None):
        """The entry's payload, or ``None`` when absent (a counted miss).

        Raises :class:`VMError` — after counting a miss — on every
        corruption class: truncated or non-object JSON, version or kind
        mismatch, key mismatch, checksum mismatch, and (when
        ``expect_stamp`` is given) a stale stamp.  Callers catch and
        degrade to a cold compile; the error text names the entry.
        """
        path = self.entry_path(kind, key)
        tracer = obs_trace.ACTIVE
        start = tracer.now() if tracer is not None else 0.0
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            # Absent — or unlinked by a racing GC mid-lookup; both are
            # plain misses, never errors.
            with self._lock:
                self.misses += 1
            if tracer is not None:
                tracer.instant(
                    f"store.miss:{kind}", "store", obs_trace.HOST_TID, {"key": key}
                )
            return None
        try:
            payload = self._validate(text, kind, key, expect_stamp)
        except VMError:
            with self._lock:
                self.misses += 1
            if tracer is not None:
                tracer.instant(
                    f"store.corrupt:{kind}", "store", obs_trace.HOST_TID, {"key": key}
                )
            raise
        with self._lock:
            self.hits += 1
        try:
            os.utime(path)  # LRU touch: recently loaded entries survive GC
        except OSError:
            pass
        if tracer is not None:
            tracer.complete(
                f"store.hit:{kind}",
                "store",
                obs_trace.HOST_TID,
                start,
                tracer.now() - start,
                {"key": key},
            )
        return payload

    @staticmethod
    def _validate(text: str, kind: str, key: str, expect_stamp):
        name = f"store entry {kind}:{key}"
        try:
            body = json.loads(text)
        except ValueError as exc:
            raise VMError(f"{name} is truncated or malformed: {exc}") from exc
        if not isinstance(body, dict):
            raise VMError(f"{name} must be a JSON object, got {type(body).__name__}")
        version = body.get("version")
        if version != STORE_JSON_VERSION:
            raise VMError(
                f"{name} has unsupported version {version!r} "
                f"(this build reads version {STORE_JSON_VERSION})"
            )
        if body.get("kind") != kind:
            raise VMError(f"{name} declares kind {body.get('kind')!r}")
        if body.get("key") != key:
            raise VMError(
                f"{name} declares key {body.get('key')!r} — hash collision "
                "or relocated entry"
            )
        if "payload" not in body:
            raise VMError(f"{name} is missing its payload")
        payload = body["payload"]
        if _payload_checksum(payload) != body.get("checksum"):
            raise VMError(f"{name} failed its payload checksum — corrupt entry")
        if expect_stamp is not None and body.get("stamp") != _canon(expect_stamp):
            raise VMError(
                f"{name} is stale: stamp {body.get('stamp')!r} != "
                f"expected {_canon(expect_stamp)!r}"
            )
        return payload

    # -- garbage collection --------------------------------------------------
    def gc(self) -> int:
        """Enforce the count/byte caps, least-recently-used first, and
        sweep orphaned temp files.  Returns the number of entries
        evicted.  Races cleanly with readers and other GCs: eviction is
        a whole-file unlink, a reader that loses the race sees a plain
        miss, and an already-unlinked victim is skipped."""
        entries = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            path = os.path.join(self.root, name)
            if name.startswith(_TMP_PREFIX):
                # Temp file: a live publisher holds an exclusive flock
                # on its temp for the whole write window, so a lock we
                # *can* take means the writer is gone (SIGKILL released
                # it) — a sweepable orphan, never visible to loads.
                try:
                    tmp_fd = os.open(path, os.O_RDONLY)
                except OSError:
                    continue  # already renamed or swept by a racer
                try:
                    try:
                        fcntl.flock(tmp_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    except OSError:
                        continue  # a live writer owns it: leave it be
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                finally:
                    os.close(tmp_fd)
                continue
            if not name.endswith(".json"):
                continue
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(reverse=True)  # newest first
        kept = 0
        kept_bytes = 0
        evicted = 0
        tracer = obs_trace.ACTIVE
        for mtime, size, path in entries:
            kept += 1
            kept_bytes += size
            if kept <= self.max_entries and kept_bytes <= self.max_bytes:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            evicted += 1
            if tracer is not None:
                tracer.instant(
                    "store.gc_evict",
                    "store",
                    obs_trace.HOST_TID,
                    {"path": os.path.basename(path)},
                )
        if evicted:
            with self._lock:
                self.gc_evictions += evicted
        return evicted

    def counters(self) -> dict:
        """JSON-friendly counter snapshot (mirrored into the frozen
        ``store.*`` metrics keys by ``Runtime.metrics()``)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "publishes": self.publishes,
                "gc_evictions": self.gc_evictions,
            }

    def entry_count(self) -> int:
        try:
            return sum(
                1 for name in os.listdir(self.root) if name.endswith(".json")
            )
        except OSError:
            return 0

    # -- typed wrappers ------------------------------------------------------
    def publish_profile(self, scope: str, profile) -> str:
        """Persist a :class:`~repro.runtime.profiling.Profile` under
        ``scope``, stamped with its content fingerprint."""
        payload = json.loads(profile.to_json())
        return self.publish("profile", scope, payload, stamp=list(profile.stamp()))

    def load_profile(self, scope: str):
        """The stored profile for ``scope`` as a live
        :class:`~repro.runtime.profiling.Profile`, or None.  Raises
        :class:`VMError` on corruption (store layer *or* profile
        parse)."""
        from repro.runtime.profiling import Profile

        payload = self.load("profile", scope)
        if payload is None:
            return None
        return Profile.from_json(json.dumps(payload))

    def publish_rankings(self, scope: str, workload_key: str, payload, stamp) -> str:
        """Persist one ``tune_profiled`` ranking, keyed by workload and
        stamped by the profile that produced it."""
        return self.publish(
            "rankings", f"{scope}:{workload_key}", payload, stamp=stamp
        )

    def load_rankings(self, scope: str, workload_key: str, expect_stamp):
        """The stored ranking payload for this workload under this exact
        profile stamp, or None.  A ranking computed from *other* traffic
        raises (stale stamp) rather than silently serving a winner the
        current profile might not pick."""
        return self.load("rankings", f"{scope}:{workload_key}", expect_stamp)

    def publish_jit(self, scope: str, manager) -> int:
        """Persist a :class:`~repro.runtime.jit.JitManager`'s warm state:
        every cached single-launch kernel's source and constant pool.
        Returns the number of kernels persisted (unpersistable ones are
        skipped, and so are stacked ones — the record is keyed by
        specialization alone, and both only cost a re-lowering)."""
        kernels = []
        with manager._lock:
            cached = list(manager.cache._kernels.values())
        for kernel in cached:
            if kernel.launches != 1:
                continue
            record = encode_kernel(kernel)
            if record is None:
                continue
            kernels.append(record)
        self.publish("jit", scope, {"kernels": kernels})
        return len(kernels)

    def load_jit(self, scope: str):
        """The stored JIT payload (``{"kernels": [...]}``) for ``scope``,
        or None.  Other keys are ignored: records published before
        promotion was counted also carry a ``heat`` dict."""
        payload = self.load("jit", scope)
        if payload is None:
            return None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("kernels"), list
        ):
            raise VMError(f"store entry jit:{scope} payload is not a JIT snapshot")
        return payload

    def __repr__(self) -> str:
        return (
            f"TuningStore({self.root!r}, {self.entry_count()} entries, "
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.publishes} publishes, {self.gc_evictions} gc-evicted)"
        )
