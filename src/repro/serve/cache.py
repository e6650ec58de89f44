"""Tiered result caches for the reconstruction service.

Reconstruction is a pure function of ``(events, engine spec, fuse
parameters)`` — the engine is deterministic by construction and the
fusion is an order-fixed reduction — so repeated requests for the same
job are served from a bounded LRU cache instead of recomputed
(:class:`ResultCache`, keyed by :func:`job_key`).

The same purity holds one level down: a segment's outcome is fully
determined by its frame-aligned event slice plus the engine spec, and
the segment index plays no part in the computation.  The serving layer
therefore also memoizes at *segment* granularity (:class:`SegmentCache`,
keyed by :func:`segment_key`): overlapping jobs — sliding windows,
warm-started streams, resubmissions after a partial failure — reuse
every segment they share with anything computed before, across two
tiers: an in-memory LRU bounded by bytes, in front of an optional
content-addressed on-disk store (atomic write-then-rename, versioned
schema, size-bounded eviction) whose entries survive process restarts.

Keys are content-addressed: the event stream contributes its
:meth:`~repro.events.containers.EventArray.content_digest`, the
trajectory its :meth:`~repro.geometry.trajectory.Trajectory.content_digest`
(computed once per trajectory, not once per key), and every other
configuration object (camera, config, policy) is normalized into a
stable token tree and hashed.  Two submissions hit the same entry
iff they would produce bit-identical results.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.engine import EngineSpec
from repro.events.containers import EventArray
from repro.geometry.trajectory import Trajectory

#: Version stamp of the segment-cache key derivation *and* the on-disk
#: entry layout.  Bumping it invalidates every previously written entry
#: (old files simply stop matching any key and age out via eviction), so
#: a change to the payload schema can never deserialize stale bytes.
SEGMENT_CACHE_SCHEMA = 3

#: The :class:`~repro.core.policy.DataflowPolicy` fields that change a
#: result.  ``name`` is a label and ``batch_frames`` a scheduling knob
#: (bit-identical for any value), so neither is part of a cache key.
_RESULT_POLICY_FIELDS = ("correction", "voting", "schema", "integer_scores")


def _policy_token(policy) -> tuple:
    """The result-relevant fields of ``policy`` (see above), as pairs."""
    return tuple((name, getattr(policy, name)) for name in _RESULT_POLICY_FIELDS)


def _token(obj) -> object:
    """Normalize ``obj`` into a deterministic, hashable-by-pickle token."""
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        # repr round-trips the exact double, so 0.1 and 0.1000...01 differ.
        return ("f", repr(obj))
    if isinstance(obj, enum.Enum):
        return ("enum", type(obj).__name__, obj.name)
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return ("nd", arr.shape, arr.dtype.str, arr.tobytes())
    if isinstance(obj, np.generic):
        return _token(obj.item())
    if isinstance(obj, EventArray):
        return ("events", obj.content_digest())
    if isinstance(obj, Trajectory):
        return ("trajectory", obj.content_digest())
    if isinstance(obj, (tuple, list)):
        return (type(obj).__name__, tuple(_token(item) for item in obj))
    if isinstance(obj, dict):
        return (
            "dict",
            tuple(sorted((_token(k), _token(v)) for k, v in obj.items())),
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, _token(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    state = getattr(obj, "__dict__", None)
    if state is None and hasattr(type(obj), "__slots__"):
        state = {
            name: getattr(obj, name)
            for name in type(obj).__slots__
            if hasattr(obj, name)
        }
    if state is not None:
        return (type(obj).__name__, _token(state))
    # Last resort: pickle bytes are deterministic for a fixed in-process
    # object layout, which is all an in-process cache needs.
    return ("pickle", type(obj).__name__, pickle.dumps(obj, protocol=5))


def job_key(
    spec: EngineSpec,
    events: EventArray,
    voxel_size: float,
    min_observations: int = 1,
) -> str:
    """Content hash identifying one reconstruction job (hex digest)."""
    token = _token(
        (
            ("events", events),
            ("camera", spec.camera),
            ("trajectory", spec.trajectory),
            ("config", spec.config),
            ("depth_range", spec.depth_range),
            ("policy", _policy_token(spec.policy)),
            ("backend", spec.backend),
            ("voxel_size", float(voxel_size)),
            ("min_observations", int(min_observations)),
        )
    )
    return hashlib.sha256(pickle.dumps(token, protocol=5)).hexdigest()


def outcome_digest(outcome) -> str:
    """Content hash of one segment outcome (hex digest).

    The integrity check of the reliability layer: the worker digests the
    outcome it is about to return, and the service re-digests what it
    received at merge time — any corruption in between (serialization
    damage, transport bit rot, an injected CORRUPT fault) mismatches.
    The hash covers the *deterministic* payload — segment index, key
    frames, and the profile's deterministic counters — because the
    profile's ``stage_seconds`` are wall-clock measurements that
    legitimately differ between the worker's digest and a verification
    re-run; only data that flows into the fused result is protected.
    """
    index, keyframes, profile = outcome
    token = _token((index, tuple(keyframes), profile.counters()))
    return hashlib.sha256(pickle.dumps(token, protocol=5)).hexdigest()


def segment_key(spec: EngineSpec, events_digest: str) -> str:
    """Content hash identifying one segment's worth of work (hex digest).

    Covers the segment's event-slice digest plus every spec field that
    flows into :func:`~repro.core.mapping.run_segment_task` — and
    nothing else.  Deliberately excluded:

    * the **segment index** — it orders the outcome back into its job's
      sequence but plays no part in the computation, so two jobs whose
      plans cut the same events under the same spec share the entry
      even when the slice sits at different positions;
    * the **fuse parameters** (``voxel_size``, ``min_observations``) —
      fusion happens after the per-segment stage, so one cached segment
      serves jobs that fuse differently;
    * the policy's ``name`` and ``batch_frames`` — a label and a
      scheduling knob, so a relabelled or re-batched policy shares the
      entry.

    The derivation is stamped with :data:`SEGMENT_CACHE_SCHEMA` so a
    schema bump orphans (rather than misreads) old on-disk entries.
    """
    token = _token(
        (
            ("schema", SEGMENT_CACHE_SCHEMA),
            ("events", events_digest),
            ("camera", spec.camera),
            ("trajectory", spec.trajectory),
            ("config", spec.config),
            ("depth_range", spec.depth_range),
            ("policy", _policy_token(spec.policy)),
            ("backend", spec.backend),
        )
    )
    return hashlib.sha256(pickle.dumps(token, protocol=5)).hexdigest()


def payload_digest(payload: tuple) -> str:
    """Content hash of one cached segment payload ``(keyframes, profile)``.

    The disk tier's load-time integrity check: the digest is stored next
    to the payload at write time and re-verified on ``integrity=True``
    loads, so bytes damaged at rest (truncation, bit rot, a concurrent
    writer bug) are detected and evicted instead of fused.  Like
    :func:`outcome_digest` it covers the deterministic payload only —
    key frames and profile counters, not wall-clock stage timings.
    """
    keyframes, profile = payload
    token = _token((tuple(keyframes), profile.counters()))
    return hashlib.sha256(pickle.dumps(token, protocol=5)).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of the serving layer's caches.

    ``hits``/``misses``/``evictions``/``size``/``capacity`` describe the
    job-level :class:`ResultCache` (their meaning is unchanged from
    before the segment tier existed); the ``segment_*`` fields describe
    the :class:`SegmentCache` and stay zero while it is disabled.  All
    counters are observability only — none of them feed the
    deterministic :meth:`~repro.core.results.PipelineProfile.counters`
    the equivalence tests compare.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0
    #: Segment-tier probes answered from memory or disk.
    segment_hits: int = 0
    #: Segment-tier probes that found nothing in either tier.
    segment_misses: int = 0
    #: Subset of ``segment_hits`` served by the on-disk store.
    segment_disk_hits: int = 0
    #: Entries dropped from either segment tier to stay in bounds.
    segment_evictions: int = 0
    #: Live entries in the segment memory tier.
    segment_entries: int = 0
    #: Live entries in the segment disk tier.
    segment_disk_entries: int = 0

    def as_dict(self) -> dict:
        """The counters as a plain dict (JSON-friendly)."""
        return dataclasses.asdict(self)


class ResultCache:
    """Bounded LRU map from job keys to finished results.

    ``capacity == 0`` disables caching entirely (every lookup is a miss
    and nothing is stored) — the switch the determinism tests and the
    throughput bench use to compare cached and uncached serving.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0 (0 disables)")
        self.capacity = int(capacity)
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything (``capacity > 0``)."""
        return self.capacity > 0

    def get(self, key: str):
        """The cached result for ``key``, or ``None`` (counted) on a miss."""
        if self.enabled and key in self._entries:
            self._entries.move_to_end(key)
            self._hits += 1
            return self._entries[key]
        self._misses += 1
        return None

    def put(self, key: str, value) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        if not self.enabled:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction counters."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            capacity=self.capacity,
        )


class SegmentCache:
    """Tiered segment-outcome store: bytes-bounded LRU over a disk tier.

    Entries map a :func:`segment_key` to the index-free payload
    ``(keyframes, profile)`` of one completed segment.  Two tiers:

    * **memory** — an LRU of live payload objects, bounded by the
      *pickled* size of its entries (``mem_mb``); a hit costs a dict
      lookup, no deserialization.
    * **disk** — a content-addressed file per entry under
      ``cache_dir/seg-v<schema>/<key[:2]>/<key>.pkl``, written to a
      temporary sibling and atomically renamed into place
      (``os.replace``), so readers — including concurrent services
      sharing the directory — never observe a torn entry.  Bounded by
      ``disk_mb`` with oldest-first (mtime) eviction.  Disk hits
      deserialize, verify the schema stamp (and, on ``verify=True``
      loads, the stored :func:`payload_digest`), promote into the
      memory tier, and survive process restarts.

    Either tier may be disabled independently (``mem_mb=0`` /
    ``cache_dir=None``); with both off the cache is inert (``enabled``
    is False and every probe is an uncounted no-op).
    """

    def __init__(
        self,
        mem_mb: float = 0.0,
        disk_mb: float = 256.0,
        cache_dir: str | None = None,
    ):
        if mem_mb < 0:
            raise ValueError("mem_mb must be >= 0 (0 disables the memory tier)")
        if disk_mb < 0:
            raise ValueError("disk_mb must be >= 0 (0 disables the disk tier)")
        self.mem_bytes = int(mem_mb * 2**20)
        self.disk_bytes = int(disk_mb * 2**20)
        self.cache_dir = cache_dir if (cache_dir and disk_mb > 0) else None
        #: key -> (payload, pickled size); insertion order is LRU order.
        self._mem: OrderedDict[str, tuple[tuple, int]] = OrderedDict()
        self._mem_total = 0
        #: key -> (path, size); populated from disk at construction so a
        #: restarted service knows its inherited footprint.
        self._disk: dict[str, tuple[str, int]] = {}
        self._disk_total = 0
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        if self.cache_dir is not None:
            self._scan_disk()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether any tier can store anything."""
        return self.mem_bytes > 0 or self.cache_dir is not None

    def __len__(self) -> int:
        return len(self._mem)

    @property
    def disk_entries(self) -> int:
        """Entries currently indexed in the disk tier."""
        return len(self._disk)

    def _root(self) -> str:
        return os.path.join(self.cache_dir, f"seg-v{SEGMENT_CACHE_SCHEMA}")

    def _path(self, key: str) -> str:
        return os.path.join(self._root(), key[:2], f"{key}.pkl")

    def _scan_disk(self) -> None:
        """Index the inherited on-disk entries (restart survival)."""
        root = self._root()
        if not os.path.isdir(root):
            return
        found = []
        for shard in os.scandir(root):
            if not shard.is_dir():
                continue
            for entry in os.scandir(shard.path):
                if not entry.name.endswith(".pkl"):
                    continue
                stat = entry.stat()
                found.append((stat.st_mtime, entry.name[:-4], entry.path, stat.st_size))
        # Oldest first, so the LRU-ish eviction order is deterministic
        # for a fixed directory state.
        for _, key, path, size in sorted(found):
            self._disk[key] = (path, size)
            self._disk_total += size
        self._evict_disk()

    # ------------------------------------------------------------------
    def get(self, key: str, *, count_miss: bool = True, verify: bool = False):
        """The cached ``(keyframes, profile)`` payload, or ``None``.

        ``count_miss=False`` keeps an opportunistic re-probe (the
        dispatch-time check after an admission-time miss) from charging
        the miss counter twice.  ``verify=True`` re-checks the stored
        payload digest on disk loads — the serve layer passes the job's
        ``integrity`` flag through — and treats a mismatch as a miss,
        deleting the damaged entry.
        """
        if not self.enabled:
            return None
        entry = self._mem.get(key)
        if entry is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            return entry[0]
        payload = self._read_disk(key, verify)
        if payload is not None:
            self.hits += 1
            self.disk_hits += 1
            return payload
        if count_miss:
            self.misses += 1
        return None

    def _read_disk(self, key: str, verify: bool):
        """Load one disk entry; damaged or mismatched entries are evicted."""
        if self.cache_dir is None or key not in self._disk:
            return None
        path = self._disk[key][0]
        try:
            with open(path, "rb") as f:
                record = pickle.load(f)
            ok = (
                isinstance(record, dict)
                and record.get("version") == SEGMENT_CACHE_SCHEMA
                and record.get("key") == key
            )
            payload = record["payload"] if ok else None
            if payload is not None and verify:
                if payload_digest(payload) != record.get("digest"):
                    payload = None
        except Exception:  # damaged bytes can raise nearly anything
            payload = None
        if payload is None:
            self._drop_disk(key)
            return None
        # Promote: a warm disk entry is about to be hot.
        self._put_mem(key, payload, self._disk[key][1])
        return payload

    def _drop_disk(self, key: str) -> None:
        path, size = self._disk.pop(key, (None, 0))
        self._disk_total -= size
        if path is not None:
            try:
                os.remove(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def put(self, key: str, payload: tuple) -> None:
        """Store one segment payload in every enabled tier (idempotent)."""
        if not self.enabled:
            return
        blob = None
        if key not in self._mem and self.mem_bytes > 0:
            blob = pickle.dumps(payload, protocol=5)
            self._put_mem(key, payload, len(blob))
        elif key in self._mem:
            self._mem.move_to_end(key)
        if self.cache_dir is not None and key not in self._disk:
            if blob is None:
                blob = pickle.dumps(payload, protocol=5)
            self._write_disk(key, payload, blob)

    def _put_mem(self, key: str, payload: tuple, size: int) -> None:
        if self.mem_bytes <= 0:
            return
        if key in self._mem:
            self._mem.move_to_end(key)
            return
        self._mem[key] = (payload, size)
        self._mem_total += size
        while self._mem_total > self.mem_bytes and len(self._mem) > 1:
            _, (_, dropped) = self._mem.popitem(last=False)
            self._mem_total -= dropped
            self.evictions += 1

    def _write_disk(self, key: str, payload: tuple, blob: bytes) -> None:
        """Atomic write-then-rename of one content-addressed entry."""
        record = pickle.dumps(
            {
                "version": SEGMENT_CACHE_SCHEMA,
                "key": key,
                "digest": payload_digest(payload),
                "payload": payload,
            },
            protocol=5,
        )
        directory = os.path.dirname(self._path(key))
        path = self._path(key)
        tmp = f"{path}.tmp-{os.getpid()}"
        try:
            os.makedirs(directory, exist_ok=True)
            with open(tmp, "wb") as f:
                f.write(record)
            os.replace(tmp, path)
        except OSError:
            # A full or read-only disk degrades the tier, never the job.
            try:
                os.remove(tmp)
            except OSError:
                pass
            return
        self._disk[key] = (path, len(record))
        self._disk_total += len(record)
        self._evict_disk()

    def _evict_disk(self) -> None:
        """Drop oldest-written entries until the disk tier fits its bound."""
        while self._disk_total > self.disk_bytes and len(self._disk) > 1:
            key = next(iter(self._disk))
            self._drop_disk(key)
            self.evictions += 1
