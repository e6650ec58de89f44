"""Benchmark-side tracing: spans around calls into each layer's public functions.

:func:`install` replaces public functions and methods of the program
with wrappers that record a :class:`Span` (name, layer, start, end,
parent span, operation id) in memory.  Nothing inside the program is
modified; the wrappers sit at the boundaries a caller can see.

Operations ("ops") are the benchmark's unit of work: one map run, one
gateway job, one stream pass.  Every span belongs to one op.  A client
opens an op with :meth:`Tracer.op`; calls that hop to another thread
(gateway shard threads) find their op through the session named in
the call, and segment executions in pool workers come back as
:class:`TimedOutcome` values whose worker-side timing is harvested when
the program merges them.

Worker spans rely on pool workers inheriting the patched modules,
which holds for the ``fork`` start method (the default on Linux for
Python before 3.14).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import heapq
import os
import threading
import time
from collections import defaultdict

#: Layer of the op's root span: time inside an op not covered by any
#: layer span (benchmark glue, unwrapped calls).
UNEXPLAINED = "unexplained"

#: Layers the benchmark attributes time to, in report order.
LAYERS = ("events", "engine", "mapping", "rig", "cache", "service", "gateway", "stream")

#: Originals of every patched attribute, restored by :func:`uninstall`.
_ORIGINALS: list[tuple[object, str, object]] = []

#: The active tracer (one per process; set by :func:`install`).
_TRACER: "Tracer | None" = None

#: The unwrapped segment entry point, called by the worker-side wrapper.
_RUN_SEGMENT = None


class Span:
    """One timed call: ``[start, end)`` on ``time.perf_counter``."""

    __slots__ = ("name", "layer", "op", "parent", "depth", "start", "end", "pid", "attrs")

    def __init__(self, name, layer, op, parent, depth, start, end=None, pid=0, attrs=None):
        self.name = name
        self.layer = layer
        self.op = op
        self.parent = parent
        self.depth = depth
        self.start = start
        self.end = end
        self.pid = pid
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class TimedOutcome(tuple):
    """A ``SegmentOutcome`` carrying the worker-side span of its computation.

    Unpacks and indexes exactly like the plain ``(index, keyframes,
    profile)`` tuple, so the program handles it unchanged; it pickles
    back from pool workers with its timing attributes.
    """


def traced_run_segment_task(task):
    """Worker entry-point wrapper: time one segment execution."""
    start = time.perf_counter()
    outcome = _RUN_SEGMENT(task)
    timed = TimedOutcome(outcome)
    timed.start, timed.end, timed.pid = start, time.perf_counter(), os.getpid()
    return timed


class Tracer:
    """In-memory span store with per-op nesting across threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[object, list[Span]] = {}
        self._op_var: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: session name -> op currently running for that session.
        self.session_ops: dict[str, object] = {}

    # ------------------------------------------------------------------
    def current_op(self):
        op = getattr(self._local, "op", None)
        return op if op is not None else self._op_var.get()

    @contextlib.contextmanager
    def op(self, op_id, session: str | None = None):
        """Open op ``op_id`` (its root span) for the calling task or thread."""
        token = self._op_var.set(op_id)
        self._stacks[op_id] = []
        if session is not None:
            self.session_ops[session] = op_id
        try:
            with self.span("op", UNEXPLAINED):
                yield
        finally:
            if session is not None:
                self.session_ops.pop(session, None)
            self._op_var.reset(token)

    @contextlib.contextmanager
    def bind(self, op_id):
        """Attribute this thread's spans to ``op_id`` for the block."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        op = self.current_op()
        if op is None:  # outside any op (setup, reference): not traced
            yield None
            return
        with self._lock:
            stack = self._stacks.setdefault(op, [])
            parent = stack[-1] if stack else None
            record = Span(
                name, layer, op, parent, len(stack), time.perf_counter(),
                pid=os.getpid(), attrs=attrs,
            )
            stack.append(record)
        try:
            yield record
        finally:
            with self._lock:
                record.end = time.perf_counter()
                stack.remove(record)
                self.spans.append(record)

    def harvest(self, outcomes) -> None:
        """Record the worker spans riding on merged segment outcomes."""
        op = self.current_op()
        if op is None:
            return
        for outcome in outcomes:
            if not isinstance(outcome, TimedOutcome):
                continue
            profile = outcome[2]
            with self._lock:
                self.spans.append(
                    Span(
                        "engine.segment", "engine", op, None, 10**6,
                        outcome.start, outcome.end, pid=outcome.pid,
                        attrs={
                            "index": outcome[0],
                            "stages": dict(profile.stage_seconds),
                            "events": profile.n_events,
                            "votes": profile.votes_cast,
                            "dropped": profile.dropped_events,
                            "keyframes": profile.n_keyframes,
                        },
                    )
                )

    def by_op(self) -> dict[object, list[Span]]:
        grouped: dict[object, list[Span]] = defaultdict(list)
        for record in self.spans:
            grouped[record.op].append(record)
        return grouped


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _is_worker(record: Span) -> bool:
    return record.name == "engine.segment"


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time of one op: span minus the interval its children cover.

    Worker spans are children of the deepest client-side span that
    contains them whole (the op root at worst).  Parallel workers each
    count in full, so layer self times can sum past the op's wall time;
    :func:`shares` gives the additive view.
    """
    main = [s for s in spans if not _is_worker(s)]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in main:
        if record.parent is not None:
            children[id(record.parent)].append((record.start, record.end))
    for worker in (s for s in spans if _is_worker(s)):
        holders = [m for m in main if m.start <= worker.start and worker.end <= m.end]
        if holders:
            holder = max(holders, key=lambda m: m.depth)
            children[id(holder)].append((worker.start, worker.end))
    out: dict[str, float] = defaultdict(float)
    for record in spans:
        inside = [
            (max(a, record.start), min(b, record.end))
            for a, b in children.get(id(record), ())
            if b > record.start and a < record.end
        ]
        out[record.layer] += record.duration - union_length(inside)
    return dict(out)


def shares(spans: list[Span]) -> dict[str, float]:
    """Split one op's wall time between layers; the shares sum to it exactly.

    Each instant of the op goes to the engine when one of the op's
    segments is executing on a worker (the result cannot be ready
    before it), otherwise to the layer of the deepest client-side span
    open at that instant.  Time only the root covers is
    :data:`UNEXPLAINED`.
    """
    root = min(spans, key=lambda s: s.depth)
    points = []
    for record in spans:
        # Another op's pump may hand this op a worker span that began
        # earlier; only the part inside the op counts.
        start, end = max(record.start, root.start), min(record.end, root.end)
        if end > start:
            points.append((start, 0, record))
            points.append((end, 1, record))
    points.sort(key=lambda p: (p[0], p[1]))
    out: dict[str, float] = defaultdict(float)
    heap: list = []
    closed: set[int] = set()
    workers = 0
    last = None
    for at, kind, record in points:
        if last is not None and at > last:
            while heap and heap[0][2] in closed:
                heapq.heappop(heap)
            if workers:
                out["engine"] += at - last
            elif heap:
                out[heap[0][3].layer] += at - last
        last = at
        if _is_worker(record):
            workers += 1 if kind == 0 else -1
        elif kind == 0:
            heapq.heappush(heap, (-record.depth, -record.start, id(record), record))
        else:
            closed.add(id(record))
    return dict(out)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _patch(owner, attr: str, value) -> None:
    _ORIGINALS.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _timed(fn, name: str, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _TRACER.span(name, layer):
            return fn(*args, **kwargs)

    return wrapper


def _timed_async(fn, name: str, layer: str):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        with _TRACER.span(name, layer):
            return await fn(*args, **kwargs)

    return wrapper


def _harvesting(fn):
    @functools.wraps(fn)
    def wrapper(outcomes, *args, **kwargs):
        outcomes = list(outcomes)
        _TRACER.harvest(outcomes)
        with _TRACER.span("mapping.merge", "mapping"):
            return fn(outcomes, *args, **kwargs)

    return wrapper


def _session_of(args, kwargs) -> str | None:
    session = kwargs.get("session")
    if session is None and len(args) > 1 and isinstance(args[1], str) and "@" in args[1]:
        session = args[1].split("@", 1)[1]  # job ids read job-<n>@<session>
    return session


def _service_call(fn, name: str):
    """Service method wrapper: bind the shard thread to the session's op."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        op = _TRACER.session_ops.get(_session_of(args, kwargs))
        binding = _TRACER.bind(op) if op is not None else contextlib.nullcontext()
        with binding, _TRACER.span(name, "service") as record:
            value = fn(*args, **kwargs)
            if record is not None and name == "service.poll" and value.done:
                record.attrs["latency"] = value.latency_seconds
            return value

    return wrapper


def _fused_cloud(fn):
    @functools.wraps(fn)
    def wrapper(self, min_observations=1, min_cameras=1):
        name, layer = ("rig.cloud", "rig") if min_cameras > 1 else ("mapping.cloud", "mapping")
        with _TRACER.span(name, layer):
            return fn(self, min_observations, min_cameras)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary; call before any pool is created."""
    global _TRACER, _RUN_SEGMENT
    import repro.core.mapping as mapping
    import repro.core.rig as rig
    import repro.serve.faults as faults
    import repro.serve.service as service
    from repro.core.engine import EngineSpec
    from repro.events.containers import EventArray
    from repro.serve.cache import SegmentCache
    from repro.serve.gateway import Gateway
    from repro.serve.stream import StreamingSession

    if _ORIGINALS:
        raise RuntimeError("tracing is already installed")
    _TRACER = tracer
    _RUN_SEGMENT = mapping.run_segment_task

    _patch(EventArray, "from_arrays", staticmethod(
        _timed(EventArray.from_arrays, "events.construct", "events")))
    _patch(EventArray, "content_digest", _timed(EventArray.content_digest, "events.digest", "events"))
    _patch(EngineSpec, "plan", _timed(EngineSpec.plan, "engine.plan", "engine"))
    _patch(mapping, "plan_segments", _timed(mapping.plan_segments, "engine.plan", "engine"))
    for module in (mapping, rig, faults):
        _patch(module, "run_segment_task", traced_run_segment_task)
    for module in (mapping, rig, service):
        _patch(module, "merge_outcomes", _harvesting(module.merge_outcomes))
        _patch(module, "fuse_keyframes", _timed(module.fuse_keyframes, "mapping.fuse", "mapping"))
    _patch(mapping.GlobalMap, "fused_cloud", _fused_cloud(mapping.GlobalMap.fused_cloud))
    _patch(mapping.MappingOrchestrator, "run",
           _timed(mapping.MappingOrchestrator.run, "mapping.run", "mapping"))
    _patch(rig.RigOrchestrator, "run", _timed(rig.RigOrchestrator.run, "rig.run", "rig"))
    _patch(rig, "fuse_camera_keyframes", _timed(rig.fuse_camera_keyframes, "rig.fuse", "rig"))
    _patch(service, "segment_key", _timed(service.segment_key, "cache.key", "cache"))
    _patch(SegmentCache, "get", _timed(SegmentCache.get, "cache.get", "cache"))
    _patch(SegmentCache, "put", _timed(SegmentCache.put, "cache.put", "cache"))
    for method in ("submit", "poll", "result", "open_stream"):
        cls = service.ReconstructionService
        _patch(cls, method, _service_call(getattr(cls, method), f"service.{method}"))
    for method in ("submit", "result"):
        _patch(Gateway, method, _timed_async(getattr(Gateway, method), f"gateway.{method}", "gateway"))
    for method in ("feed", "poll_updates", "close", "result"):
        _patch(StreamingSession, method,
               _timed(getattr(StreamingSession, method), f"stream.{method}", "stream"))


def uninstall() -> None:
    """Restore every patched attribute."""
    global _TRACER
    while _ORIGINALS:
        owner, attr, value = _ORIGINALS.pop()
        setattr(owner, attr, value)
    _TRACER = None
