"""Streaming sessions: incremental event ingestion for the serve layer.

PR 4's :class:`~repro.serve.ReconstructionService` accepts fully
materialized event arrays per job; this module turns it into a *live*
pipeline.  A :class:`StreamingSession` (opened with
:meth:`~repro.serve.ReconstructionService.open_stream`) accepts event
chunks as they arrive (``feed``), plans key-frame segment boundaries
incrementally from a pose-only pass
(:class:`~repro.core.engine.StreamSegmentPlanner`), and schedules each
segment onto the shared worker pool the moment its boundary is crossed —
the same :class:`~repro.core.mapping.SegmentTask` /
:func:`~repro.core.mapping.run_segment_task` units batch jobs use, so a
streamed session's final result is bit-identical to a one-shot ``submit``
of the concatenated events, at any chunk size and worker count.

Partial results flow back while the stream is still open: every
finalized key frame produces a :class:`StreamUpdate` (its depth-map
reconstruction plus an incrementally fused
:class:`~repro.core.mapping.GlobalMap` snapshot), harvested with
``poll_updates``.  In-flight buffering is bounded — chunks the planner
cannot absorb yet wait in a bounded queue, and a full queue applies the
service's ``refuse`` / ``drop-oldest`` overflow policy at *chunk*
granularity (:class:`StreamBacklogFull`, ``chunks_dropped``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.engine import StreamSegmentPlanner
from repro.core.mapping import GlobalMap
from repro.core.pointcloud import PointCloud
from repro.core.results import KeyframeReconstruction
from repro.events.containers import EventArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.mapping import MappingResult
    from repro.serve.service import ReconstructionService
    from repro.serve.session import Job, JobStatus


@dataclass(frozen=True)
class StreamUpdate:
    """One finalized key frame of a streaming session.

    Emitted in stream order (segment order, key-frame order within a
    segment) the moment the segment's outcome lands *and* every earlier
    segment has been folded in — so the fused snapshot in update ``k``
    is exactly the fusion of the first ``k + 1`` key frames, whatever
    order the pool completed segments in.
    """

    #: Id of the streaming job that produced the update.
    job_id: str
    #: Fairness session the stream belongs to.
    session: str
    #: Global index of the segment the key frame closed.
    segment_index: int
    #: Ordinal of the key frame across the whole stream (0-based).
    keyframe_index: int
    #: The finalized reconstruction (pose + semi-dense depth map).
    keyframe: KeyframeReconstruction
    #: Fused global-map snapshot including this key frame.
    cloud: PointCloud
    #: Occupied voxels in the fused map at this point.
    map_voxels: int
    #: Seconds from feeding the chunk that closed the segment to this
    #: update becoming available — the stream's end-to-end latency.
    latency_seconds: float


class StreamState:
    """Service-side bookkeeping of one open stream (attached to its Job).

    Not part of the public API: users hold a :class:`StreamingSession`,
    the service reads and mutates this record during its pump.
    """

    def __init__(
        self,
        planner: StreamSegmentPlanner,
        voxel_size: float,
        max_pending_chunks: int,
    ):
        self.planner = planner
        self.max_pending_chunks = max_pending_chunks
        #: Chunks fed but not yet absorbed by the planner, with their
        #: feed timestamps (the bounded in-flight buffer).
        self.pending_chunks: deque[tuple[EventArray, float]] = deque()
        #: Feed timestamp of the chunk that closed each segment.
        self.feed_times: dict[int, float] = {}
        #: Incrementally fused world map (key frames in stream order).
        self.global_map = GlobalMap(voxel_size)
        #: Updates emitted but not yet polled by the client.
        self.updates: list[StreamUpdate] = []
        #: Next segment index to fold into the fused map.
        self.emit_cursor = 0
        self.keyframes_emitted = 0
        #: Whether ``feed`` is still accepted (flips on ``close``).
        self.open = True
        #: Whether the planner's trailing segment has been cut.
        self.flushed = False
        #: ``close()`` timestamp, for the final segment's latency.
        self.closed_at: float | None = None
        #: Timestamp of the last accepted event (``feed`` rejects a
        #: chunk that starts before it).
        self.last_t = float("-inf")
        self.chunks_fed = 0
        self.events_fed = 0
        self.chunks_dropped = 0


class StreamingSession:
    """Client handle of one incremental reconstruction stream.

    Obtained from
    :meth:`~repro.serve.ReconstructionService.open_stream`; the
    service owns all execution state, this handle only feeds and polls.
    The lifecycle is ``feed* -> close -> result``, with ``poll_updates``
    legal at any point:

    * :meth:`feed` pushes one time-ordered event chunk (any size) and
      pumps the service — newly crossed key-frame boundaries dispatch
      immediately, unless the segment cache already holds the slice's
      outcome, in which case the update lands without a dispatch (see
      ``docs/CACHING.md``).
    * :meth:`poll_updates` drains the finalized-key-frame updates
      produced since the previous poll.
    * :meth:`close` ends the stream: the trailing segment is cut and the
      dropped partial-frame events are accounted.
    * :meth:`result` blocks until every segment completed and returns
      the same :class:`~repro.core.mapping.MappingResult` a one-shot
      ``submit`` of the concatenated chunks would produce —
      bit-identically (fused map *and* profile counters).

    The handle is a context manager; leaving the ``with`` block closes
    the stream (without waiting for the result).

    Examples
    --------
    ::

        from repro.core import EMVSConfig, EngineSpec
        from repro.events.datasets import load_sequence
        from repro.serve import ReconstructionService

        seq = load_sequence("corridor_sweep", quality="fast")
        spec = EngineSpec(
            seq.camera, seq.trajectory,
            EMVSConfig(n_depth_planes=48,
                       keyframe_distance=seq.keyframe_distance),
            depth_range=seq.depth_range, backend="numpy-batch",
        )
        with ReconstructionService(workers=2, executor="thread") as svc:
            with svc.open_stream(spec, session="robot-7") as stream:
                for t0 in range(20):  # 50 ms chunks, as a driver would
                    chunk = seq.events.time_slice(t0 * 0.05, (t0 + 1) * 0.05)
                    stream.feed(chunk)
                    for update in stream.poll_updates():
                        print(update.keyframe_index, update.map_voxels)
            result = stream.result()  # == one-shot submit, bit-exactly
    """

    def __init__(self, service: "ReconstructionService", job: "Job"):
        self._service = service
        self._job = job

    # ------------------------------------------------------------------
    @property
    def job_id(self) -> str:
        """Service job id of this stream (pollable via the service too)."""
        return self._job.job_id

    @property
    def session(self) -> str:
        """Fairness session the stream was opened under."""
        return self._job.session

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (feeding has ended)."""
        return not self._job.stream.open

    @property
    def chunks_fed(self) -> int:
        """Chunks accepted by :meth:`feed` so far (empty feeds excluded)."""
        return self._job.stream.chunks_fed

    @property
    def events_fed(self) -> int:
        """Events accepted by :meth:`feed` so far."""
        return self._job.stream.events_fed

    @property
    def chunks_dropped(self) -> int:
        """Chunks this stream shed under the ``drop-oldest`` policy."""
        return self._job.stream.chunks_dropped

    # ------------------------------------------------------------------
    def feed(self, events: EventArray) -> None:
        """Push one time-ordered event chunk into the stream.

        Chunks may be any size (sub-frame chunks simply buffer).  When
        the bounded in-flight buffer is full the service's overflow
        policy decides: ``refuse`` raises :class:`StreamBacklogFull`,
        ``drop-oldest`` evicts the oldest unabsorbed chunk (recorded in
        ``chunks_dropped``).  A chunk that starts before the last
        accepted event raises ``ValueError`` and is not buffered, so the
        stream stays usable.  Raises once the stream is closed or its
        job reached a terminal state.
        """
        self._service._feed_stream(self._job, events)

    def poll_updates(self) -> list[StreamUpdate]:
        """Pump the service; return updates emitted since the last poll.

        Non-blocking.  Updates arrive in stream order; each carries a
        finalized key frame plus the fused-map snapshot including it.
        Snapshots cost one fusion pass per key frame (inherent to the
        per-update prefix-snapshot contract) and un-polled updates are
        retained until collected — poll regularly on long streams.
        """
        return self._service._poll_stream(self._job)

    def close(self) -> None:
        """End the stream: no more feeds; the trailing segment is cut.

        Idempotent.  Remaining buffered chunks are still planned and
        executed — ``close`` marks end-of-stream, it does not discard
        work.  The trailing partial frame (fewer than ``frame_size``
        events) is dropped and accounted in ``profile.dropped_events``,
        exactly as a one-shot run would.  If the stream carries a
        ``deadline_s``, the deadline clock arms here — an open stream
        can always grow, so the budget only starts once input ends.
        """
        self._service._close_stream(self._job)

    def result(self, timeout: float | None = None) -> "MappingResult":
        """Block until the stream's last segment lands; return the result.

        Requires :meth:`close` first (an open stream could always grow),
        *unless* the job already reached a terminal state — a stream
        whose segments all failed surfaces its error here promptly
        (:class:`~repro.serve.service.JobFailed`) instead of waiting on
        updates that can never arrive.  The returned
        :class:`~repro.core.mapping.MappingResult` is bit-identical to
        ``service.submit`` of the concatenated chunks: same fused map,
        same keyframes, same profile counters.  A degraded stream
        (``allow_partial``) returns its ``PARTIAL`` result — the fused
        map of the completed key frames with ``missing_segments``
        listing the abandoned ones.
        """
        return self._service._stream_result(self._job, timeout)

    def status(self) -> "JobStatus":
        """Non-blocking job-status snapshot (pumps the service first)."""
        return self._service._status(self._job, pump=True)

    # ------------------------------------------------------------------
    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
