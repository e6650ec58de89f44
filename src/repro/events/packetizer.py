"""Event aggregation (the paper's stage ``A``).

The event stream is divided into fixed-size *event frames* (the paper uses
1024 events per frame, "determined according to the sensor's event rate and
storage").  Each frame carries the camera pose at its representative
timestamp; all events of a frame are back-projected with that single pose,
which is the approximation both the original EMVS implementation and the
accelerator make.

The packetizer emits its complete frames as one :class:`FrameBatch`: a
contiguous event view plus stacked mid-times and poses, sampled in one
:meth:`~repro.geometry.trajectory.Trajectory.sample_batch` call.  Per-frame
:class:`EventFrame` views are built from it only for consumers that walk
frames one by one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from collections.abc import Generator, Sequence

import numpy as np

from repro.events.containers import EventArray
from repro.geometry.se3 import SE3, stack_poses
from repro.geometry.trajectory import Trajectory

#: Frame size used throughout the paper's evaluation.
DEFAULT_FRAME_SIZE = 1024


@dataclass
class EventFrame:
    """A fixed-size packet of events with its camera pose.

    Attributes
    ----------
    events:
        The aggregated events.
    T_wc:
        Camera pose at :attr:`timestamp` (camera-to-world).
    timestamp:
        Representative time of the frame (midpoint of its span).
    index:
        Position of the frame in the stream.
    is_keyframe:
        Set by key-frame selection (:mod:`repro.core.keyframes`); a key
        frame resets the DSI to a new reference view.
    """

    events: EventArray
    T_wc: SE3
    timestamp: float
    index: int = 0
    is_keyframe: bool = False

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class FrameBatch:
    """Consecutive complete event frames as arrays: stage ``A``'s record.

    Attributes
    ----------
    events:
        The ``B * frame_size`` events of the frames, contiguous; frame
        ``k`` is ``events[k * frame_size:(k + 1) * frame_size]``.
    frame_size:
        Events per frame.
    timestamps:
        ``(B,)`` mid-span times, ``0.5 * (t_first + t_last)`` per frame.
    rotations, translations:
        ``(B, 3, 3)`` / ``(B, 3)`` stacked camera poses ``T_wc`` at
        :attr:`timestamps`.
    first_index:
        Stream position of frame 0.
    """

    events: EventArray
    frame_size: int
    timestamps: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray
    first_index: int = 0

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, key: slice) -> "FrameBatch":
        """Frames ``key.start:key.stop`` as a batch of views."""
        start, stop, _ = key.indices(len(self))
        stop = max(start, stop)
        n = self.frame_size
        return FrameBatch(
            events=self.events[start * n : stop * n],
            frame_size=n,
            timestamps=self.timestamps[start:stop],
            rotations=self.rotations[start:stop],
            translations=self.translations[start:stop],
            first_index=self.first_index + start,
        )

    def pose(self, k: int) -> SE3:
        """Frame ``k``'s pose ``T_wc``."""
        return SE3(self.rotations[k], self.translations[k])

    def frames(self) -> list[EventFrame]:
        """Per-frame :class:`EventFrame` views, for per-frame consumers."""
        n = self.frame_size
        return [
            EventFrame(
                events=self.events[k * n : (k + 1) * n],
                T_wc=self.pose(k),
                timestamp=float(self.timestamps[k]),
                index=self.first_index + k,
            )
            for k in range(len(self))
        ]

    @staticmethod
    def concatenate(batches: Sequence["FrameBatch"]) -> "FrameBatch":
        """Consecutive batches of one frame size as one (copies the events)."""
        if len({b.frame_size for b in batches}) != 1:
            raise ValueError("batches must share one frame size")
        return FrameBatch(
            events=EventArray.concatenate([b.events for b in batches]),
            frame_size=batches[0].frame_size,
            timestamps=np.concatenate([b.timestamps for b in batches]),
            rotations=np.concatenate([b.rotations for b in batches]),
            translations=np.concatenate([b.translations for b in batches]),
            first_index=batches[0].first_index,
        )

    @staticmethod
    def from_frames(frames: Sequence[EventFrame]) -> "FrameBatch":
        """Stack frames of one size (e.g. a single frame) into a batch."""
        if not frames or len({len(f) for f in frames}) != 1:
            raise ValueError("a frame batch needs one or more frames of one size")
        rotations, translations = stack_poses([f.T_wc for f in frames])
        return FrameBatch(
            events=EventArray.concatenate([f.events for f in frames]),
            frame_size=len(frames[0]),
            timestamps=np.array([f.timestamp for f in frames], dtype=float),
            rotations=rotations,
            translations=translations,
            first_index=frames[0].index,
        )


class Packetizer:
    """Streaming aggregator: push events, emit fixed-size frames.

    Mirrors the behaviour of the hardware ingest path: events accumulate in
    a buffer and a frame is emitted whenever ``frame_size`` events are
    available.  The trailing partial frame can be flushed explicitly.
    """

    def __init__(self, trajectory: Trajectory, frame_size: int = DEFAULT_FRAME_SIZE):
        if frame_size < 1:
            raise ValueError("frame_size must be >= 1")
        self._trajectory = trajectory
        self._frame_size = frame_size
        self._pending: list[EventArray] = []
        self._pending_count = 0
        self._emitted = 0

    @property
    def frame_size(self) -> int:
        return self._frame_size

    @property
    def pending_count(self) -> int:
        """Events buffered but not yet emitted (the trailing partial frame)."""
        return self._pending_count

    def drop_pending(self) -> int:
        """Discard the trailing partial frame; returns how many events died.

        The fixed-size hardware buffers drop the same events — callers use
        the returned count to account them (e.g. in
        :attr:`repro.core.results.PipelineProfile.dropped_events`) instead
        of losing them silently.
        """
        dropped = self._pending_count
        self._pending = []
        self._pending_count = 0
        return dropped

    def push(self, events: EventArray) -> FrameBatch:
        """Add events to the buffer; return every completed frame as one batch.

        The batch's events are one view of the merged buffer, and its
        poses come from one :meth:`Trajectory.sample_batch` call over the
        frames' mid-times; it is empty while no frame completes.
        """
        if len(events):
            self._pending.append(events)
            self._pending_count += len(events)
        if self._pending_count < self._frame_size:
            return self._batch(EventArray.empty())
        # Merge once, then emit the frame-aligned prefix (a view, no re-copy).
        merged = (
            self._pending[0]
            if len(self._pending) == 1
            else EventArray.concatenate(self._pending)
        )
        n_full = self._pending_count // self._frame_size
        tail = merged[n_full * self._frame_size :]
        self._pending = [tail] if len(tail) else []
        self._pending_count = len(tail)
        return self._batch(merged[: n_full * self._frame_size])

    def flush(self) -> EventFrame | None:
        """Emit the trailing partial frame, if any."""
        if self._pending_count == 0:
            return None
        merged = EventArray.concatenate(self._pending)
        self._pending = []
        self._pending_count = 0
        t_mid = 0.5 * (merged.t_start + merged.t_end)
        frame = EventFrame(
            events=merged,
            T_wc=self._trajectory.sample(t_mid),
            timestamp=t_mid,
            index=self._emitted,
        )
        self._emitted += 1
        return frame

    def _batch(self, events: EventArray) -> FrameBatch:
        timestamps = frame_midtimes(events, self._frame_size)
        rotations, translations = self._trajectory.sample_batch(timestamps)
        batch = FrameBatch(
            events, self._frame_size, timestamps, rotations, translations, self._emitted
        )
        self._emitted += len(batch)
        return batch


class ChunkBuffer:
    """Accumulate time-ordered event chunks; split frame-aligned prefixes.

    The streaming counterpart of slicing one materialized stream: chunks
    of any size are appended (:meth:`push`), merged lazily into a single
    contiguous :class:`~repro.events.containers.EventArray`
    (:meth:`merged`, cached between pushes), and consumed from the front
    in event-aligned blocks (:meth:`split`).  Because
    :meth:`EventArray.concatenate` preserves every ``(t, x, y, p)``
    record bit-exactly, a prefix split off a chunk buffer equals the
    same slice of the concatenated stream — the identity streaming
    segment planning (:class:`repro.core.engine.StreamSegmentPlanner`)
    rests on.
    """

    def __init__(self):
        self._parts: list[EventArray] = []
        #: Cumulative end index of each part (for :meth:`timestamps`).
        self._offsets: list[int] = []
        self._count = 0
        self._merged: EventArray | None = None

    def __len__(self) -> int:
        return self._count

    def push(self, events: EventArray) -> None:
        """Append one time-ordered chunk (empty chunks are no-ops)."""
        if len(events) == 0:
            return
        self._parts.append(events)
        self._count += len(events)
        self._offsets.append(self._count)
        self._merged = None

    def timestamps(self, indices: np.ndarray) -> np.ndarray:
        """Timestamps of the buffered events at ``indices``, without merging.

        One vectorized gather per part the indices touch (the parts are
        found by a binary search over their cumulative offsets), so the
        streaming planner's per-frame probes stay copy-free however
        finely the stream was chunked.  The values are the exact
        float64s the merged array holds at the same indices.
        """
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty(len(indices), dtype=np.float64)
        if len(indices) == 0:
            return out
        lo, hi = int(indices.min()), int(indices.max())
        if lo < 0 or hi >= self._count:
            raise IndexError(f"event index out of a buffer of {self._count}")
        first, last = (bisect.bisect_right(self._offsets, i) for i in (lo, hi))
        for part in range(first, last + 1):
            start = self._offsets[part - 1] if part else 0
            inside = (indices >= start) & (indices < self._offsets[part])
            out[inside] = self._parts[part].t[indices[inside] - start]
        return out

    def merged(self) -> EventArray:
        """Everything buffered, as one contiguous array (cached)."""
        if self._merged is None:
            if not self._parts:
                self._merged = EventArray.empty()
            elif len(self._parts) == 1:
                self._merged = self._parts[0]
            else:
                self._merged = EventArray.concatenate(self._parts)
                self._parts = [self._merged]
                self._offsets = [self._count]
        return self._merged

    def split(self, n_events: int) -> EventArray:
        """Remove and return the first ``n_events`` buffered events."""
        if not 0 <= n_events <= self._count:
            raise ValueError(
                f"cannot split {n_events} events from a buffer of {self._count}"
            )
        merged = self.merged()
        head = merged[:n_events]
        tail = merged[n_events:]
        self._parts = [tail] if len(tail) else []
        self._count = len(tail)
        self._offsets = [self._count] if len(tail) else []
        self._merged = tail if len(tail) else None
        return head

    def clear(self) -> int:
        """Discard the buffer; returns how many events were dropped."""
        dropped = self._count
        self._parts = []
        self._offsets = []
        self._count = 0
        self._merged = None
        return dropped


def aggregate_frames(
    events: EventArray,
    trajectory: Trajectory,
    frame_size: int = DEFAULT_FRAME_SIZE,
    drop_partial: bool = True,
    return_dropped: bool = False,
) -> list[EventFrame] | tuple[list[EventFrame], int]:
    """Split an event stream into pose-stamped frames.

    Parameters
    ----------
    events:
        Full time-sorted event stream.
    trajectory:
        Known camera trajectory for pose lookup.
    frame_size:
        Events per frame (1024 in the paper).
    drop_partial:
        Drop the trailing frame if it has fewer than ``frame_size`` events
        (matches the fixed-size hardware buffers).
    return_dropped:
        Also return how many trailing events were dropped, mirroring
        :meth:`Packetizer.drop_pending` — callers that account work (e.g.
        ``PipelineProfile.dropped_events``) should pass True instead of
        losing the tail silently.

    Returns
    -------
    The frame list, or ``(frames, n_dropped)`` when ``return_dropped`` is
    True (``n_dropped`` is 0 when ``drop_partial`` is False).
    """
    packetizer = Packetizer(trajectory, frame_size)
    frames = packetizer.push(events).frames()
    if drop_partial:
        dropped = packetizer.drop_pending()
    else:
        dropped = 0
        tail = packetizer.flush()
        if tail is not None:
            frames.append(tail)
    if return_dropped:
        return frames, dropped
    return frames


def n_full_frames(events: EventArray, frame_size: int = DEFAULT_FRAME_SIZE) -> int:
    """How many complete frames a stream yields (the tail is dropped)."""
    if frame_size < 1:
        raise ValueError("frame_size must be >= 1")
    return len(events) // frame_size


def frame_midtimes(
    events: EventArray, frame_size: int = DEFAULT_FRAME_SIZE
) -> np.ndarray:
    """Representative (mid-span) timestamps of every complete frame.

    Computes, without materializing any :class:`EventFrame`, exactly the
    ``timestamp`` values a :class:`Packetizer` would stamp on the frames of
    ``events``: ``0.5 * (t_first + t_last)`` of each ``frame_size`` slice,
    evaluated in the same float64 arithmetic.  The segment planner
    (:class:`repro.core.engine.StreamSegmentPlanner`) evaluates it over
    :meth:`ChunkBuffer.timestamps` to predict key-frame boundaries
    without running the pipeline.
    """
    n = n_full_frames(events, frame_size)
    if n == 0:
        return np.empty(0, dtype=float)
    ts = events.t
    starts = np.arange(n, dtype=np.int64) * frame_size
    return 0.5 * (ts[starts] + ts[starts + frame_size - 1])


def segment_slice(
    events: EventArray,
    start_frame: int,
    end_frame: int,
    frame_size: int = DEFAULT_FRAME_SIZE,
) -> EventArray:
    """The events of frames ``[start_frame, end_frame)`` as one slice.

    Frame-aligned by construction, so re-packetizing the slice with the
    same ``frame_size`` reproduces the original frames (same events, same
    mid-span timestamps) — the property per-segment parallel runs rest on.
    """
    if not 0 <= start_frame <= end_frame:
        raise ValueError("need 0 <= start_frame <= end_frame")
    if end_frame * frame_size > len(events):
        raise ValueError(
            f"segment [{start_frame}, {end_frame}) needs "
            f"{end_frame * frame_size} events but the stream has {len(events)}"
        )
    return events[start_frame * frame_size : end_frame * frame_size]


def iter_frames(
    events: EventArray,
    trajectory: Trajectory,
    frame_size: int = DEFAULT_FRAME_SIZE,
) -> Generator[EventFrame, None, int]:
    """Generator variant of :func:`aggregate_frames` for streaming use.

    Yields exactly the frames of ``aggregate_frames(drop_partial=True)``:
    the trailing partial frame is dropped, never yielded.  The generator's
    ``return`` value (``StopIteration.value``, or the target of
    ``yield from``) carries the dropped-event count so streaming drivers
    can account the tail just like :meth:`Packetizer.drop_pending` users.
    """
    packetizer = Packetizer(trajectory, frame_size)
    for start in range(0, len(events), frame_size):
        yield from packetizer.push(events[start : start + frame_size]).frames()
    return packetizer.drop_pending()
