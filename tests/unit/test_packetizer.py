"""Unit tests for event aggregation into frames."""

import numpy as np
import pytest

from repro.events.containers import EventArray
from repro.events.packetizer import (
    ChunkBuffer,
    FrameBatch,
    Packetizer,
    aggregate_frames,
    frame_midtimes,
    iter_frames,
    n_full_frames,
    segment_slice,
)


def stream(n, rate=1000.0, t0=0.0):
    t = t0 + np.arange(n) / rate
    return EventArray.from_arrays(t, np.zeros(n), np.zeros(n), np.ones(n, dtype=int))


class TestPacketizer:
    def test_emits_full_frames(self, simple_trajectory):
        p = Packetizer(simple_trajectory, frame_size=100)
        frames = p.push(stream(250)).frames()
        assert len(frames) == 2
        assert all(len(f) == 100 for f in frames)

    def test_keeps_remainder_pending(self, simple_trajectory):
        p = Packetizer(simple_trajectory, frame_size=100)
        p.push(stream(250))
        tail = p.flush()
        assert tail is not None
        assert len(tail) == 50

    def test_incremental_pushes_accumulate(self, simple_trajectory):
        p = Packetizer(simple_trajectory, frame_size=100)
        assert len(p.push(stream(60))) == 0
        frames = p.push(stream(60, t0=0.1)).frames()
        assert len(frames) == 1

    def test_flush_empty_returns_none(self, simple_trajectory):
        p = Packetizer(simple_trajectory, frame_size=10)
        assert p.flush() is None

    def test_frame_indices_monotonic(self, simple_trajectory):
        p = Packetizer(simple_trajectory, frame_size=50)
        frames = p.push(stream(200)).frames()
        assert [f.index for f in frames] == [0, 1, 2, 3]

    def test_rejects_bad_frame_size(self, simple_trajectory):
        with pytest.raises(ValueError):
            Packetizer(simple_trajectory, frame_size=0)

    def test_pending_count_tracks_buffer(self, simple_trajectory):
        p = Packetizer(simple_trajectory, frame_size=100)
        assert p.pending_count == 0
        p.push(stream(250))
        assert p.pending_count == 50
        p.flush()
        assert p.pending_count == 0

    def test_drop_pending_reports_and_clears(self, simple_trajectory):
        p = Packetizer(simple_trajectory, frame_size=100)
        p.push(stream(250))
        assert p.drop_pending() == 50
        assert p.pending_count == 0
        assert p.drop_pending() == 0
        assert p.flush() is None

    def test_pose_sampled_at_midpoint(self, simple_trajectory):
        p = Packetizer(simple_trajectory, frame_size=100)
        # Events spanning t in [0, 2]: frame midpoint at t=1 -> x=0.
        n = 100
        t = np.linspace(0.0, 2.0, n)
        ev = EventArray.from_arrays(t, np.zeros(n), np.zeros(n), np.ones(n, int))
        frames = p.push(ev).frames()
        np.testing.assert_allclose(frames[0].T_wc.translation, [0, 0, 0], atol=1e-9)

    @pytest.mark.parametrize("cuts", [(), (1,), (99, 100, 101), (150, 230), (7, 333, 334, 611)])
    def test_any_chunking_emits_the_frames_of_one_push(self, simple_trajectory, cuts):
        """Same events, mid-times and pose bytes however the stream is cut.

        Cuts inside a frame make that frame (and the batch holding it)
        span two pushes.
        """
        events = stream(640, rate=300.0)
        whole = Packetizer(simple_trajectory, frame_size=100).push(events)
        chunked = Packetizer(simple_trajectory, frame_size=100)
        bounds = [0, *cuts, len(events)]
        batches = [chunked.push(events[a:b]) for a, b in zip(bounds, bounds[1:])]
        got = FrameBatch.concatenate([b for b in batches if len(b)])
        assert chunked.pending_count == 40
        assert got.events == whole.events
        emitted = 0
        for batch in batches:
            assert batch.first_index == emitted
            emitted += len(batch)
        for name in ("timestamps", "rotations", "translations"):
            assert getattr(got, name).tobytes() == getattr(whole, name).tobytes()

    def test_batch_poses_are_the_scalar_samples(self, simple_trajectory):
        events = stream(640, rate=300.0)
        batch = Packetizer(simple_trajectory, frame_size=100).push(events)
        for frame in batch.frames():
            pose = simple_trajectory.sample(frame.timestamp)
            assert frame.T_wc.rotation.tobytes() == pose.rotation.tobytes()
            assert frame.T_wc.translation.tobytes() == pose.translation.tobytes()
            assert frame.events == events[frame.index * 100 : (frame.index + 1) * 100]

    def test_batch_slices_and_restacks(self, simple_trajectory):
        batch = Packetizer(simple_trajectory, frame_size=50).push(stream(400))
        piece = batch[2:5]
        assert (len(piece), piece.first_index, len(piece.events)) == (3, 2, 150)
        assert [f.index for f in piece[1:].frames()] == [3, 4]
        assert piece[1:].events == batch.events[150:250]
        again = FrameBatch.from_frames(piece.frames())
        assert again.events == piece.events
        assert again.first_index == 2
        assert again.rotations.tobytes() == piece.rotations.tobytes()
        assert again.timestamps.tobytes() == piece.timestamps.tobytes()
        assert len(batch[7:3]) == 0

    def test_from_frames_refuses_ragged_frames(self, simple_trajectory):
        frames = aggregate_frames(
            stream(250), simple_trajectory, frame_size=100, drop_partial=False
        )
        with pytest.raises(ValueError, match="one size"):
            FrameBatch.from_frames(frames)


class TestAggregateFrames:
    def test_drop_partial_default(self, simple_trajectory):
        frames = aggregate_frames(stream(250), simple_trajectory, frame_size=100)
        assert len(frames) == 2

    def test_keep_partial(self, simple_trajectory):
        frames = aggregate_frames(
            stream(250), simple_trajectory, frame_size=100, drop_partial=False
        )
        assert len(frames) == 3
        assert len(frames[-1]) == 50

    def test_empty_stream(self, simple_trajectory):
        assert aggregate_frames(EventArray.empty(), simple_trajectory) == []

    def test_events_preserved_in_order(self, simple_trajectory):
        ev = stream(200)
        frames = aggregate_frames(ev, simple_trajectory, frame_size=100)
        reassembled = np.concatenate([f.events.t for f in frames])
        np.testing.assert_array_equal(reassembled, ev.t)

    def test_iter_frames_matches_batch(self, simple_trajectory):
        ev = stream(300)
        batch = aggregate_frames(ev, simple_trajectory, frame_size=100)
        streamed = list(iter_frames(ev, simple_trajectory, frame_size=100))
        assert len(batch) == len(streamed)
        for a, b in zip(batch, streamed):
            assert a.timestamp == pytest.approx(b.timestamp)


class TestDropAccounting:
    """The trailing partial frame is accounted, never silently lost."""

    def test_aggregate_frames_returns_dropped_count(self, simple_trajectory):
        frames, dropped = aggregate_frames(
            stream(250), simple_trajectory, frame_size=100, return_dropped=True
        )
        assert len(frames) == 2
        assert dropped == 50

    def test_aggregate_frames_keep_partial_drops_nothing(self, simple_trajectory):
        frames, dropped = aggregate_frames(
            stream(250),
            simple_trajectory,
            frame_size=100,
            drop_partial=False,
            return_dropped=True,
        )
        assert len(frames) == 3
        assert dropped == 0

    def test_aggregate_frames_default_shape_unchanged(self, simple_trajectory):
        frames = aggregate_frames(stream(250), simple_trajectory, frame_size=100)
        assert isinstance(frames, list)
        assert len(frames) == 2

    def test_iter_frames_matches_aggregate_drop_partial(self, simple_trajectory):
        agg = aggregate_frames(stream(430), simple_trajectory, frame_size=100)
        it = list(iter_frames(stream(430), simple_trajectory, frame_size=100))
        assert len(it) == len(agg) == 4
        for a, b in zip(agg, it):
            assert a.events == b.events
            assert a.index == b.index

    def test_iter_frames_returns_dropped_count(self, simple_trajectory):
        def drive():
            dropped = yield from iter_frames(
                stream(430), simple_trajectory, frame_size=100
            )
            return dropped

        gen = drive()
        frames = []
        try:
            while True:
                frames.append(next(gen))
        except StopIteration as stop:
            dropped = stop.value
        assert len(frames) == 4
        assert dropped == 30

    def test_iter_frames_no_tail(self, simple_trajectory):
        gen = iter_frames(stream(200), simple_trajectory, frame_size=100)
        frames = []
        try:
            while True:
                frames.append(next(gen))
        except StopIteration as stop:
            assert stop.value == 0
        assert len(frames) == 2


class TestSegmentHelpers:
    """The plan-time helpers mirror Packetizer output bit-for-bit."""

    def test_n_full_frames(self):
        assert n_full_frames(stream(430), 100) == 4
        assert n_full_frames(stream(99), 100) == 0
        with pytest.raises(ValueError):
            n_full_frames(stream(10), 0)

    def test_frame_midtimes_match_packetizer(self, simple_trajectory):
        events = stream(430)
        frames = aggregate_frames(events, simple_trajectory, frame_size=100)
        mids = frame_midtimes(events, 100)
        assert mids.shape == (4,)
        for frame, mid in zip(frames, mids):
            assert frame.timestamp == mid  # exact, not approx

    def test_frame_midtimes_empty(self):
        assert frame_midtimes(stream(50), 100).shape == (0,)

    def test_segment_slice_repacketizes_identically(self, simple_trajectory):
        events = stream(640)
        frames = aggregate_frames(events, simple_trajectory, frame_size=100)
        part = segment_slice(events, 2, 5, 100)
        assert len(part) == 300
        refrmd = aggregate_frames(part, simple_trajectory, frame_size=100)
        assert len(refrmd) == 3
        for a, b in zip(frames[2:5], refrmd):
            assert a.events == b.events
            assert a.timestamp == b.timestamp

    def test_segment_slice_validates(self):
        with pytest.raises(ValueError):
            segment_slice(stream(100), 3, 2, 10)
        with pytest.raises(ValueError):
            segment_slice(stream(100), -1, 2, 10)

    def test_segment_slice_rejects_overrun(self):
        # An out-of-range segment must error, not silently truncate.
        with pytest.raises(ValueError, match="stream has 500"):
            segment_slice(stream(500), 3, 8, 100)
        assert len(segment_slice(stream(500), 3, 5, 100)) == 200


class TestChunkBuffer:
    def test_split_prefix_equals_stream_slice(self):
        """Chunked pushes split bit-identically to slicing one stream."""
        events = stream(500)
        buffer = ChunkBuffer()
        for lo in range(0, 500, 130):
            buffer.push(events[lo : lo + 130])
        assert len(buffer) == 500
        head = buffer.split(220)
        np.testing.assert_array_equal(head.data, events[:220].data)
        np.testing.assert_array_equal(buffer.merged().data, events[220:].data)
        assert len(buffer) == 280

    def test_empty_pushes_are_noops(self):
        buffer = ChunkBuffer()
        buffer.push(EventArray.empty())
        assert len(buffer) == 0
        assert len(buffer.merged()) == 0
        assert len(buffer.split(0)) == 0

    def test_split_validates_bounds(self):
        buffer = ChunkBuffer()
        buffer.push(stream(10))
        with pytest.raises(ValueError, match="cannot split"):
            buffer.split(11)
        with pytest.raises(ValueError, match="cannot split"):
            buffer.split(-1)

    def test_split_everything_empties_the_buffer(self):
        buffer = ChunkBuffer()
        buffer.push(stream(50))
        assert len(buffer.split(50)) == 50
        assert len(buffer) == 0
        buffer.push(stream(20, t0=1.0))  # reusable after a full split
        assert len(buffer) == 20

    def test_clear_reports_dropped_count(self):
        buffer = ChunkBuffer()
        buffer.push(stream(30))
        assert buffer.clear() == 30
        assert len(buffer) == 0
        assert buffer.clear() == 0

    def test_merged_is_cached_between_pushes(self):
        buffer = ChunkBuffer()
        buffer.push(stream(100))
        buffer.push(stream(100, t0=1.0))
        assert buffer.merged() is buffer.merged()

    def test_timestamps_probe_without_merging(self):
        """timestamps(i) equals the merged array's values, across parts."""
        buffer = ChunkBuffer()
        events = stream(500)
        for lo in range(0, 500, 7):  # many tiny parts
            buffer.push(events[lo : lo + 7])
        probes = np.array([0, 6, 7, 249, 499])
        np.testing.assert_array_equal(buffer.timestamps(probes), events.t[probes])
        assert buffer.timestamps(np.array([], dtype=np.int64)).shape == (0,)
        assert buffer._merged is None  # probes did not force a merge
        with pytest.raises(IndexError):
            buffer.timestamps(np.array([3, 500]))
        with pytest.raises(IndexError):
            buffer.timestamps(np.array([-1]))

    def test_timestamps_consistent_after_split(self):
        buffer = ChunkBuffer()
        events = stream(300)
        buffer.push(events[:200])
        buffer.push(events[200:])
        buffer.split(120)
        np.testing.assert_array_equal(
            buffer.timestamps(np.array([0, 179])), events.t[[120, 299]]
        )
