"""Streaming sessions: stream ≡ batch bit-exactness, updates, overflow.

The headline contract of the streaming layer: feeding a stream in chunks
— any chunk size, any worker count — produces a final result
bit-identical to a one-shot ``submit`` of the concatenated events, while
emitting one in-order update per finalized key frame whose fused-map
snapshot is exactly the fusion of the key frames so far.  Backpressure
is explicit: a full chunk buffer refuses or drops at chunk granularity,
recorded in the aggregate profile.
"""

import numpy as np
import pytest

from repro.core import EngineSpec, fuse_keyframes
from repro.core.engine import BACKENDS, ExecutionBackend, register_backend
from repro.serve import (
    CacheConfig,
    JobFailed,
    JobState,
    ReconstructionService,
    ServeError,
    StreamBacklogFull,
)

from tests.integration.test_serve_service import assert_results_bit_identical


@pytest.fixture(scope="module")
def streamed(mapping_workload):
    """``(events, spec)`` for the shared 5-segment workload."""
    seq, events, config = mapping_workload
    spec = EngineSpec(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        backend="numpy-batch",
    )
    return events, spec


@pytest.fixture(scope="module")
def batch_result(streamed):
    """One-shot submission ground truth for the shared workload."""
    events, spec = streamed
    with ReconstructionService(
        workers=1, cache=CacheConfig(mem_mb=0)
    ) as service:
        return service.result(service.submit(events, spec))


def feed_in_chunks(stream, events, chunk_events):
    """Feed ``events`` in fixed-size chunks, collecting updates as we go."""
    updates = []
    for lo in range(0, len(events), chunk_events):
        stream.feed(events[lo : lo + chunk_events])
        updates.extend(stream.poll_updates())
    return updates


class TestStreamEqualsBatch:
    @pytest.mark.parametrize(
        "chunk_events,workers,executor",
        [
            (257, 1, "inline"),
            (1024, 1, "inline"),
            (5000, 2, "thread"),
            (10**9, 2, "thread"),  # the whole stream in one feed
            (5000, 2, "process"),
        ],
    )
    def test_bit_identical_to_one_shot_submit(
        self, streamed, batch_result, chunk_events, workers, executor
    ):
        events, spec = streamed
        with ReconstructionService(
            workers=workers,
            executor=executor,
            cache=CacheConfig(mem_mb=0),
        ) as service:
            stream = service.open_stream(spec)
            updates = feed_in_chunks(stream, events, chunk_events)
            stream.close()
            result = stream.result(timeout=300.0)
            updates.extend(stream.poll_updates())
        assert_results_bit_identical(result, batch_result)
        assert len(updates) == len(batch_result.keyframes)

    def test_updates_are_in_order_and_prefix_consistent(
        self, streamed, batch_result
    ):
        """Update ``k`` carries key frame ``k`` and the fusion of 0..k."""
        events, spec = streamed
        with ReconstructionService(workers=2, executor="thread") as service:
            with service.open_stream(spec) as stream:
                updates = feed_in_chunks(stream, events, 4096)
            result = stream.result(timeout=300.0)
            updates.extend(stream.poll_updates())
        assert [u.keyframe_index for u in updates] == list(range(len(updates)))
        assert [u.segment_index for u in updates] == sorted(
            u.segment_index for u in updates
        )
        for k, update in enumerate(updates):
            np.testing.assert_array_equal(
                np.nan_to_num(update.keyframe.depth_map.depth),
                np.nan_to_num(batch_result.keyframes[k].depth_map.depth),
            )
            prefix = fuse_keyframes(
                result.keyframes[: k + 1], spec.camera, result.global_map.voxel_size
            )
            np.testing.assert_array_equal(
                update.cloud.points, prefix.fused_cloud().points
            )
            assert update.latency_seconds > 0
        # The last snapshot *is* the final fused map.
        np.testing.assert_array_equal(updates[-1].cloud.points, result.cloud.points)

    def test_streams_interleave_with_batch_jobs(self, streamed, batch_result):
        """Stream and batch segments round-robin in the dispatch log."""
        events, spec = streamed
        with ReconstructionService(
            workers=1, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            stream = service.open_stream(spec, session="live")
            feed_in_chunks(stream, events, 10**9)
            stream.close()
            batch_id = service.submit(events, spec, session="batch")
            service.drain(timeout=300.0)
            log = service.dispatch_log
            result = stream.result()
            service.result(batch_id)
        assert_results_bit_identical(result, batch_result)
        sessions = [s for s, _, _ in log]
        n_segments = len(batch_result.segments)
        assert sessions.count("live") == sessions.count("batch") == n_segments
        # From the first batch dispatch on, the two sessions strictly
        # alternate while both still have work.
        first_batch = sessions.index("batch")
        live_after = sessions[first_batch:].count("live")
        expected = ["batch", "live"] * live_after
        assert sessions[first_batch : first_batch + 2 * live_after] == expected


class TestStreamLifecycle:
    def test_feed_after_close_raises(self, streamed, make_stream):
        _, spec = streamed
        with ReconstructionService(workers=1) as service:
            stream = service.open_stream(spec)
            stream.close()
            assert stream.closed
            stream.close()  # idempotent
            with pytest.raises(ServeError, match="closed"):
                stream.feed(make_stream(10))

    def test_result_before_close_raises(self, streamed, make_stream):
        _, spec = streamed
        with ReconstructionService(workers=1) as service:
            stream = service.open_stream(spec)
            stream.feed(make_stream(10))
            with pytest.raises(ServeError, match="still open"):
                stream.result()

    def test_empty_stream_completes_with_empty_result(self, streamed):
        _, spec = streamed
        with ReconstructionService(workers=1) as service:
            stream = service.open_stream(spec)
            stream.close()
            result = stream.result()
            assert result.n_points == 0
            assert result.profile.counters()["n_events"] == 0
            assert stream.status().state is JobState.DONE

    def test_subframe_tail_is_accounted(self, streamed, make_stream):
        _, spec = streamed
        n = spec.config.frame_size - 1
        with ReconstructionService(workers=1) as service:
            stream = service.open_stream(spec)
            stream.feed(make_stream(n))
            stream.close()
            result = stream.result()
            assert result.profile.dropped_events == n

    def test_status_and_service_poll_agree(self, streamed):
        events, spec = streamed
        with ReconstructionService(workers=1) as service:
            stream = service.open_stream(spec, session="robot")
            stream.feed(events)
            status = stream.status()
            assert status.session == "robot"
            assert status.segments_total >= 1
            assert service.poll(stream.job_id).job_id == stream.job_id
            stream.close()
            stream.result()
            assert stream.status().state is JobState.DONE

    def test_stream_counters_in_stats(self, streamed, batch_result):
        events, spec = streamed
        with ReconstructionService(workers=1) as service:
            with service.open_stream(spec) as stream:
                feed_in_chunks(stream, events, 8192)
            stream.result()
            stats = service.stats()
        assert stats.streams_opened == 1
        assert stats.jobs_done == 1
        assert stats.updates_emitted == len(batch_result.keyframes)
        assert stats.chunks_refused == 0
        assert stats.chunks_dropped == 0
        # Per-stream ingestion counters on the handle itself.
        assert stream.chunks_fed == -(-len(events) // 8192)
        assert stream.events_fed == len(events)
        assert stream.chunks_dropped == 0


class TestStreamBackpressure:
    def test_full_chunk_buffer_refuses(self, streamed):
        """Chunk-granular refusal: the feed raises, the profile records it."""
        events, spec = streamed
        with ReconstructionService(
            workers=1,
            executor="thread",
            queue_limit=1,
            cache=CacheConfig(mem_mb=0),
        ) as service:
            stream = service.open_stream(spec, max_pending_chunks=1)
            with pytest.raises(StreamBacklogFull, match="pending chunks"):
                # With a 1-segment dispatch backlog and a 1-chunk buffer,
                # sustained feeding must overflow quickly.
                for lo in range(0, len(events), 256):
                    stream.feed(events[lo : lo + 256])
            assert service.stats().chunks_refused >= 1

    def test_drop_oldest_sheds_chunks_but_completes(self, streamed, batch_result):
        """Chunk-granular load shedding: oldest chunks die, stream finishes."""
        events, spec = streamed
        with ReconstructionService(
            workers=1,
            executor="thread",
            queue_limit=1,
            cache=CacheConfig(mem_mb=0),
            overflow="drop-oldest",
        ) as service:
            stream = service.open_stream(spec, max_pending_chunks=1)
            for lo in range(0, len(events), 256):
                stream.feed(events[lo : lo + 256])
            stream.close()
            result = stream.result(timeout=300.0)
            stats = service.stats()
        assert stats.chunks_dropped > 0
        assert stream.chunks_dropped == stats.chunks_dropped
        assert result.profile.counters()["n_events"] < (
            batch_result.profile.counters()["n_events"]
        )

    def test_generous_buffer_drops_nothing(self, streamed, batch_result):
        events, spec = streamed
        with ReconstructionService(
            workers=1, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            with service.open_stream(spec, max_pending_chunks=10**6) as stream:
                feed_in_chunks(stream, events, 256)
            result = stream.result(timeout=300.0)
        assert service.stats().chunks_dropped == 0
        assert_results_bit_identical(result, batch_result)

    def test_streams_are_never_drop_oldest_victims(self, streamed):
        """A batch overflow in the same session cannot kill a live stream."""
        events, spec = streamed
        with ReconstructionService(
            workers=1, executor="thread", queue_limit=1, overflow="drop-oldest"
        ) as service:
            stream = service.open_stream(spec, session="s")
            # The session is at its bound and the stream (queued, nothing
            # dispatched) is the only candidate — which must be exempt,
            # so the batch submission is refused instead.
            from repro.serve import SessionBacklogFull

            with pytest.raises(SessionBacklogFull):
                service.submit(events, spec, session="s")
            assert service.poll(stream.job_id).state is not JobState.DROPPED


class TestStreamFailure:
    @pytest.fixture
    def crashing_backend(self):
        class Crashing(ExecutionBackend):
            name = "stream-crash-test"

            def start_reference(self, T_w_ref):
                raise RuntimeError("injected stream crash")

            def process_frame(self, frame):  # pragma: no cover
                return 0, 0

            def read_dsi(self):  # pragma: no cover
                raise NotImplementedError

        register_backend("stream-crash-test")(lambda engine: Crashing())
        yield "stream-crash-test"
        del BACKENDS["stream-crash-test"]

    def test_worker_crash_fails_stream_and_surfaces(
        self, streamed, crashing_backend, make_stream
    ):
        import dataclasses

        events, spec = streamed
        bad_spec = dataclasses.replace(spec, backend=crashing_backend)
        with ReconstructionService(workers=1, executor="thread") as service:
            stream = service.open_stream(bad_spec)
            stream.feed(events)
            stream.close()
            with pytest.raises(JobFailed, match="injected stream crash"):
                stream.result(timeout=120.0)
            assert stream.status().state is JobState.FAILED
            # Feeding a failed stream surfaces the failure, not a hang.
            with pytest.raises(JobFailed, match="failed"):
                stream.feed(make_stream(10))

    def test_refused_chunk_leaves_no_trace_in_the_result(
        self, streamed, batch_result
    ):
        events, spec = streamed
        half = len(events) // 2
        with ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(mem_mb=0)
        ) as service:
            stream = service.open_stream(spec)
            stream.feed(events[:half])
            with pytest.raises(ValueError, match="time order"):
                stream.feed(events[: half // 2])
            stream.feed(events[half:])
            stream.close()
            assert stream.chunks_fed == 2
            assert stream.events_fed == len(events)
            assert_results_bit_identical(stream.result(timeout=300.0), batch_result)

    def test_chunk_starting_at_the_last_timestamp_is_accepted(self, streamed):
        """Equal timestamps across a chunk boundary are still in order."""
        events, spec = streamed
        half = len(events) // 2
        with ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(mem_mb=0)
        ) as service:
            stream = service.open_stream(spec)
            stream.feed(events[:half])
            repeat = events[half - 1 : half]  # starts at the last accepted t
            assert repeat.t_start == events[:half].t_end
            stream.feed(repeat)
            assert stream.chunks_fed == 2

    def test_out_of_order_chunk_is_refused_and_the_service_keeps_serving(
        self, streamed, batch_result
    ):
        """A chunk starting before the last accepted event never buffers.

        Only the feed raises: the stream stays usable, another tenant's
        job still completes, and shutdown still drains cleanly.
        """
        events, spec = streamed
        half = len(events) // 2
        service = ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(mem_mb=0)
        )
        try:
            innocent = service.submit(events, spec, session="batch")
            stream = service.open_stream(spec, session="live")
            stream.feed(events[half:])
            with pytest.raises(ValueError, match="before the last accepted event"):
                stream.feed(events[:half])
            assert stream.chunks_fed == 1
            stream.close()
            assert_results_bit_identical(
                service.result(innocent, timeout=300.0), batch_result
            )
            assert len(stream.result(timeout=300.0).keyframes) > 0
            service.shutdown()
            assert service.closed
        finally:
            service.close()
