"""Reliability integration: retries, deadlines, degradation, integrity.

The tentpole contract, pinned end to end with deterministic seeded
:class:`~repro.serve.FaultPlan` schedules:

* a **transient** fault healed by the retry budget leaves the final
  result bit-identical to a fault-free run (maps and counters);
* a **persistent** fault exhausts the budget and fails the job with the
  culprit's full traceback — never a silent hang;
* ``allow_partial`` degrades an out-of-budget job to a ``PARTIAL``
  result whose fused map equals the fault-free fusion *restricted to
  the completed key frames*, plus a missing-segment manifest;
* deadlines are enforced by a watchdog (fake-clock tested — no sleeps);
* a corrupted payload is caught by the merge-time integrity digest and
  retried instead of fused.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import EngineSpec, MappingOrchestrator, segment_tasks
from repro.core.mapping import (
    default_voxel_size,
    fuse_keyframes,
    merge_outcomes,
    run_segment_task,
)
from repro.serve import (
    CacheConfig,
    FaultKind,
    FaultPlan,
    JobFailed,
    JobOptions,
    JobState,
    ReconstructionService,
    RetryPolicy,
)


@pytest.fixture(scope="module")
def served(mapping_workload):
    """``(seq, events, config, spec)`` for the shared 5-segment workload."""
    seq, events, config = mapping_workload
    spec = EngineSpec(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        backend="numpy-batch",
    )
    return seq, events, config, spec


@pytest.fixture(scope="module")
def direct(served):
    """The orchestrator ground truth for the shared workload."""
    seq, events, config, _ = served
    return MappingOrchestrator(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        backend="numpy-batch",
        workers=1,
    ).run(events)


def assert_results_bit_identical(a, b):
    assert a.profile.counters() == b.profile.counters()
    np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
    np.testing.assert_array_equal(
        a.global_map.fused_points(), b.global_map.fused_points()
    )
    np.testing.assert_array_equal(
        a.global_map.fused_confidences(), b.global_map.fused_confidences()
    )


class FakeClock:
    """A manually advanced monotonic clock for deadline tests (no sleeps)."""

    def __init__(self, start: float = 1000.0):
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestRetryHealsTransients:
    def test_transient_faults_retried_bit_identical(self, served, direct):
        """Every segment fails once; retries heal; the result is exact."""
        _, events, _, spec = served
        plan = FaultPlan(FaultKind.TRANSIENT, seed=11, max_failures=1)
        with ReconstructionService(
            workers=2, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            job = service.submit(
                events,
                spec,
                options=JobOptions(
                    faults=plan, retry=RetryPolicy(max_attempts=3)
                ),
            )
            result = service.result(job, timeout=300.0)
            assert_results_bit_identical(result, direct)
            assert result.missing_segments == ()
            assert result.complete
            status = service.poll(job)
            assert status.state is JobState.DONE
            # One failed attempt per segment, all healed.
            assert status.segments_retried == len(result.segments)
            stats = service.stats()
            assert stats.segments_retried == len(result.segments)
            assert stats.jobs_failed == 0 and stats.jobs_partial == 0
            # Recovery bookkeeping never leaks into deterministic counters.
            assert "segments_retried" not in result.profile.counters()

    def test_backoff_delays_are_waited_out(self, served, direct):
        """A nonzero backoff defers the re-dispatch; drain waits it out."""
        _, events, _, spec = served
        plan = FaultPlan(FaultKind.TRANSIENT, targets=(0,), max_failures=1)
        with ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(mem_mb=0)
        ) as service:
            job = service.submit(
                events,
                spec,
                options=JobOptions(
                    faults=plan,
                    retry=RetryPolicy(max_attempts=2, backoff_s=0.05),
                ),
            )
            assert service.drain(timeout=120.0) == 1
            assert_results_bit_identical(service.result(job), direct)
            assert service.stats().segments_retried == 1


class TestPersistentFaultsSurface:
    def test_exhausted_budget_fails_with_traceback(self, served):
        _, events, _, spec = served
        plan = FaultPlan(FaultKind.PERSISTENT, targets=(1,))
        with ReconstructionService(
            workers=2, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            job = service.submit(
                events,
                spec,
                options=JobOptions(
                    faults=plan, retry=RetryPolicy(max_attempts=2)
                ),
            )
            with pytest.raises(JobFailed, match="injected persistent fault"):
                service.result(job, timeout=300.0)
            status = service.poll(job)
            assert status.state is JobState.FAILED
            assert "FaultInjected" in status.error
            assert "failed 2 attempts" in status.error
            # The satellite audit: a FAILED job carries the culprit's
            # full traceback, not just the exception repr.
            assert status.traceback is not None
            assert "Traceback (most recent call last)" in status.traceback
            assert "FaultInjected" in status.traceback
            assert service.stats().segments_retried == 1

    def test_no_retry_preserves_fail_fast_error_format(self, served):
        """Without a retry policy the pre-reliability semantics hold."""
        _, events, _, spec = served
        plan = FaultPlan(FaultKind.PERSISTENT, targets=(0,))
        with ReconstructionService(
            workers=1, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            job = service.submit(events, spec, options=JobOptions(faults=plan))
            service.drain(timeout=120.0)
            status = service.poll(job)
            assert status.state is JobState.FAILED
            # Single-attempt failures keep the bare "Type: message" form.
            assert status.error.startswith("FaultInjected: ")
            assert "attempts" not in status.error
            assert service.stats().segments_retried == 0


class TestGracefulDegradation:
    def test_partial_map_is_fault_free_fusion_of_completed_segments(
        self, served
    ):
        """The PARTIAL acceptance bar: fused map == fault-free fusion
        restricted to the completed key frames, missing manifest exact."""
        _, events, _, spec = served
        plan = FaultPlan(FaultKind.PERSISTENT, targets=(1,))
        with ReconstructionService(
            workers=2, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            options = JobOptions(faults=plan, allow_partial=True)
            job = service.submit(events, spec, options=options)
            result = service.result(job, timeout=300.0)
            status = service.poll(job)
            assert status.state is JobState.PARTIAL
            assert result.missing_segments == (1,)
            assert status.missing_segments == (1,)
            assert not result.complete
            stats = service.stats()
            assert stats.jobs_partial == 1 and stats.jobs_failed == 0

        # Expected: the same segments run fault-free, minus segment 1.
        plans, dropped = spec.plan(events)
        outcomes = [
            run_segment_task(task)
            for task in segment_tasks(plans, events, spec)
            if task.index != 1
        ]
        keyframes, profile = merge_outcomes(outcomes, dropped)
        expected_map = fuse_keyframes(
            keyframes, spec.camera, default_voxel_size(spec.depth_range)
        )
        assert len(result.keyframes) == len(keyframes)
        np.testing.assert_array_equal(
            result.global_map.fused_points(), expected_map.fused_points()
        )
        np.testing.assert_array_equal(
            result.global_map.fused_confidences(),
            expected_map.fused_confidences(),
        )
        np.testing.assert_array_equal(
            result.cloud.points, expected_map.fused_cloud(1).points
        )
        assert result.profile.counters() == profile.counters()

    def test_job_deadline_expires_to_partial_on_fake_clock(self, served):
        """Deadline semantics without sleeps: a fake clock drives the
        watchdog, the stuck segment is abandoned into the manifest."""
        _, events, _, spec = served
        clock = FakeClock()
        plan = FaultPlan(FaultKind.PERSISTENT, targets=(0,))
        with ReconstructionService(
            workers=1,
            executor="inline",
            cache=CacheConfig(mem_mb=0),
            clock=clock,
        ) as service:
            job = service.submit(
                events,
                spec,
                options=JobOptions(
                    faults=plan,
                    deadline_s=10.0,
                    allow_partial=True,
                    # Backoff far beyond the deadline: the segment sits
                    # in the retry backlog when the deadline fires.
                    retry=RetryPolicy(max_attempts=50, backoff_s=100.0),
                ),
            )
            status = service.poll(job)  # pumps: everything else lands
            assert status.state is JobState.RUNNING
            assert status.segments_done == status.segments_total - 1
            clock.advance(10.5)  # past deadline_at
            status = service.poll(job)
            assert status.state is JobState.PARTIAL
            assert status.missing_segments == (0,)
            result = service.result(job)
            assert result.missing_segments == (0,)
            assert len(result.keyframes) > 0
            assert service.stats().jobs_partial == 1

    def test_job_deadline_expires_to_failed_without_allow_partial(
        self, served
    ):
        _, events, _, spec = served
        clock = FakeClock()
        plan = FaultPlan(FaultKind.PERSISTENT, targets=(0,))
        with ReconstructionService(
            workers=1,
            executor="inline",
            cache=CacheConfig(mem_mb=0),
            clock=clock,
        ) as service:
            job = service.submit(
                events,
                spec,
                options=JobOptions(
                    faults=plan,
                    deadline_s=5.0,
                    retry=RetryPolicy(max_attempts=50, backoff_s=100.0),
                ),
            )
            service.poll(job)
            clock.advance(6.0)
            status = service.poll(job)
            assert status.state is JobState.FAILED
            assert "job deadline exceeded" in status.error
            with pytest.raises(JobFailed, match="deadline"):
                service.result(job)


    @pytest.mark.parametrize("allow_partial", [True, False])
    def test_stream_deadline_arms_at_close_on_fake_clock(
        self, served, allow_partial
    ):
        """A stream's job deadline arms at ``close()``, not at open:
        an open stream outlives its budget, a closed one expires — to
        ``PARTIAL`` (updates flow past the gap, the map equals a
        degraded batch job's) or, without ``allow_partial``, ``FAILED``."""
        _, events, _, spec = served
        clock = FakeClock()
        plan = FaultPlan(FaultKind.PERSISTENT, targets=(0,))
        with ReconstructionService(
            workers=1,
            executor="inline",
            cache=CacheConfig(mem_mb=0),
            clock=clock,
        ) as service:
            stream = service.open_stream(
                spec,
                options=JobOptions(
                    faults=plan,
                    deadline_s=10.0,
                    allow_partial=allow_partial,
                    retry=RetryPolicy(max_attempts=50, backoff_s=100.0),
                ),
            )
            stream.feed(events)
            clock.advance(20.0)  # twice the budget, but the stream is open
            assert stream.status().state is JobState.RUNNING
            stream.close()
            clock.advance(10.5)  # past the deadline armed at close()
            status = stream.status()
            if not allow_partial:
                assert status.state is JobState.FAILED
                assert "job deadline exceeded" in status.error
                with pytest.raises(JobFailed, match="deadline"):
                    stream.result()
                return
            assert status.state is JobState.PARTIAL
            assert status.missing_segments == (0,)
            stream_result = stream.result()
            assert stream_result.missing_segments == (0,)
            updates = stream.poll_updates()
            assert sorted({u.segment_index for u in updates}) == [1, 2, 3, 4]
            assert len(updates) == len(stream_result.keyframes)

            batch = service.submit(
                events,
                spec,
                options=JobOptions(faults=plan, allow_partial=True),
            )
            batch_result = service.result(batch)
            assert batch_result.missing_segments == (0,)
            assert_results_bit_identical(stream_result, batch_result)

    @pytest.mark.parametrize("allow_partial", [True, False])
    def test_stream_deadline_lists_the_uncut_tail(self, served, allow_partial):
        """A deadline that fires inside ``close()``, before the planner's
        open tail is cut, still plans that tail and counts it as
        unfinished: ``PARTIAL`` with the tail in the manifest, or a
        ``FAILED`` message counting it — never a map claiming to be
        complete."""
        _, events, config, spec = served
        spec = dataclasses.replace(
            spec, config=dataclasses.replace(config, keyframe_distance=0.1)
        )

        def run(options):
            with ReconstructionService(
                workers=1, executor="inline", cache=CacheConfig(mem_mb=0)
            ) as service:
                stream = service.open_stream(spec, options=options)
                stream.feed(events)
                stream.close()
                status = stream.status()
                try:
                    return status, stream.result()
                except JobFailed:
                    return status, None

        status, full = run(None)
        assert status.state is JobState.DONE
        assert status.segments_total == 3
        assert len(full.keyframes) == 3

        status, result = run(JobOptions(deadline_s=1e-9, allow_partial=allow_partial))
        assert status.segments_total == 3
        if not allow_partial:
            assert status.state is JobState.FAILED
            assert "1 of 3 segments unfinished" in status.error
            return
        assert status.state is JobState.PARTIAL
        assert status.missing_segments == (2,)
        assert result.missing_segments == (2,)
        assert len(result.keyframes) == 2
        assert result.profile.dropped_events == full.profile.dropped_events


class TestSegmentDeadlines:
    def test_slow_attempt_times_out_and_retry_heals(self, served, direct):
        """A slow first attempt trips the per-segment watchdog; the
        retried attempt runs clean and the result stays bit-exact."""
        _, events, _, spec = served
        plan = FaultPlan(
            FaultKind.SLOW, targets=(0,), max_failures=1, delay_s=4.0
        )
        with ReconstructionService(
            workers=2, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            job = service.submit(
                events,
                spec,
                options=JobOptions(
                    faults=plan,
                    # Generous for a clean ~0.2 s segment, far below the
                    # injected 4 s stall — no flakiness either way.
                    segment_deadline_s=1.5,
                    retry=RetryPolicy(max_attempts=2),
                ),
            )
            result = service.result(job, timeout=300.0)
            assert_results_bit_identical(result, direct)
            stats = service.stats()
            assert stats.segments_timed_out >= 1
            assert stats.segments_retried >= 1
            assert stats.jobs_done == 1


class TestCrashRecovery:
    def test_hard_crash_retried_on_rebuilt_pool(self, served, direct):
        """A worker process death breaks the pool; with a retry budget
        the service rebuilds it and heals the job bit-identically."""
        _, events, _, spec = served
        plan = FaultPlan(FaultKind.CRASH, targets=(0,), max_failures=1)
        with ReconstructionService(
            workers=1, executor="process", cache=CacheConfig(mem_mb=0)
        ) as service:
            job = service.submit(
                events,
                spec,
                options=JobOptions(
                    faults=plan, retry=RetryPolicy(max_attempts=2)
                ),
            )
            result = service.result(job, timeout=300.0)
            assert_results_bit_identical(result, direct)
            assert service.stats().segments_retried == 1

    def test_hard_crash_without_retry_still_fails_fast(self, served):
        """The PR 4 semantics survive: no retry budget, no second chance."""
        _, events, _, spec = served
        plan = FaultPlan(FaultKind.CRASH, targets=(0,), max_failures=1)
        with ReconstructionService(
            workers=1, executor="process", cache=CacheConfig(mem_mb=0)
        ) as service:
            job = service.submit(events, spec, options=JobOptions(faults=plan))
            service.drain(timeout=300.0)
            status = service.poll(job)
            assert status.state is JobState.FAILED
            assert "Broken" in status.error


class TestIntegrity:
    def test_corrupted_payload_detected_and_retried(self, served, direct):
        _, events, _, spec = served
        plan = FaultPlan(FaultKind.CORRUPT, targets=(1,), max_failures=1)
        with ReconstructionService(
            workers=2, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            job = service.submit(
                events,
                spec,
                options=JobOptions(
                    faults=plan,
                    integrity=True,
                    retry=RetryPolicy(max_attempts=2),
                ),
            )
            result = service.result(job, timeout=300.0)
            assert_results_bit_identical(result, direct)
            stats = service.stats()
            assert stats.results_corrupted == 1
            assert stats.segments_retried == 1

    def test_corruption_without_integrity_check_slips_through(
        self, served, direct
    ):
        """The threat model: without the digest the tampered payload
        fuses silently — exactly what ``integrity=True`` prevents."""
        _, events, _, spec = served
        plan = FaultPlan(FaultKind.CORRUPT, targets=(1,), max_failures=1)
        with ReconstructionService(
            workers=1, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            job = service.submit(events, spec, options=JobOptions(faults=plan))
            result = service.result(job, timeout=300.0)
            assert service.poll(job).state is JobState.DONE
            assert service.stats().results_corrupted == 0
            # The tamper bumped one counter: the corruption reached the
            # merged result undetected.
            assert (
                result.profile.counters()["votes_cast"]
                == direct.profile.counters()["votes_cast"] + 1
            )

    def test_exhausted_corruption_budget_fails_attributably(self, served):
        _, events, _, spec = served
        plan = FaultPlan(
            FaultKind.CORRUPT, targets=(0,), max_failures=10
        )
        with ReconstructionService(
            workers=1, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            job = service.submit(
                events,
                spec,
                options=JobOptions(
                    faults=plan,
                    integrity=True,
                    retry=RetryPolicy(max_attempts=2),
                ),
            )
            with pytest.raises(JobFailed, match="integrity"):
                service.result(job, timeout=300.0)
            assert service.stats().results_corrupted == 2


class TestStreamReliability:
    def test_all_failed_stream_surfaces_error_promptly(self, served):
        """Regression: a stream whose segments all fail must raise from
        ``result()`` — even without an explicit ``close()`` — instead of
        reporting itself forever open."""
        _, events, _, spec = served
        plan = FaultPlan(FaultKind.PERSISTENT)
        with ReconstructionService(
            workers=1, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            stream = service.open_stream(spec, options=JobOptions(faults=plan))
            stream.feed(events)
            service.drain(timeout=120.0)
            status = stream.status()
            assert status.state is JobState.FAILED
            assert status.traceback is not None
            with pytest.raises(JobFailed, match="injected persistent fault"):
                stream.result(timeout=60.0)
            with pytest.raises(JobFailed):
                stream.feed(events)

    def test_partial_stream_equals_partial_batch(self, served):
        """Stream ≡ batch holds for degraded jobs too: a stream that
        abandons segment 0 fuses the same PARTIAL map a batch submission
        with the same fault plan does, and its updates skip the gap."""
        _, events, _, spec = served
        plan = FaultPlan(FaultKind.PERSISTENT, targets=(0,))
        with ReconstructionService(
            workers=1, executor="thread", cache=CacheConfig(mem_mb=0)
        ) as service:
            batch = service.submit(
                events,
                spec,
                options=JobOptions(faults=plan, allow_partial=True),
            )
            batch_result = service.result(batch, timeout=300.0)

            stream = service.open_stream(
                spec, options=JobOptions(faults=plan, allow_partial=True)
            )
            stream.feed(events)
            stream.close()
            stream_result = stream.result(timeout=300.0)
            updates = stream.poll_updates()

            assert stream.status().state is JobState.PARTIAL
            assert stream_result.missing_segments == (0,)
            assert batch_result.missing_segments == (0,)
            assert_results_bit_identical(stream_result, batch_result)
            # No update was emitted for the abandoned segment, and the
            # emitted ones flowed in stream order past the gap.
            assert all(u.segment_index != 0 for u in updates)
            assert len(updates) == len(stream_result.keyframes)
            assert service.stats().jobs_partial == 2


class TestReliabilityValidation:
    def test_knob_validation(self, served):
        _, events, _, spec = served
        with ReconstructionService(workers=1, executor="inline") as service:
            with pytest.raises(ValueError, match="deadline_s"):
                service.submit(
                    events, spec, options=JobOptions(deadline_s=-1.0)
                )
            with pytest.raises(ValueError, match="segment_deadline_s"):
                service.submit(
                    events, spec, options=JobOptions(segment_deadline_s=0.0)
                )
            with pytest.raises(TypeError, match="RetryPolicy"):
                service.submit(events, spec, options=JobOptions(retry=3))
            with pytest.raises(TypeError, match="FaultPlan"):
                service.submit(
                    events, spec, options=JobOptions(faults="transient")
                )
            with pytest.raises(ValueError, match="inline"):
                service.submit(
                    events,
                    spec,
                    options=JobOptions(faults=FaultPlan(FaultKind.HANG)),
                )

    def test_constructor_defaults_flow_to_jobs(self, served):
        _, events, _, spec = served
        retry = RetryPolicy(max_attempts=2)
        with ReconstructionService(
            workers=1,
            executor="inline",
            # Cache off: every submission computes its own segments.
            cache=CacheConfig(mem_mb=0),
            options=JobOptions(retry=retry, deadline_s=60.0, allow_partial=True),
        ) as service:
            job_id = service.submit(events, spec)
            job = service.jobs[job_id]
            assert job.retry is retry
            assert job.deadline_s == 60.0
            assert job.deadline_at is not None
            assert job.allow_partial
            # Per-job overrides win over the service defaults.
            other_id = service.submit(
                events,
                spec,
                options=JobOptions(allow_partial=False, deadline_s=5.0),
            )
            other = service.jobs[other_id]
            assert not other.allow_partial
            assert other.deadline_s == 5.0
