"""Shutdown-ordering and clock-seam regressions of the serving layer.

Two bug classes this file pins:

* **Clock seam** — every deadline/backoff comparison in the service
  runs on the injected monotonic ``clock``, never on a second timeline.
  A clock that stalls or jumps *backwards* (NTP step on a wall-clock
  source, VM suspend) must not spuriously expire deadlines or release
  backed-off retries early; a forward jump past a deadline must expire
  it (the watchdog reads the same clock).
* **Shutdown ordering** — ``shutdown(wait=True)`` with open streams
  and a non-empty retry backlog ends with *every* admitted job in a
  terminal state: streams are closed and flushed, backed-off segments
  run immediately (their pacing is void once the service is ending),
  and anything that cannot finish inside ``timeout`` fails
  deterministically with a shutdown error — nothing is left
  non-terminal, and nothing waits out a multi-minute backoff.
"""

import time

import numpy as np
import pytest

from repro.core import EngineSpec
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
    """``(events, spec)`` for the shared multi-segment workload."""
    seq, events, config = mapping_workload
    spec = EngineSpec(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        backend="numpy-batch",
    )
    return events, spec


class FakeClock:
    """A manually advanced monotonic clock (no sleeps in clock tests)."""

    def __init__(self, start: float = 1000.0):
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestClockSeam:
    def test_backwards_jump_is_harmless(self, served):
        """A backwards clock jump neither expires deadlines nor releases
        backed-off retries early — with a pending retry backlog, the job
        simply waits until the clock genuinely passes the release point.
        """
        events, spec = served
        clock = FakeClock()
        plan = FaultPlan(FaultKind.TRANSIENT, targets=(0,), max_failures=1)
        with ReconstructionService(
            workers=1,
            executor="inline",
            cache=CacheConfig(job_entries=0),
            clock=clock,
        ) as service:
            job = service.submit(
                events,
                spec,
                options=JobOptions(
                    faults=plan,
                    retry=RetryPolicy(max_attempts=3, backoff_s=5.0),
                    deadline_s=60.0,
                ),
            )
            status = service.poll(job)  # attempt 0 fails -> backed off
            assert not status.done
            assert service.jobs[job].retry_backlog  # waiting out the backoff

            clock.t -= 30.0  # the monotonic source glitches backwards
            status = service.poll(job)
            assert not status.done  # no spurious deadline expiry
            assert status.error is None
            assert service.jobs[job].retry_backlog  # not released early

            clock.advance(40.0)  # genuinely past the backoff, within budget
            status = service.poll(job)
            assert status.state is JobState.DONE
            assert status.segments_retried == 1
            assert service.result(job).missing_segments == ()

    def test_forward_jump_past_deadline_expires(self, served):
        """The deadline watchdog reads the injected clock, so a forward
        jump past the budget expires the job — proof the arithmetic is
        not accidentally mixed onto the host clock.
        """
        events, spec = served
        clock = FakeClock()
        plan = FaultPlan(FaultKind.PERSISTENT, targets=(0,))
        with ReconstructionService(
            workers=1,
            executor="inline",
            cache=CacheConfig(job_entries=0),
            clock=clock,
        ) as service:
            job = service.submit(
                events,
                spec,
                options=JobOptions(
                    faults=plan,
                    retry=RetryPolicy(max_attempts=50, backoff_s=100.0),
                    deadline_s=10.0,
                ),
            )
            assert not service.poll(job).done
            clock.advance(11.0)
            status = service.poll(job)
            assert status.state is JobState.FAILED
            assert "deadline" in status.error

    def test_latency_measured_on_injected_clock(self, served):
        """``latency_seconds`` comes from the injected clock, not the host's."""
        events, spec = served
        clock = FakeClock()
        with ReconstructionService(
            workers=1,
            executor="inline",
            cache=CacheConfig(job_entries=0),
            clock=clock,
        ) as service:
            job = service.submit(events, spec)
            clock.advance(2.5)
            status = service.poll(job)
            assert status.state is JobState.DONE
            # Inline execution is instantaneous on the fake timeline: the
            # only elapsed "time" is the explicit 2.5 s advance.
            assert status.latency_seconds == pytest.approx(2.5)


class TestShutdownOrdering:
    def test_shutdown_flushes_retry_backlog_immediately(self, served):
        """A backed-off retry (multi-minute backoff) runs at shutdown
        instead of being waited out: the job completes DONE, in bounded
        wall time, with the full result.
        """
        events, spec = served
        plan = FaultPlan(FaultKind.TRANSIENT, targets=(0,), max_failures=1)
        service = ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(job_entries=0)
        )
        job = service.submit(
            events,
            spec,
            options=JobOptions(
                faults=plan, retry=RetryPolicy(max_attempts=3, backoff_s=120.0)
            ),
        )
        status = service.poll(job)  # fails once, backs off two minutes
        assert not status.done
        t0 = time.perf_counter()
        service.shutdown(wait=True)
        assert time.perf_counter() - t0 < 60.0  # no 120 s backoff wait
        status = service.poll(job)
        assert status.state is JobState.DONE
        assert status.segments_retried == 1
        result = service.result(job)
        assert result.missing_segments == ()
        assert service.closed

    def test_shutdown_closes_open_streams(self, served):
        """An open stream is closed and flushed by ``shutdown(wait=True)``
        — its job ends terminal and its result stays claimable.
        """
        events, spec = served
        service = ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(job_entries=0)
        )
        stream = service.open_stream(spec, session="live")
        third = events.t_start + events.duration / 3
        stream.feed(events.time_slice(events.t_start, third))
        service.shutdown(wait=True)
        status = stream.status()
        assert status.state in (JobState.DONE, JobState.PARTIAL)
        result = stream.result()
        assert result.n_points >= 0  # claimable after shutdown
        assert service.closed

    def test_shutdown_nowait_fails_everything_deterministically(self, served):
        """``wait=False`` leaves no job non-terminal: active jobs fail
        with a shutdown error (result raises, poll shows FAILED) rather
        than hanging in QUEUED/RUNNING forever.
        """
        events, spec = served
        plan = FaultPlan(FaultKind.TRANSIENT, targets=(0,), max_failures=1)
        service = ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(job_entries=0)
        )
        job = service.submit(
            events,
            spec,
            options=JobOptions(
                faults=plan, retry=RetryPolicy(max_attempts=3, backoff_s=300.0)
            ),
        )
        stream = service.open_stream(spec, session="live")
        assert not service.poll(job).done
        service.shutdown(wait=False)
        for job_id in (job, stream.job_id):
            status = service.poll(job_id)
            assert status.state is JobState.FAILED
            assert "shut down" in status.error
        with pytest.raises(JobFailed, match="shut down"):
            service.result(job)
        service.shutdown()  # idempotent on a closed service

    def test_shutdown_timeout_fails_leftovers(self, served):
        """A drain that cannot finish inside ``timeout`` ends with the
        stuck job FAILED (not non-terminal): a persistently faulted
        segment re-enters backoff after the flush, and the bounded
        shutdown converts it to a deterministic failure.
        """
        events, spec = served
        plan = FaultPlan(FaultKind.PERSISTENT, targets=(0,))
        service = ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(job_entries=0)
        )
        job = service.submit(
            events,
            spec,
            options=JobOptions(
                faults=plan, retry=RetryPolicy(max_attempts=50, backoff_s=30.0)
            ),
        )
        assert not service.poll(job).done
        t0 = time.perf_counter()
        service.shutdown(wait=True, timeout=0.5)
        assert time.perf_counter() - t0 < 30.0  # never waits out the backoff
        status = service.poll(job)
        assert status.state is JobState.FAILED
        assert "shut down" in status.error
        assert service.closed

    def test_drain_timeout_holds_requeued_segments(self, served):
        """``drain(timeout=...)`` honors the timeout while a retry is
        backed off: it raises ``TimeoutError``, the job stays active
        with its backlog intact, and a later shutdown still completes
        it — the timeout abandons the *wait*, never the work.
        """
        events, spec = served
        plan = FaultPlan(FaultKind.TRANSIENT, targets=(0,), max_failures=1)
        service = ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(job_entries=0)
        )
        job = service.submit(
            events,
            spec,
            options=JobOptions(
                faults=plan, retry=RetryPolicy(max_attempts=3, backoff_s=60.0)
            ),
        )
        assert not service.poll(job).done
        with pytest.raises(TimeoutError):
            service.drain(timeout=0.2)
        status = service.poll(job)
        assert not status.done  # held, not abandoned
        service.shutdown(wait=True)
        assert service.poll(job).state is JobState.DONE

    def test_shutdown_result_is_bit_identical(self, served, mapping_workload):
        """The backlog flush changes *when* retries run, never what they
        compute: a shutdown-flushed job equals a normally drained one.
        """
        events, spec = served
        plan = FaultPlan(FaultKind.TRANSIENT, targets=(0,), max_failures=1)
        retry = RetryPolicy(max_attempts=3, backoff_s=90.0)
        with ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(job_entries=0)
        ) as baseline_service:
            baseline = baseline_service.result(
                baseline_service.submit(events, spec), timeout=300.0
            )
        service = ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(job_entries=0)
        )
        job = service.submit(
            events, spec, options=JobOptions(faults=plan, retry=retry)
        )
        service.poll(job)
        service.shutdown(wait=True)
        flushed = service.result(job)
        assert flushed.profile.counters() == baseline.profile.counters()
        np.testing.assert_array_equal(
            flushed.cloud.points, baseline.cloud.points
        )
