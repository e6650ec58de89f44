"""Unit tests for the serving layer: sessions, scheduler, service.

Integration-level determinism (service ≡ orchestrator) lives in
``tests/integration/test_serve_service.py``; here the pieces are tested
in isolation with synthetic jobs.
"""

import numpy as np
import pytest

from repro.core import EMVSConfig, EngineSpec
from repro.core.engine import SegmentPlan
from repro.serve import (
    CacheConfig,
    OVERFLOW_POLICIES,
    JobOptions,
    JobState,
    ReconstructionService,
    RoundRobinScheduler,
    Session,
)
from repro.serve.session import Job, new_job_id


# ----------------------------------------------------------------------
# Sessions and scheduling
# ----------------------------------------------------------------------
def make_job(session: str, n_segments: int, spec, events) -> Job:
    plans = tuple(
        SegmentPlan(
            index=i,
            start_frame=i,
            end_frame=i + 1,
            frame_size=100,
            t_ref=float(i),
        )
        for i in range(n_segments)
    )
    return Job(
        job_id=new_job_id(session),
        session=session,
        spec=spec,
        plans=plans,
        segment_events={plan.index: plan.slice(events) for plan in plans},
        dropped_tail=0,
        voxel_size=0.01,
        min_observations=1,
    )


@pytest.fixture
def spec(davis_camera, simple_trajectory):
    return EngineSpec(davis_camera, simple_trajectory, EMVSConfig())


@pytest.fixture
def events(make_stream):
    return make_stream(400)


class TestSession:
    def test_rejects_bad_queue_limit(self):
        with pytest.raises(ValueError, match="queue_limit"):
            Session("s", 0)

    def test_fifo_dispatch_within_session(self, spec, events):
        session = Session("s", 8)
        first = make_job("s", 2, spec, events)
        second = make_job("s", 2, spec, events)
        session.add(first)
        session.add(second)
        assert session.next_dispatch() is first
        first.next_segment = first.n_segments  # fully dispatched
        assert session.next_dispatch() is second

    def test_backlog_counts_active_jobs_only(self, spec, events):
        session = Session("s", 2)
        done = make_job("s", 1, spec, events)
        done.finish(JobState.DONE)
        session.add(done)
        session.add(make_job("s", 1, spec, events))
        assert not session.backlogged
        session.add(make_job("s", 1, spec, events))
        assert session.backlogged

    def test_drop_victim_is_oldest_undispatched(self, spec, events):
        session = Session("s", 8)
        running = make_job("s", 2, spec, events)
        running.next_segment = 1  # already on the pool: not droppable
        queued = make_job("s", 2, spec, events)
        session.add(running)
        session.add(queued)
        assert session.oldest_queued() is queued

    def test_identical_jobs_each_count_toward_backlog(self, spec, events):
        """Duplicates are ordinary jobs: each holds one queue slot."""
        session = Session("s", 2)
        session.add(make_job("s", 2, spec, events))
        assert not session.backlogged
        session.add(make_job("s", 2, spec, events))
        assert session.backlogged
        assert session.pending_segments == 4

    def test_terminal_jobs_release_their_events(self, spec, events):
        job = make_job("s", 2, spec, events)
        assert len(job.segment_events) == 2
        job.finish(JobState.DONE)
        assert job.segment_events == {}


class TestRoundRobinScheduler:
    def test_rejects_bad_queue_limit(self):
        with pytest.raises(ValueError, match="queue_limit"):
            RoundRobinScheduler(0)

    def test_round_robin_across_sessions(self, spec, events):
        scheduler = RoundRobinScheduler()
        a = make_job("alpha", 2, spec, events)
        b = make_job("beta", 2, spec, events)
        scheduler.admit(a)
        scheduler.admit(b)
        order = []
        while (decision := scheduler.next_dispatch()) is not None:
            order.append(decision.job.session)
            scheduler.record_dispatch(decision)
        assert order == ["alpha", "beta", "alpha", "beta"]
        assert [entry[0] for entry in scheduler.dispatch_log] == order

    def test_only_recorded_decisions_count_as_dispatched(self, spec, events):
        """A decision the service completes from the cache is never recorded:
        it reaches neither the log nor the session's dispatch count."""
        scheduler = RoundRobinScheduler()
        job = make_job("s", 2, spec, events)
        scheduler.admit(job)
        first = scheduler.next_dispatch()
        second = scheduler.next_dispatch()
        scheduler.record_dispatch(second)
        assert first.task.index == 0
        assert list(scheduler.dispatch_log) == [("s", job.job_id, 1)]
        assert scheduler.sessions["s"].segments_dispatched == 1

    def test_idle_sessions_are_skipped(self, spec, events):
        scheduler = RoundRobinScheduler()
        scheduler.session("idle")  # registered but never submits
        job = make_job("busy", 3, spec, events)
        scheduler.admit(job)
        sessions = set()
        while (decision := scheduler.next_dispatch()) is not None:
            sessions.add(decision.job.session)
        assert sessions == {"busy"}

    def test_idle_sessions_keep_rotation_priority(self, spec, events):
        """A session that was idle re-enters at its old position, ahead
        of sessions that dispatched while it had nothing to do."""
        scheduler = RoundRobinScheduler()
        scheduler.session("early")  # registered first, idle for a while
        busy = make_job("busy", 2, spec, events)
        scheduler.admit(busy)
        assert scheduler.next_dispatch().job.session == "busy"
        # Now "early" submits: it is still ahead of "busy" in rotation.
        scheduler.admit(make_job("early", 1, spec, events))
        assert scheduler.next_dispatch().job.session == "early"

    def test_dispatch_marks_running_and_slices_segments(self, spec, events):
        scheduler = RoundRobinScheduler()
        job = make_job("s", 4, spec, events)
        scheduler.admit(job)
        decision = scheduler.next_dispatch()
        assert job.state is JobState.RUNNING
        assert decision.task.index == 0
        assert len(decision.task.events) == 100  # plan 0 = frames [0, 1)
        assert decision.task.spec is spec

    def test_cancel_stops_dispatch(self, spec, events):
        scheduler = RoundRobinScheduler()
        job = make_job("s", 4, spec, events)
        scheduler.admit(job)
        scheduler.next_dispatch()
        scheduler.cancel_job(job)
        assert scheduler.next_dispatch() is None


# ----------------------------------------------------------------------
# Service construction and validation
# ----------------------------------------------------------------------
class TestServiceValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ReconstructionService(workers=0)

    def test_rejects_bad_executor(self):
        with pytest.raises(ValueError, match="executor"):
            ReconstructionService(executor="greenlets")

    def test_rejects_bad_overflow(self):
        with pytest.raises(ValueError, match="overflow"):
            ReconstructionService(overflow="shed-random")
        assert OVERFLOW_POLICIES == ("refuse", "drop-oldest")

    def test_rejects_bad_cache_size(self):
        with pytest.raises(ValueError, match="mem_mb"):
            ReconstructionService(cache=CacheConfig(mem_mb=-1))
        # The job-level cache is gone: its size knob accepts only 0.
        with pytest.raises(ValueError, match="job_entries must be 0"):
            ReconstructionService(cache=CacheConfig(job_entries=32))

    def test_default_service_caches_segments_in_memory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with ReconstructionService(workers=1) as service:
            cache = service.segment_cache
            assert cache.enabled
            assert cache.mem_bytes == int(CacheConfig().mem_mb * 2**20) > 0
            assert cache.cache_dir is None

    def test_submit_requires_spec(self, events):
        with ReconstructionService(workers=1) as service:
            with pytest.raises(TypeError, match="EngineSpec"):
                service.submit(events, object())

    def test_submit_validates_fuse_params(self, spec, events):
        with ReconstructionService(workers=1) as service:
            with pytest.raises(ValueError, match="voxel_size"):
                service.submit(events, spec, options=JobOptions(voxel_size=0.0))
            with pytest.raises(ValueError, match="min_observations"):
                service.submit(
                    events, spec, options=JobOptions(min_observations=0)
                )

    def test_unknown_job_id(self):
        with ReconstructionService(workers=1) as service:
            with pytest.raises(KeyError, match="unknown job"):
                service.poll("job-999@nowhere")

    def test_closed_service_refuses_submissions(self, spec, events):
        service = ReconstructionService(workers=1)
        service.close()
        with pytest.raises(Exception, match="closed"):
            service.submit(events, spec)

    def test_executor_defaults(self):
        assert ReconstructionService(workers=1).executor == "inline"
        assert ReconstructionService(workers=2).executor == "process"

    def test_rejects_bad_retain_jobs(self):
        with pytest.raises(ValueError, match="retain_jobs"):
            ReconstructionService(retain_jobs=0)

    def test_terminal_records_are_bounded(self, spec, make_stream):
        """Old finished jobs are evicted; the service does not grow forever."""
        with ReconstructionService(workers=1, retain_jobs=2) as service:
            ids = [service.submit(make_stream(10), spec) for _ in range(5)]
            # Each sub-frame job finishes instantly; pruning happens at
            # the next submission, keeping at most retain_jobs terminal
            # records plus the fresh one.
            assert len(service.jobs) <= 3
            assert ids[0] not in service.jobs
            with pytest.raises(KeyError, match="unknown job"):
                service.poll(ids[0])
            # Counters survive eviction (submitted stays monotonic).
            assert service.stats().jobs_done == 5
            assert service.stats().jobs_submitted == 5

    def test_closed_service_does_not_resurrect_the_pool(self, spec, make_stream):
        from repro.serve import ServeError

        service = ReconstructionService(workers=1)
        job_id = service.submit(make_stream(10), spec)  # completes inline
        service.close()
        # Status of finished jobs stays readable after close...
        assert service.poll(job_id).state is JobState.DONE
        # ...but nothing can recreate the pool.
        with pytest.raises(ServeError, match="closed"):
            _ = service.pool

    def test_empty_stream_job_finishes_immediately(self, spec, make_stream):
        """A stream too short for one frame completes with an empty map."""
        with ReconstructionService(workers=1) as service:
            job_id = service.submit(make_stream(10), spec)
            status = service.poll(job_id)
            assert status.state is JobState.DONE
            result = service.result(job_id)
            assert result.n_points == 0
            # The sub-frame tail is accounted, not silently discarded.
            assert result.profile.dropped_events == 10

    def test_planning_counts_toward_latency(self, spec, make_stream, monkeypatch):
        """The job's clock starts before ``spec.plan``: a 50 ms plan shows
        in its latency and in the result's wall time."""
        import time

        plan = EngineSpec.plan

        def slow_plan(self, events):
            time.sleep(0.05)
            return plan(self, events)

        monkeypatch.setattr(EngineSpec, "plan", slow_plan)
        with ReconstructionService(workers=1) as service:
            job_id = service.submit(make_stream(10), spec)
            assert service.poll(job_id).latency_seconds >= 0.05
            assert service.result(job_id).wall_seconds >= 0.05


class TestEngineSpec:
    def test_resolves_policy_names(self, davis_camera, simple_trajectory):
        from repro.core import REFORMULATED_POLICY

        spec = EngineSpec(
            davis_camera, simple_trajectory, EMVSConfig(), policy="reformulated"
        )
        assert spec.policy is REFORMULATED_POLICY

    def test_rejects_backend_instances(self, davis_camera, simple_trajectory):
        with pytest.raises(TypeError, match="registry name"):
            EngineSpec(
                davis_camera, simple_trajectory, EMVSConfig(), backend=object()
            )

    def test_none_config_defaults(self, davis_camera, simple_trajectory):
        spec = EngineSpec(davis_camera, simple_trajectory, None)
        assert spec.config == EMVSConfig()

    def test_build_constructs_matching_engine(
        self, davis_camera, simple_trajectory
    ):
        spec = EngineSpec(
            davis_camera,
            simple_trajectory,
            EMVSConfig(n_depth_planes=24),
            depth_range=(0.5, 2.0),
            backend="numpy-reference",
        )
        engine = spec.build()
        assert engine.camera is davis_camera
        assert engine.config.n_depth_planes == 24
        assert engine.backend.name == "numpy-reference"

    def test_specs_compare_equal_by_value(self, davis_camera, simple_trajectory):
        a = EngineSpec(davis_camera, simple_trajectory, EMVSConfig())
        b = EngineSpec(davis_camera, simple_trajectory, EMVSConfig())
        assert a == b


class TestContentDigest:
    def test_equal_content_equal_digest(self, make_stream):
        assert make_stream(100).content_digest() == make_stream(100).content_digest()

    def test_different_content_different_digest(self, make_stream):
        assert make_stream(100).content_digest() != make_stream(101).content_digest()

    def test_slices_digest_by_value(self, make_stream):
        events = make_stream(200)
        assert events[:100].content_digest() == make_stream(100).content_digest()

    def test_empty_digest_is_stable(self):
        from repro.events.containers import EventArray

        assert EventArray.empty().content_digest() == EventArray.empty().content_digest()
        assert np.unique([EventArray.empty().content_digest()]).size == 1
