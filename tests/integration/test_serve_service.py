"""Service-level integration: determinism, fairness, failure paths.

The headline contract (the acceptance bar of the serving layer): a job
served by :class:`ReconstructionService` produces a fused map and
profile counters bit-identical to a direct
:class:`~repro.core.mapping.MappingOrchestrator` run of the same
configuration — at any worker count, on any executor, with the result
cache on or off.  Failure paths must *surface*, never hang: a worker
crash mid-segment fails that job while the rest of the service keeps
serving.
"""

import numpy as np
import pytest

from repro.core import EngineSpec, MappingOrchestrator
from repro.core.engine import BACKENDS, ExecutionBackend, register_backend
from repro.serve import (
    CacheConfig,
    JobFailed,
    JobOptions,
    JobState,
    ReconstructionService,
    SessionBacklogFull,
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
    np.testing.assert_array_equal(
        a.global_map.fused_counts(), b.global_map.fused_counts()
    )
    assert len(a.keyframes) == len(b.keyframes)
    for ka, kb in zip(a.keyframes, b.keyframes):
        np.testing.assert_array_equal(
            np.nan_to_num(ka.depth_map.depth), np.nan_to_num(kb.depth_map.depth)
        )
        np.testing.assert_array_equal(
            ka.depth_map.confidence, kb.depth_map.confidence
        )


class TestServiceDeterminism:
    @pytest.mark.parametrize(
        "workers,executor,mem_mb",
        [
            (1, "inline", 32),
            (1, "inline", 0),
            (2, "thread", 32),
            (2, "process", 0),
            (4, "thread", 0),
        ],
    )
    def test_bit_identical_to_orchestrator(
        self, served, direct, workers, executor, mem_mb
    ):
        _, events, _, spec = served
        with ReconstructionService(
            workers=workers,
            executor=executor,
            cache=CacheConfig(mem_mb=mem_mb),
        ) as service:
            job_id = service.submit(events, spec)
            result = service.result(job_id)
        assert_results_bit_identical(result, direct)

    def test_cache_hit_returns_identical_result_without_recompute(
        self, served, direct
    ):
        _, events, _, spec = served
        with ReconstructionService(workers=1) as service:
            first = service.submit(events, spec)
            service.result(first)
            dispatched_before = len(service.dispatch_log)
            second = service.submit(events, spec)
            status = service.poll(second)
            assert status.cache_hit
            assert status.state is JobState.DONE
            assert len(service.dispatch_log) == dispatched_before  # no recompute
            assert_results_bit_identical(service.result(second), direct)
            # Served by the segment cache: every segment missed once (the
            # cold job) and hit once (the repeat).
            stats = service.stats()
            assert stats.cache.segment_misses == len(direct.segments)
            assert stats.cache.segment_hits == len(direct.segments)

    def test_concurrent_duplicates_each_complete_identically(
        self, served, direct
    ):
        """Identical jobs queued together are two ordinary jobs.

        Nothing merges them: both complete bit-identically to the direct
        run, and each of the second job's segments is either computed or
        served from the segment cache once the first job landed it.
        """
        _, events, _, spec = served
        n = len(direct.segments)
        with ReconstructionService(workers=1, executor="thread") as service:
            first = service.submit(events, spec)
            second = service.submit(events, spec)
            for job_id in (first, second):
                assert_results_bit_identical(service.result(job_id), direct)
            stats = service.stats()
            assert stats.jobs_done == 2
            assert stats.jobs_coalesced == 0
            assert stats.cache.segment_misses == 2 * n  # both admitted cold
            assert stats.cache.segment_hits <= n
            computed = service.jobs[second].segments_done - service.jobs[
                second
            ].segments_cached
            assert computed + stats.cache.segment_hits == n

    def test_repeat_recomputes_with_the_cache_off(
        self, served, direct, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        _, events, _, spec = served
        n = len(direct.segments)
        with ReconstructionService(
            workers=1, cache=CacheConfig(mem_mb=0)
        ) as service:
            service.result(service.submit(events, spec))
            second = service.submit(events, spec)
            assert_results_bit_identical(service.result(second), direct)
            assert not service.poll(second).cache_hit
            assert len(service.dispatch_log) == 2 * n
            stats = service.stats()
            assert stats.cache.segment_hits == stats.cache.segment_misses == 0

    def test_partly_cached_job_is_not_a_cache_hit(self, served, direct):
        """``cache_hit`` means every segment came from the cache.

        A job whose leading segments were computed by an earlier, shorter
        job reuses them but still computes its tail.
        """
        _, events, _, spec = served
        n = len(direct.segments)
        with ReconstructionService(workers=1) as service:
            head = events[: direct.segments[2].end_event]
            service.result(service.submit(head, spec))
            full = service.submit(events, spec)
            assert_results_bit_identical(service.result(full), direct)
            status = service.poll(full)
            job = service.jobs[full]
            assert 0 < job.segments_cached < n
            assert not status.cache_hit

    def test_stats_snapshot_does_not_alias_service_state(self, served):
        """Editing a snapshot leaves the service's own accounts alone."""
        _, events, _, spec = served
        short = events.time_slice(events.t_start, events.t_start + 0.5)
        with ReconstructionService(workers=1) as service:
            service.result(service.submit(short, spec))
            snapshot = service.stats()
            live = service.stats()
            snapshot.profile.stage_seconds.clear()
            snapshot.profile.n_events = -1
            snapshot.segments_dispatched.clear()
            assert service.stats() == live
            assert live.profile.stage_seconds
            assert live.jobs_done == service.drain() == 1
            # ... and a later job leaves a snapshot alone.
            counters = live.profile.counters()
            stage_seconds = dict(live.profile.stage_seconds)
            longer = events.time_slice(events.t_start, events.t_start + 0.8)
            service.result(service.submit(longer, spec))
            assert live.profile.counters() == counters
            assert live.profile.stage_seconds == stage_seconds
            assert service.stats().profile.n_events > counters["n_events"]

    def test_fuse_parameters_respected(self, served):
        """min_observations filters through the service exactly as direct."""
        seq, events, config, spec = served
        with ReconstructionService(
            workers=1, cache=CacheConfig(mem_mb=0)
        ) as service:
            job_id = service.submit(
                events, spec, options=JobOptions(min_observations=2)
            )
            result = service.result(job_id)
        assert result.n_points == len(
            result.global_map.fused_cloud(min_observations=2)
        )
        assert result.n_points < result.global_map.n_voxels


class TestFairness:
    def test_sessions_interleave_round_robin(self, served):
        _, events, _, spec = served
        short = events.time_slice(events.t_start, events.t_start + 0.7)
        with ReconstructionService(
            workers=1, cache=CacheConfig(mem_mb=0)
        ) as service:
            a = service.submit(events, spec, session="alpha")
            b = service.submit(short, spec, session="beta")
            service.drain()
            assert service.poll(a).state is JobState.DONE
            assert service.poll(b).state is JobState.DONE
            log = service.dispatch_log
            # While both sessions have work the dispatch strictly
            # alternates; beta's shorter job simply runs out first.
            n_beta = sum(1 for s, _, _ in log if s == "beta")
            head = [s for s, _, _ in log[: 2 * n_beta]]
            assert head == ["alpha", "beta"] * n_beta

    def test_per_session_dispatch_accounting(self, served):
        _, events, _, spec = served
        with ReconstructionService(
            workers=1, cache=CacheConfig(mem_mb=0)
        ) as service:
            service.submit(events, spec, session="alpha")
            service.submit(events, spec, session="beta")
            service.drain()
            shares = service.stats().segments_dispatched
            assert shares["alpha"] == shares["beta"] > 0


class TestFailurePaths:
    @pytest.fixture
    def crashing_backend(self):
        class Crashing(ExecutionBackend):
            name = "crash-test"

            def start_reference(self, T_w_ref):
                raise RuntimeError("injected mid-segment crash")

            def process_frame(self, frame):  # pragma: no cover
                return 0, 0

            def read_dsi(self):  # pragma: no cover
                raise NotImplementedError

        register_backend("crash-test")(lambda engine: Crashing())
        yield "crash-test"
        del BACKENDS["crash-test"]

    def test_worker_crash_fails_job_not_service(
        self, served, direct, crashing_backend
    ):
        """A crash surfaces as FAILED with the error — and does not hang."""
        seq, events, config, spec = served
        import dataclasses

        bad_spec = dataclasses.replace(spec, backend=crashing_backend)
        with ReconstructionService(workers=1, executor="thread") as service:
            good = service.submit(events, spec, session="good")
            bad = service.submit(events, bad_spec, session="bad")
            service.drain(timeout=120.0)
            status = service.poll(bad)
            assert status.state is JobState.FAILED
            assert "injected mid-segment crash" in status.error
            with pytest.raises(JobFailed, match="injected mid-segment crash"):
                service.result(bad)
            # The healthy job on the same pool is untouched.
            assert service.poll(good).state is JobState.DONE
            assert_results_bit_identical(service.result(good), direct)
            stats = service.stats()
            assert stats.jobs_failed == 1
            assert stats.jobs_done == 1

    def test_failed_job_carries_culprit_traceback(
        self, served, crashing_backend
    ):
        """No swallowed worker errors: a FAILED job's status exposes the
        worker's full traceback, down to the raising frame."""
        seq, events, config, spec = served
        import dataclasses

        bad_spec = dataclasses.replace(spec, backend=crashing_backend)
        with ReconstructionService(workers=1, executor="thread") as service:
            bad = service.submit(events, bad_spec)
            service.drain(timeout=120.0)
            status = service.poll(bad)
            assert status.state is JobState.FAILED
            assert status.traceback is not None
            assert "Traceback (most recent call last)" in status.traceback
            # The culprit frame, not just the exception repr.
            assert "start_reference" in status.traceback
            assert "injected mid-segment crash" in status.traceback
            # Healthy jobs carry no traceback.
            good = service.submit(events, spec)
            service.drain(timeout=120.0)
            assert service.poll(good).traceback is None

    def test_crash_cancels_remaining_segments_of_that_job(
        self, served, crashing_backend
    ):
        seq, events, config, spec = served
        import dataclasses

        bad_spec = dataclasses.replace(spec, backend=crashing_backend)
        with ReconstructionService(workers=1, executor="thread") as service:
            job_id = service.submit(events, bad_spec)
            service.drain(timeout=120.0)
            job = service.jobs[job_id]
            # First segment crashed; the rest were never dispatched.
            assert len(service.dispatch_log) == 1
            assert job.state is JobState.FAILED

    @pytest.mark.parametrize("crasher_first", [False, True])
    def test_hard_crash_breaks_pool_but_not_innocent_jobs(
        self, served, direct, crasher_first
    ):
        """A worker death (os._exit) breaks the whole process pool; the
        service must rebuild it, requeue the innocent job's lost
        segments, attribute the crash via serial probation, and finish
        the healthy job bit-identically — not fail everything in flight.
        Both submission orders are exercised: attribution must come from
        the break snapshot, not from future collection order."""
        import dataclasses
        import os

        from repro.core.engine import BACKENDS, ExecutionBackend, register_backend

        class HardCrash(ExecutionBackend):
            name = "hard-crash-test"

            def start_reference(self, T_w_ref):
                os._exit(3)  # kills the pool process outright

            def process_frame(self, frame):  # pragma: no cover
                return 0, 0

            def read_dsi(self):  # pragma: no cover
                raise NotImplementedError

        # Registered before the pool forks, so workers inherit it.
        register_backend("hard-crash-test")(lambda engine: HardCrash())
        try:
            seq, events, config, spec = served
            bad_spec = dataclasses.replace(spec, backend="hard-crash-test")
            with ReconstructionService(
                workers=2, executor="process", cache=CacheConfig(mem_mb=0)
            ) as service:
                if crasher_first:
                    bad = service.submit(events, bad_spec, session="bad")
                    good = service.submit(events, spec, session="good")
                else:
                    good = service.submit(events, spec, session="good")
                    bad = service.submit(events, bad_spec, session="bad")
                service.drain(timeout=300.0)
                assert service.poll(bad).state is JobState.FAILED
                assert "Broken" in service.poll(bad).error
                assert service.poll(good).state is JobState.DONE
                assert_results_bit_identical(service.result(good), direct)
        finally:
            del BACKENDS["hard-crash-test"]

    def test_queue_full_refusal(self, served):
        _, events, _, spec = served
        with ReconstructionService(
            workers=1, queue_limit=1, cache=CacheConfig(mem_mb=0)
        ) as service:
            service.submit(events, spec, session="s")
            with pytest.raises(SessionBacklogFull, match="queue limit"):
                service.submit(events, spec, session="s")
            assert service.stats().jobs_refused == 1
            # Other sessions are unaffected by one session's backlog.
            other = service.submit(events, spec, session="t")
            assert service.poll(other).state in (
                JobState.QUEUED,
                JobState.RUNNING,
                JobState.DONE,
            )

    def test_drop_oldest_overflow(self, served):
        _, events, _, spec = served
        short = events.time_slice(events.t_start, events.t_start + 0.5)
        with ReconstructionService(
            workers=1,
            queue_limit=1,
            cache=CacheConfig(mem_mb=0),
            overflow="drop-oldest",
        ) as service:
            first = service.submit(events, spec, session="s")
            second = service.submit(short, spec, session="s")
            assert service.poll(first).state is JobState.DROPPED
            with pytest.raises(JobFailed, match="dropped"):
                service.result(first)
            service.drain()
            assert service.poll(second).state is JobState.DONE
            assert service.stats().jobs_dropped == 1
