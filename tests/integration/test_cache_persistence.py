"""Segment-level memoization: warm equivalence and restart survival.

The contract under test (see ``docs/CACHING.md``):

* a job resubmitted against a warm segment cache completes with **zero
  segment dispatches** and a **bit-identical** result — from the memory
  tier, from the disk tier, and across a service restart sharing the
  same cache directory;
* streams warm-start from cached prefixes exactly like batch jobs;
* sliding windows that share segment boundaries reuse the shared
  segments and compute only the new ones;
* PARTIAL results are never cached at job level, but the segments that
  *did* land are reused by the follow-up submission;
* ``integrity=True`` re-verifies the stored payload digest on disk
  loads, so bytes damaged at rest are recomputed, not fused;
* faulted (potentially tampered) attempts never populate the cache.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import EngineSpec
from repro.serve import (
    CacheConfig,
    FaultKind,
    FaultPlan,
    JobOptions,
    JobState,
    ReconstructionService,
    RetryPolicy,
    ServiceConfig,
    segment_key,
)


@pytest.fixture
def workload(mapping_workload):
    """``(events, spec)`` of the canonical 5-segment serving workload."""
    seq, events, config = mapping_workload
    spec = EngineSpec(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        backend="numpy-batch",
    )
    return events, spec


def service_with(cache: CacheConfig, **kwargs) -> ReconstructionService:
    defaults = dict(workers=1, executor="inline")
    defaults.update(kwargs)
    return ReconstructionService(cache=cache, **defaults)


def assert_bit_identical(a, b):
    assert a.profile.counters() == b.profile.counters()
    np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
    np.testing.assert_array_equal(
        a.global_map.fused_points(), b.global_map.fused_points()
    )


class TestWarmEquivalence:
    def test_memory_tier_repeat_is_bit_identical_and_dispatch_free(
        self, workload
    ):
        events, spec = workload
        with service_with(
            CacheConfig(mem_mb=64, cache_dir="")
        ) as service:
            cold = service.result(service.submit(events, spec))
            cold_dispatches = len(service.dispatch_log)
            assert cold_dispatches == len(cold.segments) > 1
            warm = service.result(service.submit(events, spec))
            assert len(service.dispatch_log) == cold_dispatches
            assert_bit_identical(warm, cold)
            stats = service.stats().cache
            assert stats.segment_hits == len(cold.segments)
            assert stats.segment_misses == len(cold.segments)  # the cold sweep
            jobs = sorted(service.jobs.values(), key=lambda j: j.submitted_at)
            assert jobs[-1].segments_cached == len(cold.segments)

    @pytest.mark.parametrize(
        "change", [{"name": "relabelled"}, {"batch_frames": 4}],
        ids=["name", "batch_frames"],
    )
    def test_result_neutral_policy_fields_share_entries(self, workload, change):
        """A policy's label and batch size never split a cache entry."""
        events, spec = workload
        other = replace(spec, policy=replace(spec.policy, **change))
        digest = events.content_digest(0, 1024)
        assert segment_key(other, digest) == segment_key(spec, digest)
        with service_with(
            CacheConfig(mem_mb=64, cache_dir="")
        ) as service:
            cold = service.result(service.submit(events, spec))
            warm = service.result(service.submit(events, other))
            stats = service.stats().cache
            assert stats.segment_hits == len(cold.segments)
            assert stats.segment_misses == len(cold.segments)  # the cold sweep
            assert len(service.dispatch_log) == len(cold.segments)
            assert_bit_identical(warm, cold)

    def test_disk_tier_survives_a_service_restart(self, workload, tmp_path):
        events, spec = workload
        disk = CacheConfig(mem_mb=0, cache_dir=str(tmp_path))
        with service_with(disk) as service:
            cold = service.result(service.submit(events, spec))
            assert service.stats().cache.segment_disk_entries == len(cold.segments)
        # a brand-new service over the same directory: zero dispatches
        with service_with(disk) as reborn:
            warm = reborn.result(reborn.submit(events, spec))
            assert reborn.dispatch_log == []
            stats = reborn.stats().cache
            assert stats.segment_disk_hits == len(cold.segments)
            assert_bit_identical(warm, cold)

    def test_warm_stream_emits_without_dispatching(self, workload, tmp_path):
        events, spec = workload
        cache = CacheConfig(mem_mb=64, cache_dir=str(tmp_path))
        with service_with(cache) as service:
            cold = service.result(service.submit(events, spec))
            cold_dispatches = len(service.dispatch_log)
            with service.open_stream(spec) as stream:
                updates = []
                for start in range(0, len(events), 40_000):
                    stream.feed(events[start : start + 40_000])
                    updates.extend(stream.poll_updates())
            streamed = stream.result()
            updates.extend(stream.poll_updates())
            # the stream cut the same frame-aligned segments, so every
            # one came out of the cache — nothing new on the pool
            assert len(service.dispatch_log) == cold_dispatches
            assert_bit_identical(streamed, cold)
            assert len(updates) == len(streamed.keyframes)

    def test_sliding_window_reuses_shared_segments(self, workload):
        events, spec = workload
        plans, _ = spec.plan(events)
        assert len(plans) >= 4
        cut = plans[2].start_event  # a shared segment boundary
        window_a = events[:cut]
        window_b = events[cut:]
        with service_with(
            CacheConfig(mem_mb=64, cache_dir="")
        ) as service:
            service.result(service.submit(events, spec))
            full_dispatches = len(service.dispatch_log)
            assert full_dispatches == len(plans)
            # both windows re-plan into segments the full run computed
            a = service.result(service.submit(window_a, spec))
            b = service.result(service.submit(window_b, spec))
            assert len(service.dispatch_log) == full_dispatches
            assert len(a.segments) + len(b.segments) == len(plans)

    def test_refresh_mode_recomputes_and_rewrites(self, workload):
        events, spec = workload
        with service_with(
            CacheConfig(mem_mb=64, cache_dir="")
        ) as service:
            cold = service.result(service.submit(events, spec))
            n = len(service.dispatch_log)
            refreshed = service.result(
                service.submit(events, spec, options=JobOptions(cache="refresh"))
            )
            assert len(service.dispatch_log) == 2 * n  # no reads: recomputed
            assert_bit_identical(refreshed, cold)
            # ...but the recomputed outcomes were written back
            warm = service.result(service.submit(events, spec))
            assert len(service.dispatch_log) == 2 * n
            assert_bit_identical(warm, cold)

    def test_off_mode_neither_reads_nor_writes(self, workload):
        events, spec = workload
        with service_with(
            CacheConfig(mem_mb=64, cache_dir="")
        ) as service:
            service.result(
                service.submit(events, spec, options=JobOptions(cache="off"))
            )
            stats = service.stats().cache
            assert stats.segment_entries == 0
            assert stats.segment_hits == stats.segment_misses == 0
            # a later cached job starts cold
            service.result(service.submit(events, spec))
            assert service.stats().cache.segment_hits == 0


class TestReliabilityInteraction:
    def test_partial_jobs_reuse_landed_segments_only(self, workload):
        events, spec = workload
        plans, _ = spec.plan(events)
        broken = len(plans) - 1
        plan = FaultPlan(
            FaultKind.PERSISTENT, seed=3, rate=1.0, targets=(broken,)
        )
        with service_with(
            CacheConfig(mem_mb=64, cache_dir="")
        ) as service:
            job_id = service.submit(
                events,
                spec,
                options=JobOptions(faults=plan, allow_partial=True),
            )
            partial = service.result(job_id)
            assert service.poll(job_id).state is JobState.PARTIAL
            assert partial.missing_segments == (broken,)
            n_partial = len(service.dispatch_log)
            # the follow-up reuses every landed segment and computes
            # only the one the faulted job abandoned
            repeat_id = service.submit(events, spec)
            full = service.result(repeat_id)
            status = service.poll(repeat_id)
            assert status.state is JobState.DONE
            assert not status.cache_hit  # one segment had to be computed
            assert full.missing_segments == ()
            new = [entry for entry in service.dispatch_log[n_partial:]]
            assert [index for _, _, index in new] == [broken]

    def test_faulted_attempts_never_populate_the_cache(self, workload):
        events, spec = workload
        # every segment's first attempt is tampered (CORRUPT) and, with
        # no integrity checking, fuses anyway — the cache must keep the
        # tampered payloads out so later jobs cannot inherit them.
        plan = FaultPlan(FaultKind.CORRUPT, seed=5, rate=1.0, max_failures=1)
        with service_with(
            CacheConfig(mem_mb=64, cache_dir="")
        ) as service:
            service.result(
                service.submit(events, spec, options=JobOptions(faults=plan))
            )
            assert service.stats().cache.segment_entries == 0

    def test_integrity_recomputes_damaged_disk_entries(self, workload, tmp_path):
        events, spec = workload
        disk = CacheConfig(mem_mb=0, cache_dir=str(tmp_path))
        with service_with(disk) as service:
            cold = service.result(service.submit(events, spec))
        # damage one entry at rest
        with service_with(disk) as victim_scan:
            key = next(iter(victim_scan.segment_cache._disk))
            path = victim_scan.segment_cache._disk[key][0]
        import pickle

        with open(path, "rb") as f:
            record = pickle.load(f)
        record["digest"] = "0" * 64  # payload no longer matches its digest
        with open(path, "wb") as f:
            pickle.dump(record, f)
        with service_with(disk) as service:
            warm = service.result(
                service.submit(events, spec, options=JobOptions(integrity=True))
            )
            # exactly the damaged segment recomputed
            assert len(service.dispatch_log) == 1
            assert_bit_identical(warm, cold)


class TestConfigurationPlumbing:
    def test_repro_cache_dir_env_activates_the_disk_tier(
        self, workload, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        events, spec = workload
        # legacy constructor spelling — no CacheConfig anywhere in sight
        with ReconstructionService(workers=1, executor="inline") as service:
            assert service.segment_cache.cache_dir == str(tmp_path)
            cold = service.result(service.submit(events, spec))
            assert service.stats().cache.segment_disk_entries == len(cold.segments)
        with ReconstructionService(workers=1, executor="inline") as reborn:
            reborn.result(reborn.submit(events, spec))
            assert reborn.dispatch_log == []

    def test_from_config_round_trip(self, workload, tmp_path):
        events, spec = workload
        config = ServiceConfig(
            workers=1,
            executor="inline",
            cache=CacheConfig(mem_mb=32, cache_dir=str(tmp_path)),
            defaults=JobOptions(retry=RetryPolicy(max_attempts=2)),
        )
        with ReconstructionService.from_config(config) as service:
            assert service.defaults.retry == RetryPolicy(max_attempts=2)
            cold = service.result(service.submit(events, spec))
            warm = service.result(service.submit(events, spec))
            assert_bit_identical(warm, cold)

    def test_segment_counters_stay_out_of_deterministic_profile(self, workload):
        events, spec = workload
        with service_with(
            CacheConfig(mem_mb=64, cache_dir="")
        ) as service:
            cold = service.result(service.submit(events, spec))
            warm = service.result(service.submit(events, spec))
            # cache activity shows in CacheStats only — the deterministic
            # counters the equivalence suites compare are untouched
            assert "segment_hits" not in warm.profile.counters()
            assert warm.profile.counters() == cold.profile.counters()
