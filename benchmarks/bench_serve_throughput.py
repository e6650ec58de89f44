"""Serving throughput under synthetic multi-session load.

A load generator drives :class:`repro.serve.ReconstructionService` with a
fixed set of reconstruction jobs (distinct time slices of one replica, so
the result cache cannot collapse them) spread across 1, 4 and 16
concurrent sessions, and measures sustained jobs/sec plus p50/p95/p99
submit-to-done latency at each level (p99 tracks the tail the
reliability layer's deadlines are sized against).  A separate cached pass measures
the LRU hit path.

Two claims are checked:

* **determinism under load** — a served job's fused map and profile
  counters are bit-identical to a direct single-engine
  :class:`~repro.core.mapping.MappingOrchestrator` run, always asserted;
* **cache effectiveness** — a repeated submission is served from the
  LRU cache without dispatching any segment, always asserted (hit
  latency is recorded, not gated: absolute times are host-dependent).

Measured numbers land in ``benchmarks/results/BENCH_serve.json`` so CI
tracks the serving-path trajectory machine-readably.
"""

import os

import numpy as np
import pytest

from benchmarks.conftest import BENCH_QUALITY, update_bench_json, write_result
from repro.core import EMVSConfig, EngineSpec, MappingOrchestrator
from repro.eval.reporting import Table
from repro.events.datasets import load_sequence
from repro.serve import CacheConfig, ReconstructionService

#: Concurrent-session levels the load generator sweeps.
SESSION_LEVELS = (1, 4, 16)

#: Jobs per level (each job is a distinct slice -> no cache collapse).
N_JOBS = 16


def _make_jobs(seq):
    """Distinct multi-segment jobs: sliding windows over the replica."""
    config = EMVSConfig(n_depth_planes=48, frame_size=1024, keyframe_distance=0.06)
    spec = EngineSpec(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        backend="numpy-batch",
    )
    t0, t1 = seq.events.t_start, seq.events.t_end
    span = t1 - t0
    jobs = []
    for i in range(N_JOBS):
        start = t0 + (0.05 + 0.4 * (i / N_JOBS)) * span
        jobs.append(seq.events.time_slice(start, start + 0.45 * span))
    return jobs, spec


def _run_level(jobs, spec, sessions, workers):
    with ReconstructionService(
        workers=workers,
        queue_limit=len(jobs),
        cache=CacheConfig(job_entries=0),
    ) as service:
        ids = [
            service.submit(events, spec, session=f"s{i % sessions}")
            for i, events in enumerate(jobs)
        ]
        service.drain()
        statuses = [service.poll(job_id) for job_id in ids]
        assert all(status.state.value == "done" for status in statuses)
        latencies = np.array([status.latency_seconds for status in statuses])
        wall = max(
            service.jobs[job_id].finished_at for job_id in ids
        ) - min(service.jobs[job_id].submitted_at for job_id in ids)
        return {
            "sessions": sessions,
            "jobs_per_sec": len(jobs) / wall,
            "wall_seconds": wall,
            "p50_ms": float(np.percentile(latencies, 50) * 1e3),
            "p95_ms": float(np.percentile(latencies, 95) * 1e3),
            "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        }


@pytest.mark.benchmark(group="serve")
def test_serve_throughput(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    seq = load_sequence("simulation_3planes", quality=BENCH_QUALITY)
    jobs, spec = _make_jobs(seq)
    workers = min(4, os.cpu_count() or 1)

    # Determinism under load: served output == direct orchestrator run.
    with ReconstructionService(
        workers=workers, cache=CacheConfig(job_entries=0)
    ) as service:
        probe = service.result(service.submit(jobs[0], spec))
    direct = MappingOrchestrator(
        seq.camera,
        seq.trajectory,
        spec.config,
        depth_range=seq.depth_range,
        backend="numpy-batch",
        workers=1,
    ).run(jobs[0])
    assert probe.profile.counters() == direct.profile.counters()
    assert np.array_equal(probe.cloud.points, direct.cloud.points)

    levels = [_run_level(jobs, spec, sessions, workers) for sessions in SESSION_LEVELS]

    # Cache path: an identical resubmission must not dispatch anything.
    with ReconstructionService(
        workers=workers, cache=CacheConfig(job_entries=8)
    ) as service:
        miss_id = service.submit(jobs[0], spec)
        service.result(miss_id)
        miss_ms = service.poll(miss_id).latency_seconds * 1e3
        dispatched = len(service.dispatch_log)
        hit_id = service.submit(jobs[0], spec)
        hit_status = service.poll(hit_id)
        assert hit_status.cache_hit
        assert len(service.dispatch_log) == dispatched
        hit_ms = hit_status.latency_seconds * 1e3
        assert np.array_equal(
            service.result(hit_id).cloud.points, probe.cloud.points
        )

    table = Table(
        "Serving throughput (simulation_3planes slices, numpy-batch)",
        ["sessions", "jobs/s", "p50 ms", "p95 ms", "p99 ms", "wall s"],
    )
    for level in levels:
        table.add_row(
            str(level["sessions"]),
            f"{level['jobs_per_sec']:.2f}",
            f"{level['p50_ms']:.0f}",
            f"{level['p95_ms']:.0f}",
            f"{level['p99_ms']:.0f}",
            f"{level['wall_seconds']:.2f}",
        )
    table.add_note(
        f"{N_JOBS} jobs per level on {workers} worker(s); host cores: "
        f"{os.cpu_count()}; quality: {BENCH_QUALITY}"
    )
    table.add_note(
        f"cache: miss {miss_ms:.0f} ms -> hit {hit_ms:.2f} ms "
        "(bit-identical result, zero segments dispatched)"
    )
    table.add_note("served results bit-identical to a direct orchestrator run")
    write_result("serve_throughput", table.render())
    update_bench_json(
        "BENCH_serve.json",
        {
            "workload": "simulation_3planes sliding windows",
            "quality": BENCH_QUALITY,
            "n_jobs": N_JOBS,
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "deterministic_vs_orchestrator": True,
            "levels": {str(level["sessions"]): level for level in levels},
            "cache": {
                "miss_ms": miss_ms,
                "hit_ms": hit_ms,
                "hit_is_bit_identical": True,
            },
        },
    )
