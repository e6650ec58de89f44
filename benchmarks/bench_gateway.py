"""Gateway saturation throughput across service pool widths.

A load generator drives the asyncio :class:`repro.serve.Gateway` with a
fixed set of distinct reconstruction jobs fanned across four tenant
sessions, and sweeps the width of the one service's process pool
(``workers`` 1, 2, 4), measuring saturation throughput (jobs/sec at
full load) and submit-to-terminal tail latency per level.  Levels run
in alternating order over :data:`REPS` repetitions and the medians are
reported, so a slow stretch of the host lands on every level alike.

Three claims are checked:

* **determinism through the gateway** — a gateway job's fused map and
  profile counters are bit-identical to a direct single-service run,
  always asserted;
* **metrics reconcile** — the gateway's ``/metrics`` document parses
  back to numbers equal to the service's ``ServiceStats``, always
  asserted;
* **pool scaling** — ≥2x median saturation throughput at 4 workers vs
  1 on a multi-core host.  The ratio is always recorded in
  ``benchmarks/results/BENCH_gateway.json``; the gate is only enforced
  when the host has ≥4 cores (a smaller host cannot falsify a
  parallelism claim — same convention as the parallel-mapping bench).
"""

import asyncio
import os
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_QUALITY, update_bench_json, write_result
from repro.core import EMVSConfig, EngineSpec
from repro.eval.reporting import Table
from repro.events.datasets import load_sequence
from repro.serve import (
    CacheConfig,
    Gateway,
    GatewayConfig,
    ReconstructionService,
    ServiceConfig,
    parse_metrics,
    sum_series,
)

#: Pool widths the sweep measures (the scaling claim compares 4 vs 1).
WORKER_LEVELS = (1, 2, 4)

#: Alternating repetitions per level (medians are reported).
REPS = 5

#: Jobs per run (distinct slices -> no cache collapse).
N_JOBS = 12

#: Tenant sessions the jobs are spread over.
TENANTS = tuple(f"tenant-{i}" for i in range(4))

#: Throughput bar: a 4-worker pool must beat 1 worker by this factor.
SPEEDUP_BAR_4W = 2.0


def _make_jobs(seq):
    """Distinct multi-segment jobs: sliding windows over the replica."""
    config = EMVSConfig(
        n_depth_planes=48, frame_size=1024, keyframe_distance=0.06
    )
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


def _gateway_config(workers: int) -> GatewayConfig:
    return GatewayConfig(
        service=ServiceConfig(
            workers=workers,
            executor="process",
            queue_limit=N_JOBS,
            cache=CacheConfig(mem_mb=0.0, cache_dir=""),
        ),
    )


def _run_level(jobs, spec, workers: int) -> dict:
    """Saturate a gateway whose service is ``workers`` wide with every job."""

    async def run():
        async with Gateway(_gateway_config(workers)) as gateway:
            t0 = time.perf_counter()
            job_ids = await asyncio.gather(
                *(
                    gateway.submit(
                        events, spec, session=TENANTS[i % len(TENANTS)]
                    )
                    for i, events in enumerate(jobs)
                )
            )
            await gateway.drain()
            wall = time.perf_counter() - t0
            statuses = [await gateway.poll(job_id) for job_id in job_ids]
            assert all(status.state.value == "done" for status in statuses)
            stats = (await gateway.stats())[0]
            metrics = await gateway.metrics_text()
            return wall, statuses, stats, metrics

    wall, statuses, stats, metrics = asyncio.run(run())

    # Metrics reconcile: the exported text reads back to the stats exactly.
    parsed = parse_metrics(metrics)
    for state in ("submitted", "done", "failed"):
        assert sum_series(
            parsed, "repro_serve_jobs_total", state=state
        ) == getattr(stats, f"jobs_{state}")
    assert sum_series(
        parsed, "repro_gateway_request_latency_seconds_count"
    ) == len(jobs)

    latencies = np.array([status.latency_seconds for status in statuses])
    return {
        "wall_seconds": wall,
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p95_ms": float(np.percentile(latencies, 95) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
    }


def _summarize(workers: int, runs: list[dict]) -> dict:
    """Medians over a level's repetitions, plus the wall-time quartiles."""
    walls = [run["wall_seconds"] for run in runs]
    q1, _, q3 = statistics.quantiles(walls, n=4)
    wall = statistics.median(walls)
    return {
        "workers": workers,
        "reps": len(runs),
        "jobs_per_sec": N_JOBS / wall,
        "wall_seconds": wall,
        "wall_seconds_q1": q1,
        "wall_seconds_q3": q3,
        "wall_seconds_runs": walls,
        **{
            key: statistics.median(run[key] for run in runs)
            for key in ("p50_ms", "p95_ms", "p99_ms")
        },
    }


@pytest.mark.benchmark(group="gateway")
def test_gateway_saturation(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    seq = load_sequence("simulation_3planes", quality=BENCH_QUALITY)
    jobs, spec = _make_jobs(seq)
    cores = os.cpu_count() or 1

    # Determinism through the gateway: gateway == direct, bit for bit.
    with ReconstructionService(
        workers=1, executor="inline", cache=CacheConfig(mem_mb=0)
    ) as service:
        direct = service.result(service.submit(jobs[0], spec), timeout=600.0)

    async def probe():
        async with Gateway(_gateway_config(4)) as gateway:
            job_id = await gateway.submit(jobs[0], spec, session="probe")
            return await gateway.result(job_id, timeout=600.0)

    routed = asyncio.run(probe())
    assert routed.profile.counters() == direct.profile.counters()
    assert np.array_equal(routed.cloud.points, direct.cloud.points)

    runs: dict[int, list[dict]] = {workers: [] for workers in WORKER_LEVELS}
    for rep in range(REPS):
        order = WORKER_LEVELS if rep % 2 == 0 else WORKER_LEVELS[::-1]
        for workers in order:
            runs[workers].append(_run_level(jobs, spec, workers))
    levels = [_summarize(workers, runs[workers]) for workers in WORKER_LEVELS]
    by_workers = {level["workers"]: level for level in levels}
    speedup_4w = by_workers[4]["jobs_per_sec"] / by_workers[1]["jobs_per_sec"]
    gated = cores >= 4

    table = Table(
        "Gateway saturation throughput (simulation_3planes slices)",
        ["workers", "jobs/s", "p50 ms", "p95 ms", "p99 ms", "wall s",
         "wall q1-q3 s"],
    )
    for level in levels:
        table.add_row(
            str(level["workers"]),
            f"{level['jobs_per_sec']:.2f}",
            f"{level['p50_ms']:.0f}",
            f"{level['p95_ms']:.0f}",
            f"{level['p99_ms']:.0f}",
            f"{level['wall_seconds']:.2f}",
            f"{level['wall_seconds_q1']:.2f}-{level['wall_seconds_q3']:.2f}",
        )
    table.add_note(
        f"{N_JOBS} jobs per run over {len(TENANTS)} tenants, one service "
        f"with a process pool; medians of {REPS} alternating reps; host "
        f"cores: {cores}; quality: {BENCH_QUALITY}"
    )
    table.add_note(
        f"4-worker speedup: {speedup_4w:.2f}x (bar >={SPEEDUP_BAR_4W}x, "
        f"{'enforced' if gated else 'recorded only — host < 4 cores'})"
    )
    table.add_note(
        "gateway results bit-identical to a direct single-service run; "
        "/metrics reconciles with ServiceStats"
    )
    write_result("gateway_saturation", table.render())
    update_bench_json(
        "BENCH_gateway.json",
        {
            "workload": "simulation_3planes sliding windows",
            "quality": BENCH_QUALITY,
            "n_jobs": N_JOBS,
            "executor": "process",
            "reps": REPS,
            "cpu_count": cores,
            "deterministic_vs_direct": True,
            "metrics_reconcile": True,
            "levels": {str(level["workers"]): level for level in levels},
            "speedup_4w_vs_1w": speedup_4w,
            "speedup_bar_4w": SPEEDUP_BAR_4W,
            "speedup_gate_enforced": gated,
        },
    )
    if not gated:
        pytest.skip(
            f"host has {cores} core(s) (<4): 4-worker scaling recorded in "
            "BENCH_gateway.json, throughput bar not falsifiable here"
        )
    assert speedup_4w >= SPEEDUP_BAR_4W, (
        f"4-worker saturation speedup {speedup_4w:.2f}x < {SPEEDUP_BAR_4W}x "
        "(see BENCH_gateway.json)"
    )
