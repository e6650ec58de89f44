"""Recovery cost of the serve layer's reliability machinery.

Three measured scenarios on one multi-segment workload, all with the
thread executor (so the numbers isolate the retry/degradation logic,
not process start-up):

* **fault-free** — the baseline wall time of the job;
* **healed transients** — every segment's first attempt fails
  (seeded transient plan, ``rate=1.0``) and the retry budget absorbs
  it; the wall-time ratio to baseline is the *recovery overhead*, and
  the result is asserted bit-identical to the fault-free run;
* **graceful degradation** — a persistent plan knocks out a fixed
  subset of segments under ``allow_partial``; recorded are the
  degraded wall time and the *partial-result fraction* (completed /
  planned segments).

Numbers land in ``benchmarks/results/BENCH_chaos.json``.  The overhead
ratio is recorded, not gated — absolute times are host-dependent; the
bit-exactness and manifest assertions always hold.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_QUALITY, update_bench_json, write_result
from repro.core import EMVSConfig, EngineSpec
from repro.eval.reporting import Table
from repro.events.datasets import load_sequence
from repro.serve import (
    CacheConfig,
    FaultKind,
    FaultPlan,
    JobOptions,
    ReconstructionService,
    RetryPolicy,
)

#: Segments the degradation scenario abandons (persistent faults).
PARTIAL_TARGETS = (1, 3)


def _workload():
    seq = load_sequence("simulation_3planes", quality=BENCH_QUALITY)
    events = seq.events.time_slice(0.4, 1.6)
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
    return events, spec


def _timed_run(events, spec, workers, options=None):
    """One served job under ``options`` -> (result, stats, seconds)."""
    with ReconstructionService(
        workers=workers, executor="thread", cache=CacheConfig(job_entries=0)
    ) as service:
        t0 = time.perf_counter()
        job_id = service.submit(events, spec, options=options)
        result = service.result(job_id, timeout=600.0)
        elapsed = time.perf_counter() - t0
        return result, service.stats(), elapsed


@pytest.mark.benchmark(group="chaos")
def test_chaos_recovery(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    events, spec = _workload()
    workers = min(4, os.cpu_count() or 1)

    clean, clean_stats, clean_s = _timed_run(events, spec, workers)
    n_segments = len(clean.segments)
    assert clean_stats.segments_retried == 0

    # Healed transients: every segment fails once, retries absorb it.
    healed, healed_stats, healed_s = _timed_run(
        events,
        spec,
        workers,
        options=JobOptions(
            faults=FaultPlan(
                FaultKind.TRANSIENT, seed=0, rate=1.0, max_failures=1
            ),
            retry=RetryPolicy(max_attempts=3),
        ),
    )
    assert healed_stats.segments_retried == n_segments
    assert healed.profile.counters() == clean.profile.counters()
    assert np.array_equal(healed.cloud.points, clean.cloud.points)
    overhead = healed_s / clean_s

    # Graceful degradation: a fixed subset of segments never succeeds.
    partial, partial_stats, partial_s = _timed_run(
        events,
        spec,
        workers,
        options=JobOptions(
            faults=FaultPlan(FaultKind.PERSISTENT, targets=PARTIAL_TARGETS),
            allow_partial=True,
        ),
    )
    assert partial.missing_segments == PARTIAL_TARGETS
    assert partial_stats.jobs_partial == 1
    completed_fraction = (n_segments - len(partial.missing_segments)) / n_segments

    table = Table(
        "Chaos recovery (simulation_3planes slice, thread executor)",
        ["scenario", "wall s", "retried", "overhead", "completed"],
    )
    table.add_row(
        "fault-free", f"{clean_s:.2f}", "0", "1.00x", f"{n_segments}/{n_segments}"
    )
    table.add_row(
        "healed transients",
        f"{healed_s:.2f}",
        str(healed_stats.segments_retried),
        f"{overhead:.2f}x",
        f"{n_segments}/{n_segments}",
    )
    table.add_row(
        "degraded (partial)",
        f"{partial_s:.2f}",
        str(partial_stats.segments_retried),
        f"{partial_s / clean_s:.2f}x",
        f"{n_segments - len(PARTIAL_TARGETS)}/{n_segments}",
    )
    table.add_note(
        f"{n_segments} segments on {workers} worker(s); host cores: "
        f"{os.cpu_count()}; quality: {BENCH_QUALITY}"
    )
    table.add_note("healed run bit-identical to fault-free (asserted)")
    write_result("chaos_recovery", table.render())
    update_bench_json(
        "BENCH_chaos.json",
        {
            "workload": "simulation_3planes slice [0.4, 1.6)",
            "quality": BENCH_QUALITY,
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "n_segments": n_segments,
            "fault_free_s": clean_s,
            "healed_transients_s": healed_s,
            "recovery_overhead_ratio": overhead,
            "healed_bit_identical": True,
            "degraded_s": partial_s,
            "missing_segments": list(partial.missing_segments),
            "partial_completed_fraction": completed_fraction,
        },
    )
