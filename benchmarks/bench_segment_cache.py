"""Segment-cache effectiveness on 50%-overlap sliding windows.

A sliding-window workload — the shape an interactive mapping client
produces — re-submits half of its segments on every step.  This bench
runs the same window sequence three ways:

* **cold** — segment cache off; every window recomputes every segment;
* **warm** — memory + disk tiers on; a populate pass fills the cache
  (already reusing the shared half of each consecutive window), then a
  timed warm pass replays the windows and must complete with **zero**
  segment dispatches;
* **restart** — a brand-new service over the same cache directory
  replays the windows from the disk tier alone, again dispatch-free.

Two claims are checked:

* **equivalence** — warm and restarted results are bit-identical to the
  cold ones (fused points and deterministic profile counters), always
  asserted;
* **speedup** — the warm pass is at least :data:`MIN_WARM_SPEEDUP`
  faster than the cold pass, always asserted (the win is architectural
  — dispatch-free assembly versus full recompute — so the gate is
  host-independent).

Measured numbers land in ``benchmarks/results/BENCH_cache.json`` so CI
tracks the memoization trajectory machine-readably.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_QUALITY, update_bench_json, write_result
from repro.core import EMVSConfig, EngineSpec
from repro.eval.reporting import Table
from repro.events.datasets import load_sequence
from repro.serve import CacheConfig, ReconstructionService

#: Segments per sliding window.
WINDOW_SEGMENTS = 4

#: Segments advanced per step — half a window, i.e. 50 % overlap.
WINDOW_STEP = 2

#: Required cold/warm wall-clock ratio (the acceptance gate).
MIN_WARM_SPEEDUP = 5.0


def _make_windows(seq):
    """50 %-overlap windows cut on the full run's segment boundaries.

    Cutting on plan boundaries guarantees each window re-plans into the
    same frame-aligned slices (the planner is causal from the window
    start and the trajectory is sampled by absolute time), so segment
    digests — and therefore cache keys — coincide across windows.
    """
    config = EMVSConfig(n_depth_planes=48, frame_size=1024, keyframe_distance=0.06)
    spec = EngineSpec(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        backend="numpy-batch",
    )
    events = seq.events
    plans, _ = spec.plan(events)
    assert len(plans) > WINDOW_SEGMENTS
    bounds = [plan.start_event for plan in plans] + [plans[-1].end_event]
    windows = []
    covered = 0  # distinct segments the window sequence touches
    for lo in range(0, len(plans) - WINDOW_SEGMENTS + 1, WINDOW_STEP):
        windows.append(events[bounds[lo] : bounds[lo + WINDOW_SEGMENTS]])
        covered = lo + WINDOW_SEGMENTS
    return windows, spec, covered


def _replay(service, windows, spec):
    """Submit every window in order; return (results, wall_seconds)."""
    begin = time.perf_counter()
    results = [
        service.result(service.submit(window, spec)) for window in windows
    ]
    return results, time.perf_counter() - begin


def _assert_bit_identical(a, b):
    assert a.profile.counters() == b.profile.counters()
    np.testing.assert_array_equal(a.cloud.points, b.cloud.points)


@pytest.mark.benchmark(group="cache")
def test_segment_cache_sliding_windows(benchmark, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    seq = load_sequence("simulation_3planes", quality=BENCH_QUALITY)
    windows, spec, n_distinct = _make_windows(seq)
    submitted_segments = len(windows) * WINDOW_SEGMENTS

    # Cold: cache off, every window recomputes everything.
    with ReconstructionService(
        workers=1,
        executor="inline",
        cache=CacheConfig(mem_mb=0, disk_mb=0, cache_dir=""),
    ) as service:
        cold_results, cold_wall = _replay(service, windows, spec)
        assert len(service.dispatch_log) == submitted_segments

    # Warm: populate once (overlap already collapses half of each
    # consecutive window), then a timed dispatch-free replay.
    tiers = CacheConfig(mem_mb=256, cache_dir=str(tmp_path))
    with ReconstructionService(
        workers=1, executor="inline", cache=tiers
    ) as service:
        _, populate_wall = _replay(service, windows, spec)
        populate_dispatches = len(service.dispatch_log)
        assert populate_dispatches == n_distinct  # shared halves reused
        warm_results, warm_wall = _replay(service, windows, spec)
        assert len(service.dispatch_log) == populate_dispatches
        stats = service.stats().cache
        assert stats.segment_disk_entries == n_distinct

    # Restart: a new service over the same directory, disk tier only.
    with ReconstructionService(
        workers=1, executor="inline", cache=tiers
    ) as reborn:
        restart_results, restart_wall = _replay(reborn, windows, spec)
        assert reborn.dispatch_log == []
        assert reborn.stats().cache.segment_disk_hits == n_distinct

    for cold, warm, restarted in zip(cold_results, warm_results, restart_results):
        _assert_bit_identical(warm, cold)
        _assert_bit_identical(restarted, cold)

    warm_speedup = cold_wall / warm_wall
    restart_speedup = cold_wall / restart_wall
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm replay only {warm_speedup:.1f}x faster than cold "
        f"(gate: {MIN_WARM_SPEEDUP}x)"
    )

    table = Table(
        "Segment cache on 50%-overlap sliding windows (simulation_3planes)",
        ["pass", "wall s", "dispatches", "speedup"],
    )
    table.add_row("cold (cache off)", f"{cold_wall:.2f}", str(submitted_segments), "1.0x")
    table.add_row(
        "populate (overlap reuse)",
        f"{populate_wall:.2f}",
        str(populate_dispatches),
        f"{cold_wall / populate_wall:.1f}x",
    )
    table.add_row("warm (memory tier)", f"{warm_wall:.2f}", "0", f"{warm_speedup:.1f}x")
    table.add_row(
        "restart (disk tier)", f"{restart_wall:.2f}", "0", f"{restart_speedup:.1f}x"
    )
    table.add_note(
        f"{len(windows)} windows x {WINDOW_SEGMENTS} segments, step "
        f"{WINDOW_STEP} ({n_distinct} distinct segments); quality: {BENCH_QUALITY}"
    )
    table.add_note("warm and restarted results bit-identical to cold")
    write_result("segment_cache", table.render())
    update_bench_json(
        "BENCH_cache.json",
        {
            "workload": "simulation_3planes 50%-overlap sliding windows",
            "quality": BENCH_QUALITY,
            "n_windows": len(windows),
            "window_segments": WINDOW_SEGMENTS,
            "distinct_segments": n_distinct,
            "submitted_segments": submitted_segments,
            "cpu_count": os.cpu_count(),
            "cold_wall_s": cold_wall,
            "populate_wall_s": populate_wall,
            "populate_dispatches": populate_dispatches,
            "warm_wall_s": warm_wall,
            "warm_dispatches": 0,
            "warm_speedup": warm_speedup,
            "restart_wall_s": restart_wall,
            "restart_speedup": restart_speedup,
            "warm_is_bit_identical": True,
            "min_warm_speedup_gate": MIN_WARM_SPEEDUP,
        },
    )
