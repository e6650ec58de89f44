"""Streaming-session latency: chunk arrival to key-frame update.

Feeds the canonical multi-keyframe workload through a
:class:`repro.serve.StreamingSession` in fixed-duration chunks (a
realistic driver cadence) and measures, per finalized key frame, the
latency from feeding the chunk that *closed* its segment to the update
becoming available — the end-to-end responsiveness of the live pipeline.
p50/p95 land in ``benchmarks/results/BENCH_stream.json`` so CI tracks
the streaming path's trajectory machine-readably.

Two claims are always asserted (latency numbers are recorded, not
gated — absolute times are host-dependent):

* **stream ≡ batch** — the closed stream's fused map and profile
  counters are bit-identical to a one-shot ``submit`` of the same
  events;
* **incremental delivery** — the first update arrives before the last
  segment's outcome (partial results while the stream still flows),
  measured as ``first_update_fraction`` of the total stream wall time.
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

#: Driver cadences swept (milliseconds of events per feed).
CHUNK_MS_LEVELS = (10.0, 50.0)


def _run_stream(events, spec, chunk_ms, workers):
    chunk = chunk_ms * 1e-3
    with ReconstructionService(
        workers=workers, cache=CacheConfig(mem_mb=0)
    ) as service:
        t0 = time.perf_counter()
        with service.open_stream(spec) as stream:
            updates = []
            # Adjacent chunks share the same float bound (last one to
            # +inf): every event is fed exactly once, which the
            # stream == batch assertion below depends on.
            edges = np.arange(events.t_start, events.t_end, chunk)
            for t0, t1 in zip(edges, np.append(edges[1:], np.inf)):
                stream.feed(events.time_slice(t0, t1))
                updates.append(stream.poll_updates())
        result = stream.result()
        updates.append(stream.poll_updates())
        wall = time.perf_counter() - t0
        first_at = None
        flat = []
        for batch in updates:
            for update in batch:
                if first_at is None:
                    first_at = update
                flat.append(update)
        stats = service.stats()
        assert stats.chunks_dropped == 0 and stats.chunks_refused == 0
    latencies = np.array([update.latency_seconds for update in flat])
    return result, {
        "chunk_ms": chunk_ms,
        "n_updates": len(flat),
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p95_ms": float(np.percentile(latencies, 95) * 1e3),
        "wall_seconds": wall,
        # Keyframe ordinal 0 emitted after this fraction of the stream's
        # wall time: << 1.0 means genuinely incremental delivery.
        "first_update_fraction": (
            flat[0].latency_seconds / wall if flat else None
        ),
    }


@pytest.mark.benchmark(group="stream")
def test_stream_latency(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    seq = load_sequence("simulation_3planes", quality=BENCH_QUALITY)
    events = seq.events.time_slice(0.4, 1.6)
    config = EMVSConfig(n_depth_planes=48, frame_size=1024, keyframe_distance=0.06)
    spec = EngineSpec(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        backend="numpy-batch",
    )
    workers = min(2, os.cpu_count() or 1)

    # Ground truth: one-shot batch submission of the same events.
    with ReconstructionService(
        workers=1, cache=CacheConfig(mem_mb=0)
    ) as service:
        batch = service.result(service.submit(events, spec))

    levels = []
    for chunk_ms in CHUNK_MS_LEVELS:
        result, level = _run_stream(events, spec, chunk_ms, workers)
        # Stream ≡ batch, bit-exactly — always asserted.
        assert result.profile.counters() == batch.profile.counters()
        np.testing.assert_array_equal(result.cloud.points, batch.cloud.points)
        np.testing.assert_array_equal(
            result.global_map.fused_points(), batch.global_map.fused_points()
        )
        assert level["n_updates"] == len(batch.keyframes)
        assert level["first_update_fraction"] < 1.0
        levels.append(level)

    table = Table(
        "Streaming latency (simulation_3planes, numpy-batch)",
        ["chunk ms", "updates", "p50 ms", "p95 ms", "wall s", "first@"],
    )
    for level in levels:
        table.add_row(
            f"{level['chunk_ms']:.0f}",
            str(level["n_updates"]),
            f"{level['p50_ms']:.0f}",
            f"{level['p95_ms']:.0f}",
            f"{level['wall_seconds']:.2f}",
            f"{level['first_update_fraction']:.2f}",
        )
    table.add_note(
        f"chunk->update latency on {workers} worker(s); host cores: "
        f"{os.cpu_count()}; quality: {BENCH_QUALITY}"
    )
    table.add_note("streamed fused map bit-identical to a one-shot submit")
    write_result("stream_latency", table.render())
    update_bench_json(
        "BENCH_stream.json",
        {
            "workload": "simulation_3planes [0.4, 1.6) s",
            "quality": BENCH_QUALITY,
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "stream_equals_batch": True,
            "levels": {f"{level['chunk_ms']:.0f}ms": level for level in levels},
        },
    )
