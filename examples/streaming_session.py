#!/usr/bin/env python
"""Live reconstruction through a serve-layer streaming session.

Feeds the ``corridor_sweep`` scenario into
:meth:`repro.serve.ReconstructionService.open_stream` in 20 ms chunks —
the cadence an event-camera driver would deliver — and prints a line per
*finalized key frame* the moment its update pops out of
``poll_updates``, while the stream is still flowing.  At the end the
closed stream's fused map is verified bit-identical to a one-shot
``submit`` of the very same events: chunking changes latency, never
results.

Run:  python examples/streaming_session.py
"""

import os

import numpy as np

from repro.core import EMVSConfig, EngineSpec
from repro.events.datasets import load_sequence
from repro.serve import CacheConfig, ReconstructionService

#: Smoke-test knob (set by tests/integration/test_examples.py): trims the
#: workload so every example finishes in seconds.
FAST = bool(os.environ.get("REPRO_EXAMPLES_FAST"))


def main():
    seq = load_sequence("corridor_sweep", quality="fast")
    events = seq.events
    if FAST:
        mid = 0.5 * (events.t_start + events.t_end)
        events = events.time_slice(events.t_start, mid)
    spec = EngineSpec(
        seq.camera,
        seq.trajectory,
        EMVSConfig(
            n_depth_planes=48 if FAST else 64,
            frame_size=1024,
            keyframe_distance=seq.keyframe_distance,
        ),
        depth_range=seq.depth_range,
        backend="numpy-batch",
    )
    chunk = 0.02  # 20 ms of events per feed
    print(f"corridor_sweep: {len(events)} events, streaming in 20 ms chunks")

    # Segment cache off, so the one-shot check below recomputes
    # instead of reusing the stream's segments.
    with ReconstructionService(workers=1, cache=CacheConfig(mem_mb=0)) as service:
        with service.open_stream(spec, session="demo") as stream:
            # Adjacent chunks share the same float bound (last one to
            # +inf) so every event is fed exactly once.
            edges = np.arange(events.t_start, events.t_end, chunk)
            for t0, t1 in zip(edges, np.append(edges[1:], np.inf)):
                stream.feed(events.time_slice(t0, t1))
                for update in stream.poll_updates():
                    x = update.keyframe.T_w_ref.translation
                    print(
                        f"  key frame #{update.keyframe_index} at "
                        f"z={x[2]:+.2f} m: "
                        f"{update.keyframe.depth_map.n_points} px -> "
                        f"map {update.map_voxels} voxels "
                        f"(+{update.latency_seconds * 1e3:.0f} ms after its chunk)"
                    )
        result = stream.result()
        stats = service.stats()
        print(
            f"stream done: {len(result.keyframes)} key frames, "
            f"{result.n_points} fused points, "
            f"{stats.updates_emitted} updates, "
            f"{stats.chunks_dropped} chunks dropped"
        )

        # The streamed result is bit-identical to a one-shot submission.
        batch = service.result(service.submit(events, spec))
        assert result.profile.counters() == batch.profile.counters()
        np.testing.assert_array_equal(result.cloud.points, batch.cloud.points)
        print("verified: streamed map == one-shot submit, bit-exactly")


if __name__ == "__main__":
    main()
