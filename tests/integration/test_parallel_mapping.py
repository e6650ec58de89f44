"""Parallel multi-keyframe mapping: determinism and engine equivalence.

The contract under test: sharding a stream into key-frame segments and
mapping them on a worker pool is *invisible* in the output — the fused
global map and every deterministic profile counter are bit-identical for
any worker count, and the per-keyframe reconstructions match a single
streaming engine run exactly.
"""

import numpy as np
import pytest

from repro.core import MappingOrchestrator, ReconstructionEngine, plan_segments


@pytest.fixture(scope="module")
def workload(mapping_workload):
    """The shared multi-segment 3planes workload (tests/conftest.py)."""
    return mapping_workload


def run_mapping(seq, events, config, **kwargs):
    orchestrator = MappingOrchestrator(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        backend=kwargs.pop("backend", "numpy-batch"),
        **kwargs,
    )
    return orchestrator.run(events)


class TestWorkerCountInvariance:
    def test_fused_map_bit_identical_across_1_2_4_workers(self, workload):
        seq, events, config = workload
        results = {
            workers: run_mapping(seq, events, config, workers=workers)
            for workers in (1, 2, 4)
        }
        base = results[1]
        assert len(base.segments) >= 4  # the workload is genuinely sharded
        assert base.workers == 1
        assert results[4].workers > 1  # the pool actually widened
        for workers in (2, 4):
            other = results[workers]
            np.testing.assert_array_equal(base.cloud.points, other.cloud.points)
            np.testing.assert_array_equal(
                base.global_map.fused_points(), other.global_map.fused_points()
            )
            np.testing.assert_array_equal(
                base.global_map.fused_confidences(),
                other.global_map.fused_confidences(),
            )
            np.testing.assert_array_equal(
                base.global_map.fused_counts(), other.global_map.fused_counts()
            )
            assert base.profile.counters() == other.profile.counters()
            for a, b in zip(base.keyframes, other.keyframes):
                np.testing.assert_array_equal(
                    np.nan_to_num(a.depth_map.depth), np.nan_to_num(b.depth_map.depth)
                )
                np.testing.assert_array_equal(
                    a.depth_map.confidence, b.depth_map.confidence
                )

    def test_thread_pool_matches_process_pool(self, workload):
        seq, events, config = workload
        by_process = run_mapping(seq, events, config, workers=2)
        by_thread = run_mapping(seq, events, config, workers=2, executor="thread")
        np.testing.assert_array_equal(
            by_process.cloud.points, by_thread.cloud.points
        )
        assert by_process.profile.counters() == by_thread.profile.counters()


class TestEngineEquivalence:
    def test_matches_single_streaming_engine(self, workload):
        """Sharded parallel mapping == one engine over the whole stream."""
        seq, events, config = workload
        engine_result = ReconstructionEngine(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            backend="numpy-batch",
        ).run(events)
        mapped = run_mapping(seq, events, config, workers=2)
        assert mapped.profile.counters() == engine_result.profile.counters()
        assert len(mapped.keyframes) == len(engine_result.keyframes)
        for a, b in zip(engine_result.keyframes, mapped.keyframes):
            assert a.n_events == b.n_events
            assert a.n_frames == b.n_frames
            np.testing.assert_array_equal(
                a.T_w_ref.translation, b.T_w_ref.translation
            )
            np.testing.assert_array_equal(
                np.nan_to_num(a.depth_map.depth), np.nan_to_num(b.depth_map.depth)
            )
            np.testing.assert_array_equal(
                a.depth_map.confidence, b.depth_map.confidence
            )

    def test_plan_matches_engine_keyframes(self, workload):
        seq, events, config = workload
        plans, dropped = plan_segments(events, seq.trajectory, config)
        result = ReconstructionEngine(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            backend="numpy-batch",
        ).run(events)
        assert len(plans) == len(result.keyframes)
        assert sum(p.n_frames for p in plans) == result.profile.n_frames
        assert dropped == len(events) % config.frame_size
        for plan, kf in zip(plans, result.keyframes):
            assert plan.n_frames == kf.n_frames
            assert plan.n_events == kf.n_events

    def test_segment_replay_on_one_engine(self, workload):
        """run_segment is resumable: replaying plans serially == one run."""
        seq, events, config = workload
        plans, _ = plan_segments(events, seq.trajectory, config)
        whole = ReconstructionEngine(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            backend="numpy-batch",
        ).run(events)
        replayer = ReconstructionEngine(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            backend="numpy-batch",
        )
        per_segment = [replayer.run_segment(plan.slice(events)) for plan in plans]
        assert all(len(kfs) == 1 for kfs in per_segment)
        replayed = replayer.finish()
        assert len(replayed.keyframes) == len(whole.keyframes)
        np.testing.assert_array_equal(
            replayed.cloud.points, whole.cloud.points
        )
        assert replayed.profile.votes_cast == whole.profile.votes_cast

    def test_run_segment_rejects_ragged_slices(self, workload):
        seq, events, config = workload
        engine = ReconstructionEngine(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
        )
        with pytest.raises(ValueError, match="frame-aligned"):
            engine.run_segment(events[: config.frame_size + 7])


class TestFusionSemantics:
    def test_fused_cloud_is_weighted_union_of_keyframes(self, workload):
        """Orchestrator fusion == manual GlobalMap over the keyframes."""
        from repro.core import GlobalMap

        seq, events, config = workload
        result = run_mapping(seq, events, config, workers=1)
        manual = GlobalMap(result.global_map.voxel_size)
        for kf in result.keyframes:
            manual.insert_keyframe(kf, seq.camera)
        np.testing.assert_array_equal(
            manual.fused_points(), result.global_map.fused_points()
        )
        assert result.global_map.n_raw_points == sum(
            kf.depth_map.n_points for kf in result.keyframes
        )

    def test_fused_map_evaluates_against_scene(self, workload):
        from repro.eval.metrics import evaluate_fused_map

        seq, events, config = workload
        result = run_mapping(seq, events, config, workers=1)
        metrics = evaluate_fused_map(result.cloud, seq)
        assert metrics.n_points == result.n_points > 0
        # Loose sanity bar: the fused map hugs the true surfaces to well
        # under a tenth of the scene's mean depth.
        assert metrics.mean_distance < 0.2
