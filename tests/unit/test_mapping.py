"""Unit tests for segment planning and the fused global map."""

import numpy as np
import pytest

from repro.core import (
    CameraRig,
    EMVSConfig,
    GlobalMap,
    MappingOrchestrator,
    RigOrchestrator,
    plan_segments,
)
from repro.core.engine import SegmentPlan
from repro.core.keyframes import KeyframeSelector
from repro.events.containers import EventArray
from repro.events.packetizer import aggregate_frames
from repro.geometry.se3 import SE3
from repro.serve import ReconstructionService


#: The three segment-pool owners sharing the ``PoolSpec`` seam.
POOL_OWNERS = ["mapping", "rig", "service"]

EXECUTOR_MESSAGE = "executor must be 'inline', 'thread', 'process' or None"


def make_owner(owner, camera, trajectory, backend="numpy-batch", **kwargs):
    """Construct one pool owner with ``workers``/``executor`` kwargs."""
    if owner == "mapping":
        return MappingOrchestrator(camera, trajectory, backend=backend, **kwargs)
    if owner == "rig":
        rig = CameraRig.from_trajectory(
            camera, trajectory, extrinsics=[SE3.identity()], backend=backend
        )
        return RigOrchestrator(rig, **kwargs)
    return ReconstructionService(**kwargs)


class TestSegmentPlan:
    def test_event_ranges_follow_frames(self):
        plan = SegmentPlan(index=1, start_frame=3, end_frame=7, frame_size=100, t_ref=0.0)
        assert plan.n_frames == 4
        assert plan.start_event == 300
        assert plan.end_event == 700
        assert plan.n_events == 400

    def test_slice_is_frame_aligned(self, make_stream):
        events = make_stream(1000)
        plan = SegmentPlan(index=0, start_frame=2, end_frame=5, frame_size=100, t_ref=0.0)
        part = plan.slice(events)
        assert len(part) == 300
        np.testing.assert_array_equal(part.t, events.t[200:500])


class TestPlanSegments:
    def test_empty_stream(self, simple_trajectory):
        config = EMVSConfig(frame_size=100, keyframe_distance=0.05)
        plans, dropped = plan_segments(EventArray.empty(), simple_trajectory, config)
        assert plans == []
        assert dropped == 0

    def test_short_stream_all_dropped(self, simple_trajectory, make_stream):
        config = EMVSConfig(frame_size=100, keyframe_distance=0.05)
        plans, dropped = plan_segments(make_stream(60), simple_trajectory, config)
        assert plans == []
        assert dropped == 60

    def test_no_keyframing_single_segment(self, simple_trajectory, make_stream):
        config = EMVSConfig(frame_size=100, keyframe_distance=None)
        plans, dropped = plan_segments(make_stream(430), simple_trajectory, config)
        assert len(plans) == 1
        assert plans[0].start_frame == 0
        assert plans[0].end_frame == 4
        assert dropped == 30

    def test_segments_partition_the_frames(self, simple_trajectory, make_stream):
        # 2000 events over 2 s sweep 0.4 m; 0.05 m threshold -> many segments.
        config = EMVSConfig(frame_size=100, keyframe_distance=0.05)
        events = make_stream(2000)
        plans, _ = plan_segments(events, simple_trajectory, config)
        assert len(plans) > 3
        assert plans[0].start_frame == 0
        assert plans[-1].end_frame == 20
        for a, b in zip(plans[:-1], plans[1:]):
            assert a.end_frame == b.start_frame
            assert b.index == a.index + 1

    def test_boundaries_match_selector_over_frames(self, simple_trajectory, make_stream):
        """The plan reproduces KeyframeSelector decisions over frame poses."""
        config = EMVSConfig(frame_size=100, keyframe_distance=0.05)
        events = make_stream(2000)
        plans, _ = plan_segments(events, simple_trajectory, config)
        frames = aggregate_frames(events, simple_trajectory, frame_size=100)
        selector = KeyframeSelector(config.keyframe_distance)
        expected_starts = [
            i for i, f in enumerate(frames) if selector.is_new_keyframe(f.T_wc.translation)
        ]
        assert [p.start_frame for p in plans] == expected_starts
        # The reference timestamp is the key frame's mid-span timestamp.
        for plan in plans:
            assert plan.t_ref == frames[plan.start_frame].timestamp


class TestGlobalMap:
    def test_rejects_bad_voxel(self):
        with pytest.raises(ValueError):
            GlobalMap(0.0)

    def test_empty_map(self):
        gmap = GlobalMap(0.1)
        assert gmap.n_raw_points == 0
        assert gmap.n_voxels == 0
        assert len(gmap.fused_cloud()) == 0
        gmap.insert(np.empty((0, 3)))  # no-op
        assert gmap.n_raw_points == 0

    def test_validates_inputs(self):
        gmap = GlobalMap(0.1)
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            gmap.insert(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="one weight per point"):
            gmap.insert(np.zeros((2, 3)), np.ones(3))
        with pytest.raises(ValueError, match="positive"):
            gmap.insert(np.zeros((2, 3)), np.array([1.0, 0.0]))

    def test_voxel_deduplication(self):
        gmap = GlobalMap(1.0)
        gmap.insert(np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [1.5, 0.0, 0.0]]))
        assert gmap.n_raw_points == 3
        assert gmap.n_voxels == 2
        np.testing.assert_array_equal(gmap.fused_counts(), [2, 1])

    def test_confidence_weighted_mean(self):
        gmap = GlobalMap(1.0)
        gmap.insert(
            np.array([[0.1, 0.0, 0.0], [0.4, 0.0, 0.0]]), np.array([1.0, 3.0])
        )
        fused = gmap.fused_points()
        assert fused.shape == (1, 3)
        # Weighted mean: (0.1*1 + 0.4*3) / 4 = 0.325.
        np.testing.assert_allclose(fused[0], [0.325, 0.0, 0.0])
        np.testing.assert_allclose(gmap.fused_confidences(), [4.0])

    def test_min_observations_filter(self):
        gmap = GlobalMap(1.0)
        gmap.insert(np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [1.5, 0.0, 0.0]]))
        assert len(gmap.fused_cloud()) == 2
        assert len(gmap.fused_cloud(min_observations=2)) == 1

    def test_insert_after_fuse_invalidates_cache(self):
        gmap = GlobalMap(1.0)
        gmap.insert(np.array([[0.1, 0.1, 0.1]]))
        assert gmap.n_voxels == 1
        gmap.insert(np.array([[2.5, 0.0, 0.0]]))
        assert gmap.n_voxels == 2

    def test_fusion_bit_reproducible_for_fixed_order(self, rng):
        points = rng.uniform(-1, 1, size=(500, 3))
        weights = rng.uniform(0.5, 5.0, size=500)
        maps = []
        for _ in range(2):
            gmap = GlobalMap(0.2)
            # Same chunking, same order -> identical bits.
            gmap.insert(points[:200], weights[:200])
            gmap.insert(points[200:], weights[200:])
            maps.append(gmap)
        np.testing.assert_array_equal(
            maps[0].fused_points(), maps[1].fused_points()
        )
        np.testing.assert_array_equal(
            maps[0].fused_confidences(), maps[1].fused_confidences()
        )


class TestOrchestratorValidation:
    def test_rejects_backend_instances(self, simple_trajectory, davis_camera):
        from repro.core.engine import BACKENDS

        with pytest.raises(TypeError, match="registry name"):
            MappingOrchestrator(
                davis_camera, simple_trajectory, backend=object()
            )
        assert "numpy-batch" in BACKENDS  # names stay the supported currency

    def test_rejects_bad_workers(self, simple_trajectory, davis_camera):
        with pytest.raises(ValueError, match="workers"):
            MappingOrchestrator(davis_camera, simple_trajectory, workers=0)

    def test_rejects_bad_voxel_size(self, simple_trajectory, davis_camera):
        # Must fail at construction, not after a full run inside GlobalMap.
        with pytest.raises(ValueError, match="voxel_size"):
            MappingOrchestrator(davis_camera, simple_trajectory, voxel_size=0.0)

    @pytest.mark.parametrize("owner", POOL_OWNERS)
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(executor="greenlets"), EXECUTOR_MESSAGE),
            (dict(workers=0), "workers must be >= 1 (or None for auto)"),
        ],
        ids=["executor", "workers"],
    )
    def test_rejects_bad_executor(
        self, simple_trajectory, davis_camera, owner, kwargs, message
    ):
        """All three pool owners share one validator and one message."""
        with pytest.raises(ValueError) as exc:
            make_owner(owner, davis_camera, simple_trajectory, **kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("owner", POOL_OWNERS)
    @pytest.mark.parametrize(
        "backend, executor, width, kind",
        [
            ("numpy-batch", None, 1, "inline"),
            ("hardware-model", None, 1, "inline"),
            ("hardware-model", None, 2, "thread"),
            ("numpy-batch", None, 2, "process"),
            ("numpy-batch", "thread", 1, "thread"),
            ("hardware-model", "process", 2, "process"),
        ],
    )
    def test_hardware_model_defaults_to_threads(
        self, simple_trajectory, davis_camera, owner, backend, executor, width,
        kind,
    ):
        """One worker runs inline, hardware-model on threads, anything
        else on processes; an explicit kind always wins."""
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        from repro.core.mapping import _InlineExecutor

        if owner == "service" and kind == "thread" and executor is None:
            # The service is backend-agnostic (its pool serves every
            # job's spec), so its multi-worker default stays processes.
            kind = "process"
        pool_spec = make_owner(
            owner, davis_camera, simple_trajectory,
            backend=backend, executor=executor, workers=width,
        ).pool_spec
        assert pool_spec.kind(pool_spec.width()) == kind
        expected = {
            "inline": _InlineExecutor,
            "thread": ThreadPoolExecutor,
            "process": ProcessPoolExecutor,
        }[kind]
        with pool_spec.create(width) as pool:
            assert isinstance(pool, expected)

    def test_default_voxel_tracks_depth_range(self, simple_trajectory, davis_camera):
        from repro.core import default_voxel_size

        orch = MappingOrchestrator(
            davis_camera, simple_trajectory, depth_range=(1.0, 3.0)
        )
        assert orch.voxel_size == pytest.approx(0.02)
        # The orchestrator and the serving layer share one definition.
        assert orch.voxel_size == default_voxel_size((1.0, 3.0))

    def test_constructor_views_delegate_to_spec(
        self, simple_trajectory, davis_camera
    ):
        from repro.core import EngineSpec, REFORMULATED_POLICY

        orch = MappingOrchestrator(
            davis_camera, simple_trajectory, backend="numpy-reference"
        )
        assert isinstance(orch.spec, EngineSpec)
        assert orch.camera is orch.spec.camera is davis_camera
        assert orch.trajectory is orch.spec.trajectory
        assert orch.config is orch.spec.config
        assert orch.depth_range == orch.spec.depth_range
        assert orch.policy is REFORMULATED_POLICY
        assert orch.backend == "numpy-reference"


class TestSegmentHelpers:
    """The shared execution/fusion helpers the orchestrator and the
    serving layer are both built on."""

    def test_merge_outcomes_sorts_by_segment_index(self):
        from repro.core import merge_outcomes
        from repro.core.results import PipelineProfile

        first = PipelineProfile(n_events=100, votes_cast=7)
        second = PipelineProfile(n_events=50, votes_cast=3)
        keyframes, profile = merge_outcomes(
            [(1, ["kf-b"], second), (0, ["kf-a"], first)], dropped_events=9
        )
        assert keyframes == ["kf-a", "kf-b"]  # stream order restored
        assert profile.n_events == 150
        assert profile.votes_cast == 10
        assert profile.dropped_events == 9

    def test_merge_outcomes_empty(self):
        from repro.core import merge_outcomes

        keyframes, profile = merge_outcomes([], dropped_events=4)
        assert keyframes == []
        assert profile.counters()["dropped_events"] == 4

    def test_segment_tasks_slice_the_plan(self, simple_trajectory, davis_camera, make_stream):
        from repro.core import EngineSpec, segment_tasks

        spec = EngineSpec(
            davis_camera, simple_trajectory, EMVSConfig(frame_size=100)
        )
        events = make_stream(450)
        plans = [
            SegmentPlan(index=0, start_frame=0, end_frame=2, frame_size=100, t_ref=0.0),
            SegmentPlan(index=1, start_frame=2, end_frame=4, frame_size=100, t_ref=0.2),
        ]
        tasks = segment_tasks(plans, events, spec)
        assert [t.index for t in tasks] == [0, 1]
        assert all(t.spec is spec for t in tasks)
        assert [len(t.events) for t in tasks] == [200, 200]
        np.testing.assert_array_equal(tasks[1].events.t, events.t[200:400])

    def test_profile_merge_adds_engine_work_only(self):
        import dataclasses

        from repro.core.results import PipelineProfile

        # Engine accounting only: the serve layer's admission, outcome
        # and reliability counts live in ``ServiceStats``.
        assert [f.name for f in dataclasses.fields(PipelineProfile)] == [
            "n_events",
            "n_frames",
            "n_keyframes",
            "votes_cast",
            "dropped_events",
            "stage_seconds",
        ]
        a = PipelineProfile(n_events=10, votes_cast=4, stage_seconds={"A": 1.0})
        b = PipelineProfile(n_events=5, dropped_events=2, stage_seconds={"A": 0.5})
        a.merge(b)
        assert a.counters() == {
            "n_events": 15,
            "n_frames": 0,
            "n_keyframes": 0,
            "votes_cast": 4,
            "dropped_events": 2,
        }
        assert a.stage_seconds == {"A": 1.5}
