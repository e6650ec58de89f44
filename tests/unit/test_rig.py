"""Unit tests for the multi-camera rig layer (`repro.core.rig`).

Covers the extrinsic geometry seam (`Trajectory.transformed`), the
`CameraRig` value object (validation, picklability, derived bounds), the
`GlobalMap` cross-camera agreement filter (`min_cameras`), and the
empty-map evaluation corner that aggressive agreement filtering can
legitimately produce.
"""

import pickle

import numpy as np
import pytest

from repro.core import EMVSConfig, GlobalMap
from repro.core.engine import EngineSpec
from repro.core.rig import CameraRig, RigCamera, RigJobHandle, RigOrchestrator
from repro.eval.metrics import evaluate_fused_map
from repro.events.simulator import SimulatorConfig, simulate_rig
from repro.geometry.camera import PinholeCamera
from repro.geometry.se3 import SE3, Quaternion
from repro.geometry.trajectory import Trajectory, linear_trajectory


def _trajectory(n_poses: int = 9) -> Trajectory:
    return linear_trajectory(
        start=[-0.2, 0.0, 0.0],
        end=[0.2, 0.02, 0.0],
        duration=1.0,
        n_poses=n_poses,
        rotation=Quaternion.from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.1),
    )


def _offset() -> SE3:
    return SE3(
        Quaternion.from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.05),
        np.array([0.08, 0.01, -0.02]),
    )


class TestTrajectoryTransformed:
    def test_identity_offset_is_bit_exact(self):
        traj = _trajectory()
        moved = traj.transformed(SE3.identity())
        np.testing.assert_array_equal(moved.timestamps, traj.timestamps)
        for p, q in zip(traj.poses, moved.poses):
            np.testing.assert_array_equal(p.rotation, q.rotation)
            np.testing.assert_array_equal(p.translation, q.translation)

    def test_composes_each_stored_pose_on_the_right(self):
        traj = _trajectory()
        offset = _offset()
        moved = traj.transformed(offset)
        for p, q in zip(traj.poses, moved.poses):
            expected = p @ offset
            np.testing.assert_array_equal(q.rotation, expected.rotation)
            np.testing.assert_array_equal(q.translation, expected.translation)

    def test_round_trip_through_inverse(self):
        traj = _trajectory()
        offset = _offset()
        back = traj.transformed(offset).transformed(offset.inverse())
        for p, q in zip(traj.poses, back.poses):
            np.testing.assert_allclose(q.rotation, p.rotation, atol=1e-12)
            np.testing.assert_allclose(q.translation, p.translation, atol=1e-12)

    def test_interpolation_happens_between_composed_poses(self):
        traj = _trajectory()
        offset = _offset()
        moved = traj.transformed(offset)
        ts = traj.timestamps
        t_mid = 0.5 * (ts[2] + ts[3])
        expected = (traj.poses[2] @ offset).interpolate(
            traj.poses[3] @ offset, 0.5
        )
        got = moved.sample(t_mid)
        np.testing.assert_allclose(got.rotation, expected.rotation, atol=1e-12)
        np.testing.assert_allclose(
            got.translation, expected.translation, atol=1e-12
        )

    def test_rejects_non_se3_offset(self):
        with pytest.raises(TypeError, match="SE3"):
            _trajectory().transformed(np.eye(4))


def _spec(depth_range=(0.5, 2.0)) -> EngineSpec:
    return EngineSpec(
        PinholeCamera.ideal(64, 48),
        _trajectory(),
        EMVSConfig(n_depth_planes=24, keyframe_distance=0.1),
        depth_range=depth_range,
        backend="numpy-batch",
    )


class TestCameraRig:
    def test_from_trajectory_composes_extrinsics(self):
        camera = PinholeCamera.ideal(64, 48)
        traj = _trajectory()
        offset = _offset()
        rig = CameraRig.from_trajectory(
            camera,
            traj,
            EMVSConfig(n_depth_planes=24, keyframe_distance=0.1),
            extrinsics=[SE3.identity(), offset],
            depth_range=(0.5, 2.0),
        )
        assert rig.names == ("cam0", "cam1")
        assert rig.n_cameras == len(rig) == 2
        # cam0 rides at identity: its trajectory is the body's, bit-exactly.
        for p, q in zip(traj.poses, rig.camera("cam0").spec.trajectory.poses):
            np.testing.assert_array_equal(p.rotation, q.rotation)
            np.testing.assert_array_equal(p.translation, q.translation)
        # cam1 is composed with the offset at every stored pose.
        for p, q in zip(traj.poses, rig.camera("cam1").spec.trajectory.poses):
            expected = p @ offset
            np.testing.assert_array_equal(q.rotation, expected.rotation)
            np.testing.assert_array_equal(q.translation, expected.translation)

    def test_custom_names_and_lookup(self):
        rig = CameraRig.from_trajectory(
            PinholeCamera.ideal(64, 48),
            _trajectory(),
            EMVSConfig(n_depth_planes=24, keyframe_distance=0.1),
            extrinsics=[SE3.identity(), _offset()],
            names=["left", "right"],
        )
        assert rig.names == ("left", "right")
        assert rig.camera("right").name == "right"
        with pytest.raises(KeyError, match="no rig camera"):
            rig.camera("middle")

    def test_depth_range_is_the_union_of_camera_ranges(self):
        rig = CameraRig(
            cameras=(
                RigCamera("near", _spec((0.4, 1.5)), SE3.identity()),
                RigCamera("far", _spec((0.8, 3.0)), _offset()),
            )
        )
        assert rig.depth_range == (0.4, 3.0)

    def test_validation_rejects_bad_rigs(self):
        spec = _spec()
        with pytest.raises(ValueError, match="at least one camera"):
            CameraRig(cameras=())
        with pytest.raises(ValueError, match="duplicate"):
            CameraRig(
                cameras=(
                    RigCamera("a", spec, SE3.identity()),
                    RigCamera("a", spec, _offset()),
                )
            )
        with pytest.raises(ValueError, match="non-empty name"):
            RigCamera("", spec, SE3.identity())
        with pytest.raises(TypeError, match="EngineSpec"):
            RigCamera("a", "not-a-spec", SE3.identity())
        with pytest.raises(TypeError, match="SE3"):
            RigCamera("a", spec, np.eye(4))
        with pytest.raises(ValueError, match="at least one extrinsic"):
            CameraRig.from_trajectory(
                PinholeCamera.ideal(64, 48), _trajectory(), extrinsics=[]
            )
        with pytest.raises(ValueError, match="names but"):
            CameraRig.from_trajectory(
                PinholeCamera.ideal(64, 48),
                _trajectory(),
                extrinsics=[SE3.identity()],
                names=["a", "b"],
            )

    def test_rig_pickles_losslessly(self):
        rig = CameraRig.from_trajectory(
            PinholeCamera.ideal(64, 48),
            _trajectory(),
            EMVSConfig(n_depth_planes=24, keyframe_distance=0.1),
            extrinsics=[SE3.identity(), _offset()],
            depth_range=(0.5, 2.0),
        )
        clone = pickle.loads(pickle.dumps(rig))
        assert clone.names == rig.names
        assert clone.depth_range == rig.depth_range
        for cam, cam2 in zip(rig, clone):
            assert cam2.spec.backend == cam.spec.backend
            assert cam2.spec.depth_range == cam.spec.depth_range
            np.testing.assert_array_equal(
                cam2.extrinsic.rotation, cam.extrinsic.rotation
            )
            np.testing.assert_array_equal(
                cam2.extrinsic.translation, cam.extrinsic.translation
            )
            for p, q in zip(cam.spec.trajectory.poses, cam2.spec.trajectory.poses):
                np.testing.assert_array_equal(p.rotation, q.rotation)
                np.testing.assert_array_equal(p.translation, q.translation)


class TestGlobalMapMinCameras:
    def _map(self) -> GlobalMap:
        gmap = GlobalMap(voxel_size=0.1)
        # Voxel A: seen by sources 0 and 1; voxel B: source 0 twice;
        # voxel C: source 1 once.
        gmap.insert(np.array([[0.01, 0.0, 0.0], [1.01, 0.0, 0.0]]), source=0)
        gmap.insert(np.array([[0.02, 0.0, 0.0], [1.02, 0.0, 0.0]]), source=0)
        gmap.insert(np.array([[0.03, 0.0, 0.0], [2.01, 0.0, 0.0]]), source=1)
        return gmap

    def test_camera_counts_track_distinct_sources(self):
        gmap = self._map()
        counts = {
            round(float(p[0])): int(c)
            for p, c in zip(
                gmap.fused_points(), gmap.fused_camera_counts()
            )
        }
        assert counts == {0: 2, 1: 1, 2: 1}
        observations = {
            round(float(p[0])): int(c)
            for p, c in zip(gmap.fused_points(), gmap.fused_counts())
        }
        assert observations == {0: 3, 1: 2, 2: 1}

    def test_min_cameras_keeps_only_agreeing_voxels(self):
        cloud = self._map().fused_cloud(min_cameras=2)
        assert len(cloud) == 1
        assert abs(cloud.points[0, 0]) < 0.1

    def test_min_cameras_composes_with_min_observations(self):
        gmap = self._map()
        # min_observations=2 keeps voxels A and B; min_cameras=2 keeps A.
        assert len(gmap.fused_cloud(min_observations=2)) == 2
        assert len(gmap.fused_cloud(min_observations=2, min_cameras=2)) == 1
        # Impossible combination: no voxel has 2 cameras AND 3 observations
        # from them... voxel A does (3 observations, 2 cameras).
        assert len(gmap.fused_cloud(min_observations=4, min_cameras=2)) == 0

    def test_default_source_preserves_monocular_behaviour(self):
        gmap = GlobalMap(voxel_size=0.1)
        gmap.insert(np.array([[0.0, 0.0, 0.0]]))
        gmap.insert(np.array([[0.01, 0.0, 0.0]]))
        np.testing.assert_array_equal(gmap.fused_camera_counts(), [1])
        assert len(gmap.fused_cloud(min_cameras=2)) == 0
        assert len(gmap.fused_cloud()) == 1

    def test_negative_source_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GlobalMap(0.1).insert(np.zeros((1, 3)), source=-1)


class _SceneSeq:
    """Minimal sequence stand-in for evaluate_fused_map."""

    def __init__(self, scene, depth_range):
        self.scene = scene
        self.depth_range = depth_range


class TestEmptyMapEvaluation:
    def test_all_rejected_min_cameras_corner_is_nan_free(self):
        """Filtering every voxel away yields a defined, NaN-free report."""
        from repro.events.scenes import slider_scene

        gmap = GlobalMap(voxel_size=0.05)
        # Two cameras that never agree on a voxel.
        gmap.insert(np.array([[0.0, 0.0, 0.9]]), source=0)
        gmap.insert(np.array([[0.5, 0.0, 0.9]]), source=1)
        cloud = gmap.fused_cloud(min_cameras=2)
        assert len(cloud) == 0

        seq = _SceneSeq(slider_scene(0.9, seed=3), (0.5, 2.0))
        metrics = evaluate_fused_map(cloud, seq)
        assert metrics.n_points == 0
        assert metrics.mean_distance == 0.0
        assert metrics.rmse == 0.0
        assert metrics.outlier_ratio == 0.0
        assert np.isfinite(metrics.outlier_distance)
        assert metrics.outlier_distance == pytest.approx(0.02 * 0.5 * 2.5)
        assert "n=0" in str(metrics)


class TestRigOrchestratorValidation:
    def _rig(self, n=2):
        extrinsics = [SE3.identity()]
        for i in range(1, n):
            extrinsics.append(SE3(np.eye(3), np.array([0.05 * i, 0.0, 0.0])))
        return CameraRig.from_trajectory(
            PinholeCamera.ideal(64, 48),
            _trajectory(),
            EMVSConfig(n_depth_planes=24, keyframe_distance=0.1),
            extrinsics=extrinsics,
            depth_range=(0.5, 2.0),
        )

    def test_rejects_bad_parameters(self):
        rig = self._rig()
        with pytest.raises(TypeError, match="CameraRig"):
            RigOrchestrator("not-a-rig")
        with pytest.raises(ValueError, match="workers"):
            RigOrchestrator(rig, workers=0)
        with pytest.raises(ValueError, match="voxel_size"):
            RigOrchestrator(rig, voxel_size=0.0)
        with pytest.raises(ValueError, match="min_observations"):
            RigOrchestrator(rig, min_observations=0)
        with pytest.raises(ValueError, match="min_cameras"):
            RigOrchestrator(rig, min_cameras=3)
        with pytest.raises(ValueError, match="min_cameras"):
            RigOrchestrator(rig, min_cameras=0)
        with pytest.raises(ValueError, match="executor"):
            RigOrchestrator(rig, executor="fork")

    def test_min_cameras_defaults_to_stereo_agreement(self):
        assert RigOrchestrator(self._rig(2)).min_cameras == 2
        assert RigOrchestrator(self._rig(3)).min_cameras == 2
        mono_rig = CameraRig.from_trajectory(
            PinholeCamera.ideal(64, 48),
            _trajectory(),
            EMVSConfig(n_depth_planes=24, keyframe_distance=0.1),
            extrinsics=[SE3.identity()],
        )
        assert RigOrchestrator(mono_rig).min_cameras == 1

    def test_run_rejects_mismatched_camera_keys(self):
        from repro.events.containers import EventArray

        orchestrator = RigOrchestrator(self._rig())
        with pytest.raises(ValueError, match="must match rig"):
            orchestrator.run({"cam0": EventArray.empty()})
        with pytest.raises(ValueError, match="must match rig"):
            orchestrator.run(
                {
                    "cam0": EventArray.empty(),
                    "cam1": EventArray.empty(),
                    "ghost": EventArray.empty(),
                }
            )

    def test_handle_lookup(self):
        handle = RigJobHandle(
            rig=self._rig(), job_ids=(("cam0", "job-a"), ("cam1", "job-b"))
        )
        assert handle.job_id("cam1") == "job-b"
        with pytest.raises(KeyError, match="no sub-job"):
            handle.job_id("ghost")


class TestRigRun:
    def test_rig_wider_than_the_default_queue_limit(self):
        """A 9-camera rig (one more than a service's default per-session
        job bound) runs, and every camera's result equals a monocular
        orchestrator run of its stream."""
        from repro.core import MappingOrchestrator
        from repro.events.scenes import slider_scene

        camera = PinholeCamera.ideal(32, 24)
        traj = linear_trajectory([-0.1, 0, 0], [0.1, 0, 0], 0.5, 11)
        extrinsics = [
            SE3(np.eye(3), np.array([0.01 * i, 0.0, 0.0])) for i in range(9)
        ]
        events = simulate_rig(
            slider_scene(0.9, seed=3), camera, traj, extrinsics,
            SimulatorConfig(contrast_threshold=0.2, n_render_steps=12, seed=7),
        )
        rig = CameraRig.from_trajectory(
            camera, traj,
            EMVSConfig(n_depth_planes=8, frame_size=256, keyframe_distance=0.05),
            extrinsics=extrinsics, depth_range=(0.5, 2.0),
            backend="numpy-batch",
        )
        result = RigOrchestrator(rig, workers=1).run(events)
        assert result.n_cameras == 9
        for cam in rig:
            spec = cam.spec
            solo = MappingOrchestrator(
                spec.camera, spec.trajectory, spec.config,
                depth_range=spec.depth_range, policy=spec.policy,
                backend=spec.backend, workers=1,
            ).run(events[cam.name])
            mine = result.camera_result(cam.name)
            assert len(mine.keyframes) == len(solo.keyframes) > 0, cam.name
            assert mine.segments == solo.segments
            assert np.array_equal(mine.cloud.points, solo.cloud.points)
            assert mine.profile.counters() == solo.profile.counters()


class TestSimulateRig:
    def test_per_camera_noise_is_uncorrelated(self):
        from repro.events.scenes import slider_scene

        scene = slider_scene(0.9, seed=3)
        camera = PinholeCamera.ideal(32, 24)
        traj = linear_trajectory([-0.1, 0, 0], [0.1, 0, 0], 0.5, 11)
        config = SimulatorConfig(
            contrast_threshold=0.2,
            n_render_steps=12,
            threshold_mismatch=0.05,
            noise_rate=0.5,
            seed=7,
        )
        # Two cameras at the SAME mounting point: the scene signal is
        # identical, so any difference comes from the per-camera seeds.
        events = simulate_rig(
            scene, camera, traj, [SE3.identity(), SE3.identity()], config
        )
        assert list(events) == ["cam0", "cam1"]
        a, b = events["cam0"], events["cam1"]
        assert len(a) > 0 and len(b) > 0
        assert len(a) != len(b) or not np.array_equal(a.t, b.t)

    def test_shared_time_span(self):
        from repro.events.scenes import slider_scene

        scene = slider_scene(0.9, seed=3)
        camera = PinholeCamera.ideal(32, 24)
        traj = linear_trajectory([-0.1, 0, 0], [0.1, 0, 0], 0.5, 11)
        config = SimulatorConfig(contrast_threshold=0.2, n_render_steps=12, seed=7)
        offset = SE3(np.eye(3), np.array([0.05, 0.0, 0.0]))
        events = simulate_rig(
            scene, camera, traj, [SE3.identity(), offset], config,
            names=["l", "r"],
        )
        assert list(events) == ["l", "r"]
        for stream in events.values():
            assert stream.t_start >= traj.t_start
            assert stream.t_end <= traj.t_end

    def test_validation(self):
        from repro.events.scenes import slider_scene

        scene = slider_scene(0.9, seed=3)
        camera = PinholeCamera.ideal(32, 24)
        traj = linear_trajectory([-0.1, 0, 0], [0.1, 0, 0], 0.5, 11)
        with pytest.raises(ValueError, match="at least one extrinsic"):
            simulate_rig(scene, camera, traj, [])
        with pytest.raises(ValueError, match="names but"):
            simulate_rig(
                scene, camera, traj, [SE3.identity()], names=["a", "b"]
            )
