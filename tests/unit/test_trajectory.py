"""Unit tests for trajectories and pose interpolation."""

import numpy as np
import pytest

from repro.geometry.se3 import SE3, Quaternion
from repro.geometry.trajectory import Trajectory, linear_trajectory


class TestConstruction:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0], [SE3.identity()])

    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], [SE3.identity(), SE3.identity()])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trajectory([], [])

    def test_len_and_iter(self, simple_trajectory):
        assert len(simple_trajectory) == 41
        items = list(simple_trajectory)
        assert items[0][0] == pytest.approx(0.0)


class TestSampling:
    def test_sample_at_knots(self, simple_trajectory):
        pose = simple_trajectory.sample(0.0)
        np.testing.assert_allclose(pose.translation, [-0.2, 0.0, 0.0])

    def test_sample_midpoint_translation(self, simple_trajectory):
        pose = simple_trajectory.sample(1.0)
        np.testing.assert_allclose(pose.translation, [0.0, 0.0, 0.0], atol=1e-12)

    def test_clamps_outside_range(self, simple_trajectory):
        before = simple_trajectory.sample(-5.0)
        after = simple_trajectory.sample(99.0)
        np.testing.assert_allclose(before.translation, [-0.2, 0.0, 0.0])
        np.testing.assert_allclose(after.translation, [0.2, 0.0, 0.0])


class TestHelpers:
    def test_path_length(self, simple_trajectory):
        assert simple_trajectory.path_length() == pytest.approx(0.4)

    def test_subsampled_keeps_endpoints(self, simple_trajectory):
        sub = simple_trajectory.subsampled(10)
        assert sub.t_start == simple_trajectory.t_start
        assert sub.t_end == simple_trajectory.t_end

    def test_subsampled_rejects_bad_step(self, simple_trajectory):
        with pytest.raises(ValueError):
            simple_trajectory.subsampled(0)

    def test_linear_trajectory_constant_velocity(self):
        traj = linear_trajectory([0, 0, 0], [1, 0, 0], duration=1.0, n_poses=11)
        v1 = traj.sample(0.35).translation
        v2 = traj.sample(0.65).translation
        np.testing.assert_allclose(v2 - v1, [0.3, 0.0, 0.0], atol=1e-12)

    def test_linear_trajectory_needs_two_poses(self):
        with pytest.raises(ValueError):
            linear_trajectory([0, 0, 0], [1, 0, 0], 1.0, n_poses=1)


class TestContentDigest:
    def test_equal_content_equal_digest(self, simple_trajectory):
        rebuilt = Trajectory(simple_trajectory.timestamps.copy(), simple_trajectory.poses)
        assert rebuilt.content_digest() == simple_trajectory.content_digest()
        identity = simple_trajectory.transformed(SE3.identity())
        assert identity.content_digest() == simple_trajectory.content_digest()

    def test_timestamps_and_poses_enter_the_digest(self, simple_trajectory):
        digest = simple_trajectory.content_digest()
        shifted = Trajectory(simple_trajectory.timestamps + 1.0, simple_trajectory.poses)
        assert shifted.content_digest() != digest
        turned = simple_trajectory.transformed(
            SE3(Quaternion.from_axis_angle([0, 0, 1], 1e-6).to_matrix())
        )
        assert turned.content_digest() != digest

    def test_computed_once(self, simple_trajectory, monkeypatch):
        first = simple_trajectory.content_digest()
        monkeypatch.setattr(
            np, "stack", lambda *a, **k: pytest.fail("re-hashed the poses")
        )
        assert simple_trajectory.content_digest() is first
