"""Unit tests for the DSI volume and depth-plane sampling."""

import numpy as np
import pytest

from repro.core.config import DepthSampling
from repro.core.dsi import DSI, depth_planes
from repro.geometry.camera import PinholeCamera
from repro.geometry.se3 import SE3


@pytest.fixture
def dsi(small_camera):
    return DSI(small_camera, SE3.identity(), depth_planes(1.0, 4.0, 8))


class TestDepthPlanes:
    def test_linear_sampling_uniform_in_z(self):
        z = depth_planes(1.0, 3.0, 5, DepthSampling.LINEAR)
        np.testing.assert_allclose(np.diff(z), 0.5)

    def test_inverse_sampling_uniform_in_inverse_depth(self):
        z = depth_planes(1.0, 4.0, 7, DepthSampling.INVERSE)
        np.testing.assert_allclose(np.diff(1.0 / z), np.diff(1.0 / z)[0])

    def test_endpoints_exact(self):
        for sampling in DepthSampling:
            z = depth_planes(0.5, 5.0, 10, sampling)
            assert z[0] == pytest.approx(0.5)
            assert z[-1] == pytest.approx(5.0)

    def test_inverse_concentrates_near_camera(self):
        z = depth_planes(1.0, 10.0, 10, DepthSampling.INVERSE)
        gaps = np.diff(z)
        assert gaps[0] < gaps[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            depth_planes(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            depth_planes(-1.0, 2.0, 5)
        with pytest.raises(ValueError):
            depth_planes(1.0, 2.0, 1)


class TestDSI:
    def test_shape_follows_camera(self, dsi, small_camera):
        assert dsi.shape == (8, small_camera.height, small_camera.width)
        assert dsi.n_voxels == 8 * 48 * 64

    def test_starts_empty(self, dsi):
        assert dsi.total_votes() == 0.0

    def test_depths_must_increase(self, small_camera):
        with pytest.raises(ValueError):
            DSI(small_camera, SE3.identity(), np.array([2.0, 1.0]))

    def test_wraps_existing_scores_without_copy(self, small_camera):
        depths = depth_planes(1.0, 4.0, 8)
        window = np.zeros((8, small_camera.height, small_camera.width), dtype=np.int32)
        dsi = DSI(small_camera, SE3.identity(), depths, scores=window)
        assert dsi.scores is window
        window[2, 3, 4] = 7
        assert dsi.flat_scores.max() == 7
        with pytest.raises(ValueError, match="scores must be"):
            DSI(small_camera, SE3.identity(), depths, scores=window[:, :-1])

    def test_total_votes(self, dsi):
        dsi.scores[3, 10, 20] = 5
        assert dsi.total_votes() == 5.0

    def test_max_projection_picks_peak_depth(self, dsi):
        dsi.scores[5, 7, 9] = 10
        dsi.scores[2, 7, 9] = 3
        confidence, depth = dsi.max_projection()
        assert confidence[7, 9] == pytest.approx(10.0)
        assert depth[7, 9] == pytest.approx(dsi.depths[5])

    def test_flat_scores_is_view(self, dsi):
        dsi.flat_scores[0] = 7
        assert dsi.scores[0, 0, 0] == 7

    def test_score_limit_saturates_readout(self, small_camera):
        dsi = DSI(
            small_camera,
            SE3.identity(),
            depth_planes(1.0, 2.0, 2),
            integer_scores=True,
            score_limit=100,
        )
        dsi.flat_scores[0] = 500
        confidence, _ = dsi.max_projection()
        assert confidence[0, 0] == pytest.approx(100.0)
        assert dsi.saturate(dsi.scores).max() == 100

    def test_reset_zeroes_and_reseats(self, dsi):
        dsi.flat_scores[5] = 3
        new_ref = SE3(translation=[1.0, 0.0, 0.0])
        dsi.reset(new_ref)
        assert dsi.total_votes() == 0.0
        np.testing.assert_allclose(dsi.T_w_ref.translation, [1.0, 0.0, 0.0])

    def test_memory_bytes(self, small_camera):
        dsi_int = DSI(
            small_camera, SE3.identity(), depth_planes(1.0, 2.0, 4),
            integer_scores=True,
        )
        assert dsi_int.memory_bytes() == dsi_int.n_voxels * 8  # int64 backing

    def test_score_limit_validation(self, small_camera):
        with pytest.raises(ValueError):
            DSI(small_camera, SE3.identity(), depth_planes(1.0, 2.0, 2),
                score_limit=0)


class TestArgmaxProjection:
    """Tie-centering and saturation behaviour of the depth argmax."""

    def make_dsi(self, camera, nz=8, **kwargs):
        return DSI(camera, SE3.identity(), depth_planes(1.0, 4.0, nz), **kwargs)

    def test_empty_volume_centres_full_plateau(self, small_camera):
        """An all-zero column ties across every plane; the argmax must land
        at the centre, not bias toward the camera."""
        dsi = self.make_dsi(small_camera, nz=8)
        confidence, mid = dsi.argmax_projection()
        assert np.all(confidence == 0.0)
        np.testing.assert_array_equal(mid, (0 + 7) // 2)

    def test_full_plateau_constant_scores(self, small_camera):
        dsi = self.make_dsi(small_camera, nz=7)
        dsi.scores[...] = 3
        confidence, mid = dsi.argmax_projection()
        assert np.all(confidence == 3.0)
        np.testing.assert_array_equal(mid, (0 + 6) // 2)

    def test_interior_plateau_centred(self, small_camera):
        dsi = self.make_dsi(small_camera, nz=8)
        dsi.scores[2:6, 10, 20] = 9  # tied max across planes 2..5
        _, mid = dsi.argmax_projection()
        assert mid[10, 20] == (2 + 5) // 2

    def test_even_plateau_rounds_down(self, small_camera):
        dsi = self.make_dsi(small_camera, nz=8)
        dsi.scores[3:5, 0, 0] = 4  # planes 3 and 4 tie
        _, mid = dsi.argmax_projection()
        assert mid[0, 0] == 3

    def test_unique_maximum_unaffected(self, small_camera):
        dsi = self.make_dsi(small_camera, nz=8)
        dsi.scores[6, 5, 5] = 10
        dsi.scores[1, 5, 5] = 4
        confidence, mid = dsi.argmax_projection()
        assert mid[5, 5] == 6
        assert confidence[5, 5] == 10.0

    def test_saturation_creates_tied_plateau(self, small_camera):
        """score_limit clamps distinct raw counts into a tie, which must
        then be centred like any other plateau."""
        dsi = self.make_dsi(small_camera, nz=8, integer_scores=True,
                            score_limit=100)
        dsi.scores[2, 4, 4] = 150
        dsi.scores[3, 4, 4] = 300
        dsi.scores[4, 4, 4] = 500
        confidence, mid = dsi.argmax_projection()
        assert confidence[4, 4] == 100.0
        assert mid[4, 4] == (2 + 4) // 2

    def test_score_limit_one_degenerates_to_occupancy(self, small_camera):
        """limit=1: any vote count collapses to 0/1 occupancy."""
        dsi = self.make_dsi(small_camera, nz=8, integer_scores=True,
                            score_limit=1)
        dsi.scores[1, 2, 3] = 7
        dsi.scores[5, 2, 3] = 9999
        confidence, mid = dsi.argmax_projection()
        assert confidence[2, 3] == 1.0
        # Ties between planes 1 and 5 centre at 3 (inside the tied span).
        assert mid[2, 3] == (1 + 5) // 2
        assert dsi.saturate(dsi.scores).max() == 1

    def test_max_projection_depths_follow_centre(self, small_camera):
        dsi = self.make_dsi(small_camera, nz=8)
        dsi.scores[2:6, 1, 1] = 5
        _, depth = dsi.max_projection()
        assert depth[1, 1] == pytest.approx(dsi.depths[3])
