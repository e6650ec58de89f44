"""Unit tests for scene-structure detection."""

import numpy as np
import pytest

from detection_oracles import median_reject_reference
from repro.core.config import DetectionConfig
from repro.core.detection import adaptive_threshold_mask, detect_structure, median_reject
from repro.core.dsi import DSI, depth_planes
from repro.geometry.se3 import SE3


@pytest.fixture
def config():
    return DetectionConfig(gaussian_sigma=1.5, offset=3.0, median_size=3, min_votes=2.0)


class TestAdaptiveThreshold:
    def test_isolated_peak_detected(self, config):
        confidence = np.zeros((20, 20))
        confidence[10, 10] = 50.0
        mask = adaptive_threshold_mask(confidence, config)
        assert mask[10, 10]
        assert mask.sum() == 1

    def test_uniform_field_rejected(self, config):
        confidence = np.full((20, 20), 30.0)
        mask = adaptive_threshold_mask(confidence, config)
        assert mask.sum() == 0  # nothing beats the local mean + offset

    def test_min_votes_floor(self, config):
        confidence = np.zeros((20, 20))
        confidence[5, 5] = 1.0  # a peak, but below min_votes
        mask = adaptive_threshold_mask(confidence, config)
        assert mask.sum() == 0

    def test_ridge_detected_against_background(self, config):
        confidence = np.ones((20, 20))
        confidence[8, :] = 25.0
        mask = adaptive_threshold_mask(confidence, config)
        assert mask[8].sum() > 10
        assert mask[0].sum() == 0


class TestMedianReject:
    def test_outlier_depth_removed(self, config):
        depth = np.full((10, 10), 2.0)
        depth[5, 5] = 9.0  # disagrees with neighbourhood
        mask = np.zeros((10, 10), dtype=bool)
        mask[4:8, 4:8] = True
        out = median_reject(depth, mask, config)
        assert not out[5, 5]
        assert out[4, 4]

    def test_consistent_region_kept(self, config):
        depth = np.full((10, 10), 2.0)
        mask = np.zeros((10, 10), dtype=bool)
        mask[3:7, 3:7] = True
        out = median_reject(depth, mask, config)
        np.testing.assert_array_equal(out, mask)

    def test_isolated_point_survives(self, config):
        depth = np.full((10, 10), 2.0)
        mask = np.zeros((10, 10), dtype=bool)
        mask[5, 5] = True
        out = median_reject(depth, mask, config)
        assert out[5, 5]

    def test_window_wider_than_image(self):
        """A 7x7 window on a 1x2 image medians the pixels that exist."""
        depth = np.array([[2.0, 9.0]])
        mask = np.ones((1, 2), dtype=bool)
        config = DetectionConfig(median_size=7)
        out = median_reject(depth, mask, config)
        # The window median is 5.5: both points are > 15 % away from it.
        np.testing.assert_array_equal(out, [[False, False]])
        np.testing.assert_array_equal(out, median_reject_reference(depth, mask, config))

    def test_size_one_is_identity(self):
        config = DetectionConfig(median_size=1)
        mask = np.random.default_rng(0).random((5, 5)) > 0.5
        depth = np.ones((5, 5))
        np.testing.assert_array_equal(median_reject(depth, mask, config), mask)


class TestDetectStructure:
    def test_end_to_end_peak(self, small_camera, config):
        dsi = DSI(small_camera, SE3.identity(), depth_planes(1.0, 3.0, 5))
        # A blob of votes at plane 2 around (y=20, x=30).
        dsi.scores[2, 18:23, 28:33] = 20.0
        dm = detect_structure(dsi, config)
        assert dm.n_points > 0
        assert dm.mask[20, 30]
        assert dm.depth[20, 30] == pytest.approx(dsi.depths[2])
        assert np.isnan(dm.depth[0, 0])

    def test_empty_dsi_detects_nothing(self, small_camera, config):
        dsi = DSI(small_camera, SE3.identity(), depth_planes(1.0, 3.0, 5))
        dm = detect_structure(dsi, config)
        assert dm.n_points == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectionConfig(gaussian_sigma=0.0)
        with pytest.raises(ValueError):
            DetectionConfig(median_size=4)


class TestMedianRejectRegression:
    """The masked-pixel window gather reproduces the whole-image shift stack.

    The oracle (``detection_oracles.median_reject_reference``) medians a
    NaN-filled shift of the whole image per window offset; the library
    gathers windows at detected pixels only.
    """

    @pytest.mark.parametrize("median_size", [3, 5, 7])
    def test_masked_fixture_equality(self, median_size):
        rng = np.random.default_rng(17)
        depth = rng.uniform(0.5, 5.0, (40, 52))
        # Sparse mask with clusters, isolated points and empty regions.
        mask = rng.random((40, 52)) < 0.3
        mask[:8, :] = False
        mask[20:24, 10:30] = True
        depth[22, 15] = 50.0  # a gross outlier the median must reject
        config = DetectionConfig(median_size=median_size)
        new = median_reject(depth, mask, config)
        old = median_reject_reference(depth, mask, config)
        np.testing.assert_array_equal(new, old)
        assert new.sum() < mask.sum()  # the outlier (at least) was rejected

    def test_size_one_passthrough(self):
        depth = np.ones((5, 5))
        mask = np.eye(5, dtype=bool)
        config = DetectionConfig(median_size=1)
        assert median_reject(depth, mask, config) is mask

    def test_threads_emit_no_warnings(self):
        """All-NaN windows stay silent under concurrent callers.

        ``warnings.catch_warnings`` inside library code mutates
        process-global state, so under a thread executor one thread's
        exit restores filters another is relying on and the All-NaN
        ``RuntimeWarning`` leaks; the median must not warn at all.
        """
        import sys
        import threading
        import warnings

        rng = np.random.default_rng(5)
        depth = rng.uniform(0.5, 5.0, (40, 52))
        mask = rng.random((40, 52)) < 0.1  # sparse: many empty windows
        config = DetectionConfig(median_size=5)
        expected = median_reject_reference(depth, mask, config)
        results = []

        def work():
            for _ in range(50):
                results.append(median_reject(depth, mask, config))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                threads = [threading.Thread(target=work) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert caught == []
        assert len(results) == 200
        for result in results:
            np.testing.assert_array_equal(result, expected)
