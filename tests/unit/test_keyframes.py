"""Unit tests for key-frame selection."""

import numpy as np
import pytest

from repro.core.config import EMVSConfig
from repro.core.keyframes import KeyframeSelector


def pose(x):
    """Camera position ``x`` metres along the x axis."""
    return np.array([x, 0.0, 0.0])


class TestKeyframeSelector:
    def test_first_pose_is_keyframe(self):
        sel = KeyframeSelector(0.1)
        assert sel.is_new_keyframe(pose(0.0))

    def test_below_threshold_not_keyframe(self):
        sel = KeyframeSelector(0.1)
        sel.is_new_keyframe(pose(0.0))
        assert not sel.is_new_keyframe(pose(0.05))

    def test_beyond_threshold_triggers(self):
        sel = KeyframeSelector(0.1)
        sel.is_new_keyframe(pose(0.0))
        assert sel.is_new_keyframe(pose(0.15))

    def test_reference_updates_on_trigger(self):
        sel = KeyframeSelector(0.1)
        sel.is_new_keyframe(pose(0.0))
        sel.is_new_keyframe(pose(0.15))
        # Distance is now measured from 0.15, not 0.0.
        assert not sel.is_new_keyframe(pose(0.2))
        assert sel.is_new_keyframe(pose(0.3))

    def test_none_threshold_never_rekeys(self):
        sel = KeyframeSelector(None)
        assert sel.is_new_keyframe(pose(0.0))
        assert not sel.is_new_keyframe(pose(100.0))

    def test_reset(self):
        sel = KeyframeSelector(0.1)
        sel.is_new_keyframe(pose(0.0))
        sel.reset()
        assert sel.is_new_keyframe(pose(0.01))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            KeyframeSelector(0.0)

    def test_relative_threshold(self):
        assert KeyframeSelector.relative_threshold(2.0, 0.15) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            KeyframeSelector.relative_threshold(0.0)

    def test_accumulated_drift_without_trigger(self):
        """Many small steps trigger only when total displacement from the
        reference exceeds the threshold (not per-step distance)."""
        sel = KeyframeSelector(0.1)
        sel.is_new_keyframe(pose(0.0))
        fired_at = None
        for i in range(1, 20):
            if sel.is_new_keyframe(pose(0.01 * i)):
                fired_at = 0.01 * i
                break
        assert fired_at == pytest.approx(0.11)


class TestKeyframeDistanceConfig:
    @pytest.mark.parametrize(
        "distance", [0.0, -0.1, float("nan"), float("inf")],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_rejects_non_finite_or_non_positive(self, distance):
        """A NaN distance never re-keys (every comparison with it is
        False), so it must be refused like a non-positive one."""
        with pytest.raises(ValueError, match="keyframe_distance"):
            EMVSConfig(keyframe_distance=distance)

    @pytest.mark.parametrize("distance", [None, 1e-9, 0.1, 1e9])
    def test_accepts_finite_positive_or_none(self, distance):
        assert EMVSConfig(keyframe_distance=distance).keyframe_distance == distance


def one_by_one(threshold, positions, reference=None):
    """Key rows of ``positions`` by :meth:`is_new_keyframe`, row by row."""
    sel = KeyframeSelector(threshold)
    if reference is not None:
        sel.is_new_keyframe(reference)
    keys = [k for k, row in enumerate(positions) if sel.is_new_keyframe(row)]
    return keys, sel.reference


def batched(threshold, positions, reference=None, chunk=None):
    """The same through :meth:`KeyframeSelector.select`, in chunks."""
    sel = KeyframeSelector(threshold)
    if reference is not None:
        sel.is_new_keyframe(reference)
    chunk = chunk or max(len(positions), 1)
    keys = []
    for start in range(0, len(positions), chunk):
        keys += [start + k for k in sel.select(positions[start : start + chunk])]
    return keys, sel.reference


class TestSelect:
    """``select`` makes :meth:`is_new_keyframe`'s decisions, row for row."""

    def assert_same(self, threshold, positions, reference=None, chunk=None):
        want, want_ref = one_by_one(threshold, positions, reference)
        got, got_ref = batched(threshold, positions, reference, chunk)
        assert got == want
        if want_ref is None:
            assert got_ref is None
        else:
            assert got_ref.tobytes() == want_ref.tobytes()

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    @pytest.mark.parametrize("threshold", [None, 0.05, 0.3])
    def test_random_walks(self, threshold, chunk):
        rng = np.random.default_rng(3)
        positions = np.cumsum(rng.normal(0.0, 0.02, (400, 3)), axis=0)
        self.assert_same(threshold, positions, chunk=chunk)

    def test_distances_within_ulps_of_the_threshold(self):
        """Rows a few ulps either side of the threshold, where a vectorized
        distance and ``np.linalg.norm`` can disagree, decide exactly."""
        rng = np.random.default_rng(5)
        threshold = 0.1
        for _ in range(200):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            reference = rng.normal(size=3)
            steps = threshold * (1.0 + np.arange(-6, 7) * np.finfo(float).eps)
            positions = reference + steps[:, None] * direction
            for row in positions:
                self.assert_same(threshold, row[None, :], reference)

    @pytest.mark.parametrize("threshold", [1e-300, 1e-120, 1e120, float("inf"), float("nan")])
    def test_thresholds_where_squares_under_or_overflow(self, threshold):
        rng = np.random.default_rng(7)
        scale = threshold if np.isfinite(threshold) else 1.0
        positions = np.cumsum(rng.normal(0.0, 0.4 * scale, (200, 3)), axis=0)
        self.assert_same(threshold, positions)

    def test_non_finite_positions(self):
        positions = np.array(
            [[0, 0, 0], [np.nan, 0, 0], [np.inf, 0, 0], [1, 0, 0], [-np.inf, 0, 0], [2, 0, 0]],
            dtype=float,
        )
        self.assert_same(0.5, positions)
        self.assert_same(0.5, positions[1:])

    def test_empty_batch(self):
        sel = KeyframeSelector(0.1)
        assert sel.select(np.empty((0, 3))) == []
        assert sel.reference is None
