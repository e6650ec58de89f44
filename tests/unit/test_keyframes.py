"""Unit tests for key-frame selection."""

import numpy as np
import pytest

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
