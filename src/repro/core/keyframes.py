"""Key-frame selection (stage ``K``).

EMVS reconstructs a *local* DSI per reference view.  A new key frame — and
with it a new reference view and a fresh DSI — is selected when the event
camera has translated farther than a threshold from the previous key
reference view (Sec. 2.1).  The threshold is commonly expressed relative to
the scene depth so that key-frame density tracks parallax.
"""

from __future__ import annotations

import numpy as np


class KeyframeSelector:
    """Distance-threshold key-frame policy.

    The decision reads only camera *positions* (pose translations): the
    streaming engine feeds its frames' ``T_wc.translation``, and segment
    planning feeds :meth:`~repro.geometry.trajectory.Trajectory.positions`
    without ever building a rotation.  One arithmetic,
    ``float(np.linalg.norm(reference - position))``, decides key frames
    everywhere, so a plan predicts the engine's boundaries bit for bit.

    Parameters
    ----------
    distance_threshold:
        Translation in metres that triggers a new key frame.  ``None``
        disables re-keying: the first frame stays the only reference.
    """

    def __init__(self, distance_threshold: float | None):
        if distance_threshold is not None and distance_threshold <= 0:
            raise ValueError("distance_threshold must be positive (or None)")
        self.distance_threshold = distance_threshold
        self._reference: np.ndarray | None = None

    @property
    def reference(self) -> np.ndarray | None:
        """Position of the current key reference view (``None`` before the first)."""
        return self._reference

    def reset(self) -> None:
        """Forget the reference; the next pose becomes a key frame."""
        self._reference = None

    def is_new_keyframe(self, position: np.ndarray) -> bool:
        """True when a camera at ``position`` should become a new key view.

        ``position`` is the camera's world translation (``T_wc.translation``).
        The first position observed is always a key frame.
        """
        if self._reference is None:
            self._reference = position
            return True
        if self.distance_threshold is None:
            return False
        if float(np.linalg.norm(self._reference - position)) > self.distance_threshold:
            self._reference = position
            return True
        return False

    @staticmethod
    def relative_threshold(mean_depth: float, fraction: float = 0.15) -> float:
        """Threshold as a fraction of the mean scene depth.

        A baseline-to-depth ratio around 0.1-0.2 gives enough parallax for a
        well-conditioned DSI while keeping several frames per key segment.
        """
        if mean_depth <= 0:
            raise ValueError("mean_depth must be positive")
        return fraction * mean_depth
