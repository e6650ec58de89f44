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
    everywhere (:meth:`select` screens whole batches with it), so a plan
    predicts the engine's boundaries bit for bit.

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

    def select(self, positions: np.ndarray) -> list[int]:
        """Rows of ``(M, 3)`` ``positions`` that become key frames, in order.

        The same decisions, and the same reference left behind, as
        :meth:`is_new_keyframe` on each row in turn.  Distances to the
        current reference are computed for all rows at once; a vectorized
        distance may differ from ``np.linalg.norm``'s by a few ulps (its
        sum order is not BLAS's), so a row within a relative 1e-12 of the
        threshold, or every row under a threshold outside
        ``(1e-100, 1e100)`` where squares may under- or overflow, is
        decided by :meth:`is_new_keyframe` itself.
        """
        positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        keys: list[int] = []
        k = 0
        while k < len(positions):
            if self._reference is None:
                self._reference = positions[k]
                keys.append(k)
                k += 1
                continue
            threshold = self.distance_threshold
            if threshold is None:
                break
            rest = positions[k:]
            distance = np.sqrt(((self._reference - rest) ** 2).sum(axis=1))
            band = threshold * 1e-12 if 1e-100 < threshold < 1e100 else np.inf
            far = distance > threshold + band
            near = np.abs(distance - threshold) <= band
            hit = next(
                (
                    j
                    for j in np.flatnonzero(far | near).tolist()
                    if far[j] or self.is_new_keyframe(rest[j])
                ),
                None,
            )
            if hit is None:
                break
            self._reference = rest[hit]
            keys.append(k + hit)
            k += hit + 1
        return keys

    @staticmethod
    def relative_threshold(mean_depth: float, fraction: float = 0.15) -> float:
        """Threshold as a fraction of the mean scene depth.

        A baseline-to-depth ratio around 0.1-0.2 gives enough parallax for a
        well-conditioned DSI while keeping several frames per key segment.
        """
        if mean_depth <= 0:
            raise ValueError("mean_depth must be positive")
        return fraction * mean_depth
