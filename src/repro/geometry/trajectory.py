"""Camera trajectories with pose interpolation.

EMVS assumes a *known* trajectory (from ground truth, a motion-capture
system, or the tracking half of a SLAM system).  The Event Camera Dataset
provides poses at ~200 Hz; events arrive at MHz rates, so poses at event
timestamps are interpolated (lerp on translation, slerp on rotation).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

import numpy as np

from repro.geometry.se3 import SE3, Quaternion


class Trajectory:
    """Time-indexed sequence of camera poses ``T_wc``.

    Timestamps must be strictly increasing.  Sampling outside the time range
    clamps to the first/last pose (events slightly outside the ground-truth
    span are common in the real sequences).

    A trajectory is immutable after construction, which is what lets
    :meth:`content_digest` be computed once per instance.
    """

    def __init__(self, timestamps: Sequence[float], poses: Sequence[SE3]):
        timestamps = np.asarray(timestamps, dtype=float)
        poses = list(poses)
        if timestamps.ndim != 1:
            raise ValueError("timestamps must be a 1-D sequence")
        if len(timestamps) != len(poses):
            raise ValueError(
                f"{len(timestamps)} timestamps but {len(poses)} poses"
            )
        if len(timestamps) == 0:
            raise ValueError("trajectory must contain at least one pose")
        if np.any(np.diff(timestamps) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        self._timestamps = timestamps
        self._poses = poses
        # Stacked translations for vectorized position interpolation.
        self._trans = np.array([p.translation for p in poses])
        self._digest: str | None = None

    # ------------------------------------------------------------------
    @property
    def timestamps(self) -> np.ndarray:
        return self._timestamps

    @property
    def poses(self) -> list[SE3]:
        return list(self._poses)

    @property
    def t_start(self) -> float:
        return float(self._timestamps[0])

    @property
    def t_end(self) -> float:
        return float(self._timestamps[-1])

    def __len__(self) -> int:
        return len(self._poses)

    def __iter__(self) -> Iterable[tuple[float, SE3]]:
        return iter(zip(self._timestamps, self._poses))

    def content_digest(self) -> str:
        """SHA-256 hex digest of the timestamps and every pose.

        Covers the timestamps and the stacked pose rotations and
        translations bit for bit, so trajectories built from identical
        timestamps and poses share a digest and a one-ulp change to any
        of them changes it.  Computed on first use and kept: the cache
        keys of every job and segment on this trajectory reuse it
        instead of re-walking the poses.
        """
        if self._digest is None:
            h = hashlib.sha256(self._timestamps.tobytes())
            h.update(np.stack([p.rotation for p in self._poses]).tobytes())
            h.update(self._trans.tobytes())
            self._digest = h.hexdigest()
        return self._digest

    # ------------------------------------------------------------------
    def sample(self, t: float) -> SE3:
        """Interpolated pose at time ``t`` (clamped to the trajectory span)."""
        ts = self._timestamps
        if t <= ts[0]:
            return self._poses[0]
        if t >= ts[-1]:
            return self._poses[-1]
        i = int(np.searchsorted(ts, t, side="right")) - 1
        alpha = (t - ts[i]) / (ts[i + 1] - ts[i])
        return self._poses[i].interpolate(self._poses[i + 1], float(alpha))

    def positions(self, times: np.ndarray) -> np.ndarray:
        """``(N, 3)`` interpolated camera positions at many timestamps.

        Bit-identical to ``[self.sample(t).translation for t in times]``:
        the same clamping at both ends of the span and the same lerp
        arithmetic, ``(1 - alpha) * t_i + alpha * t_{i+1}``, in one
        vectorized pass with no rotation work.  Key-frame selection reads
        only positions, so segment planning runs on this.
        """
        times = np.asarray(times, dtype=float)
        ts = self._timestamps
        out = np.empty((len(times), 3))
        before = times <= ts[0]
        after = ~before & (times >= ts[-1])
        inside = ~(before | after)
        out[before] = self._trans[0]
        out[after] = self._trans[-1]
        if inside.any():
            t = times[inside]
            i = np.searchsorted(ts, t, side="right") - 1
            alpha = ((t - ts[i]) / (ts[i + 1] - ts[i]))[:, None]
            out[inside] = (1.0 - alpha) * self._trans[i] + alpha * self._trans[i + 1]
        return out

    def transformed(self, offset: SE3) -> "Trajectory":
        """Trajectory of a frame rigidly mounted at ``offset`` from this one.

        Composes every pose on the right: if this trajectory is a rig
        body's ``T_w_rig(t)`` and ``offset`` is a camera's mounting
        extrinsic ``T_rig_cam``, the result is the camera's own world
        trajectory ``T_w_cam(t) = T_w_rig(t) @ T_rig_cam`` at the same
        timestamps.  Composition happens at the stored poses (not after
        interpolation), so the returned trajectory is an ordinary
        :class:`Trajectory` — samples interpolate between *composed*
        poses, and two callers composing the same extrinsic get
        bit-identical poses.  ``transformed(SE3.identity())`` is exact:
        every rotation and translation round-trips bit-for-bit.
        """
        if not isinstance(offset, SE3):
            raise TypeError("offset must be an SE3 extrinsic")
        return Trajectory(self._timestamps, [p @ offset for p in self._poses])

    def subsampled(self, step: int) -> "Trajectory":
        """Every ``step``-th pose (always keeping the last one)."""
        if step < 1:
            raise ValueError("step must be >= 1")
        idx = list(range(0, len(self._poses), step))
        if idx[-1] != len(self._poses) - 1:
            idx.append(len(self._poses) - 1)
        return Trajectory(self._timestamps[idx], [self._poses[i] for i in idx])

    def path_length(self) -> float:
        """Total translational distance travelled."""
        return float(np.sum(np.linalg.norm(np.diff(self._trans, axis=0), axis=1)))

    def perturbed(
        self,
        translation_std: float = 0.0,
        rotation_std: float = 0.0,
        seed: int = 0,
    ) -> "Trajectory":
        """Trajectory with zero-mean Gaussian pose noise.

        Models the pose error of a real tracking front-end (EMVS assumes a
        *known* trajectory; its sensitivity to pose error bounds how good
        the tracker feeding it must be).  ``translation_std`` is in metres
        per axis; ``rotation_std`` is the std-dev of a random axis-angle
        perturbation in radians.
        """
        if translation_std < 0 or rotation_std < 0:
            raise ValueError("noise magnitudes must be non-negative")
        rng = np.random.default_rng(seed)
        poses = []
        for pose in self._poses:
            t = pose.translation + translation_std * rng.standard_normal(3)
            rot = pose.rotation
            if rotation_std > 0:
                axis = rng.standard_normal(3)
                axis /= max(np.linalg.norm(axis), 1e-12)
                angle = rotation_std * rng.standard_normal()
                rot = (
                    Quaternion.from_axis_angle(axis, angle).to_matrix() @ rot
                )
            poses.append(SE3(rot, t))
        return Trajectory(self._timestamps, poses)


def linear_trajectory(
    start: np.ndarray,
    end: np.ndarray,
    duration: float,
    n_poses: int = 100,
    rotation: Quaternion | None = None,
    t_start: float = 0.0,
) -> Trajectory:
    """Straight-line constant-velocity trajectory (the ``slider_*`` motion).

    The Event Camera Dataset's slider sequences move a DAVIS on a motorized
    linear slider with fixed orientation; this helper reproduces that motion
    profile exactly.
    """
    if n_poses < 2:
        raise ValueError("need at least two poses")
    rot = (rotation or Quaternion.identity()).to_matrix()
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    times = t_start + np.linspace(0.0, duration, n_poses)
    alphas = np.linspace(0.0, 1.0, n_poses)
    poses = [SE3(rot, (1 - a) * start + a * end) for a in alphas]
    return Trajectory(times, poses)
