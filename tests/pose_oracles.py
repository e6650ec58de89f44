"""Reference pose sampling: one scalar ``SE3.interpolate`` per time.

The plain formulation ``Trajectory.sample_batch`` replaced: clamp to the
first or last stored pose outside the span, otherwise find the interval
with ``searchsorted`` and interpolate its two poses with
:meth:`~repro.geometry.se3.SE3.interpolate` (lerp on translation,
:meth:`~repro.geometry.se3.Quaternion.slerp` on rotation, both
quaternions converted from their matrices on every call).  Tests compare
the library against it bit for bit.
"""

from __future__ import annotations

import weakref

import numpy as np

#: Each trajectory's stored poses, built once (``Trajectory.poses``
#: returns fresh copies on every call).
_POSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def sample_reference(trajectory, t: float):
    """The ``SE3`` pose at ``t``, sampled the scalar way."""
    ts = trajectory.timestamps
    poses = _POSES.get(trajectory)
    if poses is None:
        poses = _POSES[trajectory] = trajectory.poses
    if t <= ts[0]:
        return poses[0]
    if t >= ts[-1]:
        return poses[-1]
    i = int(np.searchsorted(ts, t, side="right")) - 1
    alpha = (t - ts[i]) / (ts[i + 1] - ts[i])
    return poses[i].interpolate(poses[i + 1], float(alpha))


def assert_poses_bit_identical(rotations, translations, poses):
    """Stacked poses equal a list of ``SE3`` poses byte for byte."""
    assert rotations.shape == (len(poses), 3, 3)
    assert translations.shape == (len(poses), 3)
    for k, pose in enumerate(poses):
        assert rotations[k].tobytes() == pose.rotation.tobytes(), k
        assert translations[k].tobytes() == pose.translation.tobytes(), k
