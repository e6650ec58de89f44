"""Reference implementations of segment planning and map fusion.

Each oracle is the plain formulation the library replaced: planning
samples every frame's full pose through the scalar ``Trajectory.sample``
(slerp included) and compares ``SE3`` poses with ``SE3.distance_to``;
fusion sorts the ``(N, 3)`` voxel-key rows themselves with
``np.unique(axis=0)``.  Tests compare the library against them bit for
bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import SegmentPlan
from repro.events.packetizer import frame_midtimes, n_full_frames


class PoseKeyframeSelector:
    """The distance-threshold key-frame policy over whole ``SE3`` poses."""

    def __init__(self, distance_threshold):
        self.distance_threshold = distance_threshold
        self.reference = None

    def is_new_keyframe(self, T_wc) -> bool:
        if self.reference is None:
            self.reference = T_wc
            return True
        if self.distance_threshold is None:
            return False
        if self.reference.distance_to(T_wc) > self.distance_threshold:
            self.reference = T_wc
            return True
        return False


def plan_segments_reference(events, trajectory, config):
    """Segment plan from scalar pose samples, one frame at a time."""
    n_frames = n_full_frames(events, config.frame_size)
    dropped = len(events) - n_frames * config.frame_size
    if n_frames == 0:
        return [], dropped
    midtimes = frame_midtimes(events, config.frame_size)
    selector = PoseKeyframeSelector(config.keyframe_distance)
    starts = [
        i
        for i in range(n_frames)
        if selector.is_new_keyframe(trajectory.sample(float(midtimes[i])))
    ]
    bounds = starts + [n_frames]
    plans = [
        SegmentPlan(
            index=k,
            start_frame=bounds[k],
            end_frame=bounds[k + 1],
            frame_size=config.frame_size,
            t_ref=float(midtimes[bounds[k]]),
        )
        for k in range(len(starts))
    ]
    return plans, dropped


def fuse_reference(insertions, voxel_size):
    """``(centers, confidences, counts, camera_counts)`` by row-sorting.

    ``insertions`` is a list of ``(points, weights, source)`` in
    insertion order, as given to ``GlobalMap.insert``.
    """
    points = np.concatenate([p for p, _, _ in insertions])
    weights = np.concatenate([w for _, w, _ in insertions])
    sources = np.concatenate(
        [np.full(len(p), s, dtype=np.int64) for p, _, s in insertions]
    )
    keys = np.floor(points / voxel_size).astype(np.int64)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    n_vox = int(inverse.max()) + 1
    weight_sum = np.zeros(n_vox)
    np.add.at(weight_sum, inverse, weights)
    centers = np.zeros((n_vox, 3))
    np.add.at(centers, inverse, points * weights[:, None])
    centers /= weight_sum[:, None]
    counts = np.bincount(inverse, minlength=n_vox)
    pairs = np.unique(np.stack([inverse, sources], axis=1), axis=0)
    camera_counts = np.bincount(pairs[:, 0], minlength=n_vox)
    return centers, weight_sum, counts, camera_counts
