"""Position-only segment planning ≡ the scalar full-pose oracle.

``plan_segments`` and ``StreamSegmentPlanner`` interpolate frame
positions in one vectorized lerp and never build a rotation; the engine
keys on the translation of its scalar ``Trajectory.sample`` poses.  All
three must cut exactly the segments that sampling every frame's full
pose and comparing ``SE3`` poses would (``mapping_oracles``), on every
registry sequence and at the edges of the trajectory span.
"""

import numpy as np
import pytest
from mapping_oracles import plan_segments_reference

from repro.core import EMVSConfig, plan_segments
from repro.core.engine import StreamSegmentPlanner
from repro.events.datasets import ALL_SEQUENCE_NAMES, load_sequence
from repro.geometry.se3 import SE3, Quaternion
from repro.geometry.trajectory import Trajectory

OFFSETS = (0, 777, 3072)
CHUNK_SIZES = (1000, 8192, 10**9)


def stream_plan(events, trajectory, config, chunk_size):
    """``(plans, dropped)`` of a chunk-by-chunk incremental planning run."""
    planner = StreamSegmentPlanner(trajectory, config)
    plans = []
    for lo in range(0, len(events), chunk_size):
        plans.extend(plan for plan, _ in planner.push(events[lo : lo + chunk_size]))
    tail, dropped = planner.finish()
    plans.extend(plan for plan, _ in tail)
    return plans, dropped


def assert_plans_match_oracle(events, trajectory, config, chunk_sizes=CHUNK_SIZES):
    want = plan_segments_reference(events, trajectory, config)
    assert plan_segments(events, trajectory, config) == want
    for chunk_size in chunk_sizes:
        assert stream_plan(events, trajectory, config, chunk_size) == want, chunk_size
    return want


@pytest.mark.parametrize("name", ALL_SEQUENCE_NAMES)
def test_registry_sequences(name):
    seq = load_sequence(name, quality="fast")
    n_segments = 0
    for distance in (seq.keyframe_distance, 0.03, 0.2, None):
        config = EMVSConfig(keyframe_distance=distance)
        for offset in OFFSETS:
            plans, _ = assert_plans_match_oracle(
                seq.events[offset:], seq.trajectory, config
            )
            n_segments += len(plans)
    assert n_segments > 4 * len(OFFSETS)  # some configurations re-key


def rotating_trajectory():
    """Uneven knots, a turning camera and a back-and-forth path."""
    times = np.array([0.0, 0.13, 0.4, 0.41, 0.9, 1.35, 2.0])
    poses = [
        SE3.from_quaternion_translation(
            Quaternion.from_axis_angle([0.2, 1.0, 0.1], 0.4 * i),
            [0.3 * np.sin(2.0 * i), -0.07 * i, 0.05 * i * i],
        )
        for i in range(len(times))
    ]
    return Trajectory(times, poses)


@pytest.mark.parametrize("distance", [0.02, 0.1, None])
def test_mid_times_outside_the_span(make_stream, distance):
    """Frames before the first and after the last pose clamp identically."""
    trajectory = rotating_trajectory()
    events = make_stream(3100, rate=1000.0, t0=-0.5)  # -0.5 s .. 2.6 s
    config = EMVSConfig(frame_size=50, keyframe_distance=distance)
    plans, _ = assert_plans_match_oracle(events, trajectory, config, (1, 77, 10**9))
    if distance == 0.02:
        assert len(plans) > 5


def test_one_pose_trajectory(make_stream):
    trajectory = Trajectory([1.0], [SE3(translation=[0.1, -0.2, 0.3])])
    events = make_stream(1000, rate=1000.0, t0=0.5)  # straddles the one pose
    for distance in (1e-9, None):
        config = EMVSConfig(frame_size=100, keyframe_distance=distance)
        plans, _ = assert_plans_match_oracle(events, trajectory, config)
        assert len(plans) == 1


def test_positions_equal_scalar_sample_translations():
    trajectory = rotating_trajectory()
    times = np.concatenate(
        [trajectory.timestamps, [-1.0, 0.0, 0.4 + 1e-12, 2.0, 7.0],
         np.random.default_rng(5).uniform(-0.2, 2.2, 200)]
    )
    want = np.array([trajectory.sample(float(t)).translation for t in times])
    got = trajectory.positions(times)
    assert got.shape == (len(times), 3)
    np.testing.assert_array_equal(got, want)
    assert trajectory.positions(np.empty(0)).shape == (0, 3)
