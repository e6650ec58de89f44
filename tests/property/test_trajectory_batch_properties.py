"""Batched pose sampling against the scalar pose oracle, bit for bit.

``Trajectory.sample_batch`` caches each pose's quaternion and each
interval's short-arc flip, nlerp/slerp branch, ``theta`` and
``sin(theta)``, and runs only the alpha-dependent work per time.  Every
property here samples synthetic trajectories both ways and asserts
identical rotation and translation bytes against
``pose_oracles.sample_reference`` (one ``SE3.interpolate`` per time) and
against ``sample`` (the one-element case).  The trajectories aim at the
places a batched sampler can diverge: large relative rotations (the
slerp branch), quaternion pairs on opposite hemispheres (the ``dot < 0``
flip), near-identical rotations (the nlerp branch), rotation matrices
scaled off the unit sphere (so interpolated quaternions reach
``Quaternion``'s own renormalization test), times exactly on and one
ulp around pose stamps, times clamped before and after the span, and
one-pose trajectories.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pose_oracles import assert_poses_bit_identical, sample_reference

from repro.geometry.se3 import SE3, Quaternion
from repro.geometry.trajectory import Trajectory

#: Rotation-matrix scales: unit, within and past the renormalization band.
SCALES = (1.0, 1.0 + 4e-10, 1.0 - 6e-10, 1.0 + 3e-9, 1.0 - 2.5e-9)


@st.composite
def trajectories(draw, max_poses=7):
    """Poses with drawn rotation steps: huge, tiny or zero, at any scale."""
    n = draw(st.integers(1, max_poses))
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=n, max_size=n))
    times = draw(st.floats(-5.0, 5.0)) + np.cumsum(steps)
    axis = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    if np.linalg.norm(axis) < 1e-3:
        axis = np.array([0.3, -1.0, 0.2])
    angle = draw(st.floats(-math.pi, math.pi))
    poses = []
    for _ in range(n):
        angle += draw(st.sampled_from([0.0, 1e-6, 2e-5, 0.3, 2.5, math.pi, 4.0]))
        tilt = draw(st.floats(-0.5, 0.5))
        rotation = Quaternion.from_axis_angle(axis + [tilt, 0.0, 0.0], angle).to_matrix()
        rotation = rotation * draw(st.sampled_from(SCALES))
        translation = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
        poses.append(SE3(rotation, translation))
    return Trajectory(times, poses)


@st.composite
def sample_times(draw, trajectory, max_times=24):
    """Stamps, their neighbouring ulps, midpoints, interior and clamped times."""
    ts = trajectory.timestamps
    pool = st.one_of(
        st.sampled_from(ts.tolist()),
        st.sampled_from(np.nextafter(ts, np.inf).tolist()),
        st.sampled_from(np.nextafter(ts, -np.inf).tolist()),
        st.floats(float(ts[0]) - 2.0, float(ts[-1]) + 2.0),
    )
    return np.asarray(draw(st.lists(pool, min_size=0, max_size=max_times)), dtype=float)


def assert_batch_matches(trajectory, times):
    rotations, translations = trajectory.sample_batch(times)
    want = [sample_reference(trajectory, float(t)) for t in times]
    assert_poses_bit_identical(rotations, translations, want)
    assert_poses_bit_identical(
        rotations, translations, [trajectory.sample(float(t)) for t in times]
    )
    np.testing.assert_array_equal(trajectory.positions(times), translations)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_sample_batch_matches_scalar_oracle(data):
    trajectory = data.draw(trajectories())
    assert_batch_matches(trajectory, data.draw(sample_times(trajectory)))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_repeated_batches_reuse_the_tables_exactly(data):
    """Lazily filled interval tables give the same bytes on every later call."""
    trajectory = data.draw(trajectories())
    first = data.draw(sample_times(trajectory))
    second = data.draw(sample_times(trajectory))
    assert_batch_matches(trajectory, first)
    assert_batch_matches(trajectory, second)
    assert_batch_matches(trajectory, np.concatenate([second, first]))


@given(trajectories(max_poses=1), st.lists(st.floats(-1e3, 1e3), max_size=8))
@settings(max_examples=50, deadline=None)
def test_one_pose_trajectory_always_clamps(trajectory, times):
    assert_batch_matches(trajectory, np.asarray(times, dtype=float))


def branch_trajectory():
    """Intervals through every branch: nlerp, slerp, short-arc flip, rescale."""
    angles = [0.0, 1e-6, 2.8, 2.8 + 3.0, 2.8 + 3.0 + 1e-7, 0.4, 0.4]
    scales = [1.0, 1.0, 1.0, 1.0 + 3e-9, 1.0 + 3e-9, 1.0 + 4e-10, 1.0 - 2.5e-9]
    poses = [
        SE3(Quaternion.from_axis_angle([0.1, 1.0, -0.3], a).to_matrix() * s, [i, -i, 0.5 * i])
        for i, (a, s) in enumerate(zip(angles, scales))
    ]
    return Trajectory(np.arange(len(poses)) * 0.25, poses)


def test_branch_trajectory_covers_every_branch(monkeypatch):
    """The pinned trajectory reaches nlerp, slerp, a flip and quaternions
    off the unit sphere, and the batch matches the oracle there."""
    import repro.geometry.trajectory as trajectory_module

    trajectory = branch_trajectory()
    quats = [p.quaternion().as_array() for p in trajectory.poses]
    dots = [float(np.dot(a, b)) for a, b in zip(quats, quats[1:])]
    assert any(d < 0 for d in dots)
    assert any(abs(d) > 1.0 - 1e-10 for d in dots)
    assert any(abs(d) < 1.0 - 1e-10 for d in dots)

    off_norms = []

    class RecordingQuaternion(Quaternion):
        def __post_init__(self):
            off_norms.append(abs(math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2) - 1))
            super().__post_init__()

    monkeypatch.setattr(trajectory_module, "Quaternion", RecordingQuaternion)
    times = np.linspace(-0.3, 1.8, 211)
    assert_batch_matches(trajectory, times)
    assert_batch_matches(trajectory, trajectory.timestamps)
    # Rows more than 1e-10 off the unit sphere take Quaternion's own test.
    # (Past 1e-9 is out of reach here: ``from_matrix`` already renormalized
    # every endpoint that far off, and slerp keeps the endpoints' norm.)
    assert any(1e-10 < off <= 1e-9 for off in off_norms)


@st.composite
def matrices(draw):
    """Rotations through all four Shepperd branches, scaled, or arbitrary."""
    kind = draw(st.sampled_from(["rotation", "scaled", "arbitrary"]))
    if kind == "arbitrary":
        entries = st.one_of(
            st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan])
        )
        return np.asarray(draw(st.lists(entries, min_size=9, max_size=9))).reshape(3, 3)
    axis = draw(st.sampled_from([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0.3, -0.2, 1]]))
    angle = draw(st.one_of(st.floats(-4.0, 4.0), st.sampled_from([math.pi, -math.pi, 0.0])))
    rotation = Quaternion.from_axis_angle(axis, angle).to_matrix()
    if kind == "scaled":
        rotation = rotation * draw(st.sampled_from(SCALES + (1.0 + 1e-6, 0.5)))
    return rotation


@given(st.lists(matrices(), min_size=1, max_size=8))
@settings(max_examples=400, deadline=None)
def test_table_quaternions_match_from_matrix(rotations):
    """The tables' vectorized Shepperd rows ≡ ``Quaternion.from_matrix``."""
    from repro.geometry.trajectory import _quaternions_from_matrices

    stack = np.stack(rotations)
    want = [Quaternion.from_matrix(m).as_array().tobytes() for m in stack]
    assert [row.tobytes() for row in _quaternions_from_matrices(stack)] == want


@pytest.mark.parametrize("times", [[np.nan], [0.1, np.nan, 0.2], [np.nan] * 3])
def test_nan_time_raises_in_both_paths(times):
    trajectory = branch_trajectory()
    with pytest.raises(ValueError, match="NaN"):
        trajectory.sample_batch(times)
    with pytest.raises(ValueError, match="NaN"):
        trajectory.sample(float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        trajectory.positions(times)


def test_empty_batch():
    rotations, translations = branch_trajectory().sample_batch(np.empty(0))
    assert rotations.shape == (0, 3, 3) and translations.shape == (0, 3)
