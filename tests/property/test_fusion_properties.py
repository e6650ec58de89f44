"""Property-based equivalence of map fusion against its row-sort oracle.

``GlobalMap`` groups observations by sorting one packed int64 key per
voxel (and per ``(voxel, source)`` pair) instead of sorting the key rows
themselves, falling back to the row sort when the packed key would
overflow.  Both paths must give fused centers, confidences, counts and
camera counts bit-identical to ``mapping_oracles.fuse_reference`` on any
insertion sequence: negative coordinates, duplicate points, several
sources, single points, filters above 1 and extents past int64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mapping_oracles import fuse_reference

from repro.core.mapping import GlobalMap

VOXEL_SIZES = st.sampled_from([0.05, 0.1, 0.25, 1.0])
#: A small grid of coordinates, so duplicate points and shared voxels are
#: common, plus arbitrary finite values of either sign.
COORDINATES = st.one_of(
    st.sampled_from([-1.0, -0.3, -0.05, 0.0, 0.05, 0.3, 1.0]),
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)
#: Mostly rig camera indices; a huge label pushes the (voxel, source)
#: pair key past int64 and onto the fallback.
SOURCES = st.one_of(st.integers(0, 3), st.just(2**62))
#: Far enough apart that, at any of the voxel sizes above, the product of
#: the voxel-key extents exceeds int64.
FAR = 1e7


@st.composite
def insertions(draw):
    """A list of ``(points, weights, source)`` insertions."""
    batches = []
    far = draw(st.booleans())
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 12))
        points = np.array(
            [[draw(COORDINATES) for _ in range(3)] for _ in range(n)], dtype=float
        )
        if draw(st.booleans()):  # repeat a point verbatim
            points = np.concatenate([points, points[:1]])
        if far and not batches:
            points = np.concatenate([points, [[FAR, -FAR, FAR], [-FAR, FAR, -FAR]]])
        weights = np.array(
            [draw(st.floats(0.01, 10.0)) for _ in range(len(points))], dtype=float
        )
        batches.append((points, weights, draw(SOURCES)))
    return batches


def fused(batches, voxel_size):
    gmap = GlobalMap(voxel_size)
    for points, weights, source in batches:
        gmap.insert(points, weights, source=source)
    return gmap


def assert_exact(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(batches=insertions(), voxel_size=VOXEL_SIZES)
def test_fusion_matches_row_sort_oracle(batches, voxel_size):
    gmap = fused(batches, voxel_size)
    centers, confidences, counts, camera_counts = fuse_reference(batches, voxel_size)
    assert_exact(gmap.fused_points(), centers)
    assert_exact(gmap.fused_confidences(), confidences)
    assert_exact(gmap.fused_counts(), counts)
    assert_exact(gmap.fused_camera_counts(), camera_counts)


@settings(max_examples=100, deadline=None)
@given(
    batches=insertions(),
    voxel_size=VOXEL_SIZES,
    min_observations=st.integers(1, 4),
    min_cameras=st.integers(1, 3),
)
def test_filtered_cloud_matches_oracle(batches, voxel_size, min_observations, min_cameras):
    gmap = fused(batches, voxel_size)
    centers, _, counts, camera_counts = fuse_reference(batches, voxel_size)
    keep = (counts >= min_observations) & (camera_counts >= min_cameras)
    cloud = gmap.fused_cloud(min_observations=min_observations, min_cameras=min_cameras)
    assert_exact(cloud.points, centers[keep])


def test_single_point():
    batches = [(np.array([[-0.31, 0.0, 2.5]]), np.array([0.7]), 0)]
    gmap = fused(batches, 0.1)
    for got, want in zip(
        (gmap.fused_points(), gmap.fused_confidences(), gmap.fused_counts(),
         gmap.fused_camera_counts()),
        fuse_reference(batches, 0.1),
    ):
        assert_exact(got, want)


@pytest.mark.parametrize("far_source", [False, True])
def test_overflowing_extents_take_the_row_sort(monkeypatch, far_source):
    """Extents past int64 fall back to ``np.unique(axis=0)`` and stay exact."""
    calls = []
    unique = np.unique

    def recording_unique(*args, **kwargs):
        calls.append(kwargs.get("axis"))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", recording_unique)
    if far_source:  # voxel keys pack; the (voxel, source) pairs do not
        batches = [
            (np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]), np.ones(2), 0),
            (np.array([[0.0, 0.0, 0.0]]), np.ones(1), 2**62),
        ]
    else:  # the voxel keys themselves do not pack
        batches = [
            (np.array([[FAR, -FAR, FAR], [-FAR, FAR, -FAR], [0.0, 0.0, 0.0]]), np.ones(3), 1),
        ]
    gmap = fused(batches, 0.5)
    got = (
        gmap.fused_points(), gmap.fused_confidences(), gmap.fused_counts(),
        gmap.fused_camera_counts(),
    )
    assert calls == ([None, 0] if far_source else [0, None])
    monkeypatch.setattr(np, "unique", unique)
    for g, want in zip(got, fuse_reference(batches, 0.5)):
        assert_exact(g, want)
