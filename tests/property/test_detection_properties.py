"""Property-based equivalence of stage ``D`` against its reference oracles.

The library's detection gathers instead of copying: the tie-centred
argmax compares the raw volume against the saturated per-pixel maximum,
sub-voxel refinement saturates only the three gathered planes, and the
median rejection gathers windows at detected pixels only.  Each must be
bit-identical to the whole-volume / whole-image formulation in
``detection_oracles`` on arbitrary volumes, limits and masks.
"""

import warnings

import numpy as np
from detection_oracles import (
    argmax_projection_reference,
    detect_structure_reference,
    median_reject_reference,
    refine_subvoxel_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import DetectionConfig
from repro.core.detection import detect_structure, median_reject, refine_subvoxel
from repro.core.dsi import DSI, depth_planes
from repro.geometry.camera import PinholeCamera
from repro.geometry.se3 import SE3

#: Few distinct values, so plateaus and scattered ties are the common case.
INT_SCORES = st.integers(0, 5)
#: Bilinear weights: arbitrary non-negative floats, plus a few exact values
#: that tie.
FLOAT_SCORES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.25, 3.0]),
    st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False),
)
MEDIAN_SIZES = st.sampled_from([1, 3, 5, 7])


@st.composite
def dsis(draw):
    """A DSI with an integer or float volume and an optional saturation limit.

    One pixel gets a planted maximum over a drawn set of planes — a
    contiguous plateau or scattered, non-contiguous ties.  The limit, when
    present, is at most the volume maximum, so it saturates.
    """
    nz = draw(st.integers(2, 9))
    h = draw(st.integers(1, 10))
    w = draw(st.integers(1, 10))
    integer = draw(st.booleans())
    dtype = np.int64 if integer else np.float64
    scores = draw(arrays(dtype, (nz, h, w), elements=INT_SCORES if integer else FLOAT_SCORES))
    planes = draw(st.lists(st.integers(0, nz - 1), min_size=1, max_size=nz, unique=True))
    y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    scores[planes, y, x] = scores.max() + 1
    peak = int(scores.max())
    limit = draw(st.one_of(st.none(), st.integers(1, max(1, peak))))
    dsi = DSI(
        PinholeCamera.ideal(w, h),
        SE3.identity(),
        depth_planes(0.5, 5.0, nz),
        integer_scores=integer,
        score_limit=limit,
    )
    dsi.scores[...] = scores
    return dsi


@st.composite
def masked_depths(draw):
    """``(depth, mask)``: finite depths under an empty, full, border or random mask."""
    h = draw(st.integers(1, 14))
    w = draw(st.integers(1, 14))
    depth = draw(
        arrays(
            np.float64,
            (h, w),
            elements=st.one_of(
                st.sampled_from([1.0, 1.1, 1.2, 5.0]),
                st.floats(0.5, 10.0, allow_nan=False, allow_infinity=False),
            ),
        )
    )
    kind = draw(st.sampled_from(["empty", "full", "border", "random"]))
    if kind == "random":
        mask = draw(arrays(np.bool_, (h, w)))
    else:
        mask = np.full((h, w), kind == "full")
        if kind == "border":
            mask[[0, -1], :] = True
            mask[:, [0, -1]] = True
    return depth, mask


def silently(fn, *args):
    """Call ``fn`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


class TestArgmaxProjection:
    @given(dsis())
    @settings(max_examples=200, deadline=None)
    def test_matches_saturated_copy_oracle(self, dsi):
        confidence, mid = dsi.argmax_projection()
        ref_confidence, ref_mid = argmax_projection_reference(dsi)
        assert confidence.dtype == ref_confidence.dtype
        assert mid.dtype == ref_mid.dtype
        np.testing.assert_array_equal(confidence, ref_confidence)
        np.testing.assert_array_equal(mid, ref_mid)

    @given(dsis())
    @settings(max_examples=100, deadline=None)
    def test_centre_lies_on_a_tied_plane_span(self, dsi):
        """The centre sits between the first and last saturated maximum."""
        confidence, mid = dsi.argmax_projection()
        saturated = dsi.saturate(dsi.scores)
        ties = saturated == confidence[None]
        first = np.argmax(ties, axis=0)
        last = dsi.n_planes - 1 - np.argmax(ties[::-1], axis=0)
        assert ties.any(axis=0).all()
        assert np.all((first <= mid) & (mid <= last))


class TestRefineSubvoxel:
    @given(dsis())
    @settings(max_examples=150, deadline=None)
    def test_matches_float_copy_oracle(self, dsi):
        _, indices = dsi.argmax_projection()
        refined = silently(refine_subvoxel, dsi, indices)
        np.testing.assert_array_equal(refined, refine_subvoxel_reference(dsi, indices))


class TestMedianReject:
    @given(masked_depths(), MEDIAN_SIZES)
    @settings(max_examples=300, deadline=None)
    def test_matches_shift_stack_oracle(self, depth_mask, median_size):
        depth, mask = depth_mask
        config = DetectionConfig(median_size=median_size)
        out = silently(median_reject, depth, mask, config)
        assert out.dtype == np.bool_
        np.testing.assert_array_equal(out, median_reject_reference(depth, mask, config))
        assert not np.any(out & ~mask)


class TestDetectStructure:
    @given(dsis(), MEDIAN_SIZES, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_pipeline(self, dsi, median_size, subvoxel):
        config = DetectionConfig(
            gaussian_sigma=1.0, offset=3.0, median_size=median_size, subvoxel=subvoxel
        )
        dm = silently(detect_structure, dsi, config)
        ref = detect_structure_reference(dsi, config)
        np.testing.assert_array_equal(dm.mask, ref.mask)
        np.testing.assert_array_equal(dm.confidence, ref.confidence)
        np.testing.assert_array_equal(dm.depth, ref.depth)
