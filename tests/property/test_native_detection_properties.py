"""Native stage ``D`` against the detection oracles, bit for bit.

``CExtensionKernels.argmax_projection`` reads the int32 count window in
one plane-major pass per tile of pixels, keeping each pixel's saturated
maximum and the first and last plane that reach it;
``CExtensionKernels.median_reject`` insertion-sorts each detected pixel's
detected window neighbours and applies numpy's median arithmetic.  Every
property compares them with ``detection_oracles``
(:func:`argmax_projection_reference`, :func:`median_reject_reference`),
exactly.  The workloads aim at the places a fused pass or a hand-written
median can diverge: all-zero columns, plateaus that saturate at
``score_limit``, ties that are not contiguous, ``nz = 2``, tile edges,
border pixels, every ``median_size`` from 1 to 7, windows holding an even
count and lone pixels.  Every property runs on each code shape of the
kernel (the ``native_kernels`` fixture): the host's ISA clone and the
baseline and AVX-512 bodies built on their own.
"""

import numpy as np
import pytest
from detection_oracles import (
    argmax_projection_reference,
    detect_structure_reference,
    median_reject_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import DetectionConfig
from repro.core.detection import detect_structure
from repro.core.dsi import DSI, depth_planes
from repro.geometry.camera import PinholeCamera
from repro.geometry.se3 import SE3

MEDIAN_SIZES = [1, 3, 5, 7]


def window_dsi(counts: np.ndarray, score_limit: int | None) -> DSI:
    """A DSI wrapping an int32 ``(Nz, H, W)`` count window, as native-batch seats it."""
    nz, h, w = counts.shape
    return DSI(
        PinholeCamera.ideal(w, h),
        SE3.identity(),
        depth_planes(0.5, 5.0, nz),
        integer_scores=True,
        score_limit=score_limit,
        scores=counts,
    )


def native_projection(kernels, dsi: DSI) -> tuple[np.ndarray, np.ndarray]:
    h, w = dsi.shape[1:]
    return kernels.argmax_projection(
        dsi.scores, dsi.shape, dsi.score_limit,
        np.empty((h, w)), np.empty((h, w), dtype=np.int64),
    )


def native_reject(kernels, depth, mask, config) -> np.ndarray:
    return kernels.median_reject(depth, mask, config.median_size, np.empty_like(mask))


def assert_projection_matches(kernels, counts, score_limit):
    dsi = window_dsi(counts, score_limit)
    confidence, mid = native_projection(kernels, dsi)
    ref_confidence, ref_mid = argmax_projection_reference(dsi)
    assert confidence.dtype == ref_confidence.dtype
    assert mid.dtype == ref_mid.dtype
    np.testing.assert_array_equal(confidence, ref_confidence)
    np.testing.assert_array_equal(mid, ref_mid)
    return confidence, mid


def assert_reject_matches(kernels, depth, mask, median_size):
    config = DetectionConfig(median_size=median_size)
    out = native_reject(kernels, depth, mask, config)
    assert out.dtype == np.bool_
    np.testing.assert_array_equal(out, median_reject_reference(depth, mask, config))
    assert not np.any(out & ~mask)
    return out


# ----------------------------------------------------------------------
# Argmax projection
# ----------------------------------------------------------------------
@st.composite
def count_windows(draw):
    """``(counts, score_limit)``: few distinct counts, so ties are common.

    One pixel gets a planted maximum over a drawn set of planes (a
    plateau or scattered ties), a drawn share of columns is all zero,
    and the limit, when present, is at most the peak, so it saturates.
    """
    nz = draw(st.sampled_from([2, 2, 3, 5, 9]))
    h = draw(st.integers(1, 10))
    w = draw(st.integers(1, 10))
    counts = draw(arrays(np.int32, (nz, h, w), elements=st.integers(0, 5)))
    counts[:, draw(arrays(np.bool_, (h, w)))] = 0
    planes = draw(st.lists(st.integers(0, nz - 1), min_size=1, max_size=nz, unique=True))
    y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    counts[planes, y, x] = counts.max() + 1
    peak = int(counts.max())
    limit = draw(st.one_of(st.none(), st.integers(1, max(1, peak))))
    return counts, limit


@given(count_windows())
@settings(max_examples=200, deadline=None)
def test_argmax_matches_saturated_copy_oracle(native_kernels, window):
    assert_projection_matches(native_kernels, *window)


@pytest.mark.parametrize("nz", [2, 3, 48])
def test_all_zero_columns_take_the_middle_plane(native_kernels, nz):
    counts = np.zeros((nz, 3, 4), dtype=np.int32)
    confidence, mid = assert_projection_matches(native_kernels, counts, 65535)
    assert (confidence == 0).all()
    assert (mid == (nz - 1) // 2).all()


def test_saturated_plateau_and_scattered_ties(native_kernels):
    """Counts past the limit tie with the limit; ties need not touch."""
    counts = np.zeros((9, 1, 4), dtype=np.int32)
    counts[[2, 3, 4], 0, 0] = [7, 500, 9]  # plateau at limit 7
    counts[[1, 7], 0, 1] = 6  # two ties six planes apart
    counts[[0, 8], 0, 2] = 10**6  # both ends saturate
    counts[5, 0, 3] = 3  # one clear maximum
    _, mid = assert_projection_matches(native_kernels, counts, 7)
    np.testing.assert_array_equal(mid[0], [3, 4, 4, 5])


@pytest.mark.parametrize("hw", [(1, 1023), (1, 1024), (1, 1025), (37, 57)])
def test_tile_edges(native_kernels, hw):
    """Pixel counts around the kernel's 1024-pixel tile."""
    rng = np.random.default_rng(hw[0] * hw[1])
    counts = rng.poisson(1.0, (6, *hw)).astype(np.int32)
    for limit in (None, 2):
        assert_projection_matches(native_kernels, counts, limit)


def test_int32_extremes(native_kernels):
    """``score_limit=None`` leaves the largest counts unclamped."""
    counts = np.array([[[2**31 - 1, 0]], [[2**31 - 2, 2**31 - 1]]], dtype=np.int32)
    for limit in (None, 2**31 - 1, 2**31 - 2):
        assert_projection_matches(native_kernels, counts, limit)


# ----------------------------------------------------------------------
# Median rejection
# ----------------------------------------------------------------------
@st.composite
def masked_depths(draw):
    """``(depth, mask)``: finite depths, few distinct values so windows tie,
    under an empty, full, border, lone-pixel or random mask."""
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
    kind = draw(st.sampled_from(["empty", "full", "border", "lone", "random"]))
    if kind == "random":
        mask = draw(arrays(np.bool_, (h, w)))
    elif kind == "lone":
        mask = np.zeros((h, w), dtype=bool)
        mask[::8, ::8] = True
    else:
        mask = np.full((h, w), kind == "full")
        if kind == "border":
            mask[[0, -1], :] = True
            mask[:, [0, -1]] = True
    return depth, mask


@given(masked_depths(), st.sampled_from(MEDIAN_SIZES))
@settings(max_examples=300, deadline=None)
def test_median_matches_shift_stack_oracle(native_kernels, depth_mask, median_size):
    assert_reject_matches(native_kernels, *depth_mask, median_size)


@pytest.mark.parametrize("median_size", MEDIAN_SIZES)
def test_even_counts_average_the_middle_pair(native_kernels, median_size):
    """Two-pixel windows: the median is the pair's mean, which keeps a
    pair 30 % apart (each 13 % off the mean) and rejects one 50 % apart."""
    depth = np.zeros((1, 10))
    depth[0, [0, 1, 8, 9]] = [1.0, 1.3, 1.0, 1.5]
    mask = depth > 0
    out = assert_reject_matches(native_kernels, depth, mask, median_size)
    expected = mask.copy()
    if median_size > 1:
        expected[0, 8:] = False
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("median_size", MEDIAN_SIZES)
def test_lone_and_border_pixels_keep_themselves(native_kernels, median_size):
    depth = np.full((6, 6), 2.0)
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = mask[5, 5] = mask[0, 5] = True
    out = assert_reject_matches(native_kernels, depth, mask, median_size)
    np.testing.assert_array_equal(out, mask)


@pytest.mark.parametrize("median_size", MEDIAN_SIZES)
def test_checkerboard_windows(native_kernels, median_size):
    """A checkerboard gives every interior window an odd count and border
    windows even counts, over a depth ramp that straddles the 15 % test."""
    yy, xx = np.mgrid[0:9, 0:11]
    depth = 1.0 + 0.04 * xx + 0.03 * yy
    depth[4, 5] = 9.0  # one outlier
    mask = (yy + xx) % 2 == 0
    assert_reject_matches(native_kernels, depth, mask, median_size)
    assert_reject_matches(native_kernels, depth, ~mask, median_size)


# ----------------------------------------------------------------------
# The whole stage
# ----------------------------------------------------------------------
@given(count_windows(), st.sampled_from(MEDIAN_SIZES), st.booleans())
@settings(max_examples=100, deadline=None)
def test_native_detection_matches_oracle_pipeline(native_kernels, window, median_size, subvoxel):
    """``detect_structure`` with both native steps on the window, sub-voxel
    refinement gathering its planes from the int32 window."""
    dsi = window_dsi(*window)
    config = DetectionConfig(
        gaussian_sigma=1.0, offset=3.0, median_size=median_size, subvoxel=subvoxel
    )
    with np.errstate(all="raise"):
        dm = detect_structure(
            dsi, config,
            project=lambda d: native_projection(native_kernels, d),
            reject=lambda depth, mask, c: native_reject(native_kernels, depth, mask, c),
        )
    ref = detect_structure_reference(dsi, config)
    np.testing.assert_array_equal(dm.mask, ref.mask)
    np.testing.assert_array_equal(dm.confidence, ref.confidence)
    np.testing.assert_array_equal(dm.depth, ref.depth)
