"""Scene structure detection (stage ``D``).

A 3D point is declared present where the ray-density function has a strong
local maximum.  Following the reference EMVS implementation the detection
runs on the *confidence map* (per-pixel maximum score along depth):

1. dense argmax along depth -> (confidence, depth) per pixel;
2. adaptive Gaussian thresholding: keep pixels whose confidence exceeds the
   Gaussian-blurred local mean by ``offset`` votes (and an absolute floor);
3. median-filter the surviving depth map to suppress isolated outliers.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.core.config import DetectionConfig
from repro.core.depthmap import SemiDenseDepthMap
from repro.core.dsi import DSI


def adaptive_threshold_mask(
    confidence: np.ndarray, config: DetectionConfig
) -> np.ndarray:
    """Pixels whose confidence beats the local Gaussian mean by ``offset``.

    Following the reference implementation, the confidence map is first
    normalized to the 0-255 range, so ``offset`` is independent of the
    absolute vote counts (event-rate invariant); an absolute ``min_votes``
    floor still guards against detections in nearly-empty volumes.
    """
    peak = confidence.max()
    if peak <= 0:
        return np.zeros_like(confidence, dtype=bool)
    normalized = confidence * (255.0 / peak)
    local_mean = ndimage.gaussian_filter(normalized, sigma=config.gaussian_sigma)
    return (normalized > local_mean + config.offset) & (
        confidence >= config.min_votes
    )


def median_reject(
    depth: np.ndarray, mask: np.ndarray, config: DetectionConfig
) -> np.ndarray:
    """Reject points that disagree with the local median depth.

    The reference implementation median-filters the masked depth map; here
    the median is computed over detected pixels only (undetected pixels do
    not dilute it, and — unlike a mean — a single outlier cannot drag the
    statistic).  A point survives when it is within 15 % of the local
    median; lone points keep themselves (the window median is the point).
    """
    if config.median_size <= 1:
        return mask
    k = config.median_size // 2
    h, w = depth.shape
    sparse = np.where(mask, depth, np.nan)
    # One preallocated NaN-padded stack of every in-window shift, filled
    # layer by layer in place (the per-shift ``np.full`` copies plus the
    # final ``np.stack`` re-copy would double the allocations).
    stack = np.full((config.median_size**2, h, w), np.nan)
    for i, (dy, dx) in enumerate(
        (dy, dx) for dy in range(-k, k + 1) for dx in range(-k, k + 1)
    ):
        ys_src = slice(max(0, -dy), min(h, h - dy))
        xs_src = slice(max(0, -dx), min(w, w - dx))
        ys_dst = slice(max(0, dy), min(h, h + dy))
        xs_dst = slice(max(0, dx), min(w, w + dx))
        stack[i, ys_dst, xs_dst] = sparse[ys_src, xs_src]
    # Median only the windows holding a detected pixel: an all-NaN window
    # stays NaN without tripping numpy's All-NaN RuntimeWarning (and
    # without ``warnings.catch_warnings``, which is process-global state
    # and so unsafe under thread executors).
    occupied = np.isfinite(stack).any(axis=0)
    local_median = np.full((h, w), np.nan)
    local_median[occupied] = np.nanmedian(stack[:, occupied], axis=0)
    good = np.abs(depth - local_median) <= 0.15 * np.abs(local_median)
    return mask & np.where(np.isfinite(local_median), good, True)


def refine_subvoxel(dsi: DSI, indices: np.ndarray) -> np.ndarray:
    """Parabolic sub-plane depth refinement (library extension).

    Fits a parabola through the score triplet around each pixel's maximal
    plane in *inverse depth* (where the planes are uniformly spaced under
    the default sampling) and shifts the estimate by the vertex offset,
    clamped to half a plane spacing.  Boundary planes and degenerate
    (non-concave) triplets fall back to the plane centre.
    """
    scores = dsi.effective_scores().astype(float)
    nz = scores.shape[0]
    inv_depths = 1.0 / dsi.depths

    idx = np.clip(indices, 1, nz - 2)
    s_prev = np.take_along_axis(scores, (idx - 1)[None], axis=0)[0]
    s_mid = np.take_along_axis(scores, idx[None], axis=0)[0]
    s_next = np.take_along_axis(scores, (idx + 1)[None], axis=0)[0]
    denom = s_prev - 2.0 * s_mid + s_next
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 0.5 * (s_prev - s_next) / denom
    usable = (denom < 0) & np.isfinite(delta) & (indices >= 1) & (indices <= nz - 2)
    delta = np.where(usable, np.clip(delta, -0.5, 0.5), 0.0)

    # Interpolate in inverse depth between neighbouring planes.
    lo = np.clip(idx - 1, 0, nz - 1)
    hi = np.clip(idx + 1, 0, nz - 1)
    step = 0.5 * (inv_depths[hi] - inv_depths[lo])  # per-plane spacing
    inv_refined = inv_depths[indices] + delta * step
    return 1.0 / inv_refined


def detect_structure(dsi: DSI, config: DetectionConfig) -> SemiDenseDepthMap:
    """Extract the semi-dense depth map from a voted DSI."""
    confidence, indices = dsi.argmax_projection()
    depth = dsi.depths[indices]
    if config.subvoxel:
        depth = refine_subvoxel(dsi, indices)
    mask = adaptive_threshold_mask(confidence, config)
    mask = median_reject(depth, mask, config)
    depth_out = np.where(mask, depth, np.nan)
    return SemiDenseDepthMap(depth=depth_out, confidence=confidence, mask=mask)
