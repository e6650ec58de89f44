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

from collections.abc import Callable

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
    ys, xs = np.nonzero(mask)
    # Gather the window of every detected pixel from the NaN-padded
    # sparse map: one ``(median_size**2, n_detected)`` matrix instead of a
    # whole-image shift stack.  Each window holds its own (finite) pixel,
    # so no window is all-NaN and ``nanmedian`` never warns.
    padded = np.pad(np.where(mask, depth, np.nan), k, constant_values=np.nan)
    pw = padded.shape[1]
    span = np.arange(config.median_size)
    offsets = (span[:, None] * pw + span[None, :]).ravel()
    windows = padded.ravel()[(ys * pw + xs)[None, :] + offsets[:, None]]
    local_median = np.nanmedian(windows, axis=0)
    out = np.zeros_like(mask)
    out[ys, xs] = np.abs(depth[ys, xs] - local_median) <= 0.15 * np.abs(local_median)
    return out


def refine_subvoxel(dsi: DSI, indices: np.ndarray) -> np.ndarray:
    """Parabolic sub-plane depth refinement (library extension).

    Fits a parabola through the score triplet around each pixel's maximal
    plane in *inverse depth* (where the planes are uniformly spaced under
    the default sampling) and shifts the estimate by the vertex offset,
    clamped to half a plane spacing.  Boundary planes and degenerate
    (non-concave) triplets fall back to the plane centre.
    """
    nz = dsi.n_planes
    inv_depths = 1.0 / dsi.depths

    idx = np.clip(indices, 1, nz - 2)
    # Gather the three planes around each maximum from the raw volume,
    # then saturate and cast only the gathered (3, H, W) scores.
    planes = np.stack([idx - 1, idx, idx + 1])
    gathered = np.take_along_axis(dsi.scores, planes, axis=0)
    s_prev, s_mid, s_next = dsi.saturate(gathered).astype(float)
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


def detect_structure(
    dsi: DSI,
    config: DetectionConfig,
    project: Callable[[DSI], tuple[np.ndarray, np.ndarray]] = DSI.argmax_projection,
    reject: Callable[..., np.ndarray] = median_reject,
) -> SemiDenseDepthMap:
    """Extract the semi-dense depth map from a voted DSI.

    ``project`` (the tie-centred argmax projection) and ``reject`` (the
    median rejection) default to the numpy steps; a backend passes
    bit-identical compiled ones (``native-batch``).
    """
    confidence, indices = project(dsi)
    depth = dsi.depths[indices]
    if config.subvoxel:
        depth = refine_subvoxel(dsi, indices)
    mask = adaptive_threshold_mask(confidence, config)
    mask = reject(depth, mask, config)
    depth_out = np.where(mask, depth, np.nan)
    return SemiDenseDepthMap(depth=depth_out, confidence=confidence, mask=mask)
