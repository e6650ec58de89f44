"""Reference implementations of stage ``D`` that the library must match.

Each oracle is the plain, obviously-correct formulation the optimized
library code replaced: whole-volume copies, whole-image shift stacks, no
gathering.  Tests and the hot-path bench compare the library against
them bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.config import DetectionConfig
from repro.core.depthmap import SemiDenseDepthMap
from repro.core.detection import adaptive_threshold_mask
from repro.core.dsi import DSI


def saturated_scores(dsi: DSI) -> np.ndarray:
    """A saturated copy of the whole score volume."""
    if dsi.score_limit is None:
        return dsi.scores
    return np.minimum(dsi.scores, dsi.score_limit)


def argmax_projection_reference(dsi: DSI) -> tuple[np.ndarray, np.ndarray]:
    """Tie-centred argmax: two argmax passes over the saturated copy."""
    scores = saturated_scores(dsi)
    first = np.argmax(scores, axis=0)
    last = scores.shape[0] - 1 - np.argmax(scores[::-1], axis=0)
    confidence = np.take_along_axis(scores, first[None], axis=0)[0]
    return confidence.astype(float), (first + last) // 2


def median_reject_reference(
    depth: np.ndarray, mask: np.ndarray, config: DetectionConfig
) -> np.ndarray:
    """Median rejection over a whole-image stack of NaN-filled shifts."""
    if config.median_size <= 1:
        return mask
    k = config.median_size // 2
    h, w = depth.shape
    sparse = np.where(mask, depth, np.nan)

    def spans(n: int, d: int) -> tuple[slice, slice]:
        # (source, destination) of a shift by d; empty when |d| >= n.
        return (
            slice(max(0, -d), max(0, min(n, n - d))),
            slice(max(0, d), max(0, min(n, n + d))),
        )

    shifts = []
    for dy in range(-k, k + 1):
        for dx in range(-k, k + 1):
            shifted = np.full((h, w), np.nan)
            (ys_src, ys_dst), (xs_src, xs_dst) = spans(h, dy), spans(w, dx)
            shifted[ys_dst, xs_dst] = sparse[ys_src, xs_src]
            shifts.append(shifted)
    stack = np.stack(shifts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        local_median = np.nanmedian(stack, axis=0)
    good = np.abs(depth - local_median) <= 0.15 * np.abs(local_median)
    return mask & np.where(np.isfinite(local_median), good, True)


def refine_subvoxel_reference(dsi: DSI, indices: np.ndarray) -> np.ndarray:
    """Parabolic refinement read from a float copy of the saturated volume."""
    scores = saturated_scores(dsi).astype(float)
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
    lo = np.clip(idx - 1, 0, nz - 1)
    hi = np.clip(idx + 1, 0, nz - 1)
    step = 0.5 * (inv_depths[hi] - inv_depths[lo])
    return 1.0 / (inv_depths[indices] + delta * step)


def detect_structure_reference(dsi: DSI, config: DetectionConfig) -> SemiDenseDepthMap:
    """:func:`repro.core.detection.detect_structure` built from the oracles."""
    confidence, indices = argmax_projection_reference(dsi)
    depth = dsi.depths[indices]
    if config.subvoxel:
        depth = refine_subvoxel_reference(dsi, indices)
    mask = adaptive_threshold_mask(confidence, config)
    mask = median_reject_reference(depth, mask, config)
    depth_out = np.where(mask, depth, np.nan)
    return SemiDenseDepthMap(depth=depth_out, confidence=confidence, mask=mask)
