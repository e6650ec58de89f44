"""Disparity Space Image (DSI) — the ray-density volume.

The DSI discretizes the viewing space of a *virtual camera* placed at the
reference viewpoint into ``Nz`` depth slices of ``h x w`` voxels (``w``, ``h``
being the sensor resolution).  Each voxel stores the number of back-projected
viewing rays that pass through it; local maxima of this ray-density function
mark likely scene points.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DepthSampling
from repro.geometry.camera import PinholeCamera
from repro.geometry.se3 import SE3


def depth_planes(
    z_min: float,
    z_max: float,
    n: int,
    sampling: DepthSampling = DepthSampling.INVERSE,
) -> np.ndarray:
    """Depth-plane positions ``{Z_i}`` in the virtual-camera frame.

    Inverse sampling spaces planes uniformly in ``1/Z`` (the EMVS default:
    equal disparity steps); linear sampling spaces them uniformly in ``Z``.
    """
    if not (0 < z_min < z_max):
        raise ValueError(f"need 0 < z_min < z_max, got [{z_min}, {z_max}]")
    if n < 2:
        raise ValueError("need at least 2 planes")
    if sampling is DepthSampling.INVERSE:
        return 1.0 / np.linspace(1.0 / z_min, 1.0 / z_max, n)
    return np.linspace(z_min, z_max, n)


class DSI:
    """Ray-density volume attached to a reference viewpoint.

    Parameters
    ----------
    camera:
        Sensor intrinsics; the volume is ``camera.height x camera.width``
        per slice.
    T_w_ref:
        Pose of the virtual camera (the reference view).
    depths:
        ``(Nz,)`` slice depths from :func:`depth_planes`.
    integer_scores:
        Integer vote counters (the quantized pipeline) instead of float
        weights (bilinear voting).
    score_limit:
        Saturation bound of the score registers (65535 for the paper's
        16-bit DSI scores).  Because votes are non-negative, clamping the
        running totals at read-out is arithmetically identical to the
        hardware's saturate-on-every-add, so the backing store only has
        to be wide enough for the unclamped counts.
    scores:
        An existing ``(Nz, H, W)`` volume to wrap without a copy (the
        ``native-batch`` backend's int32 vote window); by default a
        zeroed int64 (``integer_scores``) or float64 volume.
    """

    def __init__(
        self,
        camera: PinholeCamera,
        T_w_ref: SE3,
        depths: np.ndarray,
        integer_scores: bool = False,
        score_limit: int | None = None,
        scores: np.ndarray | None = None,
    ):
        depths = np.asarray(depths, dtype=float)
        if depths.ndim != 1 or depths.shape[0] < 2:
            raise ValueError("depths must be a 1-D array with >= 2 entries")
        if np.any(np.diff(depths) <= 0):
            raise ValueError("depths must be strictly increasing")
        if score_limit is not None and score_limit <= 0:
            raise ValueError("score_limit must be positive")
        self.camera = camera
        self.T_w_ref = T_w_ref
        self.depths = depths
        self.score_limit = score_limit
        shape = (depths.shape[0], camera.height, camera.width)
        if scores is None:
            dtype = np.int64 if integer_scores else np.float64
            scores = np.zeros(shape, dtype=dtype)
        elif scores.shape != shape:
            raise ValueError(f"scores must be {shape}, got {scores.shape}")
        self.scores = scores

    # ------------------------------------------------------------------
    @property
    def n_planes(self) -> int:
        """Number of depth planes ``Nz``."""
        return self.scores.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        """Score-volume shape ``(Nz, H, W)``."""
        return self.scores.shape

    @property
    def n_voxels(self) -> int:
        """Total voxel count ``Nz * H * W``."""
        return int(np.prod(self.scores.shape))

    def memory_bytes(self) -> int:
        """Score-volume storage footprint in bytes."""
        return self.scores.nbytes

    def total_votes(self) -> float:
        """Sum of all scores accumulated in the volume."""
        return float(self.scores.sum())

    def reset(self, T_w_ref: SE3 | None = None) -> None:
        """Zero the volume, optionally re-seating it at a new reference."""
        self.scores[...] = 0
        if T_w_ref is not None:
            self.T_w_ref = T_w_ref

    # ------------------------------------------------------------------
    @property
    def flat_scores(self) -> np.ndarray:
        """Writable flat view for the in-place voting kernels."""
        return self.scores.reshape(-1)

    def saturate(self, values: np.ndarray) -> np.ndarray:
        """Raw ``values`` (any gathered subset) as read out (``score_limit``)."""
        if self.score_limit is None:
            return values
        return np.minimum(values, self.score_limit)

    def max_projection(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-pixel (confidence, depth) of the ray-density maximum.

        Integer (nearest-voting) scores routinely tie across a plateau of
        adjacent depth planes; picking the first maximum would bias every
        such pixel toward the camera by up to the plateau width.  Ties are
        therefore resolved to the *centre* of the maximal plateau — for
        float scores ties are measure-zero, so this is the plain argmax.

        Returns
        -------
        confidence:
            ``(H, W)`` maximum score along depth.
        depth:
            ``(H, W)`` depth of the (tie-centred) maximizing slice.
        """
        confidence, mid = self.argmax_projection()
        return confidence, self.depths[mid]

    def argmax_projection(self) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`max_projection` but returning plane *indices*."""
        # Saturation is monotone, so the saturated maximum is the saturated
        # raw maximum, and a plane ties it exactly when its raw score
        # reaches it: no saturated copy of the volume is needed.
        confidence = self.saturate(self.scores.max(axis=0))
        at_max = self.scores >= confidence[None]
        first = np.argmax(at_max, axis=0)
        last = self.n_planes - 1 - np.argmax(at_max[::-1], axis=0)
        # Centre of the maximal run.  When the run is not contiguous this
        # still lands inside the tied span, which is all the detection
        # stage needs.
        mid = (first + last) // 2
        return confidence.astype(float), mid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DSI(Nz={self.n_planes}, {self.camera.height}x{self.camera.width}, "
            f"z=[{self.depths[0]:.3f}, {self.depths[-1]:.3f}], "
            f"dtype={self.scores.dtype})"
        )
