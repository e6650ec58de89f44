"""Configuration of the EMVS pipelines."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class DepthSampling(enum.Enum):
    """How depth-plane positions are distributed in ``[z_min, z_max]``.

    Inverse-depth-uniform sampling (the EMVS default) concentrates planes
    near the camera where a pixel of disparity corresponds to less depth.
    """

    INVERSE = "inverse"
    LINEAR = "linear"


@dataclass(frozen=True)
class DetectionConfig:
    """Scene-structure detection (stage ``D``) parameters.

    Mirrors the adaptive Gaussian thresholding + median filtering of the
    reference EMVS implementation: the confidence map is normalized to
    0-255 and a pixel is kept when it exceeds the local (Gaussian-blurred)
    mean by ``offset`` (so the threshold is event-rate invariant); the
    surviving depth map is median-filtered to reject isolated outliers.
    """

    gaussian_sigma: float = 2.0
    offset: float = 14.0
    median_size: int = 5
    min_votes: float = 2.0
    #: Parabolic sub-voxel refinement of the depth estimate along the DSI
    #: column (an extension beyond the paper; removes the depth-plane
    #: quantization floor).  Off by default to match the published system.
    subvoxel: bool = False

    def __post_init__(self) -> None:
        if self.gaussian_sigma <= 0:
            raise ValueError("gaussian_sigma must be positive")
        if self.median_size % 2 != 1:
            raise ValueError("median_size must be odd")


@dataclass(frozen=True)
class EMVSConfig:
    """Parameters shared by the original and reformulated pipelines.

    Attributes
    ----------
    n_depth_planes:
        Number of DSI slices ``Nz``.
    depth_sampling:
        Plane distribution (inverse-depth uniform by default).
    frame_size:
        Events per aggregated frame (1024 in the paper).
    keyframe_distance:
        Translation (metres) from the current reference view beyond which a
        new key frame is selected and the DSI is re-seated; finite and
        positive.  ``None`` disables key-framing (single reference for the
        whole stream).
    detection:
        Stage ``D`` parameters.
    """

    n_depth_planes: int = 100
    depth_sampling: DepthSampling = DepthSampling.INVERSE
    frame_size: int = 1024
    keyframe_distance: float | None = None
    detection: DetectionConfig = field(default_factory=DetectionConfig)

    def __post_init__(self) -> None:
        if self.n_depth_planes < 2:
            raise ValueError("need at least 2 depth planes")
        if self.frame_size < 1:
            raise ValueError("frame_size must be positive")
        if self.keyframe_distance is not None and not (
            0 < self.keyframe_distance < math.inf
        ):
            raise ValueError("keyframe_distance must be finite and positive (or None)")
