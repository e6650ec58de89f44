"""Eventor's hybrid quantization schema (Table 1 of the paper).

==========================  ==========  ===========  ============
Quantized data type         total bits  integer bits decimal bits
==========================  ==========  ===========  ============
``(x_k, y_k)``              16          9            7
``(x_k(Z0), y_k(Z0))``      16          9            7
``(x_k(Zi), y_k(Zi))``      8           8            0
``H_Z0``                    32          11           21
``phi``                     32          11           21
DSI scores                  16          16           0
==========================  ==========  ===========  ============

Event and canonical-plane coordinates are unsigned (9 integer bits cover the
0..511 pixel range of a padded 240x180 sensor); homography and proportional
coefficients are signed with the sign bit counted inside the 11 integer bits.
Concatenating the two 16-bit coordinates of an event yields the 32-bit DRAM
word the DMA transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.qformat import Overflow, QFormat, Rounding

#: ``(x_k, y_k)`` raw/undistorted event coordinates: unsigned Q9.7.
EVENT_COORD_FORMAT = QFormat(16, 7, signed=False)

#: ``(x_k(Z0), y_k(Z0))`` canonical-plane coordinates: unsigned Q9.7.
CANONICAL_COORD_FORMAT = QFormat(16, 7, signed=False)

#: ``(x_k(Zi), y_k(Zi))`` per-plane coordinates: 8-bit integers (nearest
#: voting needs no fractional part).
PLANE_COORD_FORMAT = QFormat(8, 0, signed=False)

#: Homography matrix entries: signed Q11.21 (sign included in the 11).
HOMOGRAPHY_FORMAT = QFormat(32, 21, signed=True)

#: Proportional back-projection coefficients phi: signed Q11.21.
PHI_FORMAT = QFormat(32, 21, signed=True)

#: DSI voxel scores: 16-bit unsigned integers (nearest votes are integral).
DSI_SCORE_FORMAT = QFormat(16, 0, signed=False)


@dataclass(frozen=True)
class QuantizationSchema:
    """Bundle of formats used by one configuration of the pipeline.

    ``enabled=False`` produces the full-precision reference behaviour while
    keeping a uniform interface (used for the Fig. 4b / Fig. 7a ablations).
    """

    enabled: bool = True
    event_coord: QFormat = EVENT_COORD_FORMAT
    canonical_coord: QFormat = CANONICAL_COORD_FORMAT
    plane_coord: QFormat = PLANE_COORD_FORMAT
    homography: QFormat = HOMOGRAPHY_FORMAT
    phi: QFormat = PHI_FORMAT
    dsi_score: QFormat = DSI_SCORE_FORMAT

    # ------------------------------------------------------------------
    def quantize_event_coords(self, xy: np.ndarray) -> np.ndarray:
        if not self.enabled:
            return np.asarray(xy, dtype=float)
        return self.event_coord.quantize(xy)

    def quantize_canonical(self, xy: np.ndarray) -> np.ndarray:
        if not self.enabled:
            return np.asarray(xy, dtype=float)
        return self.canonical_coord.quantize(xy)

    def canonical_overflow(self, xy: np.ndarray) -> np.ndarray:
        """Coordinates the canonical format cannot represent (drop as miss)."""
        if not self.enabled:
            return ~np.isfinite(np.asarray(xy, dtype=float))
        return self.canonical_coord.overflows(xy)

    @property
    def canonical_mac_exact(self) -> bool:
        """Whether float64 computes ``P(Z0)``'s homography rows exactly.

        Each row is ``x*h0 + y*h1 + h2`` on quantized operands: every
        term is an integer multiple of ``2^-(event.frac + homography.frac)``
        and ``|sum| <= (2*X + 2^event.frac) * M`` such units, where ``X``
        and ``M`` are the largest raw magnitudes of the two formats.
        When that fits float64's 53-bit significand, every product and
        partial sum is exact, so any summation order (BLAS, FMA, a C
        loop) gives the same value.  True for Table 1 (``2^48 + 2^38``
        units); ``False`` when quantization is disabled.
        """
        if not self.enabled:
            return False
        e, h = self.event_coord, self.homography
        x = max(-e.raw_min, e.raw_max)
        m = max(-h.raw_min, h.raw_max)
        return (2 * x + (1 << e.frac_bits)) * m <= 1 << 53

    def quantize_homography(self, H: np.ndarray) -> np.ndarray:
        if not self.enabled:
            return np.asarray(H, dtype=float)
        return self.homography.quantize(H)

    def quantize_phi(self, phi: np.ndarray) -> np.ndarray:
        if not self.enabled:
            return np.asarray(phi, dtype=float)
        return self.phi.quantize(phi)

    # ------------------------------------------------------------------
    def event_word_bits(self) -> int:
        """Bits per event as stored in DRAM (two coordinates concatenated)."""
        return 2 * self.event_coord.total_bits if self.enabled else 64

    def dsi_score_bits(self) -> int:
        return self.dsi_score.total_bits if self.enabled else 32

    def memory_footprint(self, n_events: int, dsi_voxels: int) -> int:
        """Total bytes for event storage + DSI at this schema."""
        event_bytes = n_events * self.event_word_bits() // 8
        dsi_bytes = dsi_voxels * self.dsi_score_bits() // 8
        return event_bytes + dsi_bytes

    def memory_saving_vs_float(self, n_events: int, dsi_voxels: int) -> float:
        """Fractional saving vs. the float32 baseline (paper claims ~50 %)."""
        float_schema = FLOAT_SCHEMA
        mine = self.memory_footprint(n_events, dsi_voxels)
        theirs = (
            n_events * 2 * 32 // 8 + dsi_voxels * 32 // 8
        )  # float32 coords + float32 scores
        del float_schema
        return 1.0 - mine / theirs


#: The schema of the paper (Table 1).
EVENTOR_SCHEMA = QuantizationSchema(enabled=True)

#: Full-precision reference (quantization disabled).
FLOAT_SCHEMA = QuantizationSchema(enabled=False)


# ----------------------------------------------------------------------
# Convenience wrappers used by pipelines and the hardware model
# ----------------------------------------------------------------------
def quantize_events(xy: np.ndarray, schema: QuantizationSchema = EVENTOR_SCHEMA) -> np.ndarray:
    """Quantize raw event coordinates per the schema."""
    return schema.quantize_event_coords(xy)


def quantize_homography(H: np.ndarray, schema: QuantizationSchema = EVENTOR_SCHEMA) -> np.ndarray:
    return schema.quantize_homography(H)


def quantize_phi(phi: np.ndarray, schema: QuantizationSchema = EVENTOR_SCHEMA) -> np.ndarray:
    return schema.quantize_phi(phi)


def pack_event_word(xy_raw: np.ndarray) -> np.ndarray:
    """Concatenate two 16-bit coordinate words into one 32-bit DRAM word.

    ``xy_raw`` holds the *raw* (integer) uQ9.7 payloads, shape ``(N, 2)``.
    The x coordinate occupies the high half-word, matching the AXI packing
    described in Sec. 3.1.
    """
    xy_raw = np.asarray(xy_raw, dtype=np.int64)
    if np.any((xy_raw < 0) | (xy_raw > 0xFFFF)):
        raise ValueError("packed coordinates must be 16-bit unsigned payloads")
    return (xy_raw[:, 0] << 16) | xy_raw[:, 1]


def unpack_event_word(words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_event_word`; returns ``(N, 2)`` raw payloads."""
    words = np.asarray(words, dtype=np.int64)
    return np.stack([(words >> 16) & 0xFFFF, words & 0xFFFF], axis=1)
