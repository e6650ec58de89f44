"""Q-format fixed-point number descriptions.

A :class:`QFormat` describes a binary fixed-point representation by total
word length, fractional bits and signedness.  Following the convention of
the paper's Table 1, the *integer bit count* of a signed format includes the
sign bit (e.g. the homography format "32 bits, 11 integer, 21 decimal" is
``QFormat(32, 21, signed=True)`` with 10 magnitude bits + sign).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Rounding(enum.Enum):
    """Rounding mode applied when narrowing to a format."""

    NEAREST = "nearest"  # round half away from zero (DSP-style)
    FLOOR = "floor"      # truncation toward minus infinity (drop LSBs)


class Overflow(enum.Enum):
    """Overflow handling when a value exceeds the representable range."""

    SATURATE = "saturate"
    WRAP = "wrap"


@dataclass(frozen=True)
class QFormat:
    """Binary fixed-point format ``Q<int>.<frac>``.

    Attributes
    ----------
    total_bits:
        Word length, including the sign bit for signed formats.
    frac_bits:
        Number of fractional (sub-LSB) bits; the scale is ``2**frac_bits``.
    signed:
        Two's-complement when True, unsigned otherwise.
    """

    total_bits: int
    frac_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.total_bits < 1 or self.total_bits > 63:
            raise ValueError("total_bits must be in [1, 63] (int64 backing store)")
        if self.frac_bits < 0 or self.frac_bits > self.total_bits:
            raise ValueError("frac_bits must be in [0, total_bits]")
        if self.signed and self.total_bits < 2:
            raise ValueError("signed formats need at least 2 bits")

    # ------------------------------------------------------------------
    @property
    def int_bits(self) -> int:
        """Integer bits *excluding* the sign bit."""
        return self.total_bits - self.frac_bits - (1 if self.signed else 0)

    @property
    def scale(self) -> float:
        return float(1 << self.frac_bits)

    @property
    def resolution(self) -> float:
        """Value of one LSB."""
        return 1.0 / self.scale

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1)) if self.signed else 0

    @property
    def raw_max(self) -> int:
        bits = self.total_bits - (1 if self.signed else 0)
        return (1 << bits) - 1

    @property
    def min_value(self) -> float:
        return self.raw_min / self.scale

    @property
    def max_value(self) -> float:
        return self.raw_max / self.scale

    def __str__(self) -> str:
        sign = "s" if self.signed else "u"
        return f"{sign}Q{self.total_bits - self.frac_bits - (1 if self.signed else 0)}.{self.frac_bits}/{self.total_bits}b"

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_raw(
        self,
        values: np.ndarray,
        rounding: Rounding = Rounding.NEAREST,
        overflow: Overflow = Overflow.SATURATE,
    ) -> np.ndarray:
        """Quantize floats to raw integer representation (int64).

        Non-finite inputs saturate to the nearest representable bound (the
        pipeline treats them as projection misses before this point) and
        NaN maps to zero; under ``SATURATE`` a finite value of any
        magnitude saturates too.
        """
        values = np.asarray(values, dtype=float)
        scaled = values * self.scale
        if rounding is Rounding.NEAREST:
            raw = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
        else:
            raw = np.floor(scaled)
        raw = np.nan_to_num(raw, nan=0.0, posinf=float(self.raw_max), neginf=float(self.raw_min))
        # A float past the int64 range has no defined integer cast (x86
        # yields INT64_MIN, which would saturate 1e30 to raw_min): clamp
        # into castable range and pin the too-large ones to INT64_MAX.
        castable = np.clip(raw, -(2.0**63), 2.0**63 - 1024.0).astype(np.int64)
        raw = np.where(raw >= 2.0**63, np.iinfo(np.int64).max, castable)
        if overflow is Overflow.SATURATE:
            return np.clip(raw, self.raw_min, self.raw_max)
        span = self.raw_max - self.raw_min + 1
        return (raw - self.raw_min) % span + self.raw_min

    def from_raw(self, raw: np.ndarray) -> np.ndarray:
        """Dequantize raw integers back to float."""
        return np.asarray(raw, dtype=np.int64) / self.scale

    def quantize(
        self,
        values: np.ndarray,
        rounding: Rounding = Rounding.NEAREST,
        overflow: Overflow = Overflow.SATURATE,
    ) -> np.ndarray:
        """Round-trip floats through the format (quantization simulation)."""
        return self.from_raw(self.to_raw(values, rounding, overflow))

    def overflows(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of values outside the representable range.

        Used by the hardware model's projection-miss judgement: saturated
        coordinates must be discarded, not voted at the sensor border.
        """
        values = np.asarray(values, dtype=float)
        lo, hi = self.overflow_bounds
        return ~np.isfinite(values) | (values < lo) | (values > hi)

    @property
    def overflow_bounds(self) -> tuple[float, float]:
        """``(lo, hi)``: finite values in ``[lo, hi]`` do not overflow.

        Half an LSB past each end of the range, so a value that rounds
        onto ``raw_min``/``raw_max`` still counts as representable.
        """
        half = 0.5 * self.resolution
        return self.min_value - half, self.max_value + half

    def quantization_error_bound(self) -> float:
        """Worst-case absolute error of round-to-nearest: half an LSB."""
        return 0.5 * self.resolution
