"""Unit tests for the Table 1 quantization schema."""

import numpy as np
import pytest

from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import (
    CANONICAL_COORD_FORMAT,
    DSI_SCORE_FORMAT,
    EVENT_COORD_FORMAT,
    EVENTOR_SCHEMA,
    FLOAT_SCHEMA,
    HOMOGRAPHY_FORMAT,
    PHI_FORMAT,
    PLANE_COORD_FORMAT,
    QuantizationSchema,
    pack_event_word,
    unpack_event_word,
)


class TestTable1Formats:
    """The exact word lengths of the paper's Table 1."""

    @pytest.mark.parametrize(
        "fmt,total,int_incl_sign,frac",
        [
            (EVENT_COORD_FORMAT, 16, 9, 7),
            (CANONICAL_COORD_FORMAT, 16, 9, 7),
            (PLANE_COORD_FORMAT, 8, 8, 0),
            (HOMOGRAPHY_FORMAT, 32, 11, 21),
            (PHI_FORMAT, 32, 11, 21),
            (DSI_SCORE_FORMAT, 16, 16, 0),
        ],
    )
    def test_bit_allocations(self, fmt, total, int_incl_sign, frac):
        assert fmt.total_bits == total
        assert fmt.frac_bits == frac
        counted_int = fmt.int_bits + (1 if fmt.signed else 0)
        assert counted_int == int_incl_sign

    def test_davis_coordinates_fit_event_format(self):
        # 9 integer bits cover the 240x180 sensor (and up to 511).
        assert EVENT_COORD_FORMAT.max_value > 239.0
        assert PLANE_COORD_FORMAT.max_value >= 239


class TestSchema:
    def test_float_schema_is_identity(self, rng):
        xy = rng.uniform(0, 240, (50, 2))
        np.testing.assert_array_equal(FLOAT_SCHEMA.quantize_event_coords(xy), xy)
        H = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(FLOAT_SCHEMA.quantize_homography(H), H)

    def test_eventor_schema_quantizes(self, rng):
        xy = rng.uniform(0, 240, (50, 2))
        q = EVENTOR_SCHEMA.quantize_event_coords(xy)
        # All values on the Q9.7 grid.
        np.testing.assert_array_equal(q * 128, np.round(q * 128))
        assert np.max(np.abs(q - xy)) <= 1.0 / 256.0

    def test_canonical_overflow_detection(self):
        vals = np.array([-1.0, 100.0, 600.0, np.nan])
        mask = EVENTOR_SCHEMA.canonical_overflow(vals)
        np.testing.assert_array_equal(mask, [True, False, True, True])

    def test_float_schema_overflow_only_nonfinite(self):
        vals = np.array([-1e9, np.inf, 3.0])
        mask = FLOAT_SCHEMA.canonical_overflow(vals)
        np.testing.assert_array_equal(mask, [False, True, False])

    @pytest.mark.parametrize(
        "event_coord, exact",
        [
            (EVENT_COORD_FORMAT, True),  # Table 1: (2^48 + 2^38) LSB^2 units
            # (2 * (2^21 - 1) + 1) * 2^31 = 2^53 - 2^31: still exact.
            (QFormat(21, 0, signed=False), True),
            # (2 * (2^22 - 1) + 1) * 2^31 = 2^54 - 2^31: one bit too wide.
            (QFormat(22, 0, signed=False), False),
        ],
        ids=["table1", "at-bound", "past-bound"],
    )
    def test_canonical_mac_exact_is_the_53_bit_bound(self, event_coord, exact):
        schema = QuantizationSchema(event_coord=event_coord)
        assert schema.canonical_mac_exact is exact

    def test_float_schema_has_no_exact_canonical_mac(self):
        assert not FLOAT_SCHEMA.canonical_mac_exact

    @pytest.mark.parametrize("fmt", [EVENT_COORD_FORMAT, HOMOGRAPHY_FORMAT])
    def test_values_past_the_int64_range_saturate(self, fmt):
        """1e30 * scale has no int64 cast; it must still saturate high."""
        raw = fmt.to_raw(np.array([1e30, -1e30, 3.4e38, np.inf, -np.inf]))
        np.testing.assert_array_equal(
            raw, [fmt.raw_max, fmt.raw_min, fmt.raw_max, fmt.raw_max, fmt.raw_min]
        )

    def test_event_word_bits(self):
        assert EVENTOR_SCHEMA.event_word_bits() == 32
        assert FLOAT_SCHEMA.event_word_bits() == 64

    def test_memory_saving_about_half(self):
        # The paper claims up to 50 % memory/bandwidth saving.
        saving = EVENTOR_SCHEMA.memory_saving_vs_float(
            n_events=1_000_000, dsi_voxels=240 * 180 * 128
        )
        assert saving == pytest.approx(0.5, abs=0.01)


class TestEventWordPacking:
    def test_round_trip(self, rng):
        xy_raw = rng.integers(0, 0xFFFF, size=(100, 2))
        words = pack_event_word(xy_raw)
        np.testing.assert_array_equal(unpack_event_word(words), xy_raw)

    def test_x_in_high_halfword(self):
        word = pack_event_word(np.array([[0x1234, 0x5678]]))
        assert word[0] == 0x12345678

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_event_word(np.array([[0x10000, 0]]))
        with pytest.raises(ValueError):
            pack_event_word(np.array([[-1, 0]]))

    def test_words_fit_32bit_bus(self, rng):
        xy_raw = rng.integers(0, 0xFFFF, size=(10, 2))
        words = pack_event_word(xy_raw)
        assert np.all(words >= 0) and np.all(words <= 0xFFFFFFFF)
