"""Property-based tests for fixed-point formats and arithmetic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint.fxp import FxpArray
from repro.fixedpoint.qformat import Overflow, QFormat, Rounding

formats = st.integers(4, 31).flatmap(
    lambda total: st.tuples(
        st.just(total),
        st.integers(0, min(16, total - 2)),
        st.booleans(),
    )
).map(lambda spec: QFormat(spec[0], spec[1], spec[2]))

values = st.lists(
    st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=20,
).map(np.array)


class TestQFormatProperties:
    @given(formats, values)
    @settings(max_examples=80)
    def test_quantize_idempotent(self, fmt, vals):
        once = fmt.quantize(vals)
        twice = fmt.quantize(once)
        np.testing.assert_array_equal(once, twice)

    @given(formats, values)
    @settings(max_examples=80)
    def test_quantized_values_in_range(self, fmt, vals):
        q = fmt.quantize(vals)
        assert np.all(q >= fmt.min_value - 1e-12)
        assert np.all(q <= fmt.max_value + 1e-12)

    @given(formats, values)
    @settings(max_examples=80)
    def test_error_bounded_for_in_range_values(self, fmt, vals):
        in_range = np.clip(vals, fmt.min_value, fmt.max_value)
        q = fmt.quantize(in_range)
        assert np.max(np.abs(q - in_range)) <= 0.5 * fmt.resolution + 1e-12

    @given(formats, values)
    @settings(max_examples=80)
    def test_quantize_monotone(self, fmt, vals):
        ordered = np.sort(vals)
        q = fmt.quantize(ordered)
        assert np.all(np.diff(q) >= 0)

    @given(formats, values)
    @settings(max_examples=80)
    def test_floor_never_exceeds_nearest(self, fmt, vals):
        floor = fmt.quantize(vals, rounding=Rounding.FLOOR)
        nearest = fmt.quantize(vals)
        assert np.all(floor <= nearest + 1e-12)

    @given(formats, values)
    @settings(max_examples=80)
    def test_raw_round_trip(self, fmt, vals):
        raw = fmt.to_raw(vals)
        assert np.all(raw >= fmt.raw_min)
        assert np.all(raw <= fmt.raw_max)
        np.testing.assert_array_equal(fmt.to_raw(fmt.from_raw(raw)), raw)


class TestFxpArithmeticProperties:
    small_vals = st.lists(
        st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=10,
    ).map(np.array)

    @given(small_vals, small_vals)
    @settings(max_examples=60)
    def test_addition_exact(self, a_vals, b_vals):
        n = min(len(a_vals), len(b_vals))
        fmt = QFormat(24, 8, signed=True)
        a = FxpArray.from_float(a_vals[:n], fmt)
        b = FxpArray.from_float(b_vals[:n], fmt)
        np.testing.assert_array_equal(
            (a + b).to_float(), a.to_float() + b.to_float()
        )

    @given(small_vals, small_vals)
    @settings(max_examples=60)
    def test_multiplication_exact(self, a_vals, b_vals):
        n = min(len(a_vals), len(b_vals))
        fa = QFormat(16, 7, signed=True)
        fb = QFormat(20, 10, signed=True)
        a = FxpArray.from_float(a_vals[:n], fa)
        b = FxpArray.from_float(np.clip(b_vals[:n], -100, 100), fb)
        np.testing.assert_array_equal(
            (a * b).to_float(), a.to_float() * b.to_float()
        )

    @given(small_vals)
    @settings(max_examples=60)
    def test_resize_then_widen_stable(self, vals):
        """Narrow -> widen -> narrow again is idempotent after first narrow."""
        wide = QFormat(32, 16, signed=True)
        narrow = QFormat(12, 4, signed=True)
        a = FxpArray.from_float(vals, wide)
        once = a.resize(narrow)
        again = once.resize(wide).resize(narrow)
        np.testing.assert_array_equal(once.raw, again.raw)

    @given(small_vals)
    @settings(max_examples=60)
    def test_wrap_and_saturate_agree_in_range(self, vals):
        fmt = QFormat(20, 6, signed=True)
        target = QFormat(12, 3, signed=True)
        in_range = np.clip(vals, target.min_value + 1, target.max_value - 1)
        a = FxpArray.from_float(in_range, fmt)
        sat = a.resize(target, overflow=Overflow.SATURATE)
        wrap = a.resize(target, overflow=Overflow.WRAP)
        np.testing.assert_array_equal(sat.raw, wrap.raw)


# ----------------------------------------------------------------------
# QFormat.quantize's in-range fast path ≡ the integer round trip
# ----------------------------------------------------------------------
from repro.fixedpoint.quantize import (  # noqa: E402
    EVENT_COORD_FORMAT,
    HOMOGRAPHY_FORMAT,
    PHI_FORMAT,
)

TABLE1_FORMATS = (HOMOGRAPHY_FORMAT, PHI_FORMAT, EVENT_COORD_FORMAT)


def edge_values(fmt: QFormat) -> list[float]:
    """The values around which the fast path's test can flip."""
    lsb, half = fmt.resolution, 0.5 * fmt.resolution
    edges = []
    for end in (fmt.min_value, fmt.max_value):
        for offset in (-half, half):
            point = end + offset
            edges += [point, np.nextafter(point, -np.inf), np.nextafter(point, np.inf)]
        edges += [end, end - lsb, end + lsb]
    # (-1/2 LSB, 0] rounds to -0.0 before the cast; -0.0 itself floors to it.
    edges += [-0.0, 0.0, -0.25 * lsb, -half, np.nextafter(-half, 0.0), -5e-324]
    edges += [np.nan, np.inf, -np.inf, 1e19, -1e19, 9.3e18, -9.3e18, 1e300, -1e300]
    return edges


def assert_fast_path_exact(fmt, values, rounding, overflow):
    fast = fmt.quantize(values, rounding, overflow)
    full = fmt.from_raw(fmt.to_raw(values, rounding, overflow))
    assert np.shape(fast) == np.shape(full)
    assert np.asarray(fast).tobytes() == np.asarray(full).tobytes()


@given(
    st.sampled_from(TABLE1_FORMATS),
    st.data(),
    st.sampled_from(list(Rounding)),
    st.sampled_from(list(Overflow)),
)
@settings(max_examples=400, deadline=None)
def test_quantize_fast_path_matches_integer_round_trip(fmt, data, rounding, overflow):
    """Mixed edge and ordinary values: same bytes, signed zeros included."""
    ordinary = st.floats(fmt.min_value - 2.0, fmt.max_value + 2.0)
    pool = st.one_of(ordinary, st.sampled_from(edge_values(fmt)))
    values = np.asarray(data.draw(st.lists(pool, min_size=0, max_size=12)), dtype=float)
    shape = data.draw(st.sampled_from([None, (1, -1)]))
    if shape is not None and values.size:
        values = values.reshape(shape)
    assert_fast_path_exact(fmt, values, rounding, overflow)


@given(st.sampled_from(TABLE1_FORMATS), st.sampled_from(list(Rounding)))
@settings(max_examples=20, deadline=None)
def test_quantize_every_edge_alone(fmt, rounding):
    """Each edge value as its own array and as a 0-d scalar."""
    for value in edge_values(fmt):
        for overflow in Overflow:
            assert_fast_path_exact(fmt, np.array([value]), rounding, overflow)
            assert_fast_path_exact(fmt, np.float64(value), rounding, overflow)
