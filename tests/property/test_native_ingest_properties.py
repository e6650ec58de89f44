"""Native event ingest against the numpy constructor, bit for bit.

``EventArray.from_arrays`` packs its columns into 17-byte records and
validates them in one native pass (``eventor_ingest_events``) when the
kernels load; the numpy packing and checks stay as the oracle.  Every
property here builds the same columns both ways and asserts identical
record bytes, or the same exception type and message.  The workloads aim
at the places a byte-copying kernel can diverge from numpy's casts and
checks: NaN, ±inf and −0.0 in every float column, float64 coordinates
that overflow float32, decreasing runs, polarities 0, 2 and −128, ``n``
of 0 and 1, and columns laid out contiguously, as stride-17 record
fields, reversed and every other element.  The validate-only mode runs
over already-packed records at any stride, against a full numpy mask of
all four checks.  Every property runs on each code shape of the kernel
(the ``native_kernels`` fixture): the host's ISA clone and the baseline
and AVX-512 bodies built on their own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.containers import (
    _P_INVALID,
    _T_DECREASING,
    _T_NONFINITE,
    _XY_NONFINITE,
    EVENT_DTYPE,
    _checked,
    _from_arrays,
    _numpy_flags,
    _record_flags,
)

#: Column dtypes in ``t, x, y, p`` order.
DTYPES = tuple(EVENT_DTYPE.fields[f][0] for f in "txyp")
LAYOUTS = ("contiguous", "record_fields", "reversed", "every_other", "reversed_records")
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0]


def outcome(build):
    """``("ok", bytes)`` of the built records, or the exception's type and text."""
    try:
        with np.errstate(all="ignore"):  # float32 overflow casts warn alike
            return "ok", build().tobytes()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


def assert_ingest_matches(kernels, t, x, y, p, sort):
    native = outcome(lambda: _from_arrays(t, x, y, p, sort, kernels).data)
    oracle = outcome(lambda: _from_arrays(t, x, y, p, sort, None).data)
    assert native == oracle
    return native


def lay_out(columns, layout):
    """The same column values at ``layout``'s byte strides."""
    n = len(columns[0])
    if layout == "contiguous":
        return columns
    if layout in ("record_fields", "reversed_records"):
        records = np.empty(n, dtype=EVENT_DTYPE)
        if layout == "reversed_records":
            records = records[::-1]
        for field, column in zip("txyp", columns):
            records[field] = column
        return tuple(records[field] for field in "txyp")
    out = []
    for column in columns:
        if layout == "reversed":
            view = np.ascontiguousarray(column[::-1])[::-1]
        else:  # every_other
            buffer = np.zeros(2 * n + 1, dtype=column.dtype)
            buffer[1::2] = column
            view = buffer[1::2]
        out.append(view)
    return tuple(out)


def packed(t, x, y, p):
    """The columns as contiguous event records (numpy's field assignment)."""
    records = np.empty(len(t), dtype=EVENT_DTYPE)
    for field, column in zip("txyp", (t, x, y, p)):
        records[field] = column
    return records


def full_mask(records):
    """All four check bits of packed records, none short-circuited."""
    t = records["t"]
    mask = 0
    if not np.isfinite(t).all():
        mask |= _T_NONFINITE
    if not (np.isfinite(records["x"]).all() and np.isfinite(records["y"]).all()):
        mask |= _XY_NONFINITE
    if np.any(t[1:] < t[:-1]):
        mask |= _T_DECREASING
    if not np.isin(records["p"], (1, -1)).all():
        mask |= _P_INVALID
    return mask


# ----------------------------------------------------------------------
# Column strategies
# ----------------------------------------------------------------------
@st.composite
def event_columns(draw, max_n=40):
    """``(t, x, y, p)`` at their record dtypes, with drawn defects.

    Timestamps are a non-decreasing cumulative sum (repeats included);
    a drawn share of cases swaps a run to make it decrease, or plants
    NaN, ±inf or −0.0 in any float column, or a polarity of 0, 2 or −128.
    """
    n = draw(st.sampled_from([0, 1, 2, draw(st.integers(0, max_n))]))
    steps = draw(st.lists(st.sampled_from([0.0, 1e-9, 0.25, 3.0]), min_size=n, max_size=n))
    t = draw(st.sampled_from([-1.0, 0.0, 1e6])) + np.cumsum(np.asarray(steps, dtype=np.float64))
    coords = st.floats(-10.0, 250.0, width=32)
    x = np.asarray(draw(st.lists(coords, min_size=n, max_size=n)), dtype=np.float32)
    y = np.asarray(draw(st.lists(coords, min_size=n, max_size=n)), dtype=np.float32)
    p = np.asarray(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)), dtype=np.int8)
    if n:
        index = st.integers(0, n - 1)
        for _ in range(draw(st.integers(0, 3))):
            defect = draw(st.sampled_from(["decrease", "t", "x", "y", "p"]))
            k = draw(index)
            if defect == "decrease" and n > 1:
                j = draw(index)
                t[[k, j]] = t[[j, k]]
            elif defect == "p":
                p[k] = draw(st.sampled_from([0, 2, -128, 127]))
            elif defect in "txy":
                {"t": t, "x": x, "y": y}[defect][k] = draw(st.sampled_from(SPECIAL))
    return t, x, y, p


@given(event_columns(), st.sampled_from(LAYOUTS), st.booleans())
@settings(max_examples=300, deadline=None)
def test_from_arrays_matches_numpy(native_kernels, columns, layout, sort):
    assert_ingest_matches(native_kernels, *lay_out(columns, layout), sort)


@given(
    event_columns(),
    st.lists(st.sampled_from([1e39, -1e39, 3.4028235e38, 3.5e38, 1e-46, -0.0, np.nan]),
             min_size=1, max_size=4),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_float64_coordinates_cast_as_numpy_casts(native_kernels, columns, values, sort):
    """float64 ``x``/``y`` round (or overflow to ±inf) in numpy's cast, before the kernel."""
    t, x, y, p = columns
    x64, y64 = x.astype(np.float64), y.astype(np.float64)
    for k, value in enumerate(values[: len(x64)]):
        (x64 if k % 2 == 0 else y64)[k] = value
    assert_ingest_matches(native_kernels, t, x64, y64, p, sort)


@given(st.lists(st.integers(-300, 300), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_int64_polarities_wrap_as_numpy_wraps(native_kernels, polarities):
    n = len(polarities)
    t, xy = np.arange(n, dtype=np.float64), np.zeros(n)
    assert_ingest_matches(native_kernels, t, xy, xy, np.asarray(polarities, dtype=np.int64), False)


@given(event_columns(), st.sampled_from([slice(None), slice(None, None, -1),
                                         slice(None, None, 2), slice(1, None, 3)]),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_validate_only_matches_numpy(native_kernels, columns, step, sort):
    """The same kernel over packed records (``EventArray.__init__``), at any stride."""
    records = packed(*columns)[step]
    assert native_kernels.check_events(records) == full_mask(records)
    native = outcome(lambda: _checked(records, _record_flags(records, native_kernels), sort))
    oracle = outcome(lambda: _checked(records, _numpy_flags(records), sort))
    assert native == oracle


# ----------------------------------------------------------------------
# Pinned corners
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_tiny_arrays(native_kernels, n, layout):
    columns = tuple(np.ones(n, dtype=dtype) for dtype in DTYPES)
    result = assert_ingest_matches(native_kernels, *lay_out(columns, layout), False)
    assert result[0] == "ok" and len(result[1]) == 17 * n


def test_negative_zero_keeps_its_sign_bit(native_kernels):
    t = np.array([-0.0, 0.0, -0.0])
    x = np.array([-0.0, 1.0, -0.0], dtype=np.float32)
    records = np.frombuffer(
        assert_ingest_matches(native_kernels, t, x, x, np.ones(3, np.int8), False)[1],
        dtype=EVENT_DTYPE,
    )
    assert np.signbit(records["t"]).tolist() == [True, False, True]
    assert np.signbit(records["x"]).tolist() == [True, False, True]


@pytest.mark.parametrize(
    "column, value, message",
    [("t", np.nan, "timestamps must be finite"), ("x", np.inf, "coordinates"),
     ("y", -np.inf, "coordinates"), ("p", 0, "polarity"), ("p", -128, "polarity")],
)
@pytest.mark.parametrize("sort", [False, True])
def test_each_check_raises_the_same_message(native_kernels, column, value, message, sort):
    columns = dict(zip("txyp", (np.arange(5.0), np.zeros(5, np.float32),
                                np.zeros(5, np.float32), np.ones(5, np.int8))))
    columns[column][2] = value
    result = assert_ingest_matches(native_kernels, *columns.values(), sort)
    assert result[0] is ValueError and message in result[1]


def test_first_failing_check_wins(native_kernels):
    """Every defect at once reports the finite-timestamp check, as numpy does."""
    t = np.array([2.0, 1.0, np.nan])
    x = np.array([np.inf, 0.0, 0.0], dtype=np.float32)
    p = np.array([0, 1, 1], dtype=np.int8)
    assert native_kernels.check_events(packed(t, x, x, p)) == 15
    result = assert_ingest_matches(native_kernels, t, x, x, p, True)
    assert result == (ValueError, "event timestamps must be finite")


def test_sort_is_stable_and_only_when_decreasing(native_kernels):
    t = np.array([1.0, 0.5, 0.5, 2.0, 0.5])
    x = np.arange(5, dtype=np.float32)
    result = assert_ingest_matches(native_kernels, t, x, x, np.ones(5, np.int8), True)
    records = np.frombuffer(result[1], dtype=EVENT_DTYPE)
    assert records["x"].tolist() == [1.0, 2.0, 4.0, 0.0, 3.0]
