"""Unit tests for the event containers."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from repro.events import containers
from repro.events.containers import EVENT_DTYPE, EventArray


def make_events(n=10, t0=0.0, dt=0.01):
    t = t0 + dt * np.arange(n)
    x = np.arange(n, dtype=float) % 240
    y = (np.arange(n, dtype=float) * 3) % 180
    p = np.where(np.arange(n) % 2 == 0, 1, -1)
    return EventArray.from_arrays(t, x, y, p)


class TestConstruction:
    def test_from_arrays_and_len(self):
        ev = make_events(5)
        assert len(ev) == 5

    def test_dtype_enforced(self):
        with pytest.raises(TypeError):
            EventArray(np.zeros(3))

    def test_rejects_unsorted_timestamps(self):
        with pytest.raises(ValueError):
            EventArray.from_arrays([1.0, 0.5], [0, 0], [0, 0], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sort", [False, True])
    def test_rejects_non_finite_timestamps(self, bad, sort):
        # NaN passes the np.diff monotonicity check (comparisons are False);
        # the coordinate columns are held to the same rule.
        for column in ("t", "x", "y"):
            cols = {"t": [0.0, 0.25, 0.5], "x": [0.0] * 3, "y": [0.0] * 3}
            cols[column][1] = bad
            with pytest.raises(ValueError, match="finite"):
                EventArray.from_arrays(cols["t"], cols["x"], cols["y"], [1] * 3, sort=sort)

    def test_unvalidated_construction_skips_finite_check(self):
        data = EventArray.from_arrays([0.0, 0.5], [0, 0], [0, 0], [1, 1]).data.copy()
        data["t"][1] = np.nan
        assert len(EventArray(data, validate=False)) == 2

    def test_sort_flag_sorts(self):
        ev = EventArray.from_arrays([1.0, 0.5], [1, 2], [3, 4], [1, -1], sort=True)
        assert ev.t[0] == pytest.approx(0.5)
        assert ev.x[0] == pytest.approx(2.0)

    def test_rejects_bad_polarity(self):
        with pytest.raises(ValueError):
            EventArray.from_arrays([0.0], [0], [0], [0])

    def test_empty(self):
        ev = EventArray.empty()
        assert len(ev) == 0
        assert ev.event_rate() == 0.0

    def test_immutable(self):
        ev = make_events(3)
        with pytest.raises(ValueError):
            ev.data["t"][0] = 99.0


class TestAccessors:
    def test_time_span(self):
        ev = make_events(11, t0=1.0, dt=0.1)
        assert ev.t_start == pytest.approx(1.0)
        assert ev.t_end == pytest.approx(2.0)
        assert ev.duration == pytest.approx(1.0)

    def test_empty_span_raises(self):
        with pytest.raises(ValueError):
            _ = EventArray.empty().t_start

    def test_event_rate(self):
        ev = make_events(101, dt=0.01)  # 101 events over 1 second
        assert ev.event_rate() == pytest.approx(101.0)

    def test_xy_shape_and_values(self):
        ev = make_events(4)
        xy = ev.xy
        assert xy.shape == (4, 2)
        np.testing.assert_allclose(xy[:, 0], ev.x)

    def test_getitem_slice(self):
        ev = make_events(10)
        sub = ev[2:5]
        assert len(sub) == 3
        assert sub.t[0] == pytest.approx(ev.t[2])

    def test_getitem_scalar_keeps_container(self):
        ev = make_events(10)
        one = ev[3]
        assert isinstance(one, EventArray)
        assert len(one) == 1


class TestOperations:
    def test_time_slice_half_open(self):
        ev = make_events(10, dt=0.1)  # t = 0.0 .. 0.9
        sub = ev.time_slice(0.2, 0.5)
        assert len(sub) == 3  # 0.2, 0.3, 0.4
        assert sub.t_start == pytest.approx(0.2)

    def test_time_slice_empty_window(self):
        ev = make_events(10, dt=0.1)
        assert len(ev.time_slice(5.0, 6.0)) == 0

    def test_time_slice_matches_searchsorted_bounds(self):
        """Bounds on exact (and repeated) timestamps, between events,
        outside the span and NaN select what ``np.searchsorted`` does."""
        t = np.repeat(np.arange(50) * 0.1, 3)  # every timestamp thrice
        ev = EventArray.from_arrays(t, np.zeros(150), np.zeros(150), np.ones(150))
        bounds = [t[0], t[9], t[-1], t[9] + 0.05, -1.0, 10.0, np.nan, -np.inf, np.inf]
        for t0 in bounds:
            for t1 in bounds:
                i0, i1 = np.searchsorted(t, [t0, t1], side="left")
                assert ev.time_slice(t0, t1) == ev[i0:i1]

    def test_time_slice_does_not_copy_the_time_column(self):
        """A slice of a 1 M-event array allocates no column copy
        (``np.searchsorted`` on the strided field would take 8 MB)."""
        import tracemalloc

        n = 1_000_000
        ev = EventArray.from_arrays(
            np.linspace(0.0, 1.0, n), np.zeros(n), np.zeros(n), np.ones(n)
        )
        tracemalloc.start()
        try:
            sub = ev.time_slice(0.25, 0.75)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len(sub) == int(np.searchsorted(ev.t, 0.75)) - int(np.searchsorted(ev.t, 0.25))

    def test_concatenate(self):
        a = make_events(5, t0=0.0)
        b = make_events(5, t0=1.0)
        both = EventArray.concatenate([a, b])
        assert len(both) == 10

    def test_concatenate_empty_list(self):
        assert len(EventArray.concatenate([])) == 0

    def test_crop_to_sensor(self):
        ev = EventArray.from_arrays(
            [0.0, 0.1, 0.2], [-1.0, 120.0, 260.0], [5.0, 5.0, 5.0], [1, 1, 1]
        )
        kept = ev.crop_to_sensor(240, 180)
        assert len(kept) == 1
        assert kept.x[0] == pytest.approx(120.0)

    def test_with_coordinates(self):
        ev = make_events(3)
        new_xy = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        moved = ev.with_coordinates(new_xy)
        np.testing.assert_allclose(moved.xy, new_xy)
        # original untouched
        assert ev.x[0] == pytest.approx(0.0)

    def test_with_coordinates_shape_checked(self):
        with pytest.raises(ValueError):
            make_events(3).with_coordinates(np.zeros((2, 2)))

    def test_polarity_split(self):
        ev = make_events(10)
        pos, neg = ev.polarity_split()
        assert len(pos) == 5
        assert np.all(pos.p == 1)
        assert np.all(neg.p == -1)

    def test_equality(self):
        a = make_events(5)
        b = make_events(5)
        assert a == b
        assert not (a == make_events(6))


def tobytes_digest(data: np.ndarray) -> str:
    """``content_digest``'s formula as it was first written (a packed copy)."""
    digest = hashlib.sha256()
    digest.update(str(len(data)).encode())
    digest.update(np.ascontiguousarray(data).tobytes())
    return digest.hexdigest()


class TestContentDigest:
    """The digest hashes the records' buffer in place; its value is the
    packed-copy formula's, which persisted segment-cache keys depend on."""

    @pytest.mark.parametrize("n", [0, 1, 17, 1000])
    def test_whole_array_equals_the_copy_formula(self, n):
        events = make_events(n)
        assert events.content_digest() == tobytes_digest(events.data)

    @pytest.mark.parametrize("start, stop", [(0, 0), (3, 3), (2, 9), (None, 5), (7, None)])
    def test_slices_equal_the_copy_formula(self, start, stop):
        events = make_events(12)
        expected = tobytes_digest(events.data[start:stop])
        assert events.content_digest(start, stop) == expected
        assert events[start:stop].content_digest() == expected

    def test_non_contiguous_records_equal_the_copy_formula(self):
        data = make_events(20).data
        for records in (data[::3], data[::-2], data[[5, 1, 1, 19]]):
            assert EventArray(records, validate=False).content_digest() == tobytes_digest(records)


class TestIngestPaths:
    """``from_arrays`` and validation run natively when the kernels load and
    in numpy otherwise; both give the same records and the same errors."""

    def test_numpy_path_when_the_kernels_are_absent(self, monkeypatch):
        native = make_events(50)
        monkeypatch.setattr(containers, "_native_kernels", lambda: None)
        numpy = make_events(50)
        assert numpy.data.tobytes() == native.data.tobytes()
        with pytest.raises(ValueError, match="non-decreasing"):
            EventArray.from_arrays([1.0, 0.5], [0, 0], [0, 0], [1, 1])

    def test_scalar_columns_broadcast(self):
        events = EventArray.from_arrays([0.0, 1.0, 2.0], 4.0, 5.0, 1)
        assert events.x.tolist() == [4.0] * 3 and events.p.tolist() == [1] * 3

    def test_mismatched_columns_raise_numpys_broadcast_error(self):
        with pytest.raises(ValueError, match="broadcast"):
            EventArray.from_arrays([0.0, 1.0], [0.0] * 3, [0.0] * 2, [1] * 2)

    def test_decreasing_and_bad_polarity_reports_the_order(self):
        # Monotonicity is checked before polarity; a sort clears it first.
        t, xy, p = [1.0, 0.5], [0.0, 0.0], [1, 0]
        with pytest.raises(ValueError, match="non-decreasing"):
            EventArray.from_arrays(t, xy, xy, p)
        with pytest.raises(ValueError, match="polarity"):
            EventArray.from_arrays(t, xy, xy, p, sort=True)

    def test_concatenate_validates_the_joined_records(self):
        a, b = make_events(5, t0=1.0), make_events(5, t0=0.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            EventArray.concatenate([a, b])
        assert len(EventArray.concatenate([b, a])) == 10

    def test_events_import_without_the_native_layer(self):
        code = (
            "import sys; sys.modules['repro.native'] = None\n"
            "from repro.events import EventArray\n"
            "e = EventArray.from_arrays([0.0, 1.0], [1.0, 2.0], [3.0, 4.0], [1, -1])\n"
            "assert len(EventArray.concatenate([e, e[1:]])) == 3\n"
            "assert 'repro.native.cext' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
