"""Unit tests for the event containers."""

import numpy as np
import pytest

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
