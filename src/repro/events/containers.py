"""Event containers.

An *event* ``e_k = <x_k, y_k, t_k, p_k>`` encodes a logarithmic-brightness
change at pixel ``(x_k, y_k)`` at time ``t_k`` with polarity ``p_k``
(+1 brighter, -1 darker).  :class:`EventArray` stores a time-sorted batch of
events as a numpy structured array for cache-friendly bulk processing.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence

import numpy as np

#: Structured dtype of one event.  ``x``/``y`` are float32 because the
#: reformulated dataflow stores *undistorted* (sub-pixel) coordinates.
EVENT_DTYPE = np.dtype(
    [("t", np.float64), ("x", np.float32), ("y", np.float32), ("p", np.int8)]
)


#: Bits of the validation mask both ingest paths compute, one per check
#: :class:`EventArray` enforces (the ``INGEST_*`` flags of the native
#: ``eventor_ingest_events`` kernel).
_T_NONFINITE, _XY_NONFINITE, _T_DECREASING, _P_INVALID = 1, 2, 4, 8


def _native_kernels():
    """The loaded native kernels, or ``None``.

    Imported lazily, so ``repro.events`` stays importable without the
    native layer; the provider caches its load for the process.
    """
    try:
        from repro.native import get_kernels
    except ImportError:
        return None
    return get_kernels()


def _numpy_flags(data: np.ndarray) -> int:
    """The validation mask of packed records, in numpy (the kernel's oracle).

    Stops at the first non-finite column: :func:`_checked` raises on it
    before it reads any later bit.
    """
    # NaN compares False, so the monotonicity check cannot see it.
    if not np.all(np.isfinite(data["t"])):
        return _T_NONFINITE
    if not (np.all(np.isfinite(data["x"])) and np.all(np.isfinite(data["y"]))):
        return _XY_NONFINITE
    flags = 0
    if len(data) > 1 and np.any(np.diff(data["t"]) < 0):
        flags |= _T_DECREASING
    p = data["p"]
    if len(data) > 0 and not np.all((p == 1) | (p == -1)):
        flags |= _P_INVALID
    return flags


def _record_flags(data: np.ndarray, kernels) -> int:
    """The validation mask of packed records: one native pass, or numpy."""
    if kernels is not None and data.ndim == 1:
        return kernels.check_events(data)
    return _numpy_flags(data)


def _checked(data: np.ndarray, flags: int, sort: bool) -> np.ndarray:
    """Raise the first failing check of ``flags``, or sort; the records.

    The one error path of both ingest paths.  The checks run in a fixed
    order (finite timestamps, finite coordinates, non-decreasing
    timestamps, polarity); ``sort`` replaces the monotonicity error with
    a stable sort by timestamp, made only when some timestamp decreases.
    """
    if flags & _T_NONFINITE:
        raise ValueError("event timestamps must be finite")
    if flags & _XY_NONFINITE:
        raise ValueError("event coordinates must be finite")
    if flags & _T_DECREASING:
        if not sort:
            raise ValueError("event timestamps must be non-decreasing")
        data = data[np.argsort(data["t"], kind="stable")]
    if flags & _P_INVALID:
        raise ValueError("event polarity must be +1 or -1")
    return data


def _from_arrays(t, x, y, p, sort: bool, kernels) -> "EventArray":
    """:meth:`EventArray.from_arrays` on ``kernels`` (``None``: numpy).

    Casting is numpy's on both paths (float64 -> float32 rounding, int8
    wrap, byte order), so the kernel only copies bytes; columns that are
    not all 1-D of one length (scalars to broadcast, mismatches to
    report) take numpy's assignment.
    """
    t = np.asarray(t, dtype=np.float64)
    n = t.shape[0]
    x = np.asarray(x, dtype=np.float32)
    y = np.asarray(y, dtype=np.float32)
    p = np.asarray(p, dtype=np.int8)
    data = np.empty(n, dtype=EVENT_DTYPE)
    if kernels is not None and all(c.shape == (n,) for c in (t, x, y, p)):
        flags = kernels.pack_events(t, x, y, p, data)
    else:
        data["t"] = t
        data["x"] = x
        data["y"] = y
        data["p"] = p
        flags = _numpy_flags(data)
    return EventArray(_checked(data, flags, sort), validate=False)


class EventArray:
    """Immutable time-sorted array of events.

    Construction validates finite monotonic timestamps, finite
    coordinates and polarities in one pass over the records: the native
    ``eventor_ingest_events`` kernel when the kernels load, numpy
    otherwise, with one error path (the same messages, in the same
    order) for both.  All accessors return views where possible.
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray, *, validate: bool = True, sort: bool = False):
        data = np.asarray(data)
        if data.dtype != EVENT_DTYPE:
            raise TypeError(
                f"EventArray requires dtype {EVENT_DTYPE}, got {data.dtype}; "
                "use EventArray.from_arrays to build from columns"
            )
        if validate:
            data = _checked(data, _record_flags(data, _native_kernels()), sort)
        elif sort and len(data) > 1 and np.any(np.diff(data["t"]) < 0):
            data = data[np.argsort(data["t"], kind="stable")]
        self._data = data
        self._data.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_arrays(
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        p: np.ndarray,
        *,
        sort: bool = False,
    ) -> "EventArray":
        """Pack ``(t, x, y, p)`` columns into validated event records.

        Each column is cast by numpy (``t`` float64, ``x``/``y`` float32,
        ``p`` int8); the native kernel then packs the 17-byte records and
        validates them in one read of the columns, at any column stride
        (strided field views of another record array included).  Without
        the kernels numpy packs and validates, byte-identically.
        ``sort=True`` stably sorts by timestamp instead of rejecting a
        decreasing one.
        """
        return _from_arrays(t, x, y, p, sort, _native_kernels())

    @staticmethod
    def empty() -> "EventArray":
        return EventArray(np.empty(0, dtype=EVENT_DTYPE))

    @staticmethod
    def concatenate(parts: Sequence["EventArray"]) -> "EventArray":
        """Concatenate time-ordered parts (their spans must not interleave)."""
        if not parts:
            return EventArray.empty()
        data = np.concatenate([p.data for p in parts])
        return EventArray(data)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def t(self) -> np.ndarray:
        return self._data["t"]

    @property
    def x(self) -> np.ndarray:
        return self._data["x"]

    @property
    def y(self) -> np.ndarray:
        return self._data["y"]

    @property
    def p(self) -> np.ndarray:
        return self._data["p"]

    @property
    def xy(self) -> np.ndarray:
        """``(N, 2)`` float64 pixel coordinates (copy)."""
        return np.stack(
            [self._data["x"].astype(float), self._data["y"].astype(float)], axis=1
        )

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, key) -> "EventArray":
        result = self._data[key]
        if result.ndim == 0:  # single event: keep container semantics
            result = result.reshape(1)
        return EventArray(np.ascontiguousarray(result), validate=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventArray):
            return NotImplemented
        return len(self) == len(other) and bool(np.all(self._data == other._data))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if len(self) == 0:
            return "EventArray(empty)"
        return (
            f"EventArray(n={len(self)}, "
            f"t=[{self.t[0]:.6f}, {self.t[-1]:.6f}])"
        )

    def content_digest(self, start: int | None = None, stop: int | None = None) -> str:
        """SHA-256 over the packed event records (hex).

        Two arrays digest equally iff every ``(t, x, y, p)`` record is
        bit-identical in the same order — the identity the serving
        layer's result cache keys streams by.

        ``start``/``stop`` digest a contiguous slice of the records
        without materializing a new container, and the slice digest
        equals the digest of the standalone sliced array::

            events.content_digest(a, b) == events[a:b].content_digest()

        — the per-segment identity the serving layer's segment cache
        keys frame-aligned :class:`~repro.core.engine.SegmentPlan`
        slices by.
        """
        import hashlib

        data = self._data
        if start is not None or stop is not None:
            data = data[slice(start, stop)]
        digest = hashlib.sha256()
        digest.update(str(len(data)).encode())
        digest.update(memoryview(np.ascontiguousarray(data)).cast("B"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def t_start(self) -> float:
        if len(self) == 0:
            raise ValueError("empty event array has no time span")
        return float(self._data["t"][0])

    @property
    def t_end(self) -> float:
        if len(self) == 0:
            raise ValueError("empty event array has no time span")
        return float(self._data["t"][-1])

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start if len(self) else 0.0

    def event_rate(self) -> float:
        """Mean event rate in events/second."""
        if len(self) < 2 or self.duration == 0.0:
            return 0.0
        return len(self) / self.duration

    def time_slice(self, t0: float, t1: float) -> "EventArray":
        """Events with ``t0 <= t < t1`` (binary search, O(log n) + view).

        ``bisect`` probes the strided ``t`` field in place, where
        ``np.searchsorted`` would first copy the whole column.  A NaN
        bound sorts past every timestamp, as it does in numpy.
        """
        ts = self._data["t"]
        i0, i1 = (len(ts) if t != t else bisect.bisect_left(ts, t) for t in (t0, t1))
        return EventArray(self._data[i0:i1], validate=False)

    def crop_to_sensor(self, width: int, height: int) -> "EventArray":
        """Drop events outside the sensor (can appear after undistortion)."""
        x, y = self._data["x"], self._data["y"]
        keep = (x >= 0) & (x <= width - 1) & (y >= 0) & (y <= height - 1)
        return EventArray(np.ascontiguousarray(self._data[keep]), validate=False)

    def with_coordinates(self, xy: np.ndarray) -> "EventArray":
        """Copy with replaced pixel coordinates (e.g. after undistortion)."""
        xy = np.asarray(xy, dtype=float)
        if xy.shape != (len(self), 2):
            raise ValueError(f"expected coordinates of shape ({len(self)}, 2)")
        data = self._data.copy()
        data["x"] = xy[:, 0].astype(np.float32)
        data["y"] = xy[:, 1].astype(np.float32)
        return EventArray(data, validate=False)

    def polarity_split(self) -> tuple["EventArray", "EventArray"]:
        """(positive, negative) event sub-arrays."""
        pos = self._data["p"] == 1
        return (
            EventArray(np.ascontiguousarray(self._data[pos]), validate=False),
            EventArray(np.ascontiguousarray(self._data[~pos]), validate=False),
        )
