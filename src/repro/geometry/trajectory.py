"""Camera trajectories with pose interpolation.

EMVS assumes a *known* trajectory (from ground truth, a motion-capture
system, or the tracking half of a SLAM system).  The Event Camera Dataset
provides poses at ~200 Hz; events arrive at MHz rates, so poses at event
timestamps are interpolated (lerp on translation, slerp on rotation).
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.geometry.se3 import SE3, Quaternion


class Trajectory:
    """Time-indexed sequence of camera poses ``T_wc``.

    Timestamps must be strictly increasing.  Sampling outside the time range
    clamps to the first/last pose (events slightly outside the ground-truth
    span are common in the real sequences).

    A trajectory is immutable after construction, which is what lets
    :meth:`content_digest` be computed once per instance.
    """

    def __init__(self, timestamps: Sequence[float], poses: Sequence[SE3]):
        timestamps = np.asarray(timestamps, dtype=float)
        poses = list(poses)
        if timestamps.ndim != 1:
            raise ValueError("timestamps must be a 1-D sequence")
        if len(timestamps) != len(poses):
            raise ValueError(
                f"{len(timestamps)} timestamps but {len(poses)} poses"
            )
        if len(timestamps) == 0:
            raise ValueError("trajectory must contain at least one pose")
        if np.any(np.diff(timestamps) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        self._timestamps = timestamps
        #: Stacked rotations and translations, copied from the poses: the
        #: whole pose state, so a trajectory pickles as three arrays.
        self._rot = np.array([p.rotation for p in poses], dtype=float).reshape(-1, 3, 3)
        self._trans = np.array([p.translation for p in poses], dtype=float).reshape(-1, 3)
        self._digest: str | None = None
        #: Lazily filled rotation tables of :meth:`sample_batch`; derived
        #: from the poses, so never pickled.
        self._tables: _SlerpTables | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_tables"] = None
        return state

    # ------------------------------------------------------------------
    @property
    def timestamps(self) -> np.ndarray:
        return self._timestamps

    @property
    def poses(self) -> list[SE3]:
        """The stored poses, as fresh :class:`SE3` copies."""
        return [SE3(r.copy(), t.copy()) for r, t in zip(self._rot, self._trans)]

    @property
    def t_start(self) -> float:
        return float(self._timestamps[0])

    @property
    def t_end(self) -> float:
        return float(self._timestamps[-1])

    def __len__(self) -> int:
        return len(self._timestamps)

    def __iter__(self) -> Iterable[tuple[float, SE3]]:
        return iter(zip(self._timestamps, self.poses))

    def content_digest(self) -> str:
        """SHA-256 hex digest of the timestamps and every pose.

        Covers the timestamps and the stacked pose rotations and
        translations bit for bit, so trajectories built from identical
        timestamps and poses share a digest and a one-ulp change to any
        of them changes it.  Computed on first use and kept: the cache
        keys of every job and segment on this trajectory reuse it
        instead of re-walking the poses.
        """
        if self._digest is None:
            h = hashlib.sha256(self._timestamps.tobytes())
            h.update(self._rot.tobytes())
            h.update(self._trans.tobytes())
            self._digest = h.hexdigest()
        return self._digest

    # ------------------------------------------------------------------
    def sample(self, t: float) -> SE3:
        """Interpolated pose at time ``t`` (clamped to the trajectory span).

        The one-element case of :meth:`sample_batch`.
        """
        rotations, translations = self.sample_batch([t])
        return SE3(rotations[0], translations[0])

    def sample_batch(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(B, 3, 3)`` rotations and ``(B, 3)`` translations at ``times``.

        The one pose arithmetic of the repo, :meth:`sample` and
        :meth:`positions` included.  A time at or before the first stamp
        (after the last) takes that pose as stored; an interior time
        lerps the translation, ``(1 - alpha) * t_i + alpha * t_{i+1}``,
        and interpolates the rotation as :meth:`SE3.interpolate` does:
        short-arc nlerp for near-parallel quaternions, slerp otherwise,
        then :meth:`Quaternion.to_matrix`.  The per-pose quaternions and
        each interval's short-arc flip, branch, ``theta`` and
        ``sin(theta)`` are computed once per trajectory, bit-identical to
        the scalar code's (see ``_SlerpTables``); per time only the
        alpha-dependent work runs, elementwise, except
        the two steps whose vectorized forms are not bit-stable: the
        slerp weights call libm's ``math.sin`` and the nlerp norm runs
        ``np.linalg.norm``'s ``sqrt(x.dot(x))`` (a BLAS dot), once per
        row.  A NaN time raises ``ValueError``.
        """
        before, after, inside, i, alpha = self._locate(times)
        translations = self._lerp(before, after, inside, i, alpha)
        rotations = np.empty((len(before), 3, 3))
        rotations[before] = self._rot[0]
        rotations[after] = self._rot[-1]
        if len(i):
            rotations[inside] = self._slerp_tables().interpolate(i, alpha)
        return rotations, translations

    def positions(self, times: np.ndarray) -> np.ndarray:
        """``(N, 3)`` interpolated camera positions at many timestamps.

        The translation half of :meth:`sample_batch`, with no rotation
        work.  Key-frame selection reads only positions, so segment
        planning runs on this.
        """
        return self._lerp(*self._locate(times))

    def _locate(self, times: np.ndarray):
        """Clamp masks, interior interval indices and alphas of ``times``."""
        times = np.asarray(times, dtype=float).reshape(-1)
        if np.isnan(times).any():
            raise ValueError("cannot sample a pose at a NaN time")
        ts = self._timestamps
        before = times <= ts[0]
        after = ~before & (times >= ts[-1])
        inside = ~(before | after)
        t = times[inside]
        i = np.searchsorted(ts, t, side="right") - 1
        alpha = (t - ts[i]) / (ts[i + 1] - ts[i])
        return before, after, inside, i, alpha

    def _lerp(self, before, after, inside, i, alpha) -> np.ndarray:
        """Translations of located times: stored ends, lerped interior."""
        out = np.empty((len(before), 3))
        out[before] = self._trans[0]
        out[after] = self._trans[-1]
        if len(i):
            a = alpha[:, None]
            out[inside] = (1.0 - a) * self._trans[i] + a * self._trans[i + 1]
        return out

    def _slerp_tables(self) -> "_SlerpTables":
        if self._tables is None:
            self._tables = _SlerpTables(self._rot)
        return self._tables

    def transformed(self, offset: SE3) -> "Trajectory":
        """Trajectory of a frame rigidly mounted at ``offset`` from this one.

        Composes every pose on the right: if this trajectory is a rig
        body's ``T_w_rig(t)`` and ``offset`` is a camera's mounting
        extrinsic ``T_rig_cam``, the result is the camera's own world
        trajectory ``T_w_cam(t) = T_w_rig(t) @ T_rig_cam`` at the same
        timestamps.  Composition happens at the stored poses (not after
        interpolation), so the returned trajectory is an ordinary
        :class:`Trajectory` — samples interpolate between *composed*
        poses, and two callers composing the same extrinsic get
        bit-identical poses.  ``transformed(SE3.identity())`` is exact:
        every rotation and translation round-trips bit-for-bit.
        """
        if not isinstance(offset, SE3):
            raise TypeError("offset must be an SE3 extrinsic")
        return Trajectory(self._timestamps, [p @ offset for p in self.poses])

    def subsampled(self, step: int) -> "Trajectory":
        """Every ``step``-th pose (always keeping the last one)."""
        if step < 1:
            raise ValueError("step must be >= 1")
        idx = list(range(0, len(self), step))
        if idx[-1] != len(self) - 1:
            idx.append(len(self) - 1)
        poses = self.poses
        return Trajectory(self._timestamps[idx], [poses[i] for i in idx])

    def path_length(self) -> float:
        """Total translational distance travelled."""
        return float(np.sum(np.linalg.norm(np.diff(self._trans, axis=0), axis=1)))

    def perturbed(
        self,
        translation_std: float = 0.0,
        rotation_std: float = 0.0,
        seed: int = 0,
    ) -> "Trajectory":
        """Trajectory with zero-mean Gaussian pose noise.

        Models the pose error of a real tracking front-end (EMVS assumes a
        *known* trajectory; its sensitivity to pose error bounds how good
        the tracker feeding it must be).  ``translation_std`` is in metres
        per axis; ``rotation_std`` is the std-dev of a random axis-angle
        perturbation in radians.
        """
        if translation_std < 0 or rotation_std < 0:
            raise ValueError("noise magnitudes must be non-negative")
        rng = np.random.default_rng(seed)
        poses = []
        for pose in self.poses:
            t = pose.translation + translation_std * rng.standard_normal(3)
            rot = pose.rotation
            if rotation_std > 0:
                axis = rng.standard_normal(3)
                axis /= max(np.linalg.norm(axis), 1e-12)
                angle = rotation_std * rng.standard_normal()
                rot = (
                    Quaternion.from_axis_angle(axis, angle).to_matrix() @ rot
                )
            poses.append(SE3(rot, t))
        return Trajectory(self._timestamps, poses)


class _SlerpTables:
    """Per-pose quaternions and per-interval slerp constants, filled lazily.

    Every value equals what the scalar code :meth:`SE3.interpolate` runs
    computes (``SE3.quaternion().as_array()``, then
    :meth:`Quaternion.slerp`'s dot, short-arc flip, branch test, ``acos``
    and ``sin``): the quaternions come from the elementwise
    :func:`_quaternions_from_matrices`, the dot from one BLAS call per
    interval and ``acos``/``sin`` from libm per slerp interval.  The
    intervals a batch of times needs are filled the first time any of
    them is sampled, so no time repeats the work.
    """

    def __init__(self, rotations: np.ndarray):
        n = len(rotations)
        self.rotations = rotations
        self.quats = np.empty((n, 4))
        self.have_quat = np.zeros(n, dtype=bool)
        m = max(n - 1, 0)
        #: Interval ``i``'s end quaternions, the second one short-arc flipped.
        self.q0 = np.empty((m, 4))
        self.q1 = np.empty((m, 4))
        self.nlerp = np.empty(m, dtype=bool)
        self.theta = np.empty(m)
        self.sin_theta = np.empty(m)
        self.have_interval = np.zeros(m, dtype=bool)

    def _fill(self, intervals: np.ndarray) -> None:
        todo = np.unique(intervals[~self.have_interval[intervals]])
        if not len(todo):
            return
        ends = np.union1d(todo, todo + 1)
        new = ends[~self.have_quat[ends]]
        if len(new):
            self.quats[new] = _quaternions_from_matrices(self.rotations[new])
            self.have_quat[new] = True
        q0, q1 = self.quats[todo], self.quats[todo + 1]
        # One BLAS dot per interval, as the scalar path runs it: its
        # summation order is the host's, so it is not vectorized.
        dot = np.array([a.dot(b) for a, b in zip(q0, q1)])
        flip = dot < 0.0  # take the short arc
        q1[flip] = -q1[flip]
        dot[flip] = -dot[flip]
        nlerp = dot > 1.0 - 1e-10
        for i, d in zip(todo[~nlerp].tolist(), dot[~nlerp].tolist()):
            self.theta[i] = math.acos(min(1.0, d))
            self.sin_theta[i] = math.sin(self.theta[i])
        self.q0[todo] = q0
        self.q1[todo] = q1
        self.nlerp[todo] = nlerp
        self.have_interval[todo] = True

    def interpolate(self, i: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """``(B, 3, 3)`` interpolated rotations of interval ``i[k]`` at ``alpha[k]``."""
        self._fill(i)
        q0, q1 = self.q0[i], self.q1[i]
        q = np.empty((len(i), 4))
        nlerp = self.nlerp[i]
        if nlerp.any():
            a = alpha[nlerp, None]
            qn = (1.0 - a) * q0[nlerp] + a * q1[nlerp]
            # np.linalg.norm's own 1-D arithmetic, sqrt(x.dot(x)): one
            # BLAS dot per row, as the scalar path runs it.
            norms = np.sqrt(np.array([row.dot(row) for row in qn]))
            q[nlerp] = qn / norms[:, None]
        slerp = ~nlerp
        if slerp.any():
            a, iv = alpha[slerp], i[slerp]
            theta, sin_theta = self.theta[iv], self.sin_theta[iv]
            w0 = np.array([math.sin(v) for v in ((1.0 - a) * theta).tolist()])
            w1 = np.array([math.sin(v) for v in (a * theta).tolist()])
            q[slerp] = (w0 / sin_theta)[:, None] * q0[slerp] + (
                w1 / sin_theta
            )[:, None] * q1[slerp]
        for k in np.flatnonzero(~_near_unit(q)).tolist():
            q[k] = Quaternion(*q[k]).as_array()
        return _matrices_from_quaternions(q)


def _quaternions_from_matrices(m: np.ndarray) -> np.ndarray:
    """``Quaternion.from_matrix(R).as_array()`` over ``(K, 3, 3)`` rows.

    Shepperd's four branches, elementwise in the scalar code's operation
    order (``sqrt`` is correctly rounded either way; each branch's
    radicand is positive for any finite matrix).  A row whose radicand is
    NaN, or whose quaternion is not :func:`_near_unit`, goes through the
    scalar code itself.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.transpose(1, 2, 0)
    trace = m00 + m11 + m22
    first = trace > 0.0
    second = ~first & (m00 > m11) & (m00 > m22)
    third = ~(first | second) & (m11 > m22)
    fourth = ~(first | second | third)
    radicand = np.select(
        [first, second, third],
        [trace + 1.0, 1.0 + m00 - m11 - m22, 1.0 + m11 - m00 - m22],
        1.0 + m22 - m00 - m11,
    )
    odd = np.isnan(radicand)
    s = np.sqrt(radicand) * 2.0
    q = np.empty((len(m), 4))
    for rows, row in (
        (first, (0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s)),
        (second, ((m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s)),
        (third, ((m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s)),
        (fourth, ((m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s)),
    ):
        q[rows] = np.stack(row, axis=1)[rows]
    for k in np.flatnonzero(odd | ~_near_unit(q)).tolist():
        q[k] = Quaternion.from_matrix(m[k]).as_array()
    return q


def _near_unit(q: np.ndarray) -> np.ndarray:
    """Rows of ``(K, 4)`` quaternions within 1e-10 of the unit sphere.

    ``Quaternion``'s constructor renormalizes when its own norm is more
    than 1e-9 off; a row within 1e-10 here is within 1e-9 there too (the
    two norms differ by a few ulps), so it keeps its values and skips
    the constructor.  Every other row (NaN included) goes through it.
    """
    w, x, y, z = q.T
    return np.abs(np.sqrt(w * w + x * x + y * y + z * z) - 1.0) <= 1e-10


def _matrices_from_quaternions(q: np.ndarray) -> np.ndarray:
    """:meth:`Quaternion.to_matrix` over ``(B, 4)`` rows, elementwise."""
    w, x, y, z = q.T
    m = np.empty((len(q), 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def linear_trajectory(
    start: np.ndarray,
    end: np.ndarray,
    duration: float,
    n_poses: int = 100,
    rotation: Quaternion | None = None,
    t_start: float = 0.0,
) -> Trajectory:
    """Straight-line constant-velocity trajectory (the ``slider_*`` motion).

    The Event Camera Dataset's slider sequences move a DAVIS on a motorized
    linear slider with fixed orientation; this helper reproduces that motion
    profile exactly.
    """
    if n_poses < 2:
        raise ValueError("need at least two poses")
    rot = (rotation or Quaternion.identity()).to_matrix()
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    times = t_start + np.linspace(0.0, duration, n_poses)
    alphas = np.linspace(0.0, 1.0, n_poses)
    poses = [SE3(rot, (1 - a) * start + a * end) for a in alphas]
    return Trajectory(times, poses)
