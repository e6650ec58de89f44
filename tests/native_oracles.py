"""Numpy oracles for the native kernels.

``nearest_reference`` and ``canonical_reference`` are the per-frame numpy
paths each compiled kernel must equal bit for bit; the ``assert_*``
helpers run one kernel set (any code shape of the library, see the
``native_kernels`` fixture in ``tests/conftest.py``) against them.
"""

from __future__ import annotations

import numpy as np

from repro.core.backprojection import BackProjector, BatchFrameParameters
from repro.core.voting import vote_nearest_into
from repro.events.containers import EVENT_DTYPE
from repro.fixedpoint.quantize import EVENTOR_SCHEMA
from repro.geometry.camera import PinholeCamera
from repro.geometry.homography import apply_proportional
from repro.geometry.se3 import SE3


def nearest_reference(phi, uv0, valid, shape):
    """``(counts, votes)`` of the per-frame numpy path.

    ``counts`` is the int64 ``(Nz*H*W,)`` DSI the native int32 counts must
    widen to; rows with ``valid == 0`` cast no vote whatever their ``uv0``.
    """
    flat = np.zeros(int(np.prod(shape)), dtype=np.int64)
    votes = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for b in range(uv0.shape[0]):
            u, v = apply_proportional(phi[b], uv0[b])
            u[~valid[b]] = np.nan
            v[~valid[b]] = np.nan
            votes += vote_nearest_into(flat, u, v, shape)
    return flat, votes


def assert_nearest_matches_numpy(kernels, phi, uv0, valid, shape):
    """Native nearest voting equals the numpy path: every count and the total."""
    ref_counts, ref_votes = nearest_reference(phi, uv0, valid, shape)
    counts = np.zeros(ref_counts.size, dtype=np.int32)
    votes = kernels.vote_nearest_batch(phi, uv0, valid, counts, shape)
    np.testing.assert_array_equal(counts.astype(np.int64), ref_counts)
    assert votes == ref_votes
    return votes


_PROJECTOR = BackProjector(
    PinholeCamera.davis240c(), SE3.identity(), np.linspace(0.5, 5.0, 4), EVENTOR_SCHEMA
)


def canonical_reference(H, x, y):
    """``(uv0, valid)`` of :meth:`BackProjector.canonical_batch` under Table 1."""
    params = BatchFrameParameters(H_Z0=H, phi=np.zeros((H.shape[0], 4, 3)))
    xy = np.stack([x, y], axis=-1).astype(float)
    with np.errstate(all="ignore"):
        return _PROJECTOR.canonical_batch(params, xy)


def assert_canonical_matches_numpy(kernels, H, x, y):
    """Native ``P_Z0`` of the ``(B, N)`` float32 coordinates through ``H``.

    ``uv0`` is compared as int64 bit patterns (so ``-0.0`` vs ``+0.0``
    shows), plus ``valid`` and the miss count.
    """
    H = np.asarray(H, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=np.float32))
    y = np.atleast_2d(np.asarray(y, dtype=np.float32))
    b, n = x.shape
    records = np.zeros(b * n, dtype=EVENT_DTYPE)
    records["x"] = x.ravel()
    records["y"] = y.ravel()
    frames = [records[k * n : (k + 1) * n] for k in range(b)]
    uv_ref, valid_ref = canonical_reference(H, x, y)
    uv0 = np.empty((b, n, 2))
    valid = np.empty((b, n), dtype=bool)
    misses = kernels.canonical_q_batch(H, frames, EVENTOR_SCHEMA, uv0, valid)
    np.testing.assert_array_equal(uv0.view(np.int64), uv_ref.view(np.int64))
    np.testing.assert_array_equal(valid, valid_ref)
    assert misses == np.count_nonzero(~valid_ref)
    return uv0, valid
