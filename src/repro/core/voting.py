"""Volumetric ray-counting (stage ``R``): DSI voting kernels.

Two voting schemes, matching Sec. 2.2 of the paper:

* **Bilinear voting** — each back-projected point spreads a unit vote over
  its four nearest voxels on the depth plane, weighted by proximity (like
  bilinear interpolation).  This is the reference EMVS behaviour.
* **Nearest voting** — each point casts a single integral vote into its
  nearest voxel.  Cheaper (one read-modify-write instead of four, integer
  scores) and the scheme Eventor implements; Fig. 4a shows the accuracy
  cost is ~1 % AbsRel.

The kernels accumulate *in place* into the DSI's flat score buffer.  A
frame touches at most ``frame_size * Nz`` voxels (~10^5), far fewer than
the volume (~4*10^6), so scatter-adds into the existing buffer beat
materializing per-frame count volumes by two orders of magnitude.
``np.ufunc.at`` handles the duplicate-index accumulation (and is fast on
NumPy >= 1.25, where it gained a specialized loop).
"""

from __future__ import annotations

import enum

import numpy as np


class VotingMethod(enum.Enum):
    """The two DSI voting schemes of the paper's Fig. 3 comparison."""
    BILINEAR = "bilinear"
    NEAREST = "nearest"


def _plane_index_grid(u: np.ndarray) -> np.ndarray:
    """(N, Nz) array whose entry [k, i] is the plane index i."""
    n, nz = u.shape
    return np.broadcast_to(np.arange(nz, dtype=np.int64)[None, :], (n, nz))


def _scatter_add(flat: np.ndarray, indices: np.ndarray, weights: np.ndarray | None) -> None:
    """``flat[indices] += weights`` with duplicate indices handled correctly."""
    if indices.size == 0:
        return
    if weights is None:
        np.add.at(flat, indices, 1)
    else:
        np.add.at(flat, indices, weights)


def nearest_vote_indices(
    u: np.ndarray,
    v: np.ndarray,
    shape: tuple[int, int, int],
) -> np.ndarray:
    """Flat DSI indices of the nearest-voxel votes (one per hit).

    Rounds half-up (``floor(x + 0.5)``), exactly like the accelerator's
    Nearest Voxel Finder, then bounds-checks the *integer* — keeping the
    software reference bit-compatible with the hardware model.  Non-finite
    coordinates mark projection misses and produce no index.
    """
    nz, h, w = shape
    if u.shape != v.shape or u.shape[1] != nz:
        raise ValueError("coordinate arrays must be (N, Nz) matching the DSI")
    finite = np.isfinite(u) & np.isfinite(v)
    with np.errstate(invalid="ignore"):
        iu = np.floor(np.where(finite, u, -10.0) + 0.5).astype(np.int64)
        iv = np.floor(np.where(finite, v, -10.0) + 0.5).astype(np.int64)
    valid = finite & (iu >= 0) & (iu < w) & (iv >= 0) & (iv < h)

    iz = _plane_index_grid(u)
    return (iz[valid] * h + iv[valid]) * w + iu[valid]


def vote_nearest_into(
    flat: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    shape: tuple[int, int, int],
) -> int:
    """Nearest-voxel voting into a flat ``(Nz*H*W,)`` score buffer.

    Parameters
    ----------
    flat:
        Flattened DSI scores, modified in place.
    u, v:
        ``(N, Nz)`` pixel coordinates of each event on each depth plane
        (non-finite entries mark projection misses and are skipped).
    shape:
        DSI shape ``(Nz, H, W)``.

    Returns
    -------
    Number of votes cast (in-bounds points).
    """
    lin = nearest_vote_indices(u, v, shape)
    _scatter_add(flat, lin, None)
    return int(lin.size)


def bilinear_vote_terms(
    u: np.ndarray,
    v: np.ndarray,
    shape: tuple[int, int, int],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Flat indices + weights of the bilinear corner votes.

    Corners are emitted in the fixed (00, 10, 01, 11) order, so applying
    the terms with one in-order scatter-add reproduces the sequential
    per-corner accumulation bit for bit.  Returns ``(indices, weights,
    n_points)`` where ``n_points`` counts points that cast a full or
    partial vote.  Non-finite coordinates mark projection misses and
    produce no terms.
    """
    finite = np.isfinite(u) & np.isfinite(v)
    uu = np.where(finite, u, -10.0)
    vv = np.where(finite, v, -10.0)
    nz, h, w = shape
    if uu.shape != vv.shape or (uu.size and uu.shape[1] != nz):
        raise ValueError("coordinate arrays must be (N, Nz) matching the DSI")
    u0f = np.floor(uu)
    v0f = np.floor(vv)
    fu = uu - u0f
    fv = vv - v0f
    u0 = u0f.astype(np.int64)
    v0 = v0f.astype(np.int64)
    iz = _plane_index_grid(uu)

    voted = np.zeros(uu.shape, dtype=bool)
    indices: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    corners = (
        (u0, v0, (1.0 - fu) * (1.0 - fv)),
        (u0 + 1, v0, fu * (1.0 - fv)),
        (u0, v0 + 1, (1.0 - fu) * fv),
        (u0 + 1, v0 + 1, fu * fv),
    )
    for cu, cv, weight in corners:
        valid = (cu >= 0) & (cu < w) & (cv >= 0) & (cv < h) & (weight > 0)
        valid &= finite
        if not np.any(valid):
            continue
        indices.append((iz[valid] * h + cv[valid]) * w + cu[valid])
        weights.append(weight[valid])
        voted |= valid
    if not indices:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.float64), 0
    return np.concatenate(indices), np.concatenate(weights), int(voted.sum())


def vote_bilinear_into(
    flat: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    shape: tuple[int, int, int],
) -> int:
    """Bilinear voting into a flat score buffer.

    Each point's unit vote is split over the four surrounding voxels;
    out-of-bounds corners are dropped individually, so a point near the
    image border contributes only its in-bounds share — matching the
    reference implementation.  Returns the number of points that cast a
    (full or partial) vote.
    """
    lin, weights, n_points = bilinear_vote_terms(u, v, shape)
    _scatter_add(flat, lin, weights)
    return n_points


class BatchedNearestVoter:
    """Fused proportional + nearest-vote kernel over whole frame batches.

    The per-frame reference path materializes ``(N, Nz)`` coordinate grids,
    compares every entry against the volume bounds, masks, and scatters —
    roughly twenty array passes per frame, two of them fresh allocations.
    This kernel executes a batch of ``B`` frames of one reference segment
    with three structural changes (all bit-exact; see
    ``tests/unit/test_voting.py``):

    * **no validity mask** — votes accumulate in a *border-padded* count
      volume ``(Nz, H+2, W+2)``.  Rounded coordinates are clipped into the
      one-voxel apron, so out-of-bounds votes land in border cells instead
      of being compared, masked and redirected.  Interior cells receive
      exactly the votes the reference kernel casts; the vote count is
      recovered arithmetically (total scatters minus border hits) instead
      of via per-element ``valid.sum()`` passes.
    * **projection misses by cancellation** — miss rows (already zeroed by
      the canonical stage) vote like any other row, then their (identical,
      gathered) indices are scattered again with weight ``-1``.  Integer
      counts make the cancellation exact and keep the hot loop rectangular.
    * **segment-lifetime scratch** — ``u``/``v`` grids and the batch index
      block are allocated once and rewritten, and the whole batch is
      scattered through a single ``np.add.at`` pass.

    The rounding (half-up via ``floor(x + 0.5)``) and bounds decisions are
    applied to the same float values as :func:`nearest_vote_indices`, so
    counts match the reference voxel for voxel.
    """

    def __init__(self, shape: tuple[int, int, int]):
        nz, h, w = shape
        self.shape = shape
        self._hp, self._wp = h + 2, w + 2
        n_padded = nz * self._hp * self._wp
        self._counts = np.zeros(n_padded, dtype=np.int64)
        # int32 scatter indices halve the memory traffic of the final
        # pass; per-plane indices always fit, but keep the whole-volume
        # miss-cancellation indices in int64 when the volume demands it.
        self._lin_dtype = (
            np.int32 if n_padded < np.iinfo(np.int32).max else np.int64
        )
        self._plane_base = np.arange(nz, dtype=np.int64)[:, None] * (
            self._hp * self._wp
        )
        self._u: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._lin: np.ndarray | None = None
        self._scatters = 0
        self._votes_reported = 0

    # ------------------------------------------------------------------
    def _ensure_scratch(self, batch: int, n: int) -> None:
        nz = self.shape[0]
        # Plane-major scratch: the scatter walks one (cache-sized) padded
        # plane at a time instead of striding across the whole volume.
        if self._u is None or self._u.shape != (nz, n):
            self._u = np.empty((nz, n))
            self._v = np.empty((nz, n))
        if self._lin is None or self._lin.shape[0] < batch or self._lin.shape[1:] != (nz, n):
            self._lin = np.empty((batch, nz, n), dtype=self._lin_dtype)

    def vote_batch(
        self, phi: np.ndarray, uv0: np.ndarray, valid: np.ndarray
    ) -> tuple[int, int]:
        """Back-project and vote a ``(B, N, 2)`` canonical block.

        Parameters
        ----------
        phi:
            ``(B, Nz, 3)`` per-frame proportional coefficients.
        uv0:
            ``(B, N, 2)`` canonical-plane pixels (miss rows zeroed, as the
            canonical stage produces them).
        valid:
            ``(B, N)`` projection-miss mask from the canonical stage.

        Returns
        -------
        ``(votes, misses)`` for the batch — the same totals the per-frame
        reference backend reports.
        """
        nz, h, w = self.shape
        batch, n = uv0.shape[0], uv0.shape[1]
        self._ensure_scratch(batch, n)
        u, v = self._u, self._v
        lin = self._lin[:batch]
        for b in range(batch):
            # u-pipeline: proportional (copy + in-place multiply beats the
            # outer-product ufunc), round half-up, clip into the apron,
            # then fold in the apron shift (exact integer arithmetic —
            # every add after the floor is int + int).
            np.copyto(u, uv0[b, None, :, 0])
            u *= phi[b, :, 0, None]
            u += phi[b, :, 1, None]
            u += 0.5
            np.floor(u, out=u)
            np.clip(u, -1.0, float(w), out=u)
            u += float(self._wp + 1)
            # v-pipeline: same, scaled to rows of the padded plane.
            np.copyto(v, uv0[b, None, :, 1])
            v *= phi[b, :, 0, None]
            v += phi[b, :, 2, None]
            v += 0.5
            np.floor(v, out=v)
            np.clip(v, -1.0, float(h), out=v)
            v *= float(self._wp)
            np.add(u, v, out=lin[b], casting="unsafe")
        # Scatter one padded plane at a time: each np.add.at call reads a
        # (B, N) index block and touches only that plane's count window,
        # which keeps the scatter cache-resident instead of striding over
        # the whole volume per event.
        counts_planes = self._counts.reshape(nz, self._hp * self._wp)
        for i in range(nz):
            np.add.at(counts_planes[i], lin[:, i, :].reshape(-1), 1)
        self._scatters += batch * n * nz
        miss = ~valid
        misses = int(np.count_nonzero(miss))
        if misses:
            # Cancel the miss rows: gather the very indices just scattered
            # (bit-identical by construction) and subtract them again.
            frame_idx, row_idx = np.nonzero(miss)
            cancel = lin[frame_idx, :, row_idx].astype(np.int64) + self._plane_base.T
            np.add.at(self._counts, cancel.reshape(-1), -1)
            self._scatters -= misses * nz
        interior = self._scatters - self._border_hits()
        votes = interior - self._votes_reported
        self._votes_reported = interior
        return votes, misses

    def _border_hits(self) -> int:
        """Net scatters that landed in the apron (cheap: apron cells only)."""
        nz = self.shape[0]
        c3 = self._counts.reshape(nz, self._hp, self._wp)
        return int(
            c3[:, 0, :].sum()
            + c3[:, -1, :].sum()
            + c3[:, 1:-1, 0].sum()
            + c3[:, 1:-1, -1].sum()
        )

    def materialize_into(self, flat: np.ndarray) -> None:
        """Write the interior counts into a flat ``(Nz*H*W,)`` score buffer."""
        nz = self.shape[0]
        c3 = self._counts.reshape(nz, self._hp, self._wp)
        flat.reshape(self.shape)[...] = c3[:, 1:-1, 1:-1]


def vote_nearest(
    u: np.ndarray, v: np.ndarray, shape: tuple[int, int, int]
) -> np.ndarray:
    """Pure variant returning a fresh integer vote-count volume."""
    volume = np.zeros(int(np.prod(shape)), dtype=np.int64)
    vote_nearest_into(volume, u, v, shape)
    return volume.reshape(shape)


def vote_bilinear(
    u: np.ndarray, v: np.ndarray, shape: tuple[int, int, int]
) -> np.ndarray:
    """Pure variant returning a fresh float vote-weight volume."""
    volume = np.zeros(int(np.prod(shape)), dtype=np.float64)
    vote_bilinear_into(volume, u, v, shape)
    return volume.reshape(shape)


def cast_votes_into(
    method: VotingMethod,
    flat: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    shape: tuple[int, int, int],
) -> int:
    """Dispatch on the voting method (in-place)."""
    if method is VotingMethod.BILINEAR:
        return vote_bilinear_into(flat, u, v, shape)
    return vote_nearest_into(flat, u, v, shape)
