"""Native nearest voting against the numpy path at its chunk and bounds edges.

``CExtensionKernels.vote_nearest_batch`` votes each frame in chunks of at
most 1024 events: a branch-free address pass (proportional map, round
half-up, bounds test, cell address), then a scatter of 0/1 increments in
which a miss adds 0 into cell 0.  Every property compares its int32
counts and vote total with :func:`native_oracles.nearest_reference` (per
frame ``apply_proportional`` + ``vote_nearest_into``), exactly.  The
workloads aim at the places the two-pass form can diverge: chunk edges
(``N`` in 1, 1023, 1024, 1025, 2500), coordinates exactly on and one ulp
either side of the rounding bounds, NaN/±inf ``uv0`` on rows marked
valid, all-invalid frames and miss-heavy batches.  Every property runs
on each code shape of the kernel (the ``native_kernels`` fixture): the
host's ISA clone and the baseline and AVX-512 bodies built on their own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from native_oracles import assert_nearest_matches_numpy

H, W = 13, 17  # one small plane; W != H so a swapped axis shows


def vote_workload(rng, b, n, nz, off_sensor=0.1, invalid=0.1):
    """``(phi, uv0, valid, shape)``: random frames around a small plane.

    Plane 0 is the identity map (``a = 1``, ``beta = gamma = 0``), so a
    coordinate written into ``uv0`` reaches the rounding test unchanged;
    the other planes scale and shift like real φ rows.  ``off_sensor``
    of the events land past a border, ``invalid`` are projection misses
    (zeroed, as ``P_Z0`` produces them).
    """
    phi = np.stack(
        [rng.uniform(0.6, 1.4, (b, nz)), rng.uniform(-3.0, 3.0, (b, nz)),
         rng.uniform(-3.0, 3.0, (b, nz))],
        axis=2,
    )
    phi[:, 0] = (1.0, 0.0, 0.0)
    uv0 = np.stack(
        [rng.uniform(-0.5, W - 0.5, (b, n)), rng.uniform(-0.5, H - 0.5, (b, n))], axis=2
    )
    off = rng.random((b, n)) < off_sensor
    uv0[off] += rng.choice([-1.0, 1.0], (off.sum(), 2)) * (W + H)
    valid = rng.random((b, n)) >= invalid
    uv0[~valid] = 0.0
    return phi, uv0, valid, (nz, H, W)


_BOUNDS = np.array([-0.5, W - 0.5, H - 0.5])
#: Plane-0 coordinates on and one ulp either side of each rounding bound.
EDGES = np.concatenate(
    [_BOUNDS, np.nextafter(_BOUNDS, -np.inf), np.nextafter(_BOUNDS, np.inf)]
)
SPECIALS = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, 2.0**31, -0.0])


@pytest.mark.parametrize("nz", [1, 5])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2500])
def test_chunk_edges(native_kernels, n, b, nz):
    rng = np.random.default_rng(n * 100 + b * 10 + nz)
    phi, uv0, valid, shape = vote_workload(rng, b, n, nz)
    assert_nearest_matches_numpy(native_kernels, phi, uv0, valid, shape)


@given(
    st.sampled_from([1, 1023, 1024, 1025, 2500]),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_rounding_bounds_and_specials_anywhere(native_kernels, n, b, nz, seed):
    """Bound coordinates and NaN/±inf/huge values on valid rows, at any
    position of any chunk, in either coordinate."""
    rng = np.random.default_rng(seed)
    phi, uv0, valid, shape = vote_workload(rng, b, n, nz)
    pool = np.concatenate([EDGES, SPECIALS])
    picks = rng.random((b, n, 2)) < 0.3
    uv0[picks] = rng.choice(pool, picks.sum())
    valid |= rng.random((b, n)) < 0.5  # specials on rows marked valid
    assert_nearest_matches_numpy(native_kernels, phi, uv0, valid, shape)


def test_rounding_bounds_vote_where_numpy_does(native_kernels):
    """On the identity plane ``-0.5`` rounds into column 0, ``w - 0.5``
    past the last one, and one ulp either side flips each."""
    u, v = np.meshgrid(EDGES, EDGES)
    uv0 = np.stack([u.ravel(), v.ravel()], axis=1)[None]
    phi = np.array([[[1.0, 0.0, 0.0]]])
    valid = np.ones(uv0.shape[:2], dtype=bool)
    votes = assert_nearest_matches_numpy(native_kernels, phi, uv0, valid, (1, H, W))
    assert 0 < votes < uv0.shape[1]


@pytest.mark.parametrize("n", [1024, 2500])
def test_all_invalid_frames_cast_nothing(native_kernels, n):
    """A frame of misses votes nothing, even when its ``uv0`` rows hold
    in-bounds coordinates instead of the zeros ``P_Z0`` writes."""
    rng = np.random.default_rng(n)
    phi, uv0, valid, shape = vote_workload(rng, 3, n, 5, invalid=0.0)
    valid[1] = False
    votes = assert_nearest_matches_numpy(native_kernels, phi, uv0, valid, shape)
    valid[:] = False
    assert assert_nearest_matches_numpy(native_kernels, phi, uv0, valid, shape) == 0
    assert votes > 0


@given(st.floats(0.3, 0.95), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_miss_heavy_batches(native_kernels, off_sensor, invalid, seed):
    """Mostly off-sensor and invalid events: every miss adds 0 into cell 0
    and must leave it, like every other cell, at the numpy count."""
    rng = np.random.default_rng(seed)
    phi, uv0, valid, shape = vote_workload(
        rng, 2, 1500, 4, off_sensor=off_sensor, invalid=invalid
    )
    assert_nearest_matches_numpy(native_kernels, phi, uv0, valid, shape)
