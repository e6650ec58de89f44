"""Native ``P_Z0`` against the numpy oracle at the Q-format edges.

``CExtensionKernels.canonical_q_batch`` quantizes event coordinates to
uQ9.7, runs the ``H_Z0`` row MACs, rejects behind-plane and overflowing
points, and quantizes ``uv0`` to uQ9.7 — all in C.  Every property here
compares it with :meth:`BackProjector.canonical_batch` bit for bit:
``uv0`` as int64 bit patterns (so ``-0.0`` vs ``+0.0`` shows), ``valid``
and the miss count.  The strategies aim at the places a C transcription
of :meth:`QFormat.to_raw` / :meth:`QFormat.overflows` can diverge:
round-half ties, saturation, the negative-zero band ``(-1/2 LSB, 0)``,
NaN/inf, ``w <= 0``, the exact overflow bounds and extreme ``H_Z0``
entries.  Every property runs on each code shape of the kernel (the
``native_kernels`` fixture): the host's ISA clone and the baseline and
AVX-512 bodies built on their own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from native_oracles import assert_canonical_matches_numpy
from repro.fixedpoint.quantize import (
    CANONICAL_COORD_FORMAT,
    EVENT_COORD_FORMAT,
    EVENTOR_SCHEMA,
    HOMOGRAPHY_FORMAT,
)

LSB = EVENT_COORD_FORMAT.resolution  # 1/128, shared by both coordinate formats
H_LSB = HOMOGRAPHY_FORMAT.resolution  # 2^-21
H_MIN, H_MAX = HOMOGRAPHY_FORMAT.min_value, HOMOGRAPHY_FORMAT.max_value
C_LO, C_HI = CANONICAL_COORD_FORMAT.overflow_bounds  # -1/256, 511.99609375


def affine_h(a=1.0, tx=0.0, ty=0.0, w=1.0):
    """``(1, 3, 3)`` H mapping (x, y) to (a*x + tx, a*y + ty) / w, quantized."""
    H = np.array([[[a, 0.0, tx], [0.0, a, ty], [0.0, 0.0, w]]])
    return EVENTOR_SCHEMA.quantize_homography(H)


raw_h = st.integers(HOMOGRAPHY_FORMAT.raw_min, HOMOGRAPHY_FORMAT.raw_max)
edge_h = st.sampled_from(
    [H_MIN, H_MIN + H_LSB, -H_LSB, 0.0, H_LSB, H_MAX - H_LSB, H_MAX, 1.0, -1.0]
)
h_entry = st.one_of(raw_h.map(lambda r: r * H_LSB), edge_h)
#: Any float32 coordinate, specials included.
any_coord = st.floats(width=32, allow_nan=True, allow_infinity=True)
#: Coordinates where the event quantizer is interesting.
edge_coord = st.one_of(
    st.integers(-4, 65540).map(lambda k: (k + 0.5) * LSB),  # ties
    st.integers(0, 65535).map(lambda k: k * LSB),  # exact grid
    st.floats(-LSB / 2, 0.0, exclude_min=True, width=32),  # negative zero band
    st.floats(511.0, 1e6, width=32),  # at and past raw_max
    st.sampled_from([np.nan, np.inf, -np.inf, 3.4e38, -3.4e38, -0.0]),
)
coords = st.lists(st.one_of(any_coord, edge_coord), min_size=1, max_size=24)


class TestEventQuantization:
    @given(coords)
    @settings(max_examples=200, deadline=None)
    def test_identity_projection_reproduces_event_quantizer(self, native_kernels, xs):
        """Under ``H = I`` every input quirk of the event quantizer shows
        in ``uv0``: ties, saturation, NaN/inf and the negative-zero band."""
        x = np.array(xs, dtype=np.float32)
        assert_canonical_matches_numpy(native_kernels, affine_h(), x, x[::-1])

    @given(coords, coords, st.lists(h_entry, min_size=9, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_any_coordinates_any_homography(self, native_kernels, xs, ys, h):
        n = min(len(xs), len(ys))
        H = np.array(h).reshape(1, 3, 3)
        assert_canonical_matches_numpy(native_kernels, H, xs[:n], ys[:n])


class TestCanonicalQuantization:
    @given(
        st.integers(0, 65535),
        st.integers(-(1 << 22), 1 << 22),
        st.integers(-2, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_offsets_hit_ties_and_the_negative_zero_band(
        self, native_kernels, k, t_raw, w_exp
    ):
        """``u = (x + t) / 2^e`` with ``t`` on the H grid: odd ``k`` over
        ``2^e = 2`` is an exact half-LSB tie, and ``k = 0`` with a small
        negative ``t`` lands in ``(-1/2 LSB, 0)``."""
        H = affine_h(tx=t_raw * H_LSB, ty=-t_raw * H_LSB, w=2.0**w_exp)
        x = np.float32(k * LSB)
        assert_canonical_matches_numpy(native_kernels, H, [x], [x])

    @pytest.mark.parametrize(
        "u",
        [
            C_LO,  # min - 1/2 LSB: representable, rounds onto raw_min
            C_LO - H_LSB,  # just below: overflow miss
            -H_LSB,  # negative-zero band: raw 0, +0.0
            -(LSB / 2) + H_LSB,
            LSB / 2,  # tie away from zero -> raw 1
            C_HI,  # max + 1/2 LSB: saturates onto raw_max
            C_HI + H_LSB,  # just above: overflow miss
        ],
    )
    def test_exact_overflow_bounds(self, native_kernels, u):
        uv0, valid = assert_canonical_matches_numpy(
            native_kernels, affine_h(tx=u, ty=u), [0.0], [0.0]
        )
        assert valid[0, 0] == (C_LO <= u <= C_HI)
        assert not np.signbit(uv0).any()


class TestBehindPlane:
    @pytest.mark.parametrize("w", [0.0, -H_LSB, -1.0, H_MIN])
    def test_non_positive_scale_is_a_miss(self, native_kernels, w):
        uv0, valid = assert_canonical_matches_numpy(
            native_kernels,
            affine_h(tx=5.0, ty=5.0, w=w),
            [0.0, 10.0, 200.0],
            [0.0, 10.0, 100.0],
        )
        assert not valid.any()
        assert not uv0.any()

    @given(st.lists(st.floats(0.0, 300.0, width=32), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_scale_crossing_zero_across_the_frame(self, native_kernels, xs):
        """``w = x/128 - 1`` is zero at ``x = 128`` and negative left of it."""
        H = EVENTOR_SCHEMA.quantize_homography(
            np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0 / 128, 0.0, -1.0]]])
        )
        xs = xs + [128.0, 127.9921875]
        assert_canonical_matches_numpy(native_kernels, H, xs, xs)


class TestHomographyExtremes:
    @given(
        st.lists(edge_h, min_size=9, max_size=9),
        st.lists(edge_coord, min_size=2, max_size=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_sq11_21_extremes_keep_the_macs_exact(self, native_kernels, h, xy):
        H = np.array(h).reshape(1, 3, 3)
        assert_canonical_matches_numpy(
            native_kernels, H, [xy[0], 65535 * LSB], [xy[1], 65535 * LSB]
        )

    def test_largest_mac_magnitudes(self, native_kernels):
        """Every term at its bound: ``x = y = raw_max`` against ``H_MIN``."""
        H = np.full((2, 3, 3), H_MIN)
        H[1] = H_MAX
        big = np.float32(65535 * LSB)
        assert_canonical_matches_numpy(
            native_kernels, H, [[big, 0.0], [big, big]], [[big, big], [big, 0.0]]
        )


class TestLongFrames:
    @given(
        st.lists(st.one_of(any_coord, edge_coord), min_size=1, max_size=24),
        st.sampled_from([7, 8, 9, 1023, 1025]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_edge_coordinates_anywhere_in_a_frame(self, native_kernels, edges, n, seed):
        """Edge coordinates scattered through frames long enough for the
        vector body and its remainder, under random near-identity ``H``."""
        rng = np.random.default_rng(seed)
        H = np.eye(3) + rng.uniform(-0.05, 0.05, (2, 3, 3))
        H[:, :2, 2] += rng.uniform(-20.0, 20.0, (2, 2))
        H = EVENTOR_SCHEMA.quantize_homography(
            H / np.abs(H).max(axis=(1, 2), keepdims=True)
        )
        xy = rng.uniform(-4.0, 260.0, (2, 2, n)).astype(np.float32)
        where = rng.integers(0, 2 * n, len(edges))
        xy[0].reshape(-1)[where] = np.array(edges, dtype=np.float32)
        xy[1].reshape(-1)[where[::-1]] = np.array(edges, dtype=np.float32)
        assert_canonical_matches_numpy(native_kernels, H, xy[0], xy[1])
