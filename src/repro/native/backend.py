"""The ``native-batch`` execution backend: compiled hot-stage kernels.

Same segment-batched dataflow as ``numpy-batch`` — the engine buffers
``DataflowPolicy.batch_frames`` event frames and the backend executes
each batch in fused passes — but the φ parameter stack, the quantized
canonical projection, the fused proportional + vote scatter and, under
nearest voting, detection's argmax projection and median rejection run
in compiled code (see :mod:`repro.native.provider` for the cached kernel
load and ``docs/NATIVE.md`` for the kernel ABI).

The bit-exactness contract mirrors the other software backends: every
DSI count, vote total and miss total is identical to
``numpy-reference`` under all voting × correction policy corners.  The
``H_Z0`` stack stays on numpy (its LAPACK inverse is the reference's own
arithmetic).  The canonical projection runs natively whenever the
policy's schema keeps its homography MACs exact in float64
(:attr:`~repro.fixedpoint.quantize.QuantizationSchema.canonical_mac_exact`,
true for Table 1): then every summation order gives the same sums and
the C kernel matches numpy bit for bit.  Otherwise (``FLOAT_SCHEMA``,
or formats too wide for the bound) it stays on numpy, whose BLAS
accumulation order a C loop could not reproduce.

Importing this module registers the backend *iff* the kernels load;
:mod:`repro.core.engine` imports it under ``try/except`` so the
registry simply omits ``native-batch`` on hosts without a C toolchain.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.backprojection import BatchFrameParameters
from repro.core.config import DetectionConfig
from repro.core.depthmap import SemiDenseDepthMap
from repro.core.detection import detect_structure
from repro.core.dsi import DSI
from repro.core.engine import BACKENDS, _NumpyBackendBase
from repro.core.voting import VotingMethod
from repro.events.packetizer import EventFrame, FrameBatch
from repro.geometry.homography import (
    canonical_plane_homography_batch,
    event_camera_centers_in_virtual,
)
from repro.geometry.se3 import SE3
from repro.native.cext import BilinearScratch
from repro.native.provider import get_kernels


class NativeBatchBackend(_NumpyBackendBase):
    """Segment-batched execution through the compiled kernel layer.

    Stage split per batch (timing mirrors ``numpy-batch``):

    1. ``P_Z0`` — the batch's stacked poses, numpy ``H_Z0`` batch
       (LAPACK inverse, bit-identical to the reference by construction),
       native ``phi_batch``, and the batched canonical projection: native
       ``canonical_q_batch`` straight from the batch's contiguous event
       records into instance-owned ``uv0``/``valid`` scratch when the
       schema's MACs are exact, numpy otherwise;
    2. ``P_Zi_R`` — one native fused proportional + vote call over the
       whole batch: ``vote_nearest_batch`` accumulates into an
       instance-lifetime int32 count window, ``vote_bilinear_batch``
       scatters straight into the DSI flat buffer in reference corner
       order, dispatching on the policy's score dtype;
    3. ``D`` — under nearest voting, :meth:`detect` runs
       :func:`~repro.core.detection.detect_structure` with the native
       ``argmax_projection`` (one pass over the count window) and
       ``median_reject``; the Gaussian threshold stays numpy, and
       sub-voxel refinement gathers its three planes from the window.
       Bilinear policies detect through the numpy default.

    Under nearest voting the count window *is* the DSI: each
    :meth:`start_reference` zeroes it and seats a
    :class:`~repro.core.dsi.DSI` that wraps it, so :meth:`read_dsi`
    copies nothing and no int64 volume is allocated.

    All mutable buffers (count window, canonical and bilinear scratch)
    are owned per instance; the shared kernel object is stateless, so
    concurrent engines — thread pools, process pools — never share
    state.
    """

    name = "native-batch"
    buffers_frames = True

    def __init__(self, engine):
        super().__init__(engine)
        kernels = get_kernels()
        if kernels is None:
            raise RuntimeError(
                "native-batch backend constructed with no kernel provider "
                "available; check repro.native.provider_status()"
            )
        self._kernels = kernels
        self._native_canonical = engine.policy.schema.canonical_mac_exact
        self._window: np.ndarray | None = None
        self._scratch: BilinearScratch | None = None
        self._uv0 = np.empty((0, 0, 2))
        self._valid = np.empty((0, 0), dtype=bool)

    def start_reference(self, T_w_ref: SE3) -> None:
        """Seat the DSI; under nearest voting it wraps the zeroed window."""
        if self.engine.policy.voting is VotingMethod.NEAREST:
            e = self.engine
            shape = (len(e.depths), e.camera.height, e.camera.width)
            if self._window is None or self._window.shape != shape:
                self._window = np.zeros(shape, dtype=np.int32)
            else:
                self._window[...] = 0
        super().start_reference(T_w_ref, scores=self._window)

    def _frame_parameters_batch(
        self, rotations: np.ndarray, translations: np.ndarray
    ) -> BatchFrameParameters:
        """Stacked per-frame parameters with the φ table computed natively.

        ``H_Z0`` follows
        :meth:`~repro.core.backprojection.BackProjector.frame_parameters_batch`
        verbatim (same LAPACK inverse, same normalization); the φ stack
        comes from the native ``phi_batch`` kernel, which is
        bit-exact with
        :func:`~repro.geometry.homography.proportional_coefficients_batch`.
        """
        p = self._projector
        H = canonical_plane_homography_batch(
            p.T_w_ref, rotations, translations, p.camera, p.z0
        )
        H = H / np.abs(H).max(axis=(1, 2), keepdims=True)
        c = event_camera_centers_in_virtual(p.T_w_ref, translations)
        phi = self._kernels.phi_batch(
            c, p.z0, p.depths, p.camera.fx, p.camera.fy, p.camera.cx, p.camera.cy
        )
        return BatchFrameParameters(
            H_Z0=p.schema.quantize_homography(H),
            phi=p.schema.quantize_phi(phi),
        )

    def process_frame(self, frame: EventFrame) -> tuple[int, int]:
        """Single-frame fallback: a batch of one."""
        return self.process_batch(FrameBatch.from_frames([frame]))

    def process_batch(self, batch: FrameBatch) -> tuple[int, int]:
        """Execute one buffered frame batch through the native kernels."""
        if self._projector is None:
            raise RuntimeError("start_reference() must be called before frames")
        t0 = time.perf_counter()
        b, n = len(batch), batch.frame_size
        params = self._frame_parameters_batch(batch.rotations, batch.translations)
        if self._native_canonical:
            uv0, valid = self._canonical_scratch(b, n)
            misses = self._kernels.canonical_q_batch(
                params.H_Z0, batch.events.data, self._projector.schema, uv0, valid
            )
        else:
            xy = batch.events.xy.reshape(b, n, 2)
            uv0, valid = self._projector.canonical_batch(params, xy)
            misses = int(np.count_nonzero(~valid))
        self.engine.profile.add_time("P_Z0", time.perf_counter() - t0)

        t0 = time.perf_counter()
        phi = np.ascontiguousarray(params.phi)
        if self._window is not None:
            votes = self._kernels.vote_nearest_batch(
                phi, uv0, valid, self._window, self._dsi.shape
            )
        else:
            n, nz = uv0.shape[1], self._dsi.shape[0]
            if self._scratch is None or (self._scratch.n, self._scratch.nz) != (n, nz):
                self._scratch = BilinearScratch(n, nz)
            votes = self._kernels.vote_bilinear_batch(
                phi, uv0, valid, self._dsi.flat_scores, self._dsi.shape, self._scratch
            )
        self.engine.profile.add_time("P_Zi_R", time.perf_counter() - t0)
        return votes, misses

    def _canonical_scratch(self, b: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``(B, N, 2)`` ``uv0`` and ``(B, N)`` ``valid`` views of the scratch.

        Grown on demand and kept across batches and segments; a shorter
        flush batch takes a leading slice (still C-contiguous).
        """
        if self._uv0.shape[0] < b or self._uv0.shape[1] != n:
            self._uv0 = np.empty((b, n, 2))
            self._valid = np.empty((b, n), dtype=bool)
        return self._uv0[:b], self._valid[:b]

    def detect(self, config: DetectionConfig) -> SemiDenseDepthMap:
        """Stage ``D``; native over the count window under nearest voting."""
        if self._window is None:
            return super().detect(config)
        return detect_structure(
            self.read_dsi(), config, project=self._project, reject=self._reject
        )

    def _project(self, dsi: DSI) -> tuple[np.ndarray, np.ndarray]:
        """Native :meth:`~repro.core.dsi.DSI.argmax_projection` of the window."""
        h, w = dsi.shape[1:]
        return self._kernels.argmax_projection(
            dsi.scores,
            dsi.shape,
            dsi.score_limit,
            np.empty((h, w)),
            np.empty((h, w), dtype=np.int64),
        )

    def _reject(
        self, depth: np.ndarray, mask: np.ndarray, config: DetectionConfig
    ) -> np.ndarray:
        """Native :func:`~repro.core.detection.median_reject`."""
        return self._kernels.median_reject(
            depth, mask, config.median_size, np.empty_like(mask)
        )


def register_native_backend(registry: dict | None = None) -> str | None:
    """(Re-)register ``native-batch`` according to kernel availability.

    When the kernels load, ``native-batch`` is installed in the backend
    registry and the kernels' name (``"cext"``) is returned; otherwise the
    entry is removed (the registry "stays clean") and ``None`` is
    returned.  Called once at import; tests re-invoke it around
    :func:`repro.native.provider.reset` to exercise the fallback matrix.
    """
    if registry is None:
        registry = BACKENDS
    kernels = get_kernels()
    if kernels is None:
        registry.pop(NativeBatchBackend.name, None)
        return None
    registry[NativeBatchBackend.name] = NativeBatchBackend
    return kernels.name


register_native_backend()
