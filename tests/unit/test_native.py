"""Unit tests for the compiled kernel layer (``repro.native``).

Three concerns, matching the package's three layers:

* **kernel exactness** — each native kernel against its numpy reference,
  bit for bit: φ, the quantized canonical projection and both voting
  kernels (the canonical kernel's Q-format edges are fuzzed in
  ``tests/property/test_native_canonical_properties.py``);
* **the cached load** — the ``cext`` status line and the unavailable
  path;
* **registry consistency** — ``native-batch`` registers iff the kernels
  load, and the CLI surfaces the kernel status.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.backprojection import BackProjector, BatchFrameParameters
from repro.core.config import EMVSConfig
from repro.core.engine import BACKENDS, ReconstructionEngine
from repro.core.voting import vote_bilinear_into, vote_nearest_into
from repro.events.containers import EVENT_DTYPE
from repro.events.datasets import load_sequence
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import (
    EVENTOR_SCHEMA,
    FLOAT_SCHEMA,
    QuantizationSchema,
)
from repro.geometry.camera import PinholeCamera
from repro.geometry.homography import (
    apply_proportional,
    proportional_coefficients_batch,
)
from repro.geometry.se3 import SE3
from repro.native import get_kernels, provider_status
from repro.native import provider as provider_module
from repro.native.backend import register_native_backend
from repro.native.cext import BilinearScratch

HAVE_KERNELS = get_kernels() is not None

needs_kernels = pytest.mark.skipif(
    not HAVE_KERNELS, reason="no native kernel provider on this host"
)


@pytest.fixture
def restore_provider(monkeypatch):
    """Reset the provider cache after a test that perturbs it.

    Undoes the test's monkeypatches *first* — fixture finalizers run
    before the monkeypatch fixture's own teardown, and re-probing with a
    patched loader or environment still active would poison the cached
    state for every later test.
    """
    yield
    monkeypatch.undo()
    provider_module.reset()
    register_native_backend()


# ----------------------------------------------------------------------
# Shared random workload
# ----------------------------------------------------------------------
SHAPE = (12, 40, 56)  # (Nz, H, W)
B, N = 5, 400
Z0 = 0.7


def _workload(seed=7):
    """A ``(phi, uv0, valid)`` block with misses and out-of-bounds rows."""
    nz, h, w = SHAPE
    rng = np.random.default_rng(seed)
    camera = PinholeCamera.ideal(w, h, fov_deg=60.0)
    depths = np.linspace(Z0, 2.5 * Z0, nz)
    centers = rng.uniform(-0.05, 0.05, size=(B, 3))
    phi = proportional_coefficients_batch(centers, Z0, depths, camera)
    # Canonical coordinates spanning past the borders, plus miss rows.
    uv0 = np.stack(
        [
            rng.uniform(-6.0, w + 6.0, size=(B, N)),
            rng.uniform(-6.0, h + 6.0, size=(B, N)),
        ],
        axis=2,
    )
    valid = rng.random((B, N)) > 0.1
    uv0 = np.where(valid[..., None], uv0, 0.0)  # canonical stage zeroes misses
    return camera, depths, centers, phi, uv0, valid


def _reference_vote(phi, uv0, valid, flat, method):
    """The per-frame numpy reference path the fused kernels must match."""
    total = 0
    for b in range(uv0.shape[0]):
        u, v = apply_proportional(phi[b], uv0[b])
        u[~valid[b]] = np.nan
        v[~valid[b]] = np.nan
        total += method(flat, u, v, SHAPE)
    return total


# ----------------------------------------------------------------------
# Kernel exactness
# ----------------------------------------------------------------------
@needs_kernels
class TestKernelExactness:
    def test_phi_batch_bit_exact(self):
        camera, depths, centers, phi_ref, _, _ = _workload()
        kernels = get_kernels()
        phi = kernels.phi_batch(
            centers, Z0, depths, camera.fx, camera.fy, camera.cx, camera.cy
        )
        np.testing.assert_array_equal(phi, phi_ref)

    def test_phi_batch_degenerate_raises(self):
        camera, depths, centers, _, _, _ = _workload()
        centers = centers.copy()
        centers[2, 2] = Z0  # centre on the canonical plane
        kernels = get_kernels()
        with pytest.raises(ValueError, match="degenerate geometry"):
            kernels.phi_batch(
                centers, Z0, depths, camera.fx, camera.fy, camera.cx, camera.cy
            )

    def test_canonical_q_batch_bit_exact(self):
        """Native ``P_Z0`` equals ``BackProjector.canonical_batch`` bit for bit.

        Normalized random homographies over a sensor-sized pixel spread
        (plus border overshoot) give a mix of hits, overflow misses and
        exact-tie roundings; ``uv0`` is compared as int64 bit patterns so
        a signed zero would show.
        """
        rng = np.random.default_rng(11)
        H = np.eye(3) + rng.uniform(-0.08, 0.08, size=(B, 3, 3))
        H[:, :2, 2] += rng.uniform(-40.0, 40.0, size=(B, 2))
        H = EVENTOR_SCHEMA.quantize_homography(
            H / np.abs(H).max(axis=(1, 2), keepdims=True)
        )
        records = np.zeros(B * N, dtype=EVENT_DTYPE)
        records["x"] = rng.uniform(-4.0, 250.0, B * N)
        records["y"] = rng.uniform(-4.0, 190.0, B * N)
        records["x"][::7] = np.round(records["x"][::7] * 256) / 256  # ties
        frames = [records[b * N : (b + 1) * N] for b in range(B)]
        xy = np.stack([np.stack([f["x"], f["y"]], axis=1) for f in frames])
        camera = PinholeCamera.davis240c()
        projector = BackProjector(
            camera, SE3.identity(), np.linspace(0.5, 5.0, 8), EVENTOR_SCHEMA
        )
        params = BatchFrameParameters(H_Z0=H, phi=np.zeros((B, 8, 3)))
        uv_ref, valid_ref = projector.canonical_batch(params, xy.astype(float))
        uv0 = np.empty((B, N, 2))
        valid = np.empty((B, N), dtype=bool)
        misses = get_kernels().canonical_q_batch(
            H, frames, EVENTOR_SCHEMA, uv0, valid
        )
        np.testing.assert_array_equal(uv0.view(np.int64), uv_ref.view(np.int64))
        np.testing.assert_array_equal(valid, valid_ref)
        assert misses == np.count_nonzero(~valid_ref)
        assert 0 < misses < B * N

    @pytest.mark.parametrize(
        "schema",
        [
            FLOAT_SCHEMA,
            # 32-bit event words: x*h products need 31 + 31 bits.
            QuantizationSchema(event_coord=QFormat(32, 7, signed=False)),
        ],
        ids=["float", "wide-events"],
    )
    def test_canonical_q_batch_refuses_inexact_schemas(self, schema):
        assert not schema.canonical_mac_exact
        with pytest.raises(ValueError, match="canonical_mac_exact"):
            get_kernels().canonical_q_batch(
                np.zeros((1, 3, 3)),
                [np.zeros(4, dtype=EVENT_DTYPE)],
                schema,
                np.empty((1, 4, 2)),
                np.empty((1, 4), dtype=bool),
            )

    def test_vote_nearest_bit_exact(self):
        _, _, _, phi, uv0, valid = _workload()
        nz, h, w = SHAPE
        ref_flat = np.zeros(nz * h * w, dtype=np.int64)
        ref_votes = _reference_vote(phi, uv0, valid, ref_flat, vote_nearest_into)
        counts = np.zeros(nz * h * w, dtype=np.int32)
        kernels = get_kernels()
        votes = kernels.vote_nearest_batch(phi, uv0, valid, counts, SHAPE)
        np.testing.assert_array_equal(counts.astype(np.int64), ref_flat)
        assert votes == ref_votes

    @pytest.mark.parametrize("dtype", [np.float64, np.int64], ids=["f64", "i64"])
    def test_vote_bilinear_bit_exact(self, dtype):
        _, _, _, phi, uv0, valid = _workload()
        nz, h, w = SHAPE
        ref_flat = np.zeros(nz * h * w, dtype=dtype)

        def masked_bilinear(flat, u, v, shape):
            # The engine's bilinear path drops miss rows before voting
            # (NaN coordinates produce no terms), matching the kernel.
            return vote_bilinear_into(flat, u, v, shape)

        ref_votes = _reference_vote(phi, uv0, valid, ref_flat, masked_bilinear)
        flat = np.zeros(nz * h * w, dtype=dtype)
        kernels = get_kernels()
        scratch = BilinearScratch(N, nz)
        votes = kernels.vote_bilinear_batch(phi, uv0, valid, flat, SHAPE, scratch)
        np.testing.assert_array_equal(flat, ref_flat)
        assert votes == ref_votes

    def test_vote_nearest_rejects_wrong_counts_dtype(self):
        _, _, _, phi, uv0, valid = _workload()
        nz, h, w = SHAPE
        counts = np.zeros(nz * h * w, dtype=np.int64)
        kernels = get_kernels()
        with pytest.raises(ValueError, match="int32"):
            kernels.vote_nearest_batch(phi, uv0, valid, counts, SHAPE)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("valid_extra_column", "valid must"),
            ("phi_extra_plane", "phi must"),
            ("uv0_three_columns", "uv0 must"),
            ("short_buffer", "DSI buffer"),
        ],
    )
    @pytest.mark.parametrize("method", ["nearest", "bilinear"])
    def test_vote_wrappers_reject_mismatched_shapes(self, method, case, message):
        """A mismatched operand would be read at the wrong rows (wrong
        counts, no error) and a short buffer written past its end."""
        _, _, _, phi, uv0, valid = _workload()
        nz, h, w = SHAPE
        size = nz * h * w
        if case == "valid_extra_column":
            valid = np.ones((B, N + 1), dtype=bool)
        elif case == "phi_extra_plane":
            phi = np.concatenate([phi, phi[:, :1]], axis=1)
        elif case == "uv0_three_columns":
            uv0 = np.zeros((B, N, 3))
        else:
            size -= 1
        kernels = get_kernels()
        with pytest.raises(ValueError, match=message):
            if method == "nearest":
                kernels.vote_nearest_batch(
                    phi, uv0, valid, np.zeros(size, dtype=np.int32), SHAPE
                )
            else:
                kernels.vote_bilinear_batch(
                    phi, uv0, valid, np.zeros(size), SHAPE, BilinearScratch(N, nz)
                )

    def test_vote_nearest_rejects_planes_past_int32_addresses(self):
        _, _, _, phi, uv0, valid = _workload()
        shape = (SHAPE[0], 1 << 16, 1 << 15)  # H*W == 2^31
        with pytest.raises(ValueError, match="int32"):
            get_kernels().vote_nearest_batch(
                phi, uv0, valid, np.zeros(1, dtype=np.int32), shape
            )

    def test_bilinear_scratch_shape_check(self):
        scratch = BilinearScratch(N, SHAPE[0])
        with pytest.raises(ValueError):
            scratch.check(N + 1, SHAPE[0])


#: A small detection geometry: (Nz, H, W) with H != W so a swapped axis shows.
DETECT = (4, 5, 7)


def _argmax_operands(case: str):
    """``(counts, confidence, mid)`` with one operand broken per ``case``."""
    nz, h, w = DETECT
    counts = np.zeros(DETECT, dtype=np.int32)
    confidence = np.empty((h, w))
    mid = np.empty((h, w), dtype=np.int64)
    if case == "counts_int64":
        counts = counts.astype(np.int64)
    elif case == "counts_strided":
        counts = np.zeros((nz, h, 2 * w), dtype=np.int32)[:, :, ::2]
    elif case == "counts_short":
        counts = np.zeros(nz * h * w - 1, dtype=np.int32)
    elif case == "confidence_transposed":
        confidence = np.empty((w, h))
    elif case == "confidence_float32":
        confidence = np.empty((h, w), dtype=np.float32)
    elif case == "mid_int32":
        mid = np.empty((h, w), dtype=np.int32)
    elif case == "mid_strided":
        mid = np.empty((h, 2 * w), dtype=np.int64)[:, ::2]
    return counts, confidence, mid


def _median_operands(case: str):
    """``(depth, mask, median_size, out)`` with one operand broken per ``case``."""
    _, h, w = DETECT
    depth = np.ones((h, w))
    mask = np.ones((h, w), dtype=bool)
    out = np.empty((h, w), dtype=bool)
    size = 3
    if case == "depth_float32":
        depth = depth.astype(np.float32)
    elif case == "depth_strided":
        depth = np.ones((h, 2 * w))[:, ::2]
    elif case == "depth_flat":
        depth = np.ones(h * w)
    elif case == "mask_int64":
        mask = mask.astype(np.int64)
    elif case == "mask_short":
        mask = mask[:-1]
    elif case == "out_short":
        out = np.empty((h, w - 1), dtype=bool)
    elif case == "out_strided":
        out = np.empty((h, 2 * w), dtype=np.uint8)[:, ::2]
    elif case == "even_size":
        size = 4
    elif case == "out_is_mask":
        out = mask
    return depth, mask, size, out


@needs_kernels
class TestDetectionBindings:
    """The detection wrappers check every operand before C indexes by it:
    a short or mistyped buffer would be read or written past its end."""

    @pytest.mark.parametrize(
        "case, message",
        [
            ("counts_int64", "counts must"),
            ("counts_strided", "counts must"),
            ("counts_short", "needs 140"),
            ("confidence_transposed", "confidence must"),
            ("confidence_float32", "confidence must"),
            ("mid_int32", "mid must"),
            ("mid_strided", "mid must"),
        ],
    )
    def test_argmax_projection_rejects_bad_operands(self, case, message):
        counts, confidence, mid = _argmax_operands(case)
        with pytest.raises(ValueError, match=message):
            get_kernels().argmax_projection(counts, DETECT, 100, confidence, mid)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("depth_float32", "depth must"),
            ("depth_strided", "depth must"),
            ("depth_flat", "depth must"),
            ("mask_int64", "mask must"),
            ("mask_short", "mask must"),
            ("out_short", "out must"),
            ("out_strided", "out must"),
            ("even_size", "odd"),
            ("out_is_mask", "overlap"),
        ],
    )
    def test_median_reject_rejects_bad_operands(self, case, message):
        depth, mask, size, out = _median_operands(case)
        with pytest.raises(ValueError, match=message):
            get_kernels().median_reject(depth, mask, size, out)

    def test_well_formed_operands_pass(self):
        counts, confidence, mid = _argmax_operands("ok")
        get_kernels().argmax_projection(counts, DETECT, None, confidence, mid)
        assert (confidence == 0).all() and (mid == (DETECT[0] - 1) // 2).all()
        depth, mask, size, out = _median_operands("ok")
        assert get_kernels().median_reject(depth, mask.view(np.uint8), size, out) is out
        assert out.all()


def _ingest_operands(case):
    """``(t, x, y, p, out)`` pack operands with one defect named by ``case``."""
    n = 6
    records = np.zeros(n, dtype=EVENT_DTYPE)
    records["t"], records["p"] = np.arange(n), 1
    t, x, y, p = (records[f] for f in "txyp")
    out = np.empty(n, dtype=EVENT_DTYPE)
    if case == "t_short":
        t = t[:-1]
    elif case == "p_long":
        p = np.ones(n + 1, dtype=np.int8)
    elif case == "x_2d":
        x = np.zeros((n, 1), dtype=np.float32)
    elif case == "y_float64":
        y = y.astype(np.float64)
    elif case == "t_big_endian":
        t = t.astype(">f8")
    elif case == "out_short":
        out = out[:-1]
    elif case == "out_strided":
        out = np.empty(2 * n, dtype=EVENT_DTYPE)[::2]
    elif case == "out_readonly":
        out.setflags(write=False)
    elif case == "out_plain":
        out = np.empty(n, dtype=np.float64)
    return t, x, y, p, out


@needs_kernels
class TestIngestBindings:
    """The ingest wrappers check every column and the output before C
    indexes by them: a short column would be read past its end."""

    @pytest.mark.parametrize(
        "case, message",
        [
            ("t_short", "one length"),
            ("p_long", "one length"),
            ("x_2d", "one length"),
            ("y_float64", "column y must be float32"),
            ("t_big_endian", "column t must be float64"),
            ("out_short", "out must be"),
            ("out_strided", "out must be"),
            ("out_readonly", "out must be"),
            ("out_plain", "out must be"),
        ],
    )
    def test_pack_events_rejects_bad_operands(self, case, message):
        with pytest.raises(ValueError, match=message):
            get_kernels().pack_events(*_ingest_operands(case))

    def test_check_events_rejects_non_records(self):
        records = np.zeros(4, dtype=EVENT_DTYPE)
        for bad in (records.reshape(2, 2), records["t"], records.astype(
                [("t", ">f8"), ("x", "f4"), ("y", "f4"), ("p", "i1")])):
            with pytest.raises(ValueError, match="records must be"):
                get_kernels().check_events(bad)

    def test_well_formed_operands_pass(self):
        t, x, y, p, out = _ingest_operands("ok")
        assert get_kernels().pack_events(t, x, y, p, out) == 0
        assert out.tobytes() == t.base.tobytes()
        assert get_kernels().check_events(out[::-1]) == 4  # decreasing only


@needs_kernels
class TestNativeDetection:
    def test_nearest_dsi_wraps_the_count_window(self):
        """Under nearest voting the DSI is the int32 window, with no copy,
        and re-seating zeroes the same buffer."""
        seq = load_sequence("simulation_3planes", quality="fast")
        engine = ReconstructionEngine(
            seq.camera, seq.trajectory, EMVSConfig(n_depth_planes=16),
            seq.depth_range, policy="reformulated", backend="native-batch",
        )
        backend = engine.backend
        backend.start_reference(SE3.identity())
        dsi = backend.read_dsi()
        assert dsi.scores.dtype == np.int32
        assert dsi.scores is backend._window
        dsi.scores[0, 0, 0] = 5
        backend.start_reference(SE3.identity())
        assert backend.read_dsi().scores is dsi.scores
        assert dsi.scores[0, 0, 0] == 0

    def test_bilinear_policy_keeps_the_numpy_detection(self, monkeypatch):
        seq = load_sequence("simulation_3planes", quality="fast")
        engine = ReconstructionEngine(
            seq.camera, seq.trajectory, EMVSConfig(n_depth_planes=16),
            seq.depth_range, policy="original", backend="native-batch",
        )
        calls = []
        monkeypatch.setattr(
            type(get_kernels()), "argmax_projection",
            lambda *args: calls.append(1),
        )
        engine.run(seq.events.time_slice(0.95, 1.0))
        assert engine.backend.read_dsi().scores.dtype == np.float64
        assert not calls


# ----------------------------------------------------------------------
# Which P_Z0 path the backend takes
# ----------------------------------------------------------------------
def count_native_canonical_calls(task) -> int:
    """Run one segment task; return how many native ``P_Z0`` calls it made.

    Module-level so a process pool can run it on a pickled task.
    """
    from repro.core.mapping import run_segment_task
    from repro.native.cext import CExtensionKernels

    original = CExtensionKernels.canonical_q_batch
    calls = []

    def spy(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    CExtensionKernels.canonical_q_batch = spy
    try:
        run_segment_task(task)
    finally:
        CExtensionKernels.canonical_q_batch = original
    return len(calls)


@needs_kernels
class TestNativeCanonicalPath:
    @pytest.fixture
    def first_task(self, mapping_workload):
        from repro.core import EngineSpec
        from repro.core.mapping import segment_tasks

        seq, events, config = mapping_workload
        spec = EngineSpec(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            backend="native-batch",
        )
        plans, _ = spec.plan(events)
        return segment_tasks(plans[:1], events, spec)[0]

    def test_exactness_gate_reads_values_not_identity(self):
        import pickle

        copy = pickle.loads(pickle.dumps(EVENTOR_SCHEMA))
        assert copy is not EVENTOR_SCHEMA
        assert copy.canonical_mac_exact and EVENTOR_SCHEMA.canonical_mac_exact
        assert not FLOAT_SCHEMA.canonical_mac_exact

    def test_pickled_spec_takes_native_path_in_process_worker(self, first_task):
        """A task pickled into a process pool carries a *new* schema object;
        the worker must still run ``P_Z0`` natively."""
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            calls = pool.submit(count_native_canonical_calls, first_task).result()
        assert calls > 0

    def test_inexact_schema_stays_on_numpy_bit_exact(self, first_task):
        """A quantized schema too wide for the 53-bit bound keeps the numpy
        projection, with output identical to ``numpy-batch``."""
        from dataclasses import replace

        from repro.core.mapping import run_segment_task

        wide = QuantizationSchema(event_coord=QFormat(32, 7, signed=False))
        spec = replace(
            first_task.spec, policy=replace(first_task.spec.policy, schema=wide)
        )
        task = replace(first_task, spec=spec)
        assert count_native_canonical_calls(task) == 0
        _, native, native_profile = run_segment_task(task)
        _, batch, batch_profile = run_segment_task(
            replace(task, spec=replace(spec, backend="numpy-batch"))
        )
        assert native_profile.counters() == batch_profile.counters()
        for a, b in zip(native, batch, strict=True):
            np.testing.assert_array_equal(a.depth_map.depth, b.depth_map.depth)
            np.testing.assert_array_equal(
                a.depth_map.confidence, b.depth_map.confidence
            )


# ----------------------------------------------------------------------
# The cached kernel load
# ----------------------------------------------------------------------
class TestProviderSelection:
    @needs_kernels
    def test_loaded_status_names_the_library(self):
        assert provider_status() == f"cext ({get_kernels().origin})"

    def test_unavailable_status_names_every_provider(
        self, monkeypatch, restore_provider
    ):
        def boom():
            raise RuntimeError("no C compiler for the test")

        monkeypatch.setattr(provider_module, "load_cext_kernels", boom)
        provider_module.reset()
        assert get_kernels() is None
        assert provider_status() == "unavailable (cext: no C compiler for the test)"

    def test_load_is_cached_until_reset(self, monkeypatch, restore_provider):
        loads = []

        def stub_loader():
            loads.append(1)
            return SimpleNamespace(name="cext", origin=f"stub #{len(loads)}")

        monkeypatch.setattr(provider_module, "load_cext_kernels", stub_loader)
        provider_module.reset()
        first = get_kernels()
        assert get_kernels() is first
        assert provider_status() == "cext (stub #1)"
        assert len(loads) == 1
        provider_module.reset()
        assert get_kernels() is not first
        assert provider_status() == "cext (stub #2)"
        assert len(loads) == 2

    def test_failed_load_is_cached_until_reset(self, monkeypatch, restore_provider):
        attempts = []

        def failing_loader():
            attempts.append(1)
            raise OSError("library missing")

        monkeypatch.setattr(provider_module, "load_cext_kernels", failing_loader)
        provider_module.reset()
        assert get_kernels() is None
        assert get_kernels() is None
        assert provider_status() == "unavailable (cext: library missing)"
        assert len(attempts) == 1
        monkeypatch.setattr(
            provider_module,
            "load_cext_kernels",
            lambda: SimpleNamespace(name="cext", origin="rebuilt"),
        )
        assert get_kernels() is None  # still the cached failure
        provider_module.reset()
        assert get_kernels() is not None
        assert provider_status() == "cext (rebuilt)"


# ----------------------------------------------------------------------
# Registry consistency
# ----------------------------------------------------------------------
class TestRegistryConsistency:
    def test_registry_matches_provider_availability(self):
        assert ("native-batch" in BACKENDS) == (get_kernels() is not None)

    def test_registry_drops_backend_when_no_provider(
        self, monkeypatch, restore_provider
    ):
        def boom():
            raise RuntimeError("stripped install")

        monkeypatch.setattr(provider_module, "load_cext_kernels", boom)
        provider_module.reset()
        assert register_native_backend() is None
        assert "native-batch" not in BACKENDS
        assert provider_status().startswith("unavailable (cext: ")

    @needs_kernels
    def test_register_returns_provider_name(self):
        assert register_native_backend() == get_kernels().name
        assert "native-batch" in BACKENDS

    def test_backend_construction_requires_provider(
        self, monkeypatch, restore_provider
    ):
        import repro.native.backend as backend_module

        monkeypatch.setattr(backend_module, "get_kernels", lambda: None)
        with pytest.raises(RuntimeError, match="no kernel provider"):
            backend_module.NativeBatchBackend(engine=None)

    def test_cli_info_reports_provider(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "native kernel provider:" in out
        assert "registered backends:" in out
        if HAVE_KERNELS:
            assert "native-batch" in out
