"""Hot-path kernel micro-benchmarks (isolation baselines).

The engine-level benches measure end-to-end backends; this file times the
individual kernels of the ``P(Z0->Zi)+R`` hot path in isolation — the
proportional map (allocating vs. ``out=`` scratch), the nearest/bilinear
voting kernels, and the batched stages behind ``numpy-batch`` — plus the
detection stage ``D`` against its whole-volume oracle and event ingest
(``EventArray.from_arrays``) native against numpy, so future kernel
changes have a per-component baseline to diff against instead of a
single end-to-end number.

Timings are recorded (``benchmarks/results/hotpath_kernels.txt``); the
assertions pin only *correctness* (kernels agree with each other) plus
directional claims that are far from the noise floor, so the bench stays
stable across hosts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import update_bench_json, write_result
from repro.core.backprojection import BackProjector, BatchFrameParameters
from repro.core.config import DetectionConfig
from repro.core.detection import adaptive_threshold_mask, detect_structure
from repro.core.dsi import DSI, depth_planes
from repro.core.voting import (
    BatchedNearestVoter,
    vote_bilinear_into,
    vote_nearest_into,
)
from repro.eval.reporting import Table
from repro.events.containers import EVENT_DTYPE, _from_arrays
from repro.fixedpoint.quantize import EVENTOR_SCHEMA
from repro.geometry.homography import (
    apply_proportional,
    proportional_coefficients_batch,
)
from repro.geometry.se3 import SE3, Quaternion, stack_poses
from repro.native import get_kernels
from tests.detection_oracles import (
    argmax_projection_reference,
    detect_structure_reference,
    median_reject_reference,
)

#: Workload shape: one 1024-event frame against a paper-sized DSI.
N_EVENTS = 1024
SHAPE = (100, 180, 240)
N_FRAMES = 64
#: Stage-``D`` workload: one key-frame DSI as the perfbench workloads vote it.
DETECT_SHAPE = (48, 180, 240)


def best_of(fn, repeats: int = 5) -> float:
    fn()  # warm up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def workload():
    """Synthetic but representative frame batch (mostly in-bounds votes)."""
    rng = np.random.default_rng(2022)
    nz, h, w = SHAPE
    phi = np.stack(
        [
            np.stack(
                [
                    rng.uniform(0.7, 1.4, nz),
                    rng.uniform(-30.0, 30.0, nz),
                    rng.uniform(-25.0, 25.0, nz),
                ],
                axis=1,
            )
            for _ in range(N_FRAMES)
        ]
    )
    uv0 = rng.uniform(0.0, w, (N_FRAMES, N_EVENTS, 2))
    uv0[..., 1] *= h / w
    valid = rng.random((N_FRAMES, N_EVENTS)) > 0.01
    uv0[~valid] = 0.0
    return phi, uv0, valid


@pytest.mark.benchmark(group="hotpath")
def test_hotpath_kernel_baselines(benchmark, workload):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    phi, uv0, valid = workload
    nz = SHAPE[0]
    table = Table(
        "Hot-path kernel baselines (one 1024-event frame, Nz=100)",
        ["kernel", "ms/frame"],
    )

    # --- proportional map: allocating vs out= scratch -----------------
    t_alloc = best_of(lambda: apply_proportional(phi[0], uv0[0])) * 1e3
    scratch = (np.empty((N_EVENTS, nz)), np.empty((N_EVENTS, nz)))
    t_out = best_of(lambda: apply_proportional(phi[0], uv0[0], out=scratch)) * 1e3
    table.add_row("apply_proportional (alloc)", f"{t_alloc:.3f}")
    table.add_row("apply_proportional (out=)", f"{t_out:.3f}")
    u_ref, v_ref = apply_proportional(phi[0], uv0[0])
    np.testing.assert_array_equal(scratch[0], u_ref)
    np.testing.assert_array_equal(scratch[1], v_ref)

    # --- per-frame voting kernels -------------------------------------
    u, v = u_ref, v_ref
    flat_nearest = np.zeros(int(np.prod(SHAPE)), dtype=np.int64)
    t_nearest = best_of(lambda: vote_nearest_into(flat_nearest, u, v, SHAPE)) * 1e3
    flat_bilinear = np.zeros(int(np.prod(SHAPE)))
    t_bilinear = best_of(
        lambda: vote_bilinear_into(flat_bilinear, u, v, SHAPE)
    ) * 1e3
    table.add_row("vote_nearest_into", f"{t_nearest:.3f}")
    table.add_row("vote_bilinear_into", f"{t_bilinear:.3f}")

    # --- fused batched kernel (proportional + vote in one) ------------
    def run_batched():
        voter = BatchedNearestVoter(SHAPE)
        voter.vote_batch(phi, uv0, valid)
        return voter

    t_batch = best_of(run_batched, repeats=3) * 1e3 / N_FRAMES
    table.add_row(
        f"BatchedNearestVoter (B={N_FRAMES}, incl. proportional)",
        f"{t_batch:.3f}",
    )

    # Correctness: the fused kernel equals proportional + reference votes.
    voter = run_batched()
    fused = np.zeros(int(np.prod(SHAPE)), dtype=np.int64)
    voter.materialize_into(fused)
    ref = np.zeros(int(np.prod(SHAPE)), dtype=np.int64)
    for b in range(N_FRAMES):
        ub, vb = apply_proportional(phi[b], uv0[b])
        ub[~valid[b]] = np.nan
        vb[~valid[b]] = np.nan
        vote_nearest_into(ref, ub, vb, SHAPE)
    np.testing.assert_array_equal(fused, ref)

    table.add_note(
        "the fused batch kernel folds the proportional map, rounding, "
        "bounds handling and scatter into one pass over segment scratch"
    )
    write_result("hotpath_kernels", table.render())

    # Directional pins (far from noise): scratch beats re-allocation, and
    # the fused kernel beats proportional + nearest voting run separately.
    assert t_out < t_alloc
    assert t_batch < t_alloc + t_nearest


@pytest.mark.benchmark(group="hotpath")
@pytest.mark.skipif(
    get_kernels() is None, reason="no native kernel provider on this host"
)
def test_native_kernel_baselines(benchmark, workload):
    """Native kernels vs their numpy counterparts, kernel by kernel.

    Every native output must equal its numpy counterpart exactly
    (``canonical_q_batch`` compared as int64 bit patterns).

    Each native kernel is timed against the numpy implementation it
    replaces on the same workload the numpy baselines above use, so the
    per-kernel speedups are directly comparable across hosts.  The
    measured ratios land in the ``kernels`` section of
    ``benchmarks/results/BENCH_backends.json`` next to the end-to-end
    backend numbers.
    """
    from repro.geometry.camera import PinholeCamera

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    kernels = get_kernels()
    phi, uv0, valid = workload
    nz, h, w = SHAPE
    rng = np.random.default_rng(7)
    camera = PinholeCamera.davis240c()
    depths = np.linspace(0.5, 5.0, nz)
    centers = rng.uniform(-0.05, 0.05, (N_FRAMES, 3))
    z0 = 0.5

    table = Table(
        "Native kernels vs numpy counterparts (per frame)",
        ["kernel", "numpy ms", "native ms", "speedup"],
    )
    report = {}

    def record(name, t_numpy, t_native):
        table.add_row(
            name, f"{t_numpy:.3f}", f"{t_native:.3f}", f"{t_numpy / t_native:.2f}x"
        )
        report[name] = {
            "numpy_ms_per_frame": t_numpy,
            "native_ms_per_frame": t_native,
            "speedup": t_numpy / t_native,
        }

    # --- φ coefficient tables -----------------------------------------
    def phi_native():
        return kernels.phi_batch(
            centers, z0, depths, camera.fx, camera.fy, camera.cx, camera.cy
        )

    t_phi_np = best_of(
        lambda: proportional_coefficients_batch(centers, z0, depths, camera)
    ) * 1e3 / N_FRAMES
    t_phi_nat = best_of(phi_native) * 1e3 / N_FRAMES
    record("phi_batch", t_phi_np, t_phi_nat)
    np.testing.assert_array_equal(
        phi_native(), proportional_coefficients_batch(centers, z0, depths, camera)
    )

    # --- quantized canonical projection P(Z0) -------------------------
    # Normalized near-identity homographies over sensor-sized pixels: the
    # engine's operating point (mostly hits, a border band of misses).
    H = np.eye(3) + rng.uniform(-0.02, 0.02, (N_FRAMES, 3, 3))
    H[:, :2, 2] += rng.uniform(-8.0, 8.0, (N_FRAMES, 2))
    H = EVENTOR_SCHEMA.quantize_homography(
        H / np.abs(H).max(axis=(1, 2), keepdims=True)
    )
    records = np.zeros(N_FRAMES * N_EVENTS, dtype=EVENT_DTYPE)
    records["x"] = rng.uniform(0.0, camera.width, records.size)
    records["y"] = rng.uniform(0.0, camera.height, records.size)
    frames = [records[b * N_EVENTS : (b + 1) * N_EVENTS] for b in range(N_FRAMES)]
    projector = BackProjector(camera, SE3.identity(), depths, EVENTOR_SCHEMA)
    params = BatchFrameParameters(H_Z0=H, phi=np.zeros((N_FRAMES, nz, 3)))
    canonical_uv0 = np.empty((N_FRAMES, N_EVENTS, 2))
    canonical_valid = np.empty((N_FRAMES, N_EVENTS), dtype=bool)

    def canonical_numpy():
        # What numpy-batch runs: the float64 (B, N, 2) stack, then P(Z0).
        xy = np.stack([np.stack([f["x"], f["y"]], axis=1) for f in frames])
        return projector.canonical_batch(params, xy.astype(float))

    def canonical_native():
        return kernels.canonical_q_batch(
            H, frames, EVENTOR_SCHEMA, canonical_uv0, canonical_valid
        )

    t_can_np = best_of(canonical_numpy, repeats=3) * 1e3 / N_FRAMES
    t_can_nat = best_of(canonical_native, repeats=3) * 1e3 / N_FRAMES
    record("canonical_q_batch", t_can_np, t_can_nat)
    uv_ref, valid_ref = canonical_numpy()
    misses = canonical_native()
    assert np.array_equal(canonical_uv0.view(np.int64), uv_ref.view(np.int64))
    assert np.array_equal(canonical_valid, valid_ref)
    assert misses == np.count_nonzero(~valid_ref)

    # --- fused proportional + nearest voting --------------------------
    counts = np.zeros(nz * h * w, dtype=np.int32)

    def nearest_native():
        counts[...] = 0
        return kernels.vote_nearest_batch(phi, uv0, valid, counts, SHAPE)

    t_near_np = best_of(
        lambda: BatchedNearestVoter(SHAPE).vote_batch(phi, uv0, valid), repeats=3
    ) * 1e3 / N_FRAMES
    t_near_nat = best_of(nearest_native, repeats=3) * 1e3 / N_FRAMES
    record("vote_nearest_batch", t_near_np, t_near_nat)
    nearest_native()
    voter = BatchedNearestVoter(SHAPE)
    voter.vote_batch(phi, uv0, valid)
    fused = np.zeros(nz * h * w, dtype=np.int64)
    voter.materialize_into(fused)
    np.testing.assert_array_equal(counts.astype(np.int64), fused)

    # --- the same kernel on a miss-heavy batch ------------------------
    # Half the events off-sensor and 20 % invalid.  The native scatter
    # has no branch, so misses cost what hits do; a branchy scatter
    # would fall back to mispredicted per-vote branches here.
    miss_rng = np.random.default_rng(11)
    miss_uv0 = uv0.copy()
    off = miss_rng.random((N_FRAMES, N_EVENTS)) < 0.5
    miss_uv0[off, 0] += 2 * w
    miss_valid = miss_rng.random((N_FRAMES, N_EVENTS)) >= 0.2
    miss_uv0[~miss_valid] = 0.0

    def miss_heavy_native():
        counts[...] = 0
        return kernels.vote_nearest_batch(phi, miss_uv0, miss_valid, counts, SHAPE)

    t_miss_np = best_of(
        lambda: BatchedNearestVoter(SHAPE).vote_batch(phi, miss_uv0, miss_valid),
        repeats=3,
    ) * 1e3 / N_FRAMES
    t_miss_nat = best_of(miss_heavy_native, repeats=3) * 1e3 / N_FRAMES
    record("vote_nearest_batch_miss_heavy", t_miss_np, t_miss_nat)
    miss_votes = miss_heavy_native()
    voter = BatchedNearestVoter(SHAPE)
    ref_votes, _ = voter.vote_batch(phi, miss_uv0, miss_valid)
    voter.materialize_into(fused)
    np.testing.assert_array_equal(counts.astype(np.int64), fused)
    assert miss_votes == ref_votes

    # --- fused proportional + bilinear voting -------------------------
    from repro.native.cext import BilinearScratch

    flat = np.zeros(nz * h * w)
    scratch = BilinearScratch(N_EVENTS, nz)

    def bilinear_native():
        flat[...] = 0.0
        return kernels.vote_bilinear_batch(phi, uv0, valid, flat, SHAPE, scratch)

    ref_flat = np.zeros(nz * h * w)

    def bilinear_numpy():
        ref_flat[...] = 0.0
        for b in range(N_FRAMES):
            ub, vb = apply_proportional(phi[b], uv0[b])
            ub[~valid[b]] = np.nan
            vb[~valid[b]] = np.nan
            vote_bilinear_into(ref_flat, ub, vb, SHAPE)

    t_bil_np = best_of(bilinear_numpy, repeats=3) * 1e3 / N_FRAMES
    t_bil_nat = best_of(bilinear_native, repeats=3) * 1e3 / N_FRAMES
    record("vote_bilinear_batch", t_bil_np, t_bil_nat)
    bilinear_native()
    bilinear_numpy()
    np.testing.assert_array_equal(flat, ref_flat)

    table.add_note(f"provider: {kernels.name} ({kernels.origin})")
    write_result("hotpath_native_kernels", table.render())
    update_bench_json(
        "BENCH_backends.json", {"kernels": {"provider": kernels.name, **report}}
    )

    # The canonical projection and the voting kernels carry the hot
    # stage; each must beat its numpy counterpart outright (φ is
    # microseconds per frame — recorded, but too close to the timer floor
    # to gate on).
    assert t_can_nat < t_can_np
    assert t_near_nat < t_near_np
    assert t_miss_nat < t_miss_np
    assert t_bil_nat < t_bil_np


#: Ingest sizes: one ``gateway_windows`` job and one ``rig_offline`` camera.
INGEST_SIZES = (262_144, 937_777)


@pytest.mark.skipif(
    get_kernels() is None, reason="no native kernel provider on this host"
)
def test_native_ingest_baseline(benchmark):
    """``EventArray.from_arrays`` native against numpy, from stride-17 columns.

    The columns are the field views of a packed record array, as
    perfbench's inputs pass them.  Both paths must give identical record
    bytes; the times land in the ``ingest`` section of
    ``BENCH_backends.json``.  A report, not a gate.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    kernels = get_kernels()
    table = Table(
        "Event ingest (EventArray.from_arrays) from stride-17 columns",
        ["events", "numpy ms", "native ms", "speedup"],
    )
    report = {}
    rng = np.random.default_rng(2022)
    for n in INGEST_SIZES:
        source = np.empty(n, dtype=EVENT_DTYPE)
        source["t"] = np.sort(rng.uniform(0.0, 2.0, n))
        source["x"] = rng.uniform(0.0, 240.0, n)
        source["y"] = rng.uniform(0.0, 180.0, n)
        source["p"] = rng.choice([-1, 1], n)
        columns = tuple(source[field] for field in "txyp")
        assert columns[0].strides == (EVENT_DTYPE.itemsize,)
        native = _from_arrays(*columns, False, kernels)
        assert native.data.tobytes() == _from_arrays(*columns, False, None).data.tobytes()
        assert native.data.tobytes() == source.tobytes()
        t_numpy = best_of(lambda: _from_arrays(*columns, False, None)) * 1e3
        t_native = best_of(lambda: _from_arrays(*columns, False, kernels)) * 1e3
        table.add_row(f"{n:,}", f"{t_numpy:.2f}", f"{t_native:.2f}", f"{t_numpy / t_native:.2f}x")
        report[str(n)] = {
            "numpy_ms": t_numpy, "native_ms": t_native, "speedup": t_numpy / t_native,
        }
    table.add_note(f"provider: {kernels.name} ({kernels.origin})")
    write_result("hotpath_ingest", table.render())
    update_bench_json("BENCH_backends.json", {"ingest": {"provider": kernels.name, **report}})


@pytest.mark.benchmark(group="hotpath")
def test_batched_parameter_stage_baseline(benchmark):
    """Per-frame pose sampling + (H_Z0, phi) computation, batched vs scalar.

    Covers the whole ARM-side parameter stage: trajectory interpolation at
    the frame timestamps (the engine's scalar ``sample`` loop) feeding the
    stacked ``frame_parameters_batch`` pass.
    """
    from repro.core.backprojection import BackProjector
    from repro.core.dsi import depth_planes
    from repro.geometry.camera import PinholeCamera
    from repro.geometry.trajectory import linear_trajectory

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    camera = PinholeCamera.davis240c()
    depths = depth_planes(0.5, 5.0, SHAPE[0])
    proj = BackProjector(camera, SE3.identity(), depths)
    trajectory = linear_trajectory(
        [-0.2, 0.0, 0.0],
        [0.2, 0.1, 0.05],
        duration=2.0,
        n_poses=401,
        rotation=Quaternion.from_axis_angle([0.0, 0.0, 1.0], 0.2),
    )
    frame_times = np.linspace(0.1, 1.9, N_FRAMES)

    t_sample_scalar = best_of(
        lambda: [trajectory.sample(float(t)) for t in frame_times], repeats=3
    ) * 1e3 / N_FRAMES
    poses = [trajectory.sample(float(t)) for t in frame_times]
    rotations, translations = stack_poses(poses)

    def scalar():
        return [proj.frame_parameters(p) for p in poses]

    t_scalar = best_of(scalar, repeats=3) * 1e3 / N_FRAMES
    t_batch = best_of(
        lambda: proj.frame_parameters_batch(rotations, translations), repeats=3
    ) * 1e3 / N_FRAMES

    table = Table(
        "Frame-parameter stage (per frame)",
        ["path", "ms/frame"],
    )
    table.add_row("Trajectory.sample (scalar loop)", f"{t_sample_scalar:.3f}")
    table.add_row("frame_parameters (scalar loop)", f"{t_scalar:.3f}")
    table.add_row(f"frame_parameters_batch (B={N_FRAMES})", f"{t_batch:.3f}")
    table.add_note("stacked (B,3,3) inverse/matmul vs B Python SE3 trips")
    write_result("hotpath_parameters", table.render())

    batch = proj.frame_parameters_batch(rotations, translations)
    for k, params in enumerate(scalar()):
        np.testing.assert_array_equal(batch.H_Z0[k], params.H_Z0)
        np.testing.assert_array_equal(batch.phi[k], params.phi)
    assert t_batch < t_scalar


def synthetic_keyframe_dsi(seed: int = 2022) -> DSI:
    """A seeded paper-sized int64 DSI shaped like a voted key frame.

    Poisson ray clutter everywhere, plus edge pixels (scattered points and
    broken vertical stripes, about a tenth of the image) whose votes peak
    on a depth plane that varies smoothly across the image, half as strong
    on the neighbouring planes; a few edges peak at a random plane, so the
    median rejection has outliers to remove.
    """
    from repro.geometry.camera import PinholeCamera

    rng = np.random.default_rng(seed)
    nz, h, w = DETECT_SHAPE
    scores = rng.poisson(0.5, DETECT_SHAPE).astype(np.int64)
    yy, xx = np.mgrid[0:h, 0:w]
    plane = (8 + 28 * xx / w + 4 * np.sin(yy / 17.0)).astype(int)
    stripes = (xx % 23 < 2) & (rng.random((h, w)) < 0.7)
    ys, xs = np.nonzero(stripes | (rng.random((h, w)) < 0.04))
    planes = plane[ys, xs]
    outliers = rng.random(ys.size) < 0.05
    planes[outliers] = rng.integers(1, nz - 1, outliers.sum())
    peaks = rng.integers(15, 60, ys.size)
    scores[planes, ys, xs] += peaks
    scores[planes - 1, ys, xs] += peaks // 2
    scores[planes + 1, ys, xs] += peaks // 2
    dsi = DSI(
        PinholeCamera.davis240c(),
        SE3.identity(),
        depth_planes(0.5, 5.0, nz),
        integer_scores=True,
        score_limit=65535,
    )
    dsi.scores[...] = scores
    return dsi


@pytest.mark.benchmark(group="hotpath")
def test_detection_stage_baseline(benchmark):
    """Stage ``D`` vs its oracle on one paper-sized key-frame DSI.

    The oracle (``tests/detection_oracles.py``) is the copy-everything
    formulation: a saturated int64 copy of the volume for two argmax
    passes, and a whole-image stack of NaN-filled shifts for the median.
    The library must produce the identical depth map at least 2x faster.

    When the kernels load, the native rows time ``native-batch``'s stage
    ``D`` on the same votes held as its int32 count window: the argmax
    projection, the median rejection and the whole stage (the numpy
    Gaussian threshold included).  They are a report, not a gate, but
    must equal the oracle bit for bit.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    dsi = synthetic_keyframe_dsi()
    config = DetectionConfig()
    t_library = best_of(lambda: detect_structure(dsi, config)) * 1e3
    t_oracle = best_of(lambda: detect_structure_reference(dsi, config), repeats=3) * 1e3

    depth_map = detect_structure(dsi, config)
    oracle = detect_structure_reference(dsi, config)
    np.testing.assert_array_equal(depth_map.mask, oracle.mask)
    np.testing.assert_array_equal(depth_map.confidence, oracle.confidence)
    np.testing.assert_array_equal(depth_map.depth, oracle.depth)

    speedup = t_oracle / t_library
    table = Table(
        "Detection stage D (one 48x180x240 key-frame DSI)",
        ["path", "ms"],
    )
    table.add_row("oracle (saturated copy + shift stack)", f"{t_oracle:.3f}")
    table.add_row("detect_structure", f"{t_library:.3f}")
    report = {
        "shape": list(DETECT_SHAPE),
        "detected_fraction": depth_map.density,
        "oracle_ms": t_oracle,
        "library_ms": t_library,
        "speedup": speedup,
    }
    kernels = get_kernels()
    if kernels is not None:
        report["native"] = native_detection_rows(kernels, dsi, config, oracle, table)
    table.add_note(
        f"{depth_map.density:.1%} of pixels detected; speedup {speedup:.2f}x, "
        "identical depth maps"
    )
    write_result("hotpath_detection", table.render())
    update_bench_json("BENCH_backends.json", {"detection": report})
    assert speedup >= 2.0


def native_detection_rows(kernels, dsi, config, oracle, table) -> dict:
    """Time native stage ``D`` on ``dsi``'s votes as an int32 window.

    Adds the rows to ``table`` and returns their milliseconds; asserts
    every native output equals the oracle's.
    """
    window = DSI(
        dsi.camera, dsi.T_w_ref, dsi.depths,
        score_limit=dsi.score_limit, scores=dsi.scores.astype(np.int32),
    )
    nz, h, w = window.shape
    confidence, mid = np.empty((h, w)), np.empty((h, w), dtype=np.int64)

    def project(d=window):
        return kernels.argmax_projection(d.scores, d.shape, d.score_limit, confidence, mid)

    ref_confidence, ref_mid = argmax_projection_reference(dsi)
    project()
    np.testing.assert_array_equal(confidence, ref_confidence)
    np.testing.assert_array_equal(mid, ref_mid)

    depth = window.depths[mid]
    mask = adaptive_threshold_mask(confidence, config)
    out = np.empty_like(mask)
    kernels.median_reject(depth, mask, config.median_size, out)
    np.testing.assert_array_equal(out, median_reject_reference(depth, mask, config))

    def detect():
        return detect_structure(
            window, config,
            project=lambda d: kernels.argmax_projection(
                d.scores, d.shape, d.score_limit,
                np.empty((h, w)), np.empty((h, w), dtype=np.int64),
            ),
            reject=lambda depth, mask, c: kernels.median_reject(
                depth, mask, c.median_size, np.empty_like(mask)
            ),
        )

    native = detect()
    np.testing.assert_array_equal(native.mask, oracle.mask)
    np.testing.assert_array_equal(native.confidence, oracle.confidence)
    np.testing.assert_array_equal(native.depth, oracle.depth)

    rows = {
        "argmax_ms": best_of(project, repeats=15) * 1e3,
        "median_ms": best_of(
            lambda: kernels.median_reject(depth, mask, config.median_size, out),
            repeats=15,
        ) * 1e3,
        "detect_ms": best_of(detect, repeats=15) * 1e3,
    }
    table.add_row("native argmax_projection (int32 window)", f"{rows['argmax_ms']:.3f}")
    table.add_row("native median_reject", f"{rows['median_ms']:.3f}")
    table.add_row("native-batch stage D", f"{rows['detect_ms']:.3f}")
    return rows
