"""Differential fuzzing of the backend / mapping / serving equivalences.

The repo's determinism story so far rested on hand-picked corners (one
workload, fixed policies).  This suite draws ~10 *seeded* random
configurations — trajectory, scene, policy, ``batch_frames``, key-frame
distance, frame size, depth sampling — and asserts the full equivalence
chain bit-exactly on every one:

    numpy-reference engine
      ≡ numpy-batch engine                      (fused whole-batch passes)
      ≡ native-batch engine                     (compiled kernels, if available)
      ≡ parallel-mapped fused maps              (any worker count)
      ≡ ReconstructionService results           (any pool, cache on/off)
      ≡ StreamingSession results                (seeded random chunk sizes)

Everything is deterministic per seed (the simulator, the scene texture
and the configuration draws all derive from the seed), so a failure
reproduces by running its seed alone.
The chaos leg (``test_chaos_transient_faults_are_invisible``) extends
the chain one level further: a seeded transient
:class:`~repro.serve.FaultPlan` that fails *every* segment once must be
fully absorbed by the retry budget —

    ReconstructionService under injected faults + retries
      ≡ fault-free ReconstructionService              (bit-exactly)

across the inline, thread and process executors.  ``REPRO_FAULT_SEED``
selects the fault-plan seed (CI sweeps a small matrix).
"""

import dataclasses
import functools
import os

import numpy as np
import pytest

from repro.core import (
    CameraRig,
    EMVSConfig,
    EngineSpec,
    MappingOrchestrator,
    ORIGINAL_POLICY,
    REFORMULATED_POLICY,
    RigOrchestrator,
)
from repro.core.engine import BACKENDS
from repro.events.scenes import slider_scene
from repro.events.simulator import EventCameraSimulator, SimulatorConfig, simulate_rig
from repro.geometry.camera import PinholeCamera
from repro.geometry.se3 import SE3, Quaternion
from repro.geometry.trajectory import linear_trajectory
from repro.serve import (
    CacheConfig,
    FaultKind,
    FaultPlan,
    JobOptions,
    JobState,
    ReconstructionService,
    RetryPolicy,
)

#: Seeds of the fuzzed configurations.  Deliberately a plain list: adding
#: a seed adds coverage, removing one reproduces a failure in isolation.
FUZZ_SEEDS = list(range(10))


@dataclasses.dataclass(frozen=True)
class FuzzCase:
    """One fully-drawn random configuration."""

    seed: int
    events: object
    spec_kwargs: dict
    workers: int
    cache_on: bool

    def spec(self, backend: str) -> EngineSpec:
        return EngineSpec(backend=backend, **self.spec_kwargs)


def draw_case(seed: int) -> FuzzCase:
    """Draw a configuration from the seed (everything derives from it)."""
    rng = np.random.default_rng(9000 + seed)
    mean_depth = float(rng.uniform(0.6, 1.4))
    scene = slider_scene(mean_depth, seed=seed)
    camera = PinholeCamera.ideal(96, 72, fov_deg=float(rng.uniform(48.0, 62.0)))
    half_span = float(rng.uniform(0.28, 0.42)) * mean_depth
    trajectory = linear_trajectory(
        start=[-half_span, float(rng.uniform(-0.02, 0.02)), 0.0],
        end=[half_span, float(rng.uniform(-0.02, 0.02)), 0.0],
        duration=float(rng.uniform(0.8, 1.1)),
        n_poses=int(rng.integers(61, 91)),
    )
    sim_config = SimulatorConfig(
        contrast_threshold=float(rng.uniform(0.16, 0.22)),
        n_render_steps=int(rng.integers(44, 60)),
        seed=seed,
    )
    events = EventCameraSimulator(scene, camera, trajectory, sim_config).run()

    policy = ORIGINAL_POLICY if rng.random() < 0.4 else REFORMULATED_POLICY
    policy = dataclasses.replace(
        policy, batch_frames=int(rng.choice([1, 2, 3, 5, 8, 16, 64]))
    )
    config = EMVSConfig(
        n_depth_planes=int(rng.choice([24, 32, 48])),
        frame_size=int(rng.choice([512, 1024])),
        keyframe_distance=float(rng.uniform(0.08, 0.16)) * mean_depth,
    )
    return FuzzCase(
        seed=seed,
        events=events,
        spec_kwargs=dict(
            camera=camera,
            trajectory=trajectory,
            config=config,
            depth_range=(0.5 * mean_depth, 2.2 * mean_depth),
            policy=policy,
        ),
        # Sweep the service worker count and cache mode across the suite
        # so "any worker count, cache on or off" is actually sampled.
        workers=int(seed % 3) + 1,
        cache_on=seed % 2 == 0,
    )


def assert_keyframes_bit_equal(a, b):
    assert len(a) == len(b)
    for ka, kb in zip(a, b):
        assert (ka.n_events, ka.n_frames) == (kb.n_events, kb.n_frames)
        np.testing.assert_array_equal(ka.depth_map.mask, kb.depth_map.mask)
        np.testing.assert_array_equal(
            ka.depth_map.confidence, kb.depth_map.confidence
        )
        np.testing.assert_array_equal(
            np.nan_to_num(ka.depth_map.depth), np.nan_to_num(kb.depth_map.depth)
        )


def assert_fused_bit_equal(a, b):
    assert a.profile.counters() == b.profile.counters()
    np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
    np.testing.assert_array_equal(
        a.global_map.fused_points(), b.global_map.fused_points()
    )
    np.testing.assert_array_equal(
        a.global_map.fused_confidences(), b.global_map.fused_confidences()
    )
    np.testing.assert_array_equal(
        a.global_map.fused_counts(), b.global_map.fused_counts()
    )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_differential_equivalence(seed):
    case = draw_case(seed)
    assert len(case.events) > 10_000  # the draw produced a real workload

    # --- engine level: reference vs segment-batched backend -----------
    reference = case.spec("numpy-reference").build().run(case.events)
    batched = case.spec("numpy-batch").build().run(case.events)
    assert batched.profile.counters() == reference.profile.counters()
    assert_keyframes_bit_equal(reference.keyframes, batched.keyframes)
    np.testing.assert_array_equal(reference.cloud.points, batched.cloud.points)
    assert reference.profile.n_keyframes >= 2  # multi-segment by construction

    # --- engine level: compiled native-batch backend, when available ---
    if "native-batch" in BACKENDS:
        native = case.spec("native-batch").build().run(case.events)
        assert native.profile.counters() == reference.profile.counters()
        assert_keyframes_bit_equal(reference.keyframes, native.keyframes)
        np.testing.assert_array_equal(reference.cloud.points, native.cloud.points)

    # --- mapping level: parallel sharding across backends -------------
    mapped_ref = MappingOrchestrator(
        workers=1, **dict(case.spec_kwargs, backend="numpy-reference")
    ).run(case.events)
    mapped_batch = MappingOrchestrator(
        workers=2, **dict(case.spec_kwargs, backend="numpy-batch")
    ).run(case.events)
    assert_fused_bit_equal(mapped_ref, mapped_batch)
    assert mapped_batch.profile.counters() == reference.profile.counters()
    assert_keyframes_bit_equal(reference.keyframes, mapped_batch.keyframes)

    # --- serving level: any worker count, cache on or off -------------
    spec = case.spec("numpy-batch")
    executor = "inline" if case.workers == 1 else "thread"
    with ReconstructionService(
        workers=case.workers,
        executor=executor,
        cache=CacheConfig(mem_mb=64 if case.cache_on else 0),
    ) as service:
        job_id = service.submit(case.events, spec)
        served = service.result(job_id)
        assert_fused_bit_equal(served, mapped_batch)
        assert_keyframes_bit_equal(served.keyframes, mapped_batch.keyframes)
        if case.cache_on:
            dispatched = len(service.dispatch_log)
            repeat = service.submit(case.events, spec)
            status = service.poll(repeat)
            assert status.cache_hit and status.state is JobState.DONE
            assert len(service.dispatch_log) == dispatched  # zero-dispatch repeat
            assert_fused_bit_equal(service.result(repeat), mapped_batch)

    # --- streaming level: chunked ingestion ≡ one-shot submission ------
    chunk_rng = np.random.default_rng(7000 + seed)
    with ReconstructionService(
        workers=case.workers,
        executor=executor,
        cache=CacheConfig(mem_mb=0),
    ) as service:
        with service.open_stream(spec) as stream:
            updates = []
            cursor = 0
            while cursor < len(case.events):
                step = int(chunk_rng.integers(200, 20_000))
                stream.feed(case.events[cursor : cursor + step])
                updates.extend(stream.poll_updates())
                cursor += step
        streamed = stream.result(timeout=300.0)
        updates.extend(stream.poll_updates())
        assert service.stats().chunks_dropped == 0
    assert_fused_bit_equal(streamed, mapped_batch)
    assert_keyframes_bit_equal(streamed.keyframes, mapped_batch.keyframes)
    assert len(updates) == len(streamed.keyframes)
    np.testing.assert_array_equal(updates[-1].cloud.points, streamed.cloud.points)


#: Fuzz-case seed of the warm-cache leg (one case, six service legs).
WARM_CACHE_SEED = 3


@pytest.mark.parametrize("executor", ["inline", "thread", "process"])
@pytest.mark.parametrize("tier", ["memory", "disk"])
def test_warm_segment_cache_is_invisible(tier, executor, tmp_path):
    """Warm-cache assembly is bit-identical to the cold run, streams included.

    One fuzz-drawn case runs cold against an empty segment cache, then
    resubmits (batch) and replays (stream) against the warm cache: both
    warm runs must complete with **zero** new segment dispatches and
    fuse bit-identically to the cold result — for the memory tier and
    the disk tier, on every executor.
    """
    case = draw_case(WARM_CACHE_SEED)
    spec = case.spec("numpy-batch")
    workers = 1 if executor == "inline" else 2
    cache = CacheConfig(
        mem_mb=64 if tier == "memory" else 0,
        cache_dir=str(tmp_path) if tier == "disk" else "",
    )
    with ReconstructionService(
        workers=workers, executor=executor, cache=cache
    ) as service:
        cold = service.result(service.submit(case.events, spec), timeout=300.0)
        cold_dispatches = len(service.dispatch_log)
        assert cold_dispatches == len(cold.segments) > 1

        warm = service.result(service.submit(case.events, spec), timeout=300.0)
        assert len(service.dispatch_log) == cold_dispatches
        assert service.stats().cache.segment_hits >= len(cold.segments)
        if tier == "disk":
            assert service.stats().cache.segment_disk_entries == len(cold.segments)
        assert_fused_bit_equal(warm, cold)
        assert_keyframes_bit_equal(warm.keyframes, cold.keyframes)

        chunk_rng = np.random.default_rng(7700 + WARM_CACHE_SEED)
        with service.open_stream(spec) as stream:
            cursor = 0
            while cursor < len(case.events):
                step = int(chunk_rng.integers(200, 20_000))
                stream.feed(case.events[cursor : cursor + step])
                cursor += step
        streamed = stream.result(timeout=300.0)
        assert len(service.dispatch_log) == cold_dispatches
        assert_fused_bit_equal(streamed, cold)
        assert_keyframes_bit_equal(streamed.keyframes, cold.keyframes)


#: Fault-plan seed of the chaos leg; CI sweeps this as a matrix.
CHAOS_FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

#: Fuzz-case seeds the chaos leg replays (a subset of FUZZ_SEEDS — the
#: chaos leg runs every case three times, once per executor).
CHAOS_CASE_SEEDS = [1, 4]


@pytest.mark.parametrize("executor", ["inline", "thread", "process"])
@pytest.mark.parametrize("seed", CHAOS_CASE_SEEDS)
def test_chaos_transient_faults_are_invisible(seed, executor):
    """A retried chaos run is bit-identical to the fault-free run.

    Every segment's first attempt fails (transient plan, ``rate=1.0``);
    the retry budget absorbs all of it, and neither the fused map nor
    the deterministic counters can tell the runs apart — on any
    executor, including a process pool with real worker round-trips.
    """
    case = draw_case(seed)
    spec = case.spec("numpy-batch")
    workers = 1 if executor == "inline" else 2
    with ReconstructionService(
        workers=workers, executor=executor, cache=CacheConfig(mem_mb=0)
    ) as service:
        clean = service.result(
            service.submit(case.events, spec), timeout=300.0
        )
        assert service.stats().segments_retried == 0

    plan = FaultPlan(
        FaultKind.TRANSIENT, seed=CHAOS_FAULT_SEED, rate=1.0, max_failures=1
    )
    with ReconstructionService(
        workers=workers, executor=executor, cache=CacheConfig(mem_mb=0)
    ) as service:
        job_id = service.submit(
            case.events,
            spec,
            options=JobOptions(faults=plan, retry=RetryPolicy(max_attempts=3)),
        )
        chaotic = service.result(job_id, timeout=300.0)
        # The acceptance bar: at least one injected failure per job —
        # here exactly one per segment — and a DONE terminal state.
        assert service.stats().segments_retried == len(chaotic.segments)
        assert service.poll(job_id).state is JobState.DONE

    assert_fused_bit_equal(chaotic, clean)
    assert_keyframes_bit_equal(chaotic.keyframes, clean.keyframes)
    assert chaotic.missing_segments == ()


#: Fuzz-case seeds of the gateway leg (each runs 3 tenants through the gateway).
GATEWAY_CASE_SEEDS = [2, 5]


@pytest.mark.parametrize("seed", GATEWAY_CASE_SEEDS)
def test_gateway_routing_is_invisible(seed):
    """A gateway run is bit-identical to a direct single-service run.

    Three tenant sessions submit the same case through the gateway's one
    service: every tenant's fused map, key frames and deterministic
    counters match the direct submission exactly — the gateway changes
    *how* work is admitted, never *what* it computes.
    """
    import asyncio

    from repro.serve import Gateway, GatewayConfig, ServiceConfig

    case = draw_case(seed)
    spec = case.spec("numpy-batch")
    with ReconstructionService(
        workers=1, executor="inline", cache=CacheConfig(mem_mb=0)
    ) as service:
        direct = service.result(service.submit(case.events, spec), timeout=300.0)

    async def routed():
        config = GatewayConfig(
            service=ServiceConfig(
                workers=1,
                executor="inline",
                cache=CacheConfig(mem_mb=0.0, cache_dir=""),
            ),
        )
        async with Gateway(config) as gateway:
            jobs = [
                await gateway.submit(case.events, spec, session=f"tenant-{i}")
                for i in range(3)
            ]
            return [
                await gateway.result(job_id, timeout=300.0) for job_id in jobs
            ]

    for result in asyncio.run(routed()):
        assert_fused_bit_equal(result, direct)
        assert_keyframes_bit_equal(result.keyframes, direct.keyframes)


# ----------------------------------------------------------------------
# Rig leg: seeded random multi-camera rigs
# ----------------------------------------------------------------------

#: Seeds of the rig fuzz leg (each draws a random 2- or 3-camera rig;
#: the dedicated `rig` CI job runs these with ``-k rig``).
RIG_FUZZ_SEEDS = [0, 1, 2]


@functools.lru_cache(maxsize=None)
def draw_rig_case(seed: int):
    """Draw a random rig workload from the seed: scene, body trajectory,
    2–3 mounting extrinsics (baseline + small yaw), per-camera noisy
    event streams, and a :class:`CameraRig` over one drawn engine
    configuration.  Cached: several tests replay the same case.
    """
    rng = np.random.default_rng(6000 + seed)
    mean_depth = float(rng.uniform(0.7, 1.2))
    scene = slider_scene(mean_depth, seed=100 + seed)
    camera = PinholeCamera.ideal(96, 72, fov_deg=float(rng.uniform(50.0, 60.0)))
    half_span = float(rng.uniform(0.26, 0.36)) * mean_depth
    trajectory = linear_trajectory(
        start=[-half_span, 0.0, 0.0],
        end=[half_span, 0.0, 0.0],
        duration=float(rng.uniform(0.8, 1.0)),
        n_poses=int(rng.integers(61, 81)),
    )
    n_cameras = 2 + int(seed % 2)
    extrinsics = [SE3.identity()]
    for _ in range(n_cameras - 1):
        yaw = float(rng.uniform(-0.05, 0.05))
        extrinsics.append(
            SE3(
                Quaternion.from_axis_angle(np.array([0.0, 1.0, 0.0]), yaw),
                np.array([float(rng.uniform(0.04, 0.1)), 0.0, 0.0]),
            )
        )
    sim_config = SimulatorConfig(
        contrast_threshold=float(rng.uniform(0.16, 0.2)),
        n_render_steps=int(rng.integers(42, 54)),
        threshold_mismatch=0.03,
        noise_rate=float(rng.uniform(0.02, 0.06)),
        seed=200 + seed,
    )
    events = simulate_rig(scene, camera, trajectory, extrinsics, sim_config)
    config = EMVSConfig(
        n_depth_planes=int(rng.choice([24, 32])),
        frame_size=int(rng.choice([512, 1024])),
        keyframe_distance=float(rng.uniform(0.1, 0.16)) * mean_depth,
    )
    rig = CameraRig.from_trajectory(
        camera,
        trajectory,
        config,
        extrinsics=extrinsics,
        depth_range=(0.5 * mean_depth, 2.2 * mean_depth),
        backend="numpy-batch",
    )
    return rig, events


@functools.lru_cache(maxsize=None)
def rig_reference(seed: int):
    """The serial (1-worker) rig result every other execution must match."""
    rig, events = draw_rig_case(seed)
    return RigOrchestrator(rig, workers=1).run(events)


def assert_rig_bit_equal(a, b):
    assert a.profile.counters() == b.profile.counters()
    assert (a.min_observations, a.min_cameras) == (b.min_observations, b.min_cameras)
    np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
    np.testing.assert_array_equal(
        a.global_map.fused_points(), b.global_map.fused_points()
    )
    np.testing.assert_array_equal(
        a.global_map.fused_confidences(), b.global_map.fused_confidences()
    )
    np.testing.assert_array_equal(
        a.global_map.fused_counts(), b.global_map.fused_counts()
    )
    np.testing.assert_array_equal(
        a.global_map.fused_camera_counts(), b.global_map.fused_camera_counts()
    )
    assert set(a.per_camera) == set(b.per_camera)
    for name in a.per_camera:
        assert_fused_bit_equal(a.per_camera[name], b.per_camera[name])
        assert_keyframes_bit_equal(
            a.per_camera[name].keyframes, b.per_camera[name].keyframes
        )


@pytest.mark.parametrize("seed", RIG_FUZZ_SEEDS)
def test_rig_fusion_bit_identical_across_workers(seed):
    """Rig fusion is bit-identical for 1/2/3 workers, thread or process pools."""
    rig, events = draw_rig_case(seed)
    reference = rig_reference(seed)
    assert reference.n_points > 0  # the draw produced a real workload
    for workers in (2, 3):
        threaded = RigOrchestrator(rig, workers=workers, executor="thread").run(
            events
        )
        assert_rig_bit_equal(threaded, reference)
    processed = RigOrchestrator(rig, workers=2, executor="process").run(events)
    assert_rig_bit_equal(processed, reference)


@pytest.mark.parametrize("seed", RIG_FUZZ_SEEDS)
def test_rig_per_camera_equals_monocular_run(seed):
    """Each camera's partial result is bit-identical to its monocular run."""
    rig, events = draw_rig_case(seed)
    reference = rig_reference(seed)
    for cam in rig:
        mono = MappingOrchestrator(
            cam.spec.camera,
            cam.spec.trajectory,
            cam.spec.config,
            depth_range=cam.spec.depth_range,
            policy=cam.spec.policy,
            backend=cam.spec.backend,
            workers=1,
        ).run(events[cam.name])
        partial = reference.per_camera[cam.name]
        assert_fused_bit_equal(mono, partial)
        assert_keyframes_bit_equal(mono.keyframes, partial.keyframes)


@pytest.mark.parametrize("executor", ["inline", "thread", "process"])
@pytest.mark.parametrize("seed", RIG_FUZZ_SEEDS)
def test_rig_served_equals_local(seed, executor):
    """A rig routed through the service is bit-identical to the local run.

    The rig submits as N ordinary per-camera jobs on the unchanged
    ``ReconstructionService.submit`` path — on every executor and a
    seed-swept worker count, collection must fuse to the exact arrays
    the local orchestrator produced.
    """
    rig, events = draw_rig_case(seed)
    reference = rig_reference(seed)
    orchestrator = RigOrchestrator(rig, workers=1)
    workers = 1 if executor == "inline" else int(seed % 3) + 1
    with ReconstructionService(
        workers=workers, executor=executor, cache=CacheConfig(mem_mb=0)
    ) as service:
        handle = orchestrator.submit(service, events)
        served = orchestrator.collect(service, handle, timeout=300.0)
    assert_rig_bit_equal(served, reference)
