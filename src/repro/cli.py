"""Command-line interface.

Eight subcommands cover the common workflows end to end::

    python -m repro info                         # registries & configuration
    python -m repro simulate -s slider_close -o out/   # write a dataset dir
    python -m repro reconstruct -s simulation_3planes -o cloud.ply
    python -m repro serve --job slider_long --job corridor_sweep --status
    python -m repro gateway --workers 4 --port 8080
    python -m repro submit -s corridor_sweep --repeat 3
    python -m repro stream -s corridor_sweep --chunk-ms 20
    python -m repro models                       # Tables 2/3 from the models

``reconstruct`` accepts either a built-in sequence replica (``-s``) or a
directory in Event Camera Dataset layout (``-d``), runs the chosen
pipeline, reports metrics (when ground truth exists) and writes the cloud
and depth maps in standard formats.  ``serve`` / ``submit`` drive the
multi-session reconstruction service; ``stream`` feeds one sequence
through an incremental streaming session, printing a line per finalized
key frame as the map grows.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _cmd_info(args) -> int:
    import os

    from repro.core import BACKENDS, POLICIES
    from repro.events.datasets import (
        RIG_SCENARIO_NAMES,
        SCENARIO_NAMES,
        SEQUENCE_NAMES,
        SHORT_NAMES,
    )
    from repro.serve import CACHE_MODES, OVERFLOW_POLICIES, CacheConfig, FaultKind

    print("Eventor reproduction — available sequence replicas:")
    for name in SEQUENCE_NAMES:
        print(f"  {name}  (short: {SHORT_NAMES[name]})")
    print("scenario registry (extended multi-keyframe workloads):")
    for name in SCENARIO_NAMES:
        print(f"  {name}  (short: {SHORT_NAMES[name]})")
    print("rig scenarios (multi-camera stereo fusion; `reconstruct --rig`):")
    for name in RIG_SCENARIO_NAMES:
        print(f"  {name}  (short: {SHORT_NAMES[name]})")
    from repro.native import provider_status

    print(f"\nregistered backends: {', '.join(sorted(BACKENDS))}")
    print(f"native kernel provider: {provider_status()}")
    print(f"registered policies: {', '.join(sorted(POLICIES))}")
    print(f"serve overflow policies: {', '.join(OVERFLOW_POLICIES)}")
    print(
        "serve fault taxonomy (chaos testing): "
        + ", ".join(kind.value for kind in FaultKind)
    )
    defaults = CacheConfig()
    env_dir = os.environ.get("REPRO_CACHE_DIR") or None
    print(
        f"serve segment cache tiers: memory {defaults.mem_mb:.0f} MiB (0 = off), "
        f"disk {defaults.disk_mb:.0f} MiB"
    )
    print(
        "segment disk tier directory: "
        + (f"{env_dir} (from REPRO_CACHE_DIR)" if env_dir else
           "unset (pass --cache-dir or set REPRO_CACHE_DIR)")
    )
    print(f"per-job cache modes: {', '.join(CACHE_MODES)}")
    print("\nDefault configuration: 1024-event frames, Nz=100 planes,")
    print("nearest voting + Table 1 quantization (reformulated pipeline).")
    return 0


def _cmd_simulate(args) -> int:
    from repro.events.datasets import load_sequence
    from repro.events.davis_io import save_dataset_dir

    seq = load_sequence(args.sequence, quality=args.quality)
    save_dataset_dir(args.output, seq.events, seq.trajectory, seq.camera)
    print(
        f"wrote {len(seq.events)} events + trajectory + calibration to "
        f"{args.output} (Event Camera Dataset layout)"
    )
    return 0


def _load_input(args):
    """Returns (events, trajectory, camera, sequence_or_None)."""
    if args.sequence and args.dataset:
        raise SystemExit("use either --sequence or --dataset, not both")
    if args.sequence:
        from repro.events.datasets import load_sequence

        try:
            seq = load_sequence(args.sequence, quality=args.quality)
        except KeyError as e:
            # load_sequence's message already lists the available names.
            raise SystemExit(e.args[0]) from None
        return seq.events, seq.trajectory, seq.camera, seq
    if args.dataset:
        from repro.events.davis_io import load_dataset_dir

        events, trajectory, camera = load_dataset_dir(args.dataset)
        return events, trajectory, camera, None
    raise SystemExit("one of --sequence or --dataset is required")


def _resolve_backend(name: str):
    """Validate a backend name against the live registry (helpful error)."""
    from repro.core import BACKENDS

    if name not in BACKENDS:
        raise SystemExit(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(sorted(BACKENDS))}"
        )
    return name


def _resolve_policy(name: str):
    """Validate a policy name against the live registry (helpful error)."""
    from repro.core import POLICIES

    if name not in POLICIES:
        raise SystemExit(
            f"unknown policy {name!r}; registered policies: "
            f"{', '.join(sorted(POLICIES))}"
        )
    return POLICIES[name]


def _save_cloud(path: str, cloud) -> None:
    """Write a point cloud as .ply or (anything else) .xyz."""
    if path.endswith(".ply"):
        from repro.io.ply import save_ply

        save_ply(path, cloud)
    else:
        from repro.io.xyz import save_xyz

        save_xyz(path, cloud)
    print(f"wrote {len(cloud)} points to {path}")


def _cmd_reconstruct_rig(args) -> int:
    """The ``reconstruct --rig`` path: N cameras, one fused map."""
    from repro.core import CameraRig, EMVSConfig, RigOrchestrator
    from repro.eval.metrics import compare_rig_to_monocular
    from repro.events.datasets import load_rig_sequence

    if args.sequence or args.dataset:
        raise SystemExit("--rig names its own scenario; drop --sequence/--dataset")
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    _resolve_backend(args.backend)
    policy = _resolve_policy(args.policy)
    try:
        seq = load_rig_sequence(args.rig, quality=args.quality)
    except KeyError as e:
        raise SystemExit(e.args[0]) from None
    n_events = sum(len(ev) for ev in seq.events.values())
    print(
        f"rig input: {seq.n_cameras} cameras "
        f"({', '.join(seq.camera_names)}), {n_events} events total"
    )

    config = EMVSConfig(
        n_depth_planes=args.planes,
        frame_size=args.frame_size,
        keyframe_distance=(
            args.keyframe_distance
            if args.keyframe_distance is not None
            else seq.keyframe_distance
        ),
    )
    try:
        rig = CameraRig.from_trajectory(
            seq.camera,
            seq.trajectory,
            config,
            extrinsics=seq.extrinsics,
            names=list(seq.camera_names),
            depth_range=seq.depth_range,
            policy=policy,
            backend=args.backend,
        )
    except ValueError as e:  # a policy the backend cannot execute
        raise SystemExit(str(e)) from None
    orchestrator = RigOrchestrator(
        rig,
        workers=args.workers,
        voxel_size=args.fuse_voxel,
        min_cameras=args.min_cameras,
    )
    result = orchestrator.run(seq.events)
    print(
        f"mapped {seq.n_cameras} cameras on {result.workers} worker(s) "
        f"in {result.wall_seconds:.2f} s "
        f"[policy={policy.name}, backend={args.backend}]"
    )
    print(
        f"rig-fused map: {result.n_points} points "
        f"(min_cameras={result.min_cameras}, "
        f"voxel {result.global_map.voxel_size * 1e3:.1f} mm)"
    )
    comparison = compare_rig_to_monocular(result, seq)
    for name in seq.camera_names:
        print(f"  {name} solo: {comparison.per_camera[name]}")
    print(f"  fused:  {comparison.fused}")
    print(
        f"fusion vs best single camera ({comparison.best_camera}): "
        f"{'-' if comparison.fusion_wins else '+'}"
        f"{abs(comparison.improvement):.4f} m mean surface distance"
    )

    if args.output:
        cloud = result.cloud
        if args.filter_radius > 0:
            cloud = cloud.radius_filter(args.filter_radius, min_neighbors=2)
        _save_cloud(args.output, cloud)
    return 0


def _cmd_reconstruct(args) -> int:
    from repro.core import EMVSConfig, MappingOrchestrator, ReconstructionEngine

    if args.rig:
        return _cmd_reconstruct_rig(args)
    if args.min_cameras is not None:
        raise SystemExit("--min-cameras requires --rig")
    _resolve_backend(args.backend)
    policy = _resolve_policy(args.policy)
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.fuse_voxel is not None and args.fuse_voxel <= 0:
        raise SystemExit("--fuse-voxel must be positive")

    events, trajectory, camera, seq = _load_input(args)
    if args.t_start is not None or args.t_end is not None:
        t0 = events.t_start if args.t_start is None else args.t_start
        t1 = events.t_end if args.t_end is None else args.t_end
        events = events.time_slice(t0, t1)
    print(f"input: {len(events)} events over {events.duration:.2f} s")

    depth_range = (
        seq.depth_range if seq is not None else (args.z_min, args.z_max)
    )
    keyframe_distance = args.keyframe_distance
    if keyframe_distance is None and seq is not None:
        keyframe_distance = seq.keyframe_distance  # scenario recommendation
    config = EMVSConfig(
        n_depth_planes=args.planes,
        frame_size=args.frame_size,
        keyframe_distance=keyframe_distance,
    )
    if args.batch_frames is not None:
        import dataclasses

        if args.batch_frames < 1:
            raise SystemExit("--batch-frames must be >= 1")
        policy = dataclasses.replace(policy, batch_frames=args.batch_frames)
    if args.backend == "hardware-model" and not policy.schema.enabled:
        raise SystemExit(
            "the hardware-model backend is quantized by design; "
            "use --policy reformulated"
        )

    # An explicit fusion voxel is a request to fuse.
    fused = args.fuse or args.workers > 1 or args.fuse_voxel is not None
    if fused:
        if args.workers > 1 and keyframe_distance is None:
            print(
                "note: no key-frame distance set — the stream is a single "
                "segment, so extra workers cannot help; pass "
                "--keyframe-distance to shard it"
            )
        orchestrator = MappingOrchestrator(
            camera,
            trajectory,
            config,
            depth_range=depth_range,
            policy=policy,
            backend=args.backend,
            workers=args.workers,
            voxel_size=args.fuse_voxel,
        )
        result = orchestrator.run(events)
        print(
            f"mapped {len(result.segments)} segment(s) on "
            f"{result.workers} worker(s) in {result.wall_seconds:.2f} s"
        )
        print(
            f"fused global map: {result.n_points} points "
            f"({result.global_map.n_raw_points} observations, "
            f"voxel {result.global_map.voxel_size * 1e3:.1f} mm) "
            f"[policy={policy.name}, backend={args.backend}]"
        )
    else:
        engine = ReconstructionEngine(
            camera,
            trajectory,
            config,
            depth_range=depth_range,
            policy=policy,
            backend=args.backend,
        )
        result = engine.run(events)
        print(
            f"reconstructed {result.n_points} points across "
            f"{len(result.keyframes)} key frame(s) "
            f"[policy={policy.name}, backend={args.backend}]"
        )
    if result.profile.dropped_events:
        print(f"dropped events (misses + trailing partial frame): "
              f"{result.profile.dropped_events}")

    if seq is not None and result.keyframes:
        from repro.eval.metrics import evaluate_fused_map, evaluate_reconstruction

        print(f"accuracy vs. ground truth: {evaluate_reconstruction(result, seq)}")
        if fused and result.n_points:
            print(f"fused-map accuracy: {evaluate_fused_map(result.cloud, seq)}")

    if args.output:
        cloud = result.cloud
        if args.filter_radius > 0:
            cloud = cloud.radius_filter(args.filter_radius, min_neighbors=2)
        _save_cloud(args.output, cloud)

    if args.depth_map and result.keyframes:
        from repro.io.pgm import depth_to_image, save_pgm

        dm = result.keyframes[-1].depth_map
        save_pgm(args.depth_map, depth_to_image(dm.depth, depth_range))
        print(f"wrote depth map ({dm.n_points} px) to {args.depth_map}")
    return 0


def _validate_serve_limits(args) -> None:
    """Shared numeric validation of the serving knobs (registry-error style)."""
    from repro.serve import OVERFLOW_POLICIES

    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.queue_limit < 1:
        raise SystemExit("--queue-limit must be >= 1")
    if args.overflow not in OVERFLOW_POLICIES:
        raise SystemExit(
            f"unknown overflow policy {args.overflow!r}; "
            f"known policies: {', '.join(OVERFLOW_POLICIES)}"
        )
    if getattr(args, "repeat", 1) < 1:
        raise SystemExit("--repeat must be >= 1")
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        raise SystemExit("--deadline-ms must be positive")
    if args.segment_deadline_ms is not None and args.segment_deadline_ms <= 0:
        raise SystemExit("--segment-deadline-ms must be positive")
    if args.retries < 0:
        raise SystemExit("--retries must be >= 0")
    if args.retry_backoff_ms < 0:
        raise SystemExit("--retry-backoff-ms must be >= 0")
    if args.cache_mem_mb is not None and args.cache_mem_mb < 0:
        raise SystemExit("--cache-mem-mb must be >= 0 (0 disables the tier)")
    if args.cache_disk_mb < 0:
        raise SystemExit("--cache-disk-mb must be >= 0 (0 disables the tier)")


def _service_config(args):
    """Build the one :class:`ServiceConfig` every serve command runs on.

    The single construction point of the CLI's service configuration:
    engine-independent pool/admission knobs, the cache tiers, and the
    default per-job options all land in one value object that
    ``ReconstructionService.from_config`` consumes.
    """
    from repro.serve import CacheConfig, JobOptions, RetryPolicy, ServiceConfig

    retry = None
    if args.retries > 0:
        retry = RetryPolicy(
            max_attempts=args.retries + 1,
            backoff_s=args.retry_backoff_ms * 1e-3,
        )
    options = JobOptions(
        retry=retry,
        deadline_s=None if args.deadline_ms is None else args.deadline_ms * 1e-3,
        segment_deadline_s=(
            None
            if args.segment_deadline_ms is None
            else args.segment_deadline_ms * 1e-3
        ),
        allow_partial=args.allow_partial or None,
    )
    cache = CacheConfig(
        mem_mb=CacheConfig.mem_mb if args.cache_mem_mb is None else args.cache_mem_mb,
        disk_mb=args.cache_disk_mb,
        cache_dir=args.cache_dir,
    )
    return ServiceConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        overflow=args.overflow,
        cache=cache,
        defaults=options,
    )


def _sequence_job(args, name: str, policy):
    """Load a named sequence and build its (events, EngineSpec) pair."""
    from repro.core import EMVSConfig, EngineSpec
    from repro.events.datasets import load_sequence

    try:
        seq = load_sequence(name, quality=args.quality)
    except KeyError as e:
        raise SystemExit(e.args[0]) from None
    events = seq.events
    if args.t_start is not None or args.t_end is not None:
        t0 = events.t_start if args.t_start is None else args.t_start
        t1 = events.t_end if args.t_end is None else args.t_end
        events = events.time_slice(t0, t1)
    keyframe_distance = args.keyframe_distance
    if keyframe_distance is None:
        keyframe_distance = seq.keyframe_distance
    config = EMVSConfig(
        n_depth_planes=args.planes,
        frame_size=args.frame_size,
        keyframe_distance=keyframe_distance,
    )
    try:
        spec = EngineSpec(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            policy=policy,
            backend=args.backend,
        )
    except ValueError as e:  # a policy the backend cannot execute
        raise SystemExit(str(e)) from None
    return seq, events, spec


def _print_service_report(service, job_ids) -> None:
    from repro.serve import JobState

    print(f"{'job':<22} {'session':<12} {'state':<8} "
          f"{'segs':>4} {'points':>8} {'ms':>8} cache")
    for job_id in job_ids:
        status = service.poll(job_id)
        job = service.jobs[job_id]
        points = job.result.n_points if job.result is not None else 0
        ms = (status.latency_seconds or 0.0) * 1e3
        via = "hit" if status.cache_hit else "-"
        print(
            f"{job_id:<22} {status.session:<12} {status.state.value:<8} "
            f"{status.segments_done:>2}/{status.segments_total:<2} "
            f"{points:>8} {ms:>8.1f} {via}"
        )
        if status.state is JobState.FAILED:
            print(f"  error: {status.error}")
        if status.missing_segments:
            print(
                f"  missing segments: "
                f"{', '.join(str(i) for i in status.missing_segments)}"
            )
    stats = service.stats()
    print(
        f"segment cache: {stats.cache.segment_hits} hit(s) "
        f"({stats.cache.segment_disk_hits} from disk) / "
        f"{stats.cache.segment_misses} miss(es); "
        f"{stats.cache.segment_entries} in memory, "
        f"{stats.cache.segment_disk_entries} on disk; "
        f"refused {stats.jobs_refused}, dropped {stats.jobs_dropped}"
    )
    if (
        stats.jobs_partial
        or stats.segments_retried
        or stats.segments_timed_out
        or stats.results_corrupted
    ):
        print(
            f"reliability: {stats.segments_retried} segment(s) retried, "
            f"{stats.segments_timed_out} timed out, "
            f"{stats.jobs_partial} partial job(s), "
            f"{stats.results_corrupted} corrupted payload(s) rejected"
        )
    if stats.segments_dispatched:
        shares = ", ".join(
            f"{name}={count}" for name, count in stats.segments_dispatched.items()
        )
        print(f"segments dispatched per session: {shares}")


def _cmd_serve(args) -> int:
    from repro.serve import ReconstructionService, SessionBacklogFull

    _resolve_backend(args.backend)
    policy = _resolve_policy(args.policy)
    _validate_serve_limits(args)
    job_tokens = args.job or ["slider_long", "corridor_sweep"]

    with ReconstructionService.from_config(_service_config(args)) as service:
        submitted = []
        for token in job_tokens:
            name, _, session = token.partition(":")
            _, events, spec = _sequence_job(args, name, policy)
            for _ in range(args.repeat):
                try:
                    submitted.append(
                        service.submit(events, spec, session=session or name)
                    )
                except SessionBacklogFull as e:
                    print(f"refused {name!r}: {e}")
        print(
            f"serving {len(submitted)} job(s) from {len(job_tokens)} stream(s) "
            f"on {service.workers} worker(s) [{service.executor}]"
        )
        service.drain()
        _print_service_report(service, submitted)
        if args.status:
            from repro.serve import format_status

            print()
            print(format_status(service.stats()))
    return 0


def _cmd_gateway(args) -> int:
    """Run demo jobs through the async gateway and report.

    The async twin of ``_cmd_serve``: the same ``--job`` tokens are
    submitted through a :class:`~repro.serve.Gateway` (one service,
    ``--workers`` wide) with the HTTP surface live — the final
    ``/metrics`` and ``/status`` documents are scraped over the wire
    through the gateway's own HTTP server rather than read in-process,
    so the run exercises the full stack.
    """
    import asyncio

    from repro.serve import (
        Gateway,
        GatewayConfig,
        GatewayRefused,
        GatewayServer,
        format_status,
        http_request,
    )

    _resolve_backend(args.backend)
    policy = _resolve_policy(args.policy)
    _validate_serve_limits(args)
    job_tokens = args.job or ["slider_long", "corridor_sweep"]
    config = GatewayConfig(
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        max_inflight=args.max_inflight,
        port=args.port,
        service=_service_config(args),
    )

    async def run() -> int:
        async with Gateway(config) as gateway:
            async with GatewayServer(gateway) as server:
                print(f"gateway: HTTP on {server.host}:{server.port}")
                submitted = []
                for token in job_tokens:
                    name, _, session = token.partition(":")
                    session = session or name
                    _, events, spec = _sequence_job(args, name, policy)
                    for _ in range(args.repeat):
                        try:
                            submitted.append(await gateway.submit(
                                events, spec, session=session
                            ))
                        except GatewayRefused as e:
                            print(f"refused {name!r}: {e}")
                completed = await gateway.drain()
                for job_id in submitted:
                    status = await gateway.poll(job_id)
                    print(
                        f"{job_id:<22} {status.state.value:<8} "
                        f"{status.segments_done}/{status.segments_total} "
                        "segments"
                    )
                print(f"drained {completed} job(s)")
                _, metrics = await http_request(
                    server.host, server.port, "GET", "/metrics"
                )
                _, status_doc = await http_request(
                    server.host, server.port, "GET", "/status"
                )
                if args.metrics:
                    print()
                    print(metrics.decode("utf-8"))
                print()
                print(format_status((await gateway.stats())[0]))
                totals = json.loads(status_doc)["gateway"]
                print(
                    f"gateway: {totals['requests']['submit']} submit(s), "
                    f"refusals {totals['refusals']}, "
                    f"in-flight {totals['inflight_jobs']}"
                )
        return 0

    return asyncio.run(run())


def _cmd_submit(args) -> int:
    from repro.serve import ReconstructionService

    _resolve_backend(args.backend)
    policy = _resolve_policy(args.policy)
    _validate_serve_limits(args)

    _, events, spec = _sequence_job(args, args.sequence, policy)
    print(f"input: {len(events)} events over {events.duration:.2f} s")
    with ReconstructionService.from_config(_service_config(args)) as service:
        from repro.serve import JobFailed, SessionBacklogFull

        job_ids = []
        for _ in range(args.repeat):
            try:
                job_ids.append(service.submit(events, spec, session=args.session))
            except SessionBacklogFull as e:
                raise SystemExit(str(e)) from None
        service.drain()
        try:
            result = service.result(job_ids[-1])
        except JobFailed as e:
            _print_service_report(service, job_ids)
            raise SystemExit(str(e)) from None
        _print_service_report(service, job_ids)

    if args.output:
        _save_cloud(args.output, result.cloud)
    return 0


def _cmd_stream(args) -> int:
    from repro.serve import ReconstructionService, StreamBacklogFull

    _resolve_backend(args.backend)
    policy = _resolve_policy(args.policy)
    _validate_serve_limits(args)
    if args.chunk_ms <= 0:
        raise SystemExit("--chunk-ms must be positive")
    if args.max_pending_chunks < 1:
        raise SystemExit("--max-pending-chunks must be >= 1")

    _, events, spec = _sequence_job(args, args.sequence, policy)
    chunk = args.chunk_ms * 1e-3
    print(
        f"input: {len(events)} events over {events.duration:.2f} s, "
        f"streamed in {args.chunk_ms:.0f} ms chunks"
    )
    with ReconstructionService.from_config(_service_config(args)) as service:
        with service.open_stream(
            spec, session=args.session, max_pending_chunks=args.max_pending_chunks
        ) as stream:
            n_chunks = 0
            # Adjacent chunks share the exact same float bound (and the
            # last one runs to +inf), so the half-open time slices cover
            # every event exactly once — the stream == batch identity
            # depends on it.
            edges = np.arange(events.t_start, events.t_end, chunk)
            for t0, t1 in zip(edges, np.append(edges[1:], np.inf)):
                try:
                    stream.feed(events.time_slice(t0, t1))
                except StreamBacklogFull as e:
                    raise SystemExit(str(e)) from None
                n_chunks += 1
                for update in stream.poll_updates():
                    _print_stream_update(update)
        result = stream.result()
        for update in stream.poll_updates():
            _print_stream_update(update)
        stats = service.stats()
        print(
            f"stream closed after {n_chunks} chunk(s): "
            f"{len(result.keyframes)} key frame(s), {result.n_points} fused "
            f"points on {service.workers} worker(s) [{service.executor}]"
        )
        print(
            f"updates emitted: {stats.updates_emitted}; chunks refused "
            f"{stats.chunks_refused}, dropped {stats.chunks_dropped}; "
            f"dropped events {result.profile.dropped_events}"
        )
        if service.segment_cache.enabled:
            print(
                f"segment cache: {stats.cache.segment_hits} hit(s) "
                f"({stats.cache.segment_disk_hits} from disk) / "
                f"{stats.cache.segment_misses} miss(es); "
                f"{stats.cache.segment_entries} in memory, "
                f"{stats.cache.segment_disk_entries} on disk"
            )
    if args.output:
        _save_cloud(args.output, result.cloud)
    return 0


def _print_stream_update(update) -> None:
    """One line per finalized key frame, as the stream emits it."""
    dm = update.keyframe.depth_map
    print(
        f"  key frame #{update.keyframe_index} (segment {update.segment_index}): "
        f"{dm.n_points} px -> map {len(update.cloud)} points "
        f"({update.map_voxels} voxels) after {update.latency_seconds * 1e3:.0f} ms"
    )


def _cmd_models(args) -> int:
    from repro.eval.experiments import (
        efficiency_gain,
        performance_summary,
        resource_summary,
    )
    from repro.hardware.config import EventorConfig

    cfg = EventorConfig(n_pe_zi=args.pe, n_planes=args.planes)
    r = resource_summary(cfg)
    print("Resources (Table 2):")
    print(f"  LUT {r['luts']} ({r['lut_util']:.2%})  FF {r['flip_flops']} "
          f"({r['ff_util']:.2%})  BRAM {r['bram_kb']:.0f} KB ({r['bram_util']:.2%})")
    s = performance_summary(cfg)
    print("Performance (Table 3):")
    for metric, values in s.items():
        print(f"  {metric:<22} cpu={values['cpu']:9.2f}  eventor={values['eventor']:9.2f}")
    print(f"Energy-efficiency gain: {efficiency_gain(cfg):.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Eventor (DAC 2022) reproduction: event-based multi-view stereo",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list built-in sequences").set_defaults(
        func=_cmd_info
    )

    p_sim = sub.add_parser("simulate", help="generate a dataset directory")
    p_sim.add_argument("--sequence", "-s", required=True)
    p_sim.add_argument("--output", "-o", required=True)
    p_sim.add_argument("--quality", choices=("full", "fast"), default="full")
    p_sim.set_defaults(func=_cmd_simulate)

    p_rec = sub.add_parser("reconstruct", help="run EMVS over an event stream")
    p_rec.add_argument("--sequence", "-s", help="built-in sequence replica")
    p_rec.add_argument("--dataset", "-d", help="dataset directory (events.txt...)")
    p_rec.add_argument(
        "--rig", metavar="NAME", default=None,
        help="reconstruct a multi-camera rig scenario (see `repro info`): "
             "runs every camera and fuses with cross-camera agreement",
    )
    p_rec.add_argument(
        "--min-cameras", type=int, default=None,
        help="distinct cameras that must agree on a fused voxel (--rig "
             "only; default 2 when the rig has at least two cameras)",
    )
    p_rec.add_argument("--quality", choices=("full", "fast"), default="full")
    # --policy/--backend are validated against the live registries at run
    # time (not argparse choices), so registered extensions are accepted
    # and unknown names get an error listing what exists.
    p_rec.add_argument(
        "--policy", default="reformulated",
        help="dataflow policy preset (see `repro info`)",
    )
    p_rec.add_argument(
        "--backend",
        default="numpy-reference",
        help="execution backend from the engine registry (see `repro info`)",
    )
    p_rec.add_argument(
        "--workers", type=int, default=1,
        help="worker-pool width for parallel multi-keyframe mapping; "
             ">1 shards the stream into key-frame segments (results are "
             "bit-identical for any width)",
    )
    p_rec.add_argument(
        "--fuse", action="store_true",
        help="fuse per-keyframe depth maps into one voxel-deduplicated, "
             "confidence-weighted global map (implied by --workers > 1)",
    )
    p_rec.add_argument(
        "--fuse-voxel", type=float, default=None,
        help="fusion voxel edge in metres (default: 1%% of the mean DSI depth)",
    )
    p_rec.add_argument(
        "--batch-frames", type=int, default=None,
        help="frames buffered per flush for batching backends "
             "(numpy-batch; results are bit-identical for any value)",
    )
    p_rec.add_argument("--planes", type=int, default=100, help="DSI depth planes")
    p_rec.add_argument("--frame-size", type=int, default=1024)
    p_rec.add_argument("--keyframe-distance", type=float, default=None)
    p_rec.add_argument("--z-min", type=float, default=0.5)
    p_rec.add_argument("--z-max", type=float, default=5.0)
    p_rec.add_argument("--t-start", type=float, default=None)
    p_rec.add_argument("--t-end", type=float, default=None)
    p_rec.add_argument("--filter-radius", type=float, default=0.0)
    p_rec.add_argument("--output", "-o", help="cloud output (.ply or .xyz)")
    p_rec.add_argument("--depth-map", help="last key frame depth map (.pgm)")
    p_rec.set_defaults(func=_cmd_reconstruct)

    def add_serve_options(p, *, default_backend="numpy-batch", repeat=True):
        """Engine + service knobs shared by `serve`, `submit` and `stream`."""
        p.add_argument("--quality", choices=("full", "fast"), default="full")
        p.add_argument(
            "--policy", default="reformulated",
            help="dataflow policy preset (see `repro info`)",
        )
        p.add_argument(
            "--backend", default=default_backend,
            help="execution backend from the engine registry (see `repro info`)",
        )
        p.add_argument("--planes", type=int, default=100, help="DSI depth planes")
        p.add_argument("--frame-size", type=int, default=1024)
        p.add_argument(
            "--keyframe-distance", type=float, default=None,
            help="key-frame translation threshold (default: the sequence's "
                 "recommendation)",
        )
        p.add_argument("--t-start", type=float, default=None)
        p.add_argument("--t-end", type=float, default=None)
        p.add_argument(
            "--workers", type=int, default=None,
            help="shared worker-pool width (default: one per CPU core)",
        )
        p.add_argument(
            "--queue-limit", type=int, default=8,
            help="max active jobs per session before backpressure applies",
        )
        p.add_argument(
            "--cache-dir", default=None,
            help="segment-cache disk-tier directory (persistent across "
                 "restarts; default: the REPRO_CACHE_DIR environment "
                 "variable, unset = disk tier off)",
        )
        p.add_argument(
            "--cache-mem-mb", type=float, default=None,
            help="segment-cache memory-tier bound in MiB (default: "
                 "CacheConfig.mem_mb; 0 disables the memory tier)",
        )
        p.add_argument(
            "--cache-disk-mb", type=float, default=256.0,
            help="segment-cache disk-tier bound in MiB (0 disables the "
                 "disk tier)",
        )
        p.add_argument(
            "--overflow", default="refuse",
            help="full-queue policy: refuse (reject the submission) or "
                 "drop-oldest (evict the session's oldest queued job)",
        )
        p.add_argument(
            "--deadline-ms", type=float, default=None,
            help="whole-job wall-clock budget; an expired job fails (or "
                 "degrades to a partial result with --allow-partial)",
        )
        p.add_argument(
            "--segment-deadline-ms", type=float, default=None,
            help="per-attempt budget of one segment on the pool; expired "
                 "attempts are abandoned by the watchdog and count as "
                 "failures toward the retry budget",
        )
        p.add_argument(
            "--retries", type=int, default=0,
            help="extra attempts per failed segment (0 = fail fast)",
        )
        p.add_argument(
            "--retry-backoff-ms", type=float, default=0.0,
            help="delay before the first retry, doubled per failure",
        )
        p.add_argument(
            "--allow-partial", action="store_true",
            help="degrade out-of-budget jobs to a PARTIAL result (fused "
                 "map of completed key frames + missing-segment manifest) "
                 "instead of failing them",
        )
        if repeat:
            p.add_argument(
                "--repeat", type=int, default=1,
                help="submit each job this many times (repeats are served "
                     "from the segment cache)",
            )

    p_srv = sub.add_parser(
        "serve",
        help="run a multi-session reconstruction service over demo jobs",
    )
    p_srv.add_argument(
        "--job", action="append", default=None, metavar="SEQUENCE[:SESSION]",
        help="submit this sequence as a job (repeatable; session defaults "
             "to the sequence name; default jobs: slider_long, corridor_sweep)",
    )
    p_srv.add_argument(
        "--status", action="store_true",
        help="print the operational status block (counters, "
             "retry/partial/cache-hit rates) after the run",
    )
    add_serve_options(p_srv)
    p_srv.set_defaults(func=_cmd_serve)

    p_gw = sub.add_parser(
        "gateway",
        help="run demo jobs through the async gateway (with HTTP "
             "/metrics and /status live)",
    )
    p_gw.add_argument(
        "--job", action="append", default=None, metavar="SEQUENCE[:SESSION]",
        help="submit this sequence as a job (repeatable; session defaults "
             "to the sequence name; default jobs: slider_long, corridor_sweep)",
    )
    p_gw.add_argument(
        "--port", type=int, default=0,
        help="HTTP bind port of the gateway server (0 = ephemeral)",
    )
    p_gw.add_argument(
        "--tenant-rate", type=float, default=0.0,
        help="per-tenant token-bucket refill rate in requests/s "
             "(0 disables throttling)",
    )
    p_gw.add_argument(
        "--tenant-burst", type=int, default=8,
        help="per-tenant token-bucket burst capacity",
    )
    p_gw.add_argument(
        "--max-inflight", type=int, default=0,
        help="global cap on jobs in flight (0 = unbounded)",
    )
    p_gw.add_argument(
        "--metrics", action="store_true",
        help="dump the final /metrics document (Prometheus text) after "
             "the run",
    )
    add_serve_options(p_gw)
    p_gw.set_defaults(func=_cmd_gateway)

    p_sub2 = sub.add_parser(
        "submit", help="submit one sequence through the reconstruction service"
    )
    p_sub2.add_argument("--sequence", "-s", required=True)
    p_sub2.add_argument("--session", default="cli")
    p_sub2.add_argument("--output", "-o", help="fused cloud output (.ply or .xyz)")
    add_serve_options(p_sub2)
    p_sub2.set_defaults(func=_cmd_submit)

    p_str = sub.add_parser(
        "stream",
        help="stream one sequence through an incremental serving session",
    )
    p_str.add_argument("--sequence", "-s", required=True)
    p_str.add_argument("--session", default="stream")
    p_str.add_argument(
        "--chunk-ms", type=float, default=20.0,
        help="chunk duration fed per step (simulated driver cadence)",
    )
    p_str.add_argument(
        "--max-pending-chunks", type=int, default=64,
        help="bounded in-flight chunk buffer; a full buffer applies the "
             "--overflow policy at chunk granularity",
    )
    p_str.add_argument("--output", "-o", help="fused cloud output (.ply or .xyz)")
    add_serve_options(p_str, repeat=False)
    p_str.set_defaults(func=_cmd_stream)

    p_mod = sub.add_parser("models", help="print the hardware model tables")
    p_mod.add_argument("--pe", type=int, default=2, help="PE_Zi count")
    p_mod.add_argument("--planes", type=int, default=128, help="DSI planes")
    p_mod.set_defaults(func=_cmd_models)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
