"""The three workloads: inputs, reference outputs, set-up, and the measured loop.

Each workload drives the system only through public APIs and checks
every operation's fused points and ``profile.counters()`` bit-exactly
against a reference computed outside the timed region: direct
``run_segment_task`` executions fused with ``fuse_keyframes`` (or
``fuse_camera_keyframes``) on the same input.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
from stats import median, percentile
from tracing import Tracer

#: DSI depth planes of every workload.
N_PLANES = 48

#: Stream chunk duration on the recording's clock.
CHUNK_S = 0.02

#: Gateway tenants' sequences (assigned to tenants by the seed) with the
#: key-frame distances that give both similar-sized windows.
TENANT_SEQUENCES = (("corridor_sweep", 0.2), ("simulation_3walls", 0.12))

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Reference:
    """The expected fused points and counters of one operation."""

    points: np.ndarray
    counters: dict

    def matches(self, cloud_points: np.ndarray, counters: dict) -> bool:
        return counters == self.counters and np.array_equal(cloud_points, self.points)


@dataclass
class Sample:
    """What one measured phase produced."""

    latencies: list[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    events: int = 0
    wall: float = 0.0
    #: op id -> op wall seconds (the reconciliation's unit).
    op_walls: dict = field(default_factory=dict)
    #: op id -> the kind of work it did; traced and untraced phases are
    #: compared kind by kind.
    op_kinds: dict = field(default_factory=dict)
    #: Workload-specific per-layer figures computed outside the tracer.
    extra: dict = field(default_factory=dict)
    #: Outputs left for :meth:`check` to compare after the measured phase.
    outputs: list = field(default_factory=list)


def nproc() -> int:
    return os.cpu_count() or 1


def _spec(rec, keyframe_distance=None):
    from repro.core import EMVSConfig, EngineSpec

    return EngineSpec(
        rec.camera,
        rec.trajectory,
        EMVSConfig(
            n_depth_planes=N_PLANES,
            keyframe_distance=keyframe_distance or rec.keyframe_distance,
        ),
        depth_range=rec.depth_range,
        backend="native-batch",
    )


def _segment_outcomes(spec, events, plans):
    from repro.core import run_segment_task
    from repro.core.mapping import segment_tasks

    return [run_segment_task(task) for task in segment_tasks(plans, events, spec)]


def _mono_reference(spec, outcomes, dropped=0) -> Reference:
    from repro.core import fuse_keyframes, merge_outcomes
    from repro.core.mapping import default_voxel_size

    keyframes, profile = merge_outcomes(outcomes, dropped)
    cloud = fuse_keyframes(keyframes, spec.camera, default_voxel_size(spec.depth_range)).fused_cloud()
    return Reference(cloud.points, profile.counters())


def _task_pickle(spec, events, plans) -> tuple[float, float]:
    """Bytes and seconds to pickle the op's segment tasks (computed, not observed)."""
    from repro.core.mapping import segment_tasks

    tasks = segment_tasks(plans, events, spec)
    start = time.perf_counter()
    size = sum(len(pickle.dumps(task)) for task in tasks)
    return float(size), time.perf_counter() - start


def _load_provider() -> None:
    """(Re)load the native kernel provider; a cached build, so only a load."""
    from repro import native

    native.reset()
    if native.get_kernels() is None:
        raise RuntimeError(f"native-batch unavailable: {native.provider_status()}")


class _Workload:
    name = ""
    tail_cap = 50

    def __init__(self, ctx):
        self.ctx = ctx

    def timed_setup(self):
        """Set up ``SETUP_REPEATS`` times; keep the last system, return durations."""
        durations, system = [], None
        for _ in range(SETUP_REPEATS):
            if system is not None:
                self.teardown(system)
            start = time.perf_counter()
            system = self.setup()
            durations.append(time.perf_counter() - start)
        return system, durations

    def teardown(self, system) -> None:
        pass

    def check(self, sample: Sample) -> None:
        """Compare outputs kept by :meth:`measure` (outside every metric)."""

    def layer_extra(self, system, sample: Sample) -> None:
        pass


# ----------------------------------------------------------------------
# Offline: RigOrchestrator, closed loop
# ----------------------------------------------------------------------
class RigOffline(_Workload):
    """Cross-camera fusion: ``corridor_rig3`` through ``RigOrchestrator.run``."""

    name = "rig_offline"

    def prepare(self) -> None:
        from repro.core import CameraRig, EMVSConfig
        from repro.core.mapping import default_voxel_size, fuse_camera_keyframes, merge_outcomes
        from repro.core.results import PipelineProfile

        rec = inputs.load_rig_recording("corridor_rig3", self.ctx.cache_dir, self.ctx.tag)
        self.rec = rec
        self.rig = CameraRig.from_trajectory(
            rec.camera, rec.trajectory,
            EMVSConfig(n_depth_planes=N_PLANES, keyframe_distance=rec.keyframe_distance),
            rec.extrinsics, names=list(rec.data), depth_range=rec.depth_range,
            backend="native-batch",
        )
        self.min_cameras = 2
        cameras = []
        self.warm, self.task_bytes, self.pickle_s = {}, 0.0, 0.0
        for cam in self.rig:
            events = inputs.event_array(rec.data[cam.name])
            plans, dropped = cam.spec.plan(events)
            cameras.append((cam.spec, events, plans, dropped))
            self.warm[cam.name] = rec.data[cam.name][: plans[0].end_event]
            size, seconds = _task_pickle(cam.spec, events, plans)
            self.task_bytes += size
            self.pickle_s += seconds

        def reference() -> Reference:
            streams, profile = [], PipelineProfile()
            for spec, events, plans, dropped in cameras:
                keyframes, cam_profile = merge_outcomes(
                    _segment_outcomes(spec, events, plans), dropped
                )
                streams.append((spec.camera, keyframes))
                profile.merge(cam_profile)
            fused = fuse_camera_keyframes(streams, default_voxel_size(self.rig.depth_range))
            return Reference(fused.fused_cloud(1, self.min_cameras).points, profile.counters())

        self.reference = self.ctx.reference("corridor_rig3", reference)
        self.n_events = sum(len(d) for d in rec.data.values())

    def setup(self):
        from repro.core import RigOrchestrator

        _load_provider()
        orchestrator = RigOrchestrator(self.rig, workers=nproc(), min_cameras=self.min_cameras)
        orchestrator.run({name: inputs.event_array(d) for name, d in self.warm.items()})
        return orchestrator

    def measure(self, orchestrator, seconds: float, tracer: Tracer | None) -> Sample:
        sample = Sample()
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            op = sample.ops
            start = time.perf_counter()
            with tracer.op(op) if tracer else contextlib.nullcontext():
                result = orchestrator.run(
                    {name: inputs.event_array(d) for name, d in self.rec.data.items()}
                )
            latency = time.perf_counter() - start
            sample.op_walls[op] = latency
            sample.latencies.append(latency)
            sample.ops += 1
            sample.events += self.n_events
            if not self.reference.matches(result.cloud.points, result.profile.counters()):
                sample.failed += 1
        sample.wall = time.perf_counter() - begin
        sample.extra.update({"mapping.task_bytes": self.task_bytes, "mapping.pickle_s": self.pickle_s})
        return sample


# ----------------------------------------------------------------------
# Gateway: tenants replaying sliding windows, closed loop
# ----------------------------------------------------------------------
def round_jobs(plans, offset: int) -> list[tuple[int, int]]:
    """A round's jobs as event ranges of the full recording.

    The round's sub-recording starts ``offset`` events in and is planned
    on its own.  Its first job is the first segment alone; every later
    job is the 50 %-overlap window of two consecutive segments
    (:func:`inputs.plan_windows`), so each job overlaps only the job
    before it and carries exactly one segment nobody has computed yet.
    """
    first = plans[0]
    jobs = [(first.start_event, first.end_event)] + inputs.plan_windows(plans)
    return [(offset + a, offset + b) for a, b in jobs]


def result_digest(points: np.ndarray, counters: dict) -> str:
    """Identity of one job's output: fused points and profile counters."""
    digest = hashlib.sha256(np.ascontiguousarray(points).tobytes())
    digest.update(json.dumps(counters, sort_keys=True).encode())
    return digest.hexdigest()


@dataclass
class _Tenant:
    session: str
    name: str
    rec: object
    spec: object
    #: round -> its jobs as event ranges (see :func:`round_jobs`).
    rounds: list
    tasks: tuple = (0.0, 0.0)


class GatewayWindows(_Workload):
    """Many small jobs through an in-process ``Gateway``: serve overhead and cache.

    Each tenant sweeps *rounds* of plan-aligned windows.  Round ``g``
    cuts its windows from the recording shifted by ``g * ROUND_SHIFT``
    events, so no two rounds share a segment, and within a round every
    job hits the segment its predecessor computed and misses exactly one.
    The hit count therefore follows from the job sequence, not from
    timing.  The seed picks the tenants' sequences and the first round.
    """

    name = "gateway_windows"
    tail_cap = 90

    #: Distinct rounds (content shifts) before a tenant's sweep repeats.
    ROUNDS = 32
    #: Events between the starts of consecutive rounds (3 frames).
    ROUND_SHIFT = 3 * 1024

    def prepare(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        n = min(nproc(), len(TENANT_SEQUENCES))
        order = rng.permutation(len(TENANT_SEQUENCES))[:n]
        self.first_round = int(rng.integers(self.ROUNDS))
        self.tenants = []
        for k, which in enumerate(order):
            name, kfd = TENANT_SEQUENCES[which]
            rec = inputs.load_recording(name, self.ctx.cache_dir, self.ctx.tag)
            spec = _spec(rec, kfd)

            def rounds(rec=rec, spec=spec):
                return [
                    round_jobs(spec.plan(inputs.event_array(rec.data[g * self.ROUND_SHIFT:]))[0],
                               g * self.ROUND_SHIFT)
                    for g in range(self.ROUNDS)
                ]

            jobs = self.ctx.reference(f"{name}-{kfd}-rounds", rounds)
            a, b = jobs[0][1]
            events = inputs.event_array(rec.data[a:b])
            tasks = _task_pickle(spec, events, spec.plan(events)[0])
            self.tenants.append(_Tenant(f"tenant{k}", name, rec, spec, jobs, tasks))

    def _round_references(self, tenant, g: int) -> list[str]:
        """Expected output digests of round ``g``'s jobs (cached per source tree)."""

        def build():
            from repro.core.mapping import default_voxel_size, fuse_keyframes, merge_outcomes

            offset = g * self.ROUND_SHIFT
            events = inputs.event_array(tenant.rec.data[offset:])
            plans, _ = tenant.spec.plan(events)
            outcomes = _segment_outcomes(tenant.spec, events, plans)
            voxel = default_voxel_size(tenant.spec.depth_range)
            digests = []
            for parts in [outcomes[:1]] + [outcomes[w:w + 2] for w in range(len(outcomes) - 1)]:
                keyframes, profile = merge_outcomes(
                    [(i, *outcome[1:]) for i, outcome in enumerate(parts)]
                )
                cloud = fuse_keyframes(keyframes, tenant.spec.camera, voxel).fused_cloud()
                digests.append(result_digest(cloud.points, profile.counters()))
            return digests

        kfd = tenant.spec.config.keyframe_distance
        return self.ctx.reference(f"{tenant.name}-{kfd}-round{g}", build)

    def _config(self):
        from repro.serve import CacheConfig, GatewayConfig, ServiceConfig

        # One shard: every service call runs on one thread.  With a shard
        # per tenant the tenants' threads contend for the interpreter lock
        # and the run-to-run spread of the median triples.
        return GatewayConfig(
            shards=1,
            service=ServiceConfig(
                workers=nproc(),
                executor="process",
                cache=CacheConfig(job_entries=0, mem_mb=64, disk_mb=0, cache_dir=""),
            ),
        )

    async def _job(self, gateway, tenant, a: int, b: int, cache: str = "on"):
        from repro.serve import JobOptions

        events = inputs.event_array(tenant.rec.data[a:b])
        job = await gateway.submit(
            events, tenant.spec, session=tenant.session, options=JobOptions(cache=cache)
        )
        return await gateway.result(job)

    def setup(self):
        from repro.serve import Gateway

        _load_provider()

        async def start():
            gateway = await Gateway(self._config()).start()
            await asyncio.gather(*(
                self._job(gateway, t, *t.rounds[self.first_round][1], cache="off")
                for t in self.tenants
            ))
            return gateway

        loop = asyncio.new_event_loop()
        return loop, loop.run_until_complete(start())

    def teardown(self, system) -> None:
        loop, gateway = system
        loop.run_until_complete(gateway.stop())
        loop.close()

    def measure(self, system, seconds: float, tracer: Tracer | None) -> Sample:
        from repro.serve import GatewayRefused

        loop, gateway = system
        sample = Sample()
        begin = time.perf_counter()
        stats_before = loop.run_until_complete(gateway.stats())

        async def tenant_loop(k, tenant):
            j, g, pos = 0, self.first_round, 0
            while time.perf_counter() - begin < seconds:
                a, b = tenant.rounds[g][pos]
                op = (k, j)
                start = time.perf_counter()
                try:
                    with tracer.op(op, tenant.session) if tracer else contextlib.nullcontext():
                        result = await self._job(gateway, tenant, a, b)
                except GatewayRefused:
                    sample.failed += 1
                    sample.extra["gateway.refusals"] = sample.extra.get("gateway.refusals", 0) + 1
                else:
                    latency = time.perf_counter() - start
                    sample.op_walls[op] = latency
                    sample.op_kinds[op] = (k, pos == 0)
                    sample.latencies.append(latency)
                    sample.events += b - a
                    digest = result_digest(result.cloud.points, result.profile.counters())
                    sample.outputs.append(((k, g, pos), digest))
                sample.ops += 1
                j, pos = j + 1, pos + 1
                if pos == len(tenant.rounds[g]):
                    g, pos = (g + 1) % self.ROUNDS, 0

        _run_all(loop, [tenant_loop(k, t) for k, t in enumerate(self.tenants)])
        sample.wall = time.perf_counter() - begin
        stats_after = loop.run_until_complete(gateway.stats())
        sample.extra.update(_service_deltas(stats_before.values(), stats_after.values()))
        sample.extra["mapping.task_bytes"] = median([t.tasks[0] for t in self.tenants])
        sample.extra["mapping.pickle_s"] = median([t.tasks[1] for t in self.tenants])
        return sample

    def check(self, sample: Sample) -> None:
        references = {}
        for (k, g, pos), digest in sample.outputs:
            if (k, g) not in references:
                references[k, g] = self._round_references(self.tenants[k], g)
            if references[k, g][pos] != digest:
                sample.failed += 1

    def layer_extra(self, system, sample: Sample) -> None:
        """``POST /jobs`` over loopback against a direct ``Gateway.submit``."""
        from repro.serve.gateway import GatewayServer, http_request

        loop, gateway = system
        tenant = self.tenants[0]
        a, b = tenant.rounds[self.first_round][1]
        t = tenant.rec.data["t"]
        body = {
            "sequence": tenant.rec.name, "quality": inputs.QUALITY,
            "t_start": float(t[a]), "t_end": float(t[b - 1]),
            "planes": N_PLANES, "keyframe_distance": tenant.spec.config.keyframe_distance,
            "backend": tenant.spec.backend, "session": tenant.session,
        }

        async def probe():
            import repro.events.datasets as datasets

            # The server loads named sequences itself; hand it the cached
            # recording instead of regenerating one.
            original = datasets.load_sequence
            served = _ServedSequence(tenant.rec)
            datasets.load_sequence = lambda name, quality: served
            server = await GatewayServer(gateway, port=0).start()
            try:
                posts, directs = [], []
                for i in range(6):
                    start = time.perf_counter()
                    status, data = await http_request(server.host, server.port, "POST", "/jobs", body)
                    posts.append(time.perf_counter() - start)
                    if status != 202:
                        raise RuntimeError(f"POST /jobs answered {status}: {data!r}")
                    await gateway.result(json.loads(data)["job_id"])
                    events = served.events.time_slice(body["t_start"], body["t_end"])
                    start = time.perf_counter()
                    job = await gateway.submit(events, tenant.spec, session=tenant.session)
                    directs.append(time.perf_counter() - start)
                    await gateway.result(job)
            finally:
                await server.stop()
                datasets.load_sequence = original
            return median(posts[1:]) - median(directs[1:])

        sample.extra["gateway.http_submit_s"] = loop.run_until_complete(probe())


def _run_all(loop, coroutines) -> list:
    """Run coroutines concurrently to completion on ``loop``."""

    async def gather():
        return await asyncio.gather(*coroutines)

    return loop.run_until_complete(gather())


class _ServedSequence:
    """The attributes ``GatewayServer`` reads from a registry sequence."""

    def __init__(self, rec):
        self.events = inputs.event_array(rec.data)
        self.camera, self.trajectory = rec.camera, rec.trajectory
        self.depth_range, self.keyframe_distance = rec.depth_range, rec.keyframe_distance


def _service_deltas(before, after) -> dict:
    def total(stats, get):
        return sum(get(s) for s in stats)

    fields = {
        "service.segments_dispatched": lambda s: sum(s.segments_dispatched.values()),
        "service.segments_retried": lambda s: s.segments_retried,
        "service.jobs_refused": lambda s: s.jobs_refused,
        "service.jobs_coalesced": lambda s: s.jobs_coalesced,
        "cache.segment_hits": lambda s: s.cache.segment_hits,
        "cache.segment_misses": lambda s: s.cache.segment_misses,
        "stream.chunks_dropped": lambda s: s.chunks_dropped,
    }
    before, after = list(before), list(after)
    return {name: float(total(after, get) - total(before, get)) for name, get in fields.items()}


# ----------------------------------------------------------------------
# Stream: open loop at the sensor's own pace
# ----------------------------------------------------------------------
class StreamRealtime(_Workload):
    """``corridor_sweep`` fed to ``open_stream`` at 1x in fixed-duration chunks."""

    name = "stream_realtime"
    tail_cap = 75

    def prepare(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        self.rec = inputs.load_recording("corridor_sweep", self.ctx.cache_dir, self.ctx.tag)
        self.spec = _spec(self.rec)
        events = inputs.event_array(self.rec.data)
        self.plans, dropped = self.spec.plan(events)
        self.reference = self.ctx.reference(
            "corridor_sweep", lambda: _mono_reference(
                self.spec, _segment_outcomes(self.spec, events, self.plans), dropped
            )
        )
        self.t = self.rec.data["t"]
        self.schedule = inputs.chunk_schedule(self.t, CHUNK_S, float(rng.uniform(0, CHUNK_S)))
        #: Due time of each key frame's last contributing event.
        self.keyframe_due = [inputs.event_due_s(self.t, p.end_event - 1) for p in self.plans]
        self.warm = self.rec.data[: self.plans[1].end_event]
        self.task_bytes, self.pickle_s = _task_pickle(self.spec, events, self.plans)

    def setup(self):
        from repro.serve import CacheConfig, JobOptions, ReconstructionService

        _load_provider()
        service = ReconstructionService(
            workers=nproc(), executor="process",
            cache=CacheConfig(job_entries=0, mem_mb=0, disk_mb=0, cache_dir=""),
        )
        job = service.submit(
            inputs.event_array(self.warm), self.spec, options=JobOptions(cache="off")
        )
        service.result(job)
        return service

    def teardown(self, service) -> None:
        service.shutdown()

    def measure(self, service, seconds: float, tracer: Tracer | None) -> Sample:
        sample = Sample()
        feeds, lates, queue_waits, updates_per_pass = [], [], [], []
        stats_before = service.stats()
        begin = time.perf_counter()
        n_pass = 0
        while time.perf_counter() - begin < seconds:
            with tracer.op(n_pass) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                got = self._one_pass(service, tracer, sample, feeds, lates, queue_waits)
                sample.op_walls[n_pass] = time.perf_counter() - start
            updates_per_pass.append(got)
            n_pass += 1
        sample.wall = time.perf_counter() - begin
        sample.extra.update(_service_deltas([stats_before], [service.stats()]))
        sample.extra.update({
            "stream.feed_s_p50": median(feeds),
            "stream.feed_s_tail": percentile(feeds, 99),
            "stream.generator_late_ms_tail": 1e3 * percentile(lates, 99),
            "stream.updates": float(median(updates_per_pass)),
            "service.queue_wait_s": median(queue_waits) if queue_waits else 0.0,
            "mapping.task_bytes": self.task_bytes,
            "mapping.pickle_s": self.pickle_s,
        })
        return sample

    def _one_pass(self, service, tracer, sample, feeds, lates, queue_waits) -> int:
        stream = service.open_stream(self.spec, session="live")
        start = time.perf_counter()
        received = []

        def collect():
            updates = stream.poll_updates()
            at = time.perf_counter()
            for update in updates:
                due = start + self.keyframe_due[update.segment_index]
                received.append((at - due, update))

        for a, b, due in self.schedule:
            with tracer.span("client.pace", "client") if tracer else contextlib.nullcontext():
                while (now := time.perf_counter()) < start + due:
                    collect()
                    time.sleep(min(0.002, start + due - now))
            lates.append(inputs.lateness_s(start, due, time.perf_counter()))
            chunk = inputs.event_array(self.rec.data[a:b])
            t_feed = time.perf_counter()
            stream.feed(chunk)
            feeds.append(time.perf_counter() - t_feed)
            sample.events += b - a
        stream.close()
        result = stream.result()
        collect()
        expected = self.reference.counters["n_keyframes"]
        sample.ops += expected
        ok = len(received) == expected and self.reference.matches(
            result.cloud.points, result.profile.counters()
        )
        if not ok:
            sample.failed += expected
        sample.latencies.extend(latency for latency, _ in received)
        if tracer is not None:
            executions = {
                s.attrs["index"]: s.duration
                for s in tracer.by_op().get(tracer.current_op(), ())
                if s.name == "engine.segment"
            }
            queue_waits.extend(
                u.latency_seconds - executions[u.segment_index]
                for _, u in received
                if u.segment_index in executions
            )
        return len(received)
