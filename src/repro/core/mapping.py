"""Parallel multi-keyframe mapping with fused global maps.

EMVS reconstructs one *local* DSI per key reference view, and the segments
between key frames share nothing — no DSI state, no detection state — so
they are embarrassingly parallel.  This module exploits that:

* :func:`repro.core.engine.plan_segments` predicts the exact key-frame
  segments of a stream from a cheap pose-only pass;
* :class:`MappingOrchestrator` maps one stream as one job on a private
  :class:`~repro.serve.ReconstructionService`, whose worker pool is built
  by the orchestrator's :class:`PoolSpec` (inline for one worker,
  processes for the numpy backends, threads for the in-process hardware
  model), and
* :class:`GlobalMap` fuses the per-keyframe depth maps into one global
  point map with voxel-hash deduplication and confidence-weighted
  averaging, in the spirit of multi-view event-camera depth fusion
  (Ghosh & Gallego, 2022).

Determinism is a hard invariant, not an aspiration: each segment runs in
its own engine regardless of worker count, results are fused in segment
order, and every fusion reduction is an order-fixed numpy pass — so the
fused map and the aggregate profile counters are bit-identical for 1, 2
or N workers.

The per-segment unit (:class:`SegmentTask` / :func:`run_segment_task`)
and the reduction tail (:func:`merge_outcomes` / :func:`fuse_keyframes`)
are module-level building blocks of the serving layer
(:mod:`repro.serve`).  The service is the one place segments reach a
pool and a :class:`MappingResult` is built; the orchestrators are its
clients, so an orchestrator run and a service job are bit-identical by
construction.  :class:`PoolSpec` is the one executor seam: the service
builds its pool from one, and each orchestrator holds one that sizes its
private service.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass

import numpy as np

from repro.core.config import EMVSConfig
from repro.core.engine import EngineSpec, SegmentPlan
# The perfbench tracer patches ``mapping.plan_segments`` by module
# lookup; nothing here calls it.
from repro.core.engine import plan_segments  # noqa: F401
from repro.core.pointcloud import PointCloud
from repro.core.policy import DataflowPolicy, REFORMULATED_POLICY, resolve_policy
from repro.core.results import KeyframeReconstruction, PipelineProfile
from repro.events.containers import EventArray
from repro.geometry.camera import PinholeCamera
from repro.geometry.trajectory import Trajectory


def _row_inverse(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys, axis=0, return_inverse=True)[1]``, sorted as one key.

    Each row of the ``(N, K)`` int64 ``keys`` is packed into one int64,
    first column major, after subtracting the per-column minimum.  The
    packing preserves lexicographic row order, so sorting the packed 1-D
    keys yields the identical inverse — without the structured-row sort
    that ``axis=0`` costs.  When the product of the column extents would
    overflow int64, the rows are sorted as rows.
    """
    lo = keys.min(axis=0)
    extents = [int(h) - int(l) + 1 for l, h in zip(lo, keys.max(axis=0))]
    if math.prod(extents) > np.iinfo(np.int64).max:
        return np.unique(keys, axis=0, return_inverse=True)[1]
    shifted = keys - lo
    packed = shifted[:, 0].copy()
    for column, extent in zip(shifted.T[1:], extents[1:]):
        packed *= extent
        packed += column
    return np.unique(packed, return_inverse=True)[1]


class GlobalMap:
    """Voxel-hash fused world map with confidence-weighted merging.

    Points are accumulated in insertion order; :meth:`fused_points`
    deduplicates them into one point per occupied voxel, positioned at the
    confidence-weighted mean of the observations that fell into it.  A
    voxel seen by several key frames therefore converges toward its
    best-supported observations instead of duplicating semi-transparent
    shells around the surface — the standard refocused-events fusion move.

    All reductions are order-fixed numpy passes over the concatenated
    observations, so for a given insertion order the fused arrays are
    bit-reproducible (the property parallel mapping's determinism tests
    pin).  Voxels are grouped by sorting one packed int64 key per
    observation — the integer voxel coordinates offset by their per-axis
    minimum, x-major — which orders voxels exactly as sorting the
    ``(x, y, z)`` rows would; maps whose extents would overflow the packed
    key fall back to the row sort, with identical output.

    Every insertion optionally carries a ``source`` label — the camera
    index of a multi-camera rig.  The fused map tracks how many
    *distinct* sources observed each voxel, so :meth:`fused_cloud` can
    require cross-camera agreement (``min_cameras``) on top of the
    per-observation support filter (``min_observations``) — the
    refocused-events outlier-rejection move of Ghosh & Gallego (2022)
    generalized to N cameras.  Monocular callers never pass ``source``
    and see exactly the old behaviour (every voxel has one source).
    """

    def __init__(self, voxel_size: float):
        if voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        self.voxel_size = float(voxel_size)
        self._points: list[np.ndarray] = []
        self._weights: list[np.ndarray] = []
        self._sources: list[np.ndarray] = []
        self._fused: (
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
        ) = None

    # ------------------------------------------------------------------
    @property
    def n_raw_points(self) -> int:
        """Observations inserted (before voxel deduplication)."""
        return sum(len(p) for p in self._points)

    def insert(
        self,
        points: np.ndarray,
        weights: np.ndarray | None = None,
        source: int = 0,
    ) -> None:
        """Add world-frame observations with positive confidence weights.

        ``source`` labels the observations' origin camera (rig camera
        index); it only matters to the :meth:`fused_camera_counts` /
        ``min_cameras`` agreement filter.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {points.shape}")
        if len(points) == 0:
            return
        if weights is None:
            weights = np.ones(len(points))
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (len(points),):
                raise ValueError("need one weight per point")
            if not np.all(weights > 0):
                raise ValueError("confidence weights must be positive")
        if source < 0:
            raise ValueError("source must be a non-negative camera index")
        self._points.append(points)
        self._weights.append(weights)
        self._sources.append(np.full(len(points), int(source), dtype=np.int64))
        self._fused = None

    def insert_keyframe(
        self,
        reconstruction: KeyframeReconstruction,
        camera: PinholeCamera,
        source: int = 0,
    ) -> None:
        """Lift one key-frame depth map and insert it, confidence-weighted."""
        depth_map = reconstruction.depth_map
        cloud = PointCloud.from_depth_map(depth_map, camera, reconstruction.T_w_ref)
        if len(cloud) == 0:
            return
        # pixels()/depths()/confidences() share the mask's nonzero order,
        # so the lifted points and their weights stay aligned.
        self.insert(
            cloud.points,
            np.asarray(depth_map.confidences(), dtype=float),
            source=source,
        )

    # ------------------------------------------------------------------
    def _fuse(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._fused is None:
            if not self._points:
                self._fused = (
                    np.empty((0, 3)),
                    np.empty(0),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                )
                return self._fused
            points = np.concatenate(self._points)
            weights = np.concatenate(self._weights)
            sources = np.concatenate(self._sources)
            keys = np.floor(points / self.voxel_size).astype(np.int64)
            inverse = _row_inverse(keys)
            n_vox = int(inverse.max()) + 1
            weight_sum = np.zeros(n_vox)
            np.add.at(weight_sum, inverse, weights)
            centers = np.zeros((n_vox, 3))
            np.add.at(centers, inverse, points * weights[:, None])
            centers /= weight_sum[:, None]
            counts = np.bincount(inverse, minlength=n_vox)
            # Distinct-source support per voxel: unique (voxel, source)
            # pairs, then one count per voxel — an order-fixed pass like
            # everything else here (np.unique sorts).
            pair_inverse = _row_inverse(np.stack([inverse, sources], axis=1))
            pair_voxel = np.empty(int(pair_inverse.max()) + 1, dtype=np.int64)
            pair_voxel[pair_inverse] = inverse
            camera_counts = np.bincount(pair_voxel, minlength=n_vox)
            self._fused = (centers, weight_sum, counts, camera_counts)
        return self._fused

    @property
    def n_voxels(self) -> int:
        """Occupied voxel count of the fused map."""
        return len(self._fuse()[0])

    def fused_points(self) -> np.ndarray:
        """``(V, 3)`` one confidence-weighted mean point per occupied voxel."""
        return self._fuse()[0]

    def fused_confidences(self) -> np.ndarray:
        """``(V,)`` total confidence accumulated per voxel."""
        return self._fuse()[1]

    def fused_counts(self) -> np.ndarray:
        """``(V,)`` observation count per voxel."""
        return self._fuse()[2]

    def fused_camera_counts(self) -> np.ndarray:
        """``(V,)`` distinct insertion sources (rig cameras) per voxel."""
        return self._fuse()[3]

    def fused_cloud(
        self, min_observations: int = 1, min_cameras: int = 1
    ) -> PointCloud:
        """The fused map as a :class:`PointCloud`.

        ``min_observations > 1`` keeps only voxels supported by several
        observations — cross-view agreement filtering for multi-keyframe
        runs.  ``min_cameras > 1`` additionally requires the voxel to be
        observed by that many *distinct* sources (rig cameras) — the
        cross-camera outlier rejection of multi-camera fusion; it is a
        no-op for monocular maps filtered at ``min_cameras=1``.
        """
        centers, _, counts, camera_counts = self._fuse()
        keep = None
        if min_observations > 1:
            keep = counts >= min_observations
        if min_cameras > 1:
            agree = camera_counts >= min_cameras
            keep = agree if keep is None else (keep & agree)
        if keep is not None:
            centers = centers[keep]
        return PointCloud(centers.copy())


@dataclass(frozen=True)
class MappingResult:
    """Output of a reconstruction job, e.g. a :class:`MappingOrchestrator` run.

    Built in one place, the service's finalize step.  Duck-compatible
    with :class:`~repro.core.results.EMVSResult` where it matters
    (``keyframes``, ``cloud``, ``profile``, ``n_points``), with
    ``cloud`` holding the *fused* global map.

    ``missing_segments`` is the degradation manifest of the serve
    layer's ``allow_partial`` option: segment indices whose outcomes
    never landed (deadline, exhausted retries).  Empty — a complete
    result — everywhere outside a ``PARTIAL`` serve job; the fused map
    of a partial result covers exactly the completed key frames.

    ``workers`` is the width of the pool that ran the job (not capped by
    the segment count); ``wall_seconds`` runs from the job's admission
    to its fusion.
    """

    keyframes: list[KeyframeReconstruction]
    global_map: GlobalMap
    cloud: PointCloud
    profile: PipelineProfile
    segments: tuple[SegmentPlan, ...]
    workers: int
    wall_seconds: float
    missing_segments: tuple[int, ...] = ()

    @property
    def n_points(self) -> int:
        """Point count of the fused cloud."""
        return len(self.cloud)

    @property
    def complete(self) -> bool:
        """Whether every planned segment's outcome is in the result."""
        return not self.missing_segments


# ----------------------------------------------------------------------
# Segment execution — the shared unit of parallel mapping *and* serving
# ----------------------------------------------------------------------
def default_voxel_size(depth_range: tuple[float, float]) -> float:
    """Default fusion voxel edge: 1 % of the mean DSI depth.

    The serving layer's per-job default, which :class:`MappingOrchestrator`
    and the rig's per-camera jobs inherit.
    """
    return 0.01 * 0.5 * (depth_range[0] + depth_range[1])


@dataclass(frozen=True)
class SegmentTask:
    """One planned segment's worth of work, self-contained and picklable.

    ``index`` orders the outcome back into the stream's segment sequence;
    ``events`` is the frame-aligned slice the plan cut; ``spec`` carries
    the full engine configuration.  The reconstruction service shards
    every job into these — the orchestrators' jobs included — so
    per-segment execution is one code path.
    """

    index: int
    events: EventArray
    spec: EngineSpec

    def content_digest(self) -> str:
        """Content-addressed identity of this task's *computation*.

        The key the serving layer's segment cache memoizes outcomes
        under: a hash of the event slice plus every spec field that
        changes the result.  ``index`` is deliberately excluded —
        :func:`run_segment_task` never reads it (the trajectory is
        sampled by absolute event time), so the same slice under the
        same spec computes the same outcome at any position.
        """
        # Runtime import: core must stay importable without serve, but
        # the one canonical key derivation lives with the cache.
        from repro.serve.cache import segment_key

        return segment_key(self.spec, self.events.content_digest())


#: A finished segment: ``(index, keyframes, profile)``.
SegmentOutcome = tuple[int, list[KeyframeReconstruction], PipelineProfile]


def run_segment_task(task: SegmentTask) -> SegmentOutcome:
    """Run one planned segment in a fresh engine (worker entry point).

    Module-level so process pools can pickle it; every argument and return
    value round-trips through pickle losslessly (numpy arrays serialize
    bit-exactly), so process execution cannot perturb the results.
    """
    engine = task.spec.build()
    keyframes = engine.run_segment(task.events)
    return task.index, keyframes, engine.profile


def segment_tasks(
    plans: list[SegmentPlan], events: EventArray, spec: EngineSpec
) -> list[SegmentTask]:
    """Materialize a plan list into self-contained worker tasks."""
    return [SegmentTask(plan.index, plan.slice(events), spec) for plan in plans]


def merge_outcomes(
    outcomes: list[SegmentOutcome], dropped_events: int = 0
) -> tuple[list[KeyframeReconstruction], PipelineProfile]:
    """Deterministic reduction of segment outcomes: segment order, always.

    Outcomes may arrive in any pool-completion order; they are sorted by
    segment index before merging, so keyframe order and the aggregate
    profile are independent of scheduling.  ``dropped_events`` accounts
    the trailing partial frame the plan dropped at stream end.
    """
    outcomes = sorted(outcomes, key=lambda out: out[0])
    profile = PipelineProfile()
    keyframes: list[KeyframeReconstruction] = []
    for _, segment_keyframes, segment_profile in outcomes:
        keyframes.extend(segment_keyframes)
        profile.merge(segment_profile)
    profile.dropped_events += dropped_events
    return keyframes, profile


def fuse_keyframes(
    keyframes: list[KeyframeReconstruction],
    camera: PinholeCamera,
    voxel_size: float,
) -> GlobalMap:
    """Fuse key-frame depth maps into a fresh :class:`GlobalMap` (in order)."""
    global_map = GlobalMap(voxel_size)
    for reconstruction in keyframes:
        global_map.insert_keyframe(reconstruction, camera)
    return global_map


def fuse_camera_keyframes(
    streams: list[tuple[PinholeCamera, list[KeyframeReconstruction]]],
    voxel_size: float,
) -> GlobalMap:
    """Fuse several cameras' key-frame streams into one :class:`GlobalMap`.

    ``streams`` is ordered ``(camera, keyframes)`` pairs — one per rig
    camera; the pair's position is its ``source`` label, so the fused
    map's :meth:`~GlobalMap.fused_camera_counts` records cross-camera
    agreement.  Insertion order is camera-major then keyframe order,
    which fixes the reduction order: the fused arrays are bit-identical
    however the per-camera keyframes were computed (inline, thread or
    process pools, any worker count).
    """
    global_map = GlobalMap(voxel_size)
    for source, (camera, keyframes) in enumerate(streams):
        for reconstruction in keyframes:
            global_map.insert_keyframe(reconstruction, camera, source=source)
    return global_map


# ----------------------------------------------------------------------
# Segment pools — the one executor seam
# ----------------------------------------------------------------------
#: Executor kinds a segment pool can be built as.
EXECUTOR_KINDS = ("inline", "thread", "process")


class _InlineExecutor(Executor):
    """Run tasks synchronously on the dispatching thread.

    The zero-dependency serial substrate (the one-worker default): no
    pool processes to spawn, identical scheduling decisions, and the
    exact single-engine execution path — useful for tests and for hosts
    where one core is all there is.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Run the task now; return an already-settled future."""
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # surfaced via future.exception();
            # KeyboardInterrupt/SystemExit propagate — a Ctrl-C must
            # stop the pump, not fail one job and keep dispatching.
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Nothing to shut down: no threads, no processes."""
        pass


@dataclass(frozen=True)
class PoolSpec:
    """How a pool owner builds its segment executors.

    ``workers`` is the requested width (``None``: the machine's CPU
    count); ``executor`` an explicit kind from :data:`EXECUTOR_KINDS`,
    or ``None`` to choose by width — inline for one worker, threads when
    ``threaded`` (the in-process ``hardware-model`` backend gains
    nothing from pickling across processes), processes otherwise.
    Construction validates both values with one message per mistake.
    """

    workers: int | None = None
    executor: str | None = None
    threaded: bool = False

    def __post_init__(self):
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for auto)")
        if self.executor is not None and self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                "executor must be 'inline', 'thread', 'process' or None"
            )

    def width(self) -> int:
        """Pool width: ``workers``, or the machine's CPU count."""
        return self.workers or os.cpu_count() or 1

    def kind(self, width: int) -> str:
        """The executor kind a pool of ``width`` workers is built as."""
        if self.executor is not None:
            return self.executor
        if width == 1:
            return "inline"
        return "thread" if self.threaded else "process"

    def create(self, width: int) -> Executor:
        """A fresh executor of :meth:`kind` with ``width`` workers."""
        kind = self.kind(width)
        if kind == "inline":
            return _InlineExecutor()
        if kind == "thread":
            return ThreadPoolExecutor(max_workers=width)
        return ProcessPoolExecutor(max_workers=width)


def _private_service(pool_spec: PoolSpec, n_jobs: int):
    """A fresh :class:`~repro.serve.ReconstructionService` for one run.

    The service an orchestrator maps on: the width and executor kind of
    ``pool_spec`` (threads for ``hardware-model`` included), room for
    ``n_jobs`` jobs in its one session, and both segment-cache tiers off
    — so no slice is digested and ``REPRO_CACHE_DIR`` is ignored.
    """
    # Runtime import: core must stay importable without serve.
    from repro.serve.options import CacheConfig
    from repro.serve.service import ReconstructionService

    width = pool_spec.width()
    return ReconstructionService(
        workers=width,
        executor=pool_spec.kind(width),
        queue_limit=n_jobs,
        cache=CacheConfig(mem_mb=0, disk_mb=0),
    )


class MappingOrchestrator:
    """Shard a stream into key-frame segments and map them in parallel.

    Constructor parameters mirror :class:`ReconstructionEngine`, plus:

    Parameters
    ----------
    workers:
        Worker-pool width.  ``None`` uses the machine's CPU count; ``1``
        runs inline (still through the segment plan, so results are
        identical to any parallel width).
    voxel_size:
        :class:`GlobalMap` fusion voxel edge in metres.  Defaults to 1 %
        of the mean DSI depth.
    executor:
        ``"inline"``, ``"process"``, ``"thread"`` or ``None`` to choose
        per width and backend (:class:`PoolSpec`): inline for one
        worker, processes for the numpy backends (sidesteps the GIL for
        the vectorized hot path), threads for ``hardware-model`` (the
        cycle-accurate system is cheap-state python that gains nothing
        from pickling across processes).

    The backend must be a registry *name* (workers construct their own
    instances; a bound backend instance cannot be shared across pools),
    and the policy one the backend can execute: both are checked here,
    by :class:`~repro.core.engine.EngineSpec`.

    :meth:`run` is one job on a private
    :class:`~repro.serve.ReconstructionService` built from :attr:`pool_spec`,
    so an orchestrator run and a service job of the same stream are
    bit-identical by construction.  Its configuration lives in
    :attr:`spec`.

    Examples
    --------
    Parallel multi-keyframe mapping with a fused global map::

        from repro.core import EMVSConfig, MappingOrchestrator
        from repro.events.datasets import load_sequence

        seq = load_sequence("corridor_sweep", quality="fast")
        orchestrator = MappingOrchestrator(
            seq.camera, seq.trajectory,
            EMVSConfig(n_depth_planes=48,
                       keyframe_distance=seq.keyframe_distance),
            depth_range=seq.depth_range,
            backend="numpy-batch",
            workers=4,                     # fused map identical for any width
        )
        result = orchestrator.run(seq.events)
        result.cloud                       # fused global map (PointCloud)
        result.global_map.fused_cloud(min_observations=2)
    """

    def __init__(
        self,
        camera: PinholeCamera,
        trajectory: Trajectory,
        config: EMVSConfig | None = None,
        depth_range: tuple[float, float] = (0.5, 5.0),
        policy: DataflowPolicy | str = REFORMULATED_POLICY,
        backend: str = "numpy-batch",
        workers: int | None = None,
        voxel_size: float | None = None,
        executor: str | None = None,
    ):
        if not isinstance(backend, str):
            raise TypeError(
                "MappingOrchestrator needs a backend registry name; worker "
                "engines each construct their own backend instance"
            )
        self.pool_spec = PoolSpec(
            workers, executor, threaded=backend == "hardware-model"
        )
        if voxel_size is not None and voxel_size <= 0:
            raise ValueError("voxel_size must be positive (or None for auto)")
        self.spec = EngineSpec(
            camera,
            trajectory,
            config or EMVSConfig(),
            depth_range=depth_range,
            policy=resolve_policy(policy),
            backend=backend,
        )
        # Derived from the spec-normalized (float) depth range, exactly
        # as the service derives a job's default.
        self.voxel_size = (
            voxel_size
            if voxel_size is not None
            else default_voxel_size(self.spec.depth_range)
        )

    # The perfbench tracer wraps this method by name.
    def run(self, events: EventArray) -> MappingResult:
        """Plan, execute (possibly in parallel) and fuse one stream.

        A worker's exception ends the job: ``run`` raises
        :class:`~repro.serve.JobFailed` carrying the worker's error
        message, with its traceback text as a note.
        """
        # Runtime import: core must stay importable without serve.
        from repro.serve.options import JobOptions

        options = JobOptions(voxel_size=self.voxel_size)
        with _private_service(self.pool_spec, 1) as service:
            return service.result(service.submit(events, self.spec, options=options))
