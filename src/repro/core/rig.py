"""Multi-camera rig orchestration: stereo / N-camera event fusion.

The paper's title problem is multi-view stereo, and the related work it
builds on fuses *per-camera* monocular depth with cross-camera agreement
("Event-based Stereo Visual Odometry", Zhou et al.; "Multi-Event-Camera
Depth Estimation and Outlier Rejection by Refocused Events Fusion",
Ghosh & Gallego).  That shape maps exactly onto the machinery this repo
already has:

* each rig camera is an ordinary :class:`~repro.core.engine.EngineSpec`
  whose trajectory is the rig body's trajectory composed with the
  camera's mounting extrinsic (``T_w_cam(t) = T_w_rig(t) @ T_rig_cam``,
  see :meth:`~repro.geometry.trajectory.Trajectory.transformed`);
* each camera's stream is one ordinary job on a
  :class:`~repro.serve.ReconstructionService` — segments from different
  cameras are just more embarrassingly-parallel work for one pool, and
  they memoize under the very same :func:`~repro.serve.cache.segment_key`
  entries a monocular run of that camera would;
* the per-camera key-frame depth maps — already world-frame, because the
  composed trajectories are — fuse into one
  :class:`~repro.core.mapping.GlobalMap` whose per-voxel distinct-source
  counts drive ``min_cameras`` cross-camera outlier rejection.

Determinism is structural, exactly as for monocular mapping: each
camera's solo :class:`~repro.core.mapping.MappingResult` is a service
job, as a :class:`~repro.core.mapping.MappingOrchestrator` run of that
camera is, and rig fusion is an order-fixed reduction over the
per-camera key frames in rig order — so the fused rig map is
bit-identical across worker counts and executors, and
:meth:`RigOrchestrator.run` (``collect`` of ``submit`` on a private
service) equals the same rig routed through a caller's service.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

from repro.core.engine import EngineSpec
from repro.core.mapping import (
    GlobalMap,
    MappingResult,
    PoolSpec,
    _private_service,
    default_voxel_size,
)
# The perfbench tracer patches these ``rig.*`` names by module lookup;
# of the four, only fuse_camera_keyframes is called here.
from repro.core.mapping import (  # noqa: F401
    fuse_camera_keyframes,
    fuse_keyframes,
    merge_outcomes,
    run_segment_task,
)
from repro.core.pointcloud import PointCloud
from repro.core.results import PipelineProfile
from repro.events.containers import EventArray
from repro.geometry.se3 import SE3
from repro.geometry.trajectory import Trajectory


@dataclass(frozen=True)
class RigCamera:
    """One camera of a rig: a name, its engine spec, and its extrinsic.

    ``spec.trajectory`` is the camera's *own* world trajectory (the rig
    body's trajectory composed with ``extrinsic = T_rig_cam``); the
    extrinsic is kept alongside for introspection and round-trip tests.
    Frozen and picklable, like :class:`~repro.core.engine.EngineSpec`.
    """

    name: str
    spec: EngineSpec
    extrinsic: SE3

    def __post_init__(self):
        if not self.name:
            raise ValueError("rig camera needs a non-empty name")
        if not isinstance(self.spec, EngineSpec):
            raise TypeError("spec must be an EngineSpec")
        if not isinstance(self.extrinsic, SE3):
            raise TypeError("extrinsic must be an SE3 (T_rig_cam)")


@dataclass(frozen=True)
class CameraRig:
    """A frozen set of named cameras rigidly mounted on one moving body.

    A value object in the :class:`~repro.core.engine.EngineSpec` mold:
    frozen, picklable, and carrying everything a rig reconstruction
    needs.  Build one from a shared body trajectory with
    :meth:`from_trajectory`, or directly from per-camera specs when the
    cameras are heterogeneous (different sensors, backends or depth
    ranges).

    Examples
    --------
    A stereo rig on a slider trajectory::

        from repro.core import CameraRig, RigOrchestrator
        from repro.geometry.se3 import SE3

        rig = CameraRig.from_trajectory(
            camera, trajectory, config,
            extrinsics=[SE3.identity(),
                        SE3(np.eye(3), [0.08, 0.0, 0.0])],
            depth_range=(0.5, 2.0),
        )
        result = RigOrchestrator(rig).run({"cam0": ev0, "cam1": ev1})
    """

    cameras: tuple[RigCamera, ...]

    def __post_init__(self):
        cameras = tuple(self.cameras)
        object.__setattr__(self, "cameras", cameras)
        if not cameras:
            raise ValueError("a rig needs at least one camera")
        names = [cam.name for cam in cameras]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rig camera names: {names}")
        for cam in cameras:
            if not isinstance(cam, RigCamera):
                raise TypeError("cameras must be RigCamera instances")

    # ------------------------------------------------------------------
    @classmethod
    def from_trajectory(
        cls,
        camera,
        trajectory: Trajectory,
        config=None,
        extrinsics: list[SE3] | tuple[SE3, ...] = (),
        *,
        names: list[str] | None = None,
        depth_range: tuple[float, float] = (0.5, 5.0),
        policy="reformulated",
        backend: str = "numpy-batch",
    ) -> "CameraRig":
        """Rig of identical sensors mounted on one body trajectory.

        ``extrinsics[i] = T_rig_cam`` places camera ``i`` relative to
        the body frame; its world trajectory is the body trajectory
        composed with that offset *at the stored poses*
        (:meth:`~repro.geometry.trajectory.Trajectory.transformed`), so
        a camera mounted at ``SE3.identity()`` gets a bit-identical
        trajectory to the body's own.  Default names are ``cam0``,
        ``cam1``, …
        """
        extrinsics = tuple(extrinsics)
        if not extrinsics:
            raise ValueError("need at least one extrinsic")
        if names is None:
            names = [f"cam{i}" for i in range(len(extrinsics))]
        if len(names) != len(extrinsics):
            raise ValueError(
                f"{len(names)} names but {len(extrinsics)} extrinsics"
            )
        cameras = []
        for name, offset in zip(names, extrinsics):
            spec = EngineSpec(
                camera,
                trajectory.transformed(offset),
                config,
                depth_range=depth_range,
                policy=policy,
                backend=backend,
            )
            cameras.append(RigCamera(name=name, spec=spec, extrinsic=offset))
        return cls(cameras=tuple(cameras))

    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Camera names in rig order."""
        return tuple(cam.name for cam in self.cameras)

    @property
    def n_cameras(self) -> int:
        """Number of cameras in the rig."""
        return len(self.cameras)

    @property
    def depth_range(self) -> tuple[float, float]:
        """Union of the per-camera DSI depth ranges (rig fusion bounds)."""
        return (
            min(cam.spec.depth_range[0] for cam in self.cameras),
            max(cam.spec.depth_range[1] for cam in self.cameras),
        )

    def __len__(self) -> int:
        return len(self.cameras)

    def __iter__(self):
        return iter(self.cameras)

    def camera(self, name: str) -> RigCamera:
        """Look up one camera by name."""
        for cam in self.cameras:
            if cam.name == name:
                return cam
        raise KeyError(f"no rig camera named {name!r}; have {self.names}")


@dataclass(frozen=True)
class RigMappingResult:
    """Output of a rig reconstruction: per-camera results plus the fusion.

    ``per_camera`` holds each camera's complete monocular
    :class:`~repro.core.mapping.MappingResult` — bit-identical to what a
    solo :class:`~repro.core.mapping.MappingOrchestrator` run of that
    camera would produce.  ``global_map`` / ``cloud`` are the
    cross-camera fusion with ``min_cameras`` agreement applied;
    ``profile`` aggregates the per-camera profiles in rig order.
    """

    per_camera: dict[str, MappingResult]
    global_map: GlobalMap
    cloud: PointCloud
    profile: PipelineProfile
    min_observations: int
    min_cameras: int
    workers: int
    wall_seconds: float

    @property
    def n_points(self) -> int:
        """Point count of the rig-fused cloud."""
        return len(self.cloud)

    @property
    def n_cameras(self) -> int:
        """Number of cameras fused."""
        return len(self.per_camera)

    def camera_result(self, name: str) -> MappingResult:
        """One camera's solo mapping result."""
        return self.per_camera[name]


@dataclass(frozen=True)
class RigJobHandle:
    """Tracking handle for a rig job submitted to a reconstruction service.

    One service job id per rig camera, in rig order; :meth:`job_id`
    resolves a camera name.  The fusion step happens at collection time
    (:meth:`RigOrchestrator.collect`) — the service itself only ever
    sees ordinary per-camera jobs.
    """

    rig: CameraRig
    job_ids: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def job_id(self, name: str) -> str:
        """The service job id of one camera's sub-job."""
        for cam_name, job_id in self.job_ids:
            if cam_name == name:
                return job_id
        raise KeyError(f"no sub-job for camera {name!r}")


class RigOrchestrator:
    """Plan, execute and fuse a multi-camera rig reconstruction.

    Each camera's stream is one job on a reconstruction service —
    planned independently (:meth:`EngineSpec.plan`, a pose-only pass on
    *its* composed trajectory) and executed on the service's one pool;
    the per-camera key frames then fuse into a single
    :class:`~repro.core.mapping.GlobalMap` with cross-camera agreement
    filtering.  :meth:`run` does this on a private service built from
    :attr:`pool_spec`; :meth:`submit` / :meth:`collect` on a caller's.

    Parameters
    ----------
    rig:
        The :class:`CameraRig` to reconstruct.
    workers:
        Pool width over the union of all cameras' segments (``None``:
        the machine's CPU count).  Any width produces bit-identical
        results.
    voxel_size:
        Fusion voxel edge for the rig map.  ``None`` derives
        :func:`~repro.core.mapping.default_voxel_size` from the rig's
        union depth range; per-camera maps always use their own spec's
        default (or this explicit value), keeping each solo result
        bit-identical to a monocular run of that camera.
    min_observations:
        Per-voxel observation support required in the rig-fused cloud
        (as in monocular fusion).
    min_cameras:
        Distinct-camera agreement required per voxel in the rig-fused
        cloud.  ``None`` defaults to ``min(2, n_cameras)`` — stereo
        agreement when the rig has it, monocular passthrough otherwise.
    executor:
        ``"inline"``, ``"process"``, ``"thread"`` or ``None``
        (:class:`~repro.core.mapping.PoolSpec`: inline for one worker,
        else processes unless some camera runs the in-process
        ``hardware-model`` backend).
    """

    def __init__(
        self,
        rig: CameraRig,
        workers: int | None = None,
        voxel_size: float | None = None,
        min_observations: int = 1,
        min_cameras: int | None = None,
        executor: str | None = None,
    ):
        if not isinstance(rig, CameraRig):
            raise TypeError("rig must be a CameraRig")
        self.pool_spec = PoolSpec(
            workers,
            executor,
            threaded=any(cam.spec.backend == "hardware-model" for cam in rig),
        )
        if voxel_size is not None and voxel_size <= 0:
            raise ValueError("voxel_size must be positive (or None for auto)")
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if min_cameras is None:
            min_cameras = min(2, rig.n_cameras)
        if not 1 <= min_cameras <= rig.n_cameras:
            raise ValueError(
                f"min_cameras must be in [1, {rig.n_cameras}], got {min_cameras}"
            )
        self.rig = rig
        self._explicit_voxel = voxel_size
        self.voxel_size = (
            voxel_size
            if voxel_size is not None
            else default_voxel_size(rig.depth_range)
        )
        self.min_observations = int(min_observations)
        self.min_cameras = int(min_cameras)

    # ------------------------------------------------------------------
    def _check_events(self, events_by_camera: Mapping[str, EventArray]) -> None:
        have = set(events_by_camera)
        want = set(self.rig.names)
        if have != want:
            raise ValueError(
                f"events_by_camera keys {sorted(have)} must match rig "
                f"cameras {sorted(want)}"
            )

    # ------------------------------------------------------------------
    # The perfbench tracer wraps this method by name.
    def run(self, events_by_camera: Mapping[str, EventArray]) -> RigMappingResult:
        """Reconstruct every camera on one private service, then fuse.

        ``events_by_camera`` maps each rig camera name to its event
        stream; the key set must match the rig exactly.  This is
        :meth:`collect` of :meth:`submit` on a fresh service with one
        job slot per camera and no segment cache, so a worker's
        exception raises :class:`~repro.serve.JobFailed` (the worker's
        error message, its traceback text as a note).  The result's
        ``wall_seconds`` spans the whole call.
        """
        t_wall = time.perf_counter()
        with _private_service(self.pool_spec, self.rig.n_cameras) as service:
            result = self.collect(service, self.submit(service, events_by_camera))
        return replace(result, wall_seconds=time.perf_counter() - t_wall)

    # ------------------------------------------------------------------
    def submit(
        self,
        service,
        events_by_camera: Mapping[str, EventArray],
        *,
        session: str = "default",
    ) -> RigJobHandle:
        """Route the rig through a :class:`~repro.serve.ReconstructionService`.

        A rig job is N ordinary per-camera jobs — each one admitted via
        the unchanged ``service.submit`` and therefore scheduled,
        retried, deadline-watched and *cached* exactly like any other
        job (a rig camera's segments share
        :func:`~repro.serve.cache.segment_key` entries with monocular
        runs of that camera).  Fusion happens locally at
        :meth:`collect`.
        """
        # Runtime import: core must stay importable without serve.
        from repro.serve.options import JobOptions

        self._check_events(events_by_camera)
        options = JobOptions(voxel_size=self._explicit_voxel, min_observations=1)
        job_ids = tuple(
            (
                cam.name,
                service.submit(
                    events_by_camera[cam.name],
                    cam.spec,
                    session=session,
                    options=options,
                ),
            )
            for cam in self.rig
        )
        return RigJobHandle(rig=self.rig, job_ids=job_ids)

    def collect(
        self, service, handle: RigJobHandle, timeout: float | None = None
    ) -> RigMappingResult:
        """Block on every per-camera job, then fuse into the rig result.

        Each per-camera result is an ordinary service job, bit-identical
        to a :class:`~repro.core.mapping.MappingOrchestrator` run of that
        camera; rig fusion is an order-fixed reduction over their key
        frames in rig order, so the collected result is bit-identical to
        :meth:`run` on the same events, whatever service computed it.
        """
        t_wall = time.perf_counter()
        per_camera: dict[str, MappingResult] = {}
        for cam_name, job_id in handle.job_ids:
            per_camera[cam_name] = service.result(job_id, timeout=timeout)
        streams = [
            (cam.spec.camera, per_camera[cam.name].keyframes)
            for cam in self.rig
        ]
        global_map = fuse_camera_keyframes(streams, self.voxel_size)
        profile = PipelineProfile()
        for cam in self.rig:
            profile.merge(per_camera[cam.name].profile)
        return RigMappingResult(
            per_camera=per_camera,
            global_map=global_map,
            cloud=global_map.fused_cloud(
                self.min_observations, self.min_cameras
            ),
            profile=profile,
            min_observations=self.min_observations,
            min_cameras=self.min_cameras,
            workers=max(result.workers for result in per_camera.values()),
            wall_seconds=time.perf_counter() - t_wall,
        )
