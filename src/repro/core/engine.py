"""The streaming reconstruction engine: one dataflow, pluggable substrates.

Every EMVS variant in this repo — the original full-precision dataflow,
Eventor's reformulated dataflow, incremental (online) mapping and the
cycle-accurate accelerator model — executes the same loop::

    packetize -> (undistort) -> back-project -> vote -> detect -> lift

:class:`ReconstructionEngine` owns that loop exactly once.  What *varies*
is factored into two orthogonal parameters:

* a :class:`~repro.core.policy.DataflowPolicy` — the algorithmic knobs
  (correction scheduling, voting method, quantization schema, score
  storage), and
* an :class:`ExecutionBackend` — the execution substrate performing the
  per-frame back-projection + voting and owning the DSI storage.

Backends are selected by name from the :data:`BACKENDS` registry:

``numpy-reference``
    Straightforward per-frame NumPy execution (one scatter-add per
    frame).
``numpy-batch``
    Segment-batched execution: the engine buffers event frames (see
    ``DataflowPolicy.batch_frames``) and the backend executes each batch
    as a handful of large fused array passes — stacked pose/homography
    parameter computation, one batched canonical projection, and a fused
    proportional+vote kernel scattering the whole batch through a single
    pass (:class:`~repro.core.voting.BatchedNearestVoter`).
``native-batch``
    The ``numpy-batch`` dataflow with the hot stage (φ parameter stack
    and the fused proportional+vote scatter) executed in compiled code
    (:mod:`repro.native`).  Registered only when the compiled C kernels
    load on this host; see ``repro info``.
``hardware-model``
    Wraps :class:`repro.hardware.EventorSystem`'s PL datapath so
    cycle-accurate runs share this exact front-end — bit-exactness between
    software and hardware paths is enforced structurally, not by parallel
    run loops.

The engine is *streaming* (push chunks, finish to close) and single-use:
a batch run constructs a fresh engine and calls
:meth:`ReconstructionEngine.run` (= push-all + finish).
"""

from __future__ import annotations

import abc
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.backprojection import BackProjector
from repro.core.config import DetectionConfig, EMVSConfig
from repro.core.depthmap import SemiDenseDepthMap
from repro.core.detection import detect_structure
from repro.core.dsi import DSI, depth_planes
from repro.core.keyframes import KeyframeSelector
from repro.core.results import EMVSResult, KeyframeReconstruction, PipelineProfile
from repro.core.pointcloud import PointCloud
from repro.core.policy import (
    CorrectionScheduling,
    DataflowPolicy,
    REFORMULATED_POLICY,
    resolve_policy,
)
from repro.core.voting import (
    BatchedNearestVoter,
    VotingMethod,
    bilinear_vote_terms,
    cast_votes_into,
)
from repro.events.containers import EventArray
from repro.events.packetizer import (
    ChunkBuffer,
    EventFrame,
    Packetizer,
    segment_slice,
)
from repro.geometry.camera import PinholeCamera
from repro.geometry.distortion import NoDistortion
from repro.geometry.homography import apply_proportional
from repro.geometry.se3 import SE3, stack_poses
from repro.geometry.trajectory import Trajectory


class ExecutionBackend(abc.ABC):
    """Execution substrate for the back-project + vote hot path.

    A backend owns the DSI storage of the current reference segment and
    executes frames into it; the engine owns everything around it
    (packetization, correction, key-framing, detection, map merging).
    Backends are bound to exactly one engine via :meth:`bind` before use.
    """

    #: Registry name (set by subclasses).
    name: str = "?"

    #: When True the engine buffers frames (``DataflowPolicy.batch_frames``
    #: at a time) and delivers them via :meth:`process_batch`, flushing at
    #: segment boundaries, previews and stream end so streaming semantics
    #: are preserved.
    buffers_frames: bool = False

    def bind(self, engine: "ReconstructionEngine") -> None:
        """Attach to the owning engine (grants camera/policy/profile access)."""
        self.engine = engine

    @abc.abstractmethod
    def start_reference(self, T_w_ref: SE3) -> None:
        """Seat (or re-seat) the DSI at a new key reference view."""

    @abc.abstractmethod
    def process_frame(self, frame: EventFrame) -> tuple[int, int]:
        """Back-project and vote one frame; returns ``(votes, misses)``."""

    def process_batch(self, frames: list[EventFrame]) -> tuple[int, int]:
        """Back-project and vote a batch of frames of one segment.

        The default implementation loops over :meth:`process_frame`;
        batching backends override it with fused multi-frame execution.
        Returns the summed ``(votes, misses)`` of the batch.
        """
        votes = misses = 0
        for frame in frames:
            frame_votes, frame_misses = self.process_frame(frame)
            votes += frame_votes
            misses += frame_misses
        return votes, misses

    @abc.abstractmethod
    def read_dsi(self) -> DSI:
        """The voted DSI of the current segment, ready for detection.

        Must be non-destructive: detection also runs for depth-map
        previews of unfinished segments.
        """

    def detect(self, config: DetectionConfig) -> SemiDenseDepthMap:
        """Stage ``D`` over the current segment's votes.

        The default runs the numpy :func:`detect_structure` on
        :meth:`read_dsi`; a backend that keeps its votes elsewhere
        overrides it with a bit-identical path over its own storage.
        """
        return detect_structure(self.read_dsi(), config)


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------

#: name -> factory(engine) -> ExecutionBackend
BACKENDS: dict[str, Callable[["ReconstructionEngine"], ExecutionBackend]] = {}


def register_backend(name: str):
    """Decorator registering a backend factory under ``name``."""

    def decorator(factory):
        """Register ``factory`` and return it unchanged."""
        BACKENDS[name] = factory
        return factory

    return decorator


def _backend_factory(name: str) -> Callable[["ReconstructionEngine"], ExecutionBackend]:
    """The registered factory of ``name``; unknown names list the registry."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; known: {sorted(BACKENDS)}") from None


def default_backend() -> str:
    """The fastest exact backend registered: ``native-batch`` when its
    kernels load, else ``numpy-batch`` (bit-identical either way)."""
    return "native-batch" if "native-batch" in BACKENDS else "numpy-batch"


def create_backend(
    backend: str | ExecutionBackend, engine: "ReconstructionEngine"
) -> ExecutionBackend:
    """Resolve a backend name (or pass through an instance) and bind it."""
    if isinstance(backend, ExecutionBackend):
        instance = backend
    else:
        instance = _backend_factory(backend)(engine)
    instance.bind(engine)
    return instance


# ----------------------------------------------------------------------
# NumPy backends
# ----------------------------------------------------------------------
class _NumpyBackendBase(ExecutionBackend):
    """Shared DSI/projector lifecycle of the software backends."""

    def __init__(self, engine: "ReconstructionEngine"):
        self.bind(engine)
        self._dsi: DSI | None = None
        self._projector: BackProjector | None = None

    def start_reference(self, T_w_ref: SE3, scores: np.ndarray | None = None) -> None:
        """Seat a DSI and projector at the new reference view.

        The DSI is fresh, or wraps ``scores`` (a zeroed volume the
        backend owns) without a copy.
        """
        e = self.engine
        self._dsi = DSI(
            e.camera,
            T_w_ref,
            e.depths,
            integer_scores=e.policy.integer_scores,
            score_limit=e.policy.score_limit(),
            scores=scores,
        )
        self._projector = BackProjector(
            e.camera, T_w_ref, e.depths, schema=e.policy.schema
        )

    def _canonical(self, frame: EventFrame):
        """Stage ``P(Z0)``: per-frame parameters + canonical projection.

        Timed as ``P_Z0`` in the shared profile, exactly like the seed
        mapper split the stages.  Returns ``(params, uv0, valid)``.
        """
        if self._projector is None:
            raise RuntimeError("start_reference() must be called before frames")
        t0 = time.perf_counter()
        params = self._projector.frame_parameters(frame.T_wc)
        uv0, valid = self._projector.canonical(params, frame.events.xy)
        self.engine.profile.add_time("P_Z0", time.perf_counter() - t0)
        return params, uv0, valid

    def read_dsi(self) -> DSI:
        """The segment's DSI (requires an open reference)."""
        if self._dsi is None:
            raise RuntimeError("no reference segment is open")
        return self._dsi


@register_backend("numpy-reference")
class NumpyReferenceBackend(_NumpyBackendBase):
    """Per-frame NumPy execution: one scatter-add vote pass per frame."""

    name = "numpy-reference"

    def process_frame(self, frame: EventFrame) -> tuple[int, int]:
        """Back-project and scatter one frame, reference-style."""
        params, uv0, valid = self._canonical(frame)
        t0 = time.perf_counter()
        u, v = self._projector.proportional(params, uv0)
        u[~valid] = np.nan
        v[~valid] = np.nan
        votes = cast_votes_into(
            self.engine.policy.voting, self._dsi.flat_scores, u, v, self._dsi.shape
        )
        self.engine.profile.add_time("P_Zi_R", time.perf_counter() - t0)
        return votes, int((~valid).sum())


@register_backend("numpy-batch")
class NumpyBatchBackend(_NumpyBackendBase):
    """Segment-batched execution: whole-batch fused passes, zero hot allocs.

    Where ``numpy-reference`` drives the hot path one 1024-event frame at
    a time from Python, this backend receives the engine's buffered frame
    batches (``DataflowPolicy.batch_frames`` per flush) and executes each
    batch in three fused steps, each bit-identical to the per-frame path:

    1. *batched parameter computation* — event poses are stacked and
       ``H_Z0``/φ come out of one ``(B, 3, 3)`` inverse/matmul pass
       (:meth:`~repro.core.backprojection.BackProjector.frame_parameters_batch`)
       instead of ``B`` Python trips through ``SE3``;
    2. *batched canonical projection* — the ``(B, N, 2)`` event block goes
       through the stacked homographies in a single matmul with one
       validity mask (:meth:`~repro.core.backprojection.BackProjector.canonical_batch`);
    3. *fused proportional + vote* — under nearest voting, a
       :class:`~repro.core.voting.BatchedNearestVoter` writes ``u``/``v``
       into segment-lifetime scratch and scatters the whole batch in one
       pass through a border-padded count volume (no per-element validity
       masking anywhere).  Under bilinear voting the float accumulation
       order is observable, so votes are applied per frame in reference
       order — still fed by the batched stages 1-2 and allocation-free
       proportional scratch.

    Counts accumulate per segment and are materialized into the DSI once
    per key frame (or preview).  With a policy of ``batch_frames=1`` the
    backend runs unbuffered, one frame per pass.
    """

    name = "numpy-batch"
    buffers_frames = True

    def start_reference(self, T_w_ref: SE3) -> None:
        """Seat the DSI and build the segment-lifetime batch voter."""
        super().start_reference(T_w_ref)
        self._dirty = False
        if self.engine.policy.voting is VotingMethod.NEAREST:
            self._voter = BatchedNearestVoter(self._dsi.shape)
        else:
            self._voter = None
            self._uv_scratch: tuple[np.ndarray, np.ndarray] | None = None

    def process_frame(self, frame: EventFrame) -> tuple[int, int]:
        """Single-frame fallback: a batch of one."""
        return self.process_batch([frame])

    def process_batch(self, frames: list[EventFrame]) -> tuple[int, int]:
        """Execute one buffered frame batch in fused whole-batch passes."""
        if self._projector is None:
            raise RuntimeError("start_reference() must be called before frames")
        sizes = {len(frame) for frame in frames}
        if len(sizes) > 1:
            # Mixed frame sizes cannot stack; fall back to singleton
            # batches (the engine's packetizer only emits fixed sizes, so
            # this path serves direct backend users).
            return super().process_batch(frames)

        t0 = time.perf_counter()
        rotations, translations = stack_poses([frame.T_wc for frame in frames])
        xy = np.stack([frame.events.xy for frame in frames])
        params = self._projector.frame_parameters_batch(rotations, translations)
        uv0, valid = self._projector.canonical_batch(params, xy)
        self.engine.profile.add_time("P_Z0", time.perf_counter() - t0)

        t0 = time.perf_counter()
        if self._voter is not None:
            votes, misses = self._voter.vote_batch(params.phi, uv0, valid)
            self._dirty = True
        else:
            votes, misses = self._vote_bilinear_frames(params, uv0, valid)
        self.engine.profile.add_time("P_Zi_R", time.perf_counter() - t0)
        return votes, misses

    def _vote_bilinear_frames(self, params, uv0, valid) -> tuple[int, int]:
        """Reference-order bilinear voting fed by the batched stages.

        Float corner weights make the accumulation order observable, so
        each frame scatters separately (frame order, reference corner
        order) — bit-identical to ``numpy-reference`` — while the
        proportional map reuses segment-lifetime scratch.
        """
        batch, n = uv0.shape[0], uv0.shape[1]
        nz = self._dsi.shape[0]
        if self._uv_scratch is None or self._uv_scratch[0].shape != (n, nz):
            self._uv_scratch = (np.empty((n, nz)), np.empty((n, nz)))
        votes = 0
        misses = 0
        flat = self._dsi.flat_scores
        for b in range(batch):
            u, v = apply_proportional(params.phi[b], uv0[b], out=self._uv_scratch)
            miss = ~valid[b]
            if miss.any():
                u[miss] = np.nan
                v[miss] = np.nan
                misses += int(miss.sum())
            lin, weights, n_points = bilinear_vote_terms(u, v, self._dsi.shape)
            if lin.size:
                np.add.at(flat, lin, weights)
            votes += n_points
        return votes, misses

    def read_dsi(self) -> DSI:
        """Materialize the batch voter's counts, then return the DSI.

        Detection is the only reader, so the copy is timed as part of
        ``D``, like the hardware model's read-back from DRAM.
        """
        if self._dirty:
            self._voter.materialize_into(super().read_dsi().flat_scores)
            self._dirty = False
        return super().read_dsi()


def _check_backend_policy(backend: str, policy: DataflowPolicy) -> None:
    """Reject a policy the named backend cannot execute (``ValueError``).

    The PL datapath implements exactly one algorithmic point: quantized
    arithmetic and nearest voting into saturating integer scores.  The
    ``hardware-model`` backend refuses every other policy instead of
    silently diverging from it; the software backends execute any policy.
    """
    if backend != "hardware-model":
        return
    if policy.voting is not VotingMethod.NEAREST:
        raise ValueError(
            "the hardware-model backend implements nearest voting only; "
            f"policy {policy.name!r} requests {policy.voting}"
        )
    if not policy.integer_scores:
        raise ValueError(
            "the hardware-model backend stores integer DSI scores by design"
        )
    if not policy.schema.enabled:
        raise ValueError("the hardware-model backend is quantized by design")


@register_backend("hardware-model")
def _make_hardware_backend(engine: "ReconstructionEngine") -> ExecutionBackend:
    """Cycle-accurate accelerator substrate (lazy import avoids a cycle).

    Builds a fresh :class:`repro.hardware.EventorSystem` sized to the
    engine's configuration and returns its backend adapter; the resulting
    :class:`~repro.hardware.accelerator.HardwareReport` is available as
    ``backend.report()`` after the run.
    """
    from repro.hardware.accelerator import EventorSystem
    from repro.hardware.config import EventorConfig

    _check_backend_policy("hardware-model", engine.policy)
    system = EventorSystem(
        engine.camera,
        emvs_config=engine.config,
        depth_range=engine.depth_range,
        hw_config=EventorConfig(
            n_planes=engine.config.n_depth_planes,
            frame_size=engine.config.frame_size,
        ),
        schema=engine.policy.schema,
    )
    return system.make_backend()


# ----------------------------------------------------------------------
# Engine specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineSpec:
    """Everything needed to build a :class:`ReconstructionEngine`, as data.

    One engine run is fully determined by this bundle plus the event
    stream, so anything that constructs *many* engines — the parallel
    :class:`~repro.core.mapping.MappingOrchestrator`'s per-segment
    workers, the :class:`~repro.serve.ReconstructionService`'s job
    sharding and its result-cache keys — passes a spec around instead of
    six loose parameters.  The backend is held by registry *name* (not
    instance) so a spec pickles cleanly into process pools and two specs
    naming the same configuration compare equal.

    ``policy`` may be given as a preset name; it is resolved at
    construction, so a spec always carries the concrete
    :class:`~repro.core.policy.DataflowPolicy`.  An unknown backend, or
    a policy the backend cannot execute (anything but quantized nearest
    voting into integer scores on ``hardware-model``), raises
    ``ValueError`` here rather than in a worker.

    Examples
    --------
    One spec, three consumers — a local engine, a segment plan, and a
    service job::

        from repro.core import EMVSConfig, EngineSpec
        from repro.events.datasets import load_sequence
        from repro.serve import ReconstructionService

        seq = load_sequence("slider_long", quality="fast")
        spec = EngineSpec(
            seq.camera, seq.trajectory,
            EMVSConfig(n_depth_planes=48,
                       keyframe_distance=seq.keyframe_distance),
            depth_range=seq.depth_range, backend="numpy-batch",
        )
        result = spec.build().run(seq.events)      # direct engine run
        plans, dropped = spec.plan(seq.events)     # pose-only segment plan
        with ReconstructionService(workers=1) as svc:
            served = svc.result(svc.submit(seq.events, spec))
        assert served.profile.counters() == result.profile.counters()
    """

    camera: PinholeCamera
    trajectory: Trajectory
    config: EMVSConfig
    depth_range: tuple[float, float] = (0.5, 5.0)
    policy: DataflowPolicy = REFORMULATED_POLICY
    backend: str = "numpy-reference"

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str):
            raise TypeError(
                "EngineSpec holds a backend registry name; engine builders "
                "each construct their own backend instance"
            )
        _backend_factory(self.backend)  # unknown names fail here, not in a worker
        object.__setattr__(self, "policy", resolve_policy(self.policy))
        _check_backend_policy(self.backend, self.policy)
        object.__setattr__(self, "config", self.config or EMVSConfig())
        object.__setattr__(
            self, "depth_range", tuple(float(z) for z in self.depth_range)
        )

    def build(self, **kwargs) -> "ReconstructionEngine":
        """Construct a fresh engine for this specification."""
        return ReconstructionEngine(
            self.camera,
            self.trajectory,
            self.config,
            depth_range=self.depth_range,
            policy=self.policy,
            backend=self.backend,
            **kwargs,
        )

    def plan(self, events: EventArray) -> tuple[list["SegmentPlan"], int]:
        """Segment plan of ``events`` under this spec (pose-only pass)."""
        return plan_segments(events, self.trajectory, self.config)

    def stream_planner(self) -> "StreamSegmentPlanner":
        """A fresh incremental segment planner for this spec.

        The streaming counterpart of :meth:`plan`: feed event chunks as
        they arrive and harvest closed key-frame segments immediately
        (see :class:`StreamSegmentPlanner`).
        """
        return StreamSegmentPlanner(self.trajectory, self.config)


# ----------------------------------------------------------------------
# Segment planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentPlan:
    """One key-frame segment of a planned stream: frames sharing a reference.

    Frame and event indices are relative to the planned stream; event
    ranges are frame-aligned, so ``events[start_event:end_event]``
    re-packetizes into exactly the segment's frames.
    """

    index: int
    start_frame: int
    end_frame: int
    frame_size: int
    t_ref: float

    @property
    def n_frames(self) -> int:
        """Frame count of the segment."""
        return self.end_frame - self.start_frame

    @property
    def start_event(self) -> int:
        """First event index of the segment (frame-aligned)."""
        return self.start_frame * self.frame_size

    @property
    def end_event(self) -> int:
        """One-past-last event index of the segment (frame-aligned)."""
        return self.end_frame * self.frame_size

    @property
    def n_events(self) -> int:
        """Event count of the segment."""
        return self.end_event - self.start_event

    def slice(self, events: EventArray) -> EventArray:
        """The segment's events out of the planned stream."""
        return segment_slice(events, self.start_frame, self.end_frame, self.frame_size)


def plan_segments(
    events: EventArray,
    trajectory: Trajectory,
    config: EMVSConfig,
) -> tuple[list[SegmentPlan], int]:
    """Pre-compute the key-frame segments a streaming run would produce.

    Key-frame selection depends only on frame poses, frame poses only on
    frame mid-span timestamps, and those only on event timestamps and
    ``frame_size`` — none of which the voting dataflow touches.  So one
    cheap pose-only pass (no back-projection, no DSI) predicts the exact
    segment boundaries of :meth:`ReconstructionEngine.run`.  The pass is
    the one-chunk case of :class:`StreamSegmentPlanner` (one ``push`` of
    the whole stream, then ``finish``); its cuts are views, so nothing
    is copied.
    Per-keyframe segments are embarrassingly parallel; this plan is what a
    :class:`repro.core.mapping.MappingOrchestrator` shards across workers.

    Returns
    -------
    ``(plans, n_dropped)`` — the segment list (empty when the stream has
    no complete frame) and the trailing partial-frame event count the run
    would drop at stream end.
    """
    planner = StreamSegmentPlanner(trajectory, config)
    cuts = planner.push(events)
    tail, dropped = planner.finish()
    return [plan for plan, _ in cuts + tail], dropped


class StreamSegmentPlanner:
    """The one key-frame planner: feed chunks, harvest closed segments.

    Segment planning is a pose-only pass — key-frame boundaries depend
    only on frame mid-span timestamps and the trajectory positions there
    — so it needs no look-ahead beyond the frame that *crosses* a
    boundary.  This class exploits that to plan a stream while it is
    still flowing: :meth:`push` accepts event chunks of any size and
    returns every key-frame segment whose end became known (the boundary
    frame arrived), each paired with its frame-aligned event slice, and
    :meth:`finish` closes the trailing segment and accounts the dropped
    partial frame.

    Equivalence contract: for any chunking of a stream, the concatenated
    ``push``/``finish`` output equals ``plan_segments(whole_stream, ...)``
    exactly — same :class:`SegmentPlan` values (frame indices are global,
    relative to the whole planned stream), same event slices, same
    dropped-tail count — :func:`plan_segments` is the one-chunk case.
    The mid-times are :func:`~repro.events.packetizer.frame_midtimes`'
    ``0.5 * (t_first + t_last)`` in float64, the selector reads only the
    vectorized :meth:`Trajectory.positions` lerp (bit-identical to the
    translation of the engine's scalar ``trajectory.sample``; no rotation
    is interpolated), and one stateful
    :class:`~repro.core.keyframes.KeyframeSelector` decides across
    pushes; ``tests/unit/test_stream_planner.py`` pins it per chunk size.

    One :class:`~repro.serve.StreamingSession` holds one planner; the
    serve layer dispatches each closed segment onto the shared worker
    pool the moment it is returned.

    Examples
    --------
    >>> planner = spec.stream_planner()          # doctest: +SKIP
    >>> for chunk in chunks:                     # doctest: +SKIP
    ...     for plan, events in planner.push(chunk):
    ...         pool.submit(SegmentTask(plan.index, events, spec))
    >>> tail, n_dropped = planner.finish()       # doctest: +SKIP
    """

    def __init__(self, trajectory: Trajectory, config: EMVSConfig):
        self._trajectory = trajectory
        self._frame_size = config.frame_size
        self._selector = KeyframeSelector(config.keyframe_distance)
        self._buffer = ChunkBuffer()
        #: Complete buffered frames whose boundary decision is done.
        self._checked = 0
        #: Global frames already cut into emitted segments.
        self._frames_cut = 0
        self._segments_emitted = 0
        self._open_t_ref: float | None = None
        self._finished = False

    # ------------------------------------------------------------------
    @property
    def next_index(self) -> int:
        """Global index the next emitted segment will carry."""
        return self._segments_emitted

    @property
    def frames_planned(self) -> int:
        """Complete frames observed so far (cut or awaiting a boundary)."""
        return self._frames_cut + self._checked

    @property
    def pending_events(self) -> int:
        """Events buffered but not yet cut into an emitted segment."""
        return len(self._buffer)

    # ------------------------------------------------------------------
    def _cut(self, n_frames: int) -> tuple[SegmentPlan, EventArray]:
        """Close the open segment at ``n_frames`` buffered frames."""
        plan = SegmentPlan(
            index=self._segments_emitted,
            start_frame=self._frames_cut,
            end_frame=self._frames_cut + n_frames,
            frame_size=self._frame_size,
            t_ref=self._open_t_ref,
        )
        events = self._buffer.split(n_frames * self._frame_size)
        self._segments_emitted += 1
        self._frames_cut += n_frames
        self._checked -= n_frames
        return plan, events

    def push(self, events: EventArray) -> list[tuple[SegmentPlan, EventArray]]:
        """Feed one chunk; returns every segment it closed (often none).

        A segment closes when a later frame crosses the key-frame
        distance threshold — the boundary frame itself opens the next
        segment, exactly as in the streaming engine run the plan
        predicts.
        """
        if self._finished:
            raise RuntimeError("planner already finished; build a new one")
        self._buffer.push(events)
        closed: list[tuple[SegmentPlan, EventArray]] = []
        # Cuts only drop whole frames ahead of the unchecked ones, so every
        # new frame's mid-time is read (one gather of its first and last
        # timestamps) and its position interpolated before anything is cut.
        firsts = self._frame_size * np.arange(
            self._checked, len(self._buffer) // self._frame_size, dtype=np.int64
        )
        ends = self._buffer.timestamps(
            np.concatenate([firsts, firsts + (self._frame_size - 1)])
        ).reshape(2, -1)
        midtimes = 0.5 * (ends[0] + ends[1])
        positions = self._trajectory.positions(midtimes)
        for t_mid, position in zip(midtimes.tolist(), positions):
            if self._selector.is_new_keyframe(position):
                if self._checked > 0:
                    closed.append(self._cut(self._checked))
                self._open_t_ref = t_mid
            self._checked += 1
        return closed

    def finish(self) -> tuple[list[tuple[SegmentPlan, EventArray]], int]:
        """Close the trailing segment; returns ``(segments, n_dropped)``.

        ``segments`` holds the final open segment (at most one — empty
        when the stream never completed a frame) and ``n_dropped`` the
        trailing partial-frame events, mirroring the second return of
        :func:`plan_segments`.
        """
        if self._finished:
            raise RuntimeError("planner already finished; build a new one")
        self._finished = True
        closed: list[tuple[SegmentPlan, EventArray]] = []
        if self._checked > 0:
            closed.append(self._cut(self._checked))
        return closed, self._buffer.clear()


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ReconstructionEngine:
    """Single streaming owner of the EMVS dataflow.

    Parameters
    ----------
    camera:
        Sensor calibration (with distortion, if any).
    trajectory:
        Pose source; any object with ``sample(t) -> SE3`` works.
    config:
        Shared EMVS parameters.
    depth_range:
        DSI depth bounds in each reference frame.
    policy:
        Algorithmic knobs (see :class:`~repro.core.policy.DataflowPolicy`)
        or a preset name from :data:`repro.core.policy.POLICIES`.
    backend:
        Registry name or a pre-built :class:`ExecutionBackend` instance.
    on_keyframe:
        Called with each finished :class:`KeyframeReconstruction` the
        moment its reference segment closes.

    The engine is single-use: one stream in, one :class:`EMVSResult` out.

    Examples
    --------
    Streaming push/finish (batch ``run`` is push-all + finish)::

        from repro.core import EMVSConfig, ReconstructionEngine
        from repro.events.datasets import load_sequence

        seq = load_sequence("simulation_3planes", quality="fast")
        engine = ReconstructionEngine(
            seq.camera, seq.trajectory,
            EMVSConfig(n_depth_planes=64),
            depth_range=seq.depth_range,
            policy="reformulated",           # or a DataflowPolicy instance
            backend="numpy-batch",
        )
        engine.push(seq.events.time_slice(0.9, 1.0))   # chunk by chunk...
        engine.push(seq.events.time_slice(1.0, 1.1))
        result = engine.finish()                        # EMVSResult
    """

    def __init__(
        self,
        camera: PinholeCamera,
        trajectory: Trajectory,
        config: EMVSConfig | None = None,
        depth_range: tuple[float, float] = (0.5, 5.0),
        policy: DataflowPolicy | str = REFORMULATED_POLICY,
        backend: str | ExecutionBackend = "numpy-reference",
        on_keyframe: Callable[[KeyframeReconstruction], None] | None = None,
    ):
        self.camera = camera
        self.trajectory = trajectory
        self.config = config or EMVSConfig()
        self.depth_range = depth_range
        self.policy = resolve_policy(policy)
        self.on_keyframe = on_keyframe
        self.depths = depth_planes(
            depth_range[0],
            depth_range[1],
            self.config.n_depth_planes,
            self.config.depth_sampling,
        )
        self.profile = PipelineProfile()
        self.backend = create_backend(backend, self)
        self._selector = KeyframeSelector(self.config.keyframe_distance)
        self._packetizer = Packetizer(trajectory, self.config.frame_size)
        self._cloud = PointCloud()
        self._keyframes: list[KeyframeReconstruction] = []
        self._events_pushed = 0
        self._events_in_ref = 0
        self._frames_in_ref = 0
        #: Pose of the open reference segment (None before the first key frame).
        self._T_w_ref: SE3 | None = None
        self._finished = False
        #: Frames buffered for a batching backend (always within one
        #: reference segment; flushed on keyframe, preview and finish).
        self._pending_frames: list[EventFrame] = []

    # ------------------------------------------------------------------
    @property
    def cloud(self) -> PointCloud:
        """Global map merged so far (finished key frames only)."""
        return self._cloud

    @property
    def keyframes(self) -> list[KeyframeReconstruction]:
        """Finished key-frame reconstructions so far (copy)."""
        return list(self._keyframes)

    @property
    def events_pushed(self) -> int:
        """Total events fed through :meth:`push` so far."""
        return self._events_pushed

    # ------------------------------------------------------------------
    def _correct_events(self, events: EventArray) -> EventArray:
        """Per-event (streaming) distortion correction."""
        if isinstance(self.camera.distortion, NoDistortion):
            return events
        return events.with_coordinates(self.camera.undistort_pixels(events.xy))

    def _correct_frame(self, frame: EventFrame) -> None:
        """Per-frame (batched) distortion correction, original scheduling."""
        if isinstance(self.camera.distortion, NoDistortion):
            return
        corrected = self.camera.undistort_pixels(frame.events.xy)
        frame.events = frame.events.with_coordinates(corrected)

    # ------------------------------------------------------------------
    def push(self, events: EventArray) -> int:
        """Feed a chunk of (time-ordered) events; returns frames processed.

        Chunks may be of any size; fixed ``frame_size`` event frames are
        cut internally, exactly as the hardware ingest does.
        """
        if self._finished:
            raise RuntimeError("engine already finished; build a new one")
        if len(events) == 0:
            return 0
        t0 = time.perf_counter()
        if self.policy.correction is CorrectionScheduling.PER_EVENT:
            events = self._correct_events(events)
        self._events_pushed += len(events)
        frames = self._packetizer.push(events)
        self.profile.add_time("A", time.perf_counter() - t0)
        for frame in frames:
            self._process(frame)
        return len(frames)

    def _process(self, frame: EventFrame) -> None:
        if self.policy.correction is CorrectionScheduling.PER_FRAME:
            self._correct_frame(frame)
        if self._selector.is_new_keyframe(frame.T_wc.translation):
            frame.is_keyframe = True
            self._finalize_segment()
            self.backend.start_reference(frame.T_wc)
            self._T_w_ref = frame.T_wc
            self.profile.n_keyframes += 1
        if self.backend.buffers_frames:
            self._pending_frames.append(frame)
            if len(self._pending_frames) >= self.policy.batch_frames:
                self._flush_pending_frames()
        else:
            votes, misses = self.backend.process_frame(frame)
            self.profile.votes_cast += votes
            self.profile.dropped_events += misses
        self.profile.n_events += len(frame)
        self.profile.n_frames += 1
        self._events_in_ref += len(frame)
        self._frames_in_ref += 1

    def _flush_pending_frames(self) -> None:
        """Deliver buffered frames to a batching backend.

        Vote/miss accounting lands in the profile at flush time; totals
        match the per-frame backends exactly, they just arrive in batch
        granularity.
        """
        if not self._pending_frames:
            return
        frames, self._pending_frames = self._pending_frames, []
        votes, misses = self.backend.process_batch(frames)
        self.profile.votes_cast += votes
        self.profile.dropped_events += misses

    def finish(self) -> EMVSResult:
        """Close the current segment and return the collected result.

        The trailing partial frame (fewer than ``frame_size`` events) is
        dropped, as the fixed-size hardware buffers would — but its size
        is accounted in ``profile.dropped_events`` instead of being
        discarded silently.
        """
        if not self._finished:
            self.profile.dropped_events += self._packetizer.drop_pending()
            self._finalize_segment()
            self._finished = True
        return EMVSResult(
            keyframes=list(self._keyframes), cloud=self._cloud, profile=self.profile
        )

    def run(self, events: EventArray) -> EMVSResult:
        """Batch convenience: push the whole stream, then finish."""
        self.push(events)
        return self.finish()

    def run_segment(self, events: EventArray) -> list[KeyframeReconstruction]:
        """Process one frame-aligned segment and close it; engine stays open.

        The resumable unit of parallel mapping: push a
        :class:`SegmentPlan`'s slice, force the finalize-lift-merge tail
        (instead of waiting for the next key frame to arrive), and return
        the reconstructions it produced.  The engine remains usable, so one
        engine can replay consecutive segments of a planned stream —
        ``run_segment(plan.slice(events))`` per plan, then :meth:`finish` —
        and produce bit-identical keyframes, cloud and profile counters to
        a single :meth:`run` over the whole stream.

        A fresh engine always keys on a segment's first frame (first pose
        observed), so per-segment workers reconstruct exactly their
        segment; planning guarantees no interior frame re-keys.
        """
        if self._finished:
            raise RuntimeError("engine already finished; build a new one")
        before = len(self._keyframes)
        self.push(events)
        if self._packetizer.pending_count:
            raise ValueError(
                "segment is not frame-aligned: "
                f"{self._packetizer.pending_count} events short of a frame "
                f"(frame_size={self._packetizer.frame_size}); slice segments "
                "with SegmentPlan.slice()/segment_slice()"
            )
        self._finalize_segment()
        return self._keyframes[before:]

    # ------------------------------------------------------------------
    def preview_depth_map(self) -> SemiDenseDepthMap | None:
        """Detection over the in-progress (unfinished) reference segment.

        Lets a consumer preview depth before the key frame closes; the
        DSI keeps accumulating afterwards.
        """
        if self._T_w_ref is None or self._events_in_ref == 0:
            return None
        self._flush_pending_frames()
        t0 = time.perf_counter()
        depth_map = self.backend.detect(self.config.detection)
        self.profile.add_time("D", time.perf_counter() - t0)
        return depth_map

    def _finalize_segment(self) -> None:
        """The keyframe tail: detect (``D``), lift and merge (``M``).

        This is the single home of the finalize-lift-merge logic that the
        seed repeated across four call sites.
        """
        self._flush_pending_frames()
        if self._T_w_ref is None or self._events_in_ref == 0:
            self._events_in_ref = 0
            self._frames_in_ref = 0
            return
        t0 = time.perf_counter()
        depth_map = self.backend.detect(self.config.detection)
        self.profile.add_time("D", time.perf_counter() - t0)
        reconstruction = KeyframeReconstruction(
            T_w_ref=self._T_w_ref,
            depth_map=depth_map,
            n_events=self._events_in_ref,
            n_frames=self._frames_in_ref,
        )
        self._keyframes.append(reconstruction)
        t0 = time.perf_counter()
        self._cloud = self._cloud.merge(
            PointCloud.from_depth_map(depth_map, self.camera, self._T_w_ref)
        )
        self.profile.add_time("M", time.perf_counter() - t0)
        self._events_in_ref = 0
        self._frames_in_ref = 0
        if self.on_keyframe is not None:
            self.on_keyframe(reconstruction)


# Conditional backends live in their own packages and self-register on
# import; a plain import is cycle-safe in both import directions (the
# partially-initialized module object binds fine).  ImportError — e.g. a
# stripped install without the native package — leaves the registry with
# the always-available backends only.
try:
    import repro.native.backend  # noqa: E402,F401
except ImportError:  # pragma: no cover - only on stripped installs
    pass
