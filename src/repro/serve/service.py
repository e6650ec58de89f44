"""The multi-session reconstruction service.

:class:`ReconstructionService` accepts many independent event-stream
jobs (``submit``), shards each job's pre-planned key-frame segments onto
one shared bounded worker pool with fair round-robin scheduling across
sessions, and fuses per-segment outcomes into a
:class:`~repro.core.mapping.MappingResult`.  It is the one place
segments reach a pool and results are built: a
:class:`~repro.core.mapping.MappingOrchestrator` or
:class:`~repro.core.rig.RigOrchestrator` run is a job on a private
service, so the two are bit-identical by construction.

Semantics in one breath:

* **admission** — ``submit`` and ``open_stream`` share one path
  (``_admit``): validate the caller's input, pre-plan a batch stream
  (cheap pose-only pass), and enforce per-session backpressure — a
  session at its queue bound either refuses the submission
  (:class:`SessionBacklogFull`) or drops its oldest still-queued job,
  per ``overflow``, only once nothing else can raise; both outcomes are
  counted in :meth:`ReconstructionService.stats` (``jobs_refused`` /
  ``jobs_dropped``).  ``submit`` then sweeps the segment cache.
* **lifecycle** — one segment-cache probe (``_probe``) serves the
  admission sweep, the stream cut and the dispatch-time re-probe; one
  settle step (``_settle``) lands a computed or cached outcome, or
  abandons a segment, and finalizes a job once every segment is
  accounted for; one fail step (``_fail``) is the only ``FAILED``
  transition.
* **execution** — a cooperative pump: ``poll``/``result``/``drain``
  collect finished segment futures and dispatch new ones whenever pool
  slots free up.  The pump runs on the caller's thread; worker
  parallelism comes from the pool.
* **failure** — a worker exception mid-segment fails *that job* (state
  ``FAILED``, error surfaced by ``result``), cancels its undispatched
  segments, and leaves every other job and the pool serving.  A *hard*
  crash that breaks a process pool cannot be attributed while several
  futures fly, so the pool is rebuilt, lost segments requeue, and
  dispatch turns serial until the pool proves healthy — a job that
  breaks the pool while flying alone is the proven culprit and fails.
* **caching** — one tier of reuse, the **segment cache** (in-memory
  LRU over an optional persistent on-disk store; see
  ``docs/CACHING.md``).  It memoizes per-segment outcomes under a
  content hash of (segment event slice, engine spec): overlapping jobs
  — sliding windows, warm-started streams, identical repeats,
  resubmissions after a restart — skip the already-computed segments
  entirely, a fully warm job completes at admission with only its
  fusion to pay, and the assembled result stays bit-identical to a
  cold run because the cached payload *is* the segment's outcome.
  Per-job cache modes (``JobOptions.cache``): ``"on"``, ``"off"``,
  ``"refresh"``.
* **streaming** — ``open_stream`` admits a job whose events arrive in
  chunks (:class:`~repro.serve.stream.StreamingSession`): an
  incremental pose-only planner cuts key-frame segments as boundaries
  are crossed, each dispatches onto the same pool (interleaving fairly
  with batch jobs), and every finalized key frame emits a
  :class:`~repro.serve.stream.StreamUpdate` with an incrementally
  fused map snapshot.  The closed stream's final result is
  bit-identical to a one-shot ``submit`` of the concatenated chunks.
* **reliability** — a :class:`~repro.serve.retry.RetryPolicy`
  re-dispatches failed segment attempts with deterministic exponential
  backoff; per-segment and per-job **deadlines** bound how long an
  attempt (or a whole job) may take, with a watchdog that abandons hung
  attempts and kills-and-rebuilds a stuck process pool; ``allow_partial``
  degrades an out-of-budget job to a ``PARTIAL`` result (the fused map
  of the completed key frames plus a missing-segment manifest) instead
  of failing it; and an optional merge-time **integrity check** verifies
  each outcome's content digest so a corrupted payload is detected,
  attributed and retried rather than silently fused.  Failure modes are
  reproducible on demand via seeded
  :class:`~repro.serve.faults.FaultPlan` schedules.  See
  ``docs/RELIABILITY.md`` for the full contract.
"""

from __future__ import annotations

import math
import time
import traceback as traceback_module
from collections import Counter
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    wait,
)
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from repro.core.engine import EngineSpec
from repro.core.mapping import (
    MappingResult,
    PoolSpec,
    SegmentOutcome,
    default_voxel_size,
    fuse_keyframes,
    merge_outcomes,
)
from repro.core.results import PipelineProfile
from repro.events.containers import EventArray
from repro.serve.cache import CacheStats, SegmentCache, outcome_digest, segment_key
from repro.serve.faults import (
    FaultKind,
    new_hang_gate,
    release_hang_gate,
    run_guarded_segment,
)
from repro.serve.options import CacheConfig, JobOptions, ServiceConfig
from repro.serve.scheduler import RoundRobinScheduler
from repro.serve.session import (
    TERMINAL_STATES,
    Job,
    JobState,
    JobStatus,
    new_job_id,
)
from repro.serve.stream import StreamingSession, StreamState, StreamUpdate

#: Supported overflow policies for a full session queue.
OVERFLOW_POLICIES = ("refuse", "drop-oldest")

#: Successful segment completions required to leave serial probation
#: after a pool break (see ``ReconstructionService._collect_done``).
PROBATION_SUCCESSES = 3

class ServeError(RuntimeError):
    """Base class of service-level failures."""


class SessionBacklogFull(ServeError):
    """A submission was refused: the session's bounded queue is full."""


class StreamBacklogFull(SessionBacklogFull):
    """A chunk was refused: the stream's bounded chunk buffer is full."""


class JobFailed(ServeError):
    """``result`` was asked for a job that failed or was dropped."""


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate service counters (admission, outcomes, cache, reliability)."""

    jobs_submitted: int
    jobs_done: int
    jobs_failed: int
    jobs_refused: int
    jobs_dropped: int
    jobs_partial: int
    streams_opened: int
    updates_emitted: int
    chunks_refused: int
    chunks_dropped: int
    segments_retried: int
    segments_timed_out: int
    results_corrupted: int
    cache: CacheStats
    segments_dispatched: dict[str, int]
    #: A copy of the service's aggregate engine work profile at
    #: snapshot time (later jobs do not change it).
    profile: PipelineProfile
    #: Admitted, non-terminal jobs at snapshot time (gauge).
    active_jobs: int = 0
    #: Segment attempts on the pool at snapshot time (gauge).
    inflight_segments: int = 0
    #: Pending (planned-but-unlanded) segments per session — the
    #: scheduler's queue depths (see ``RoundRobinScheduler.queue_depths``).
    queue_depths: dict[str, int] = field(default_factory=dict)
    #: Vestige of the deleted job coalescing: always ``0``.  It stays
    #: because the frozen ``perfbench`` harness reads it.
    jobs_coalesced: int = 0


#: The :class:`ServiceStats` fields a service counts itself (the keys of
#: its one count store); every other field is read off its owner.
_COUNTED_STATS = (
    "jobs_submitted",
    "jobs_done",
    "jobs_failed",
    "jobs_refused",
    "jobs_dropped",
    "jobs_partial",
    "streams_opened",
    "updates_emitted",
    "chunks_refused",
    "chunks_dropped",
    "segments_retried",
    "segments_timed_out",
    "results_corrupted",
)


@dataclass
class _Flight:
    """One in-flight segment attempt (the value side of ``_inflight``).

    ``attempt`` is the dispatch epoch the attempt was launched under;
    an outcome is only accepted while ``job.attempts[index]`` still
    equals it — abandoning an attempt (deadline watchdog) or
    re-dispatching the segment bumps the epoch, so a late or duplicate
    landing is discarded instead of fused twice.
    """

    job: Job
    index: int
    attempt: int
    started_at: float
    gate_id: str | None = None
    #: Whether a fault directive was injected into this attempt — a
    #: faulted attempt's outcome may be tampered (CORRUPT), so it is
    #: never stored in the segment cache.
    faulted: bool = False


class ReconstructionService:
    """Serve many concurrent reconstruction jobs over one worker pool.

    Parameters
    ----------
    workers:
        Shared pool width.  ``None`` uses the machine's CPU count.
    executor:
        ``"process"``, ``"thread"``, ``"inline"`` or ``None`` to choose
        automatically (:class:`~repro.core.mapping.PoolSpec`): inline
        for one worker, processes otherwise (threads suit the in-process
        hardware model and test doubles).
    queue_limit:
        Per-session bound on active (queued + running) jobs.
    retain_jobs:
        How many *terminal* (done/failed/dropped) job records to keep
        for late ``poll``/``result`` calls; the oldest are evicted
        beyond this, so a long-lived service's bookkeeping stays
        bounded (active jobs are never evicted).
    overflow:
        ``"refuse"`` (submission raises :class:`SessionBacklogFull`) or
        ``"drop-oldest"`` (the session's oldest undispatched job is
        dropped to admit the new one; with nothing droppable the
        submission is refused).  Either way the outcome is counted in
        :meth:`stats`.
    clock:
        Monotonic time source for deadlines and backoff scheduling
        (default ``time.perf_counter``); injectable so deadline tests
        run on a fake clock instead of sleeps.
    options:
        Service-wide default :class:`~repro.serve.options.JobOptions`;
        per-job options merge over these (``JobOptions.merged``).
    cache:
        Segment-cache configuration
        (:class:`~repro.serve.options.CacheConfig`): an in-memory LRU in
        front of an optional persistent on-disk store, so repeated and
        overlapping jobs and warm-started streams skip already-computed
        segments entirely (see ``docs/CACHING.md``).  Defaults to
        ``CacheConfig()``.

    Examples
    --------
    Batch jobs (``submit``/``result``) and a streaming session
    (``open_stream``) sharing one pool::

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
        with ReconstructionService(workers=2, executor="thread") as svc:
            job = svc.submit(seq.events, spec, session="replay")
            result = svc.result(job)          # fused MappingResult
            stream = svc.open_stream(spec, session="live")
            stream.feed(seq.events); stream.close()
            assert (stream.result().profile.counters()
                    == result.profile.counters())
    """

    def __init__(
        self,
        workers: int | None = None,
        executor: str | None = None,
        queue_limit: int = 8,
        overflow: str = "refuse",
        retain_jobs: int = 256,
        *,
        clock: Callable[[], float] | None = None,
        options: JobOptions | None = None,
        cache: CacheConfig | None = None,
    ):
        #: How the shared pool is built (validates workers/executor).
        self.pool_spec = PoolSpec(workers, executor)
        if retain_jobs < 1:
            raise ValueError("retain_jobs must be >= 1")
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {overflow!r}; "
                f"known: {', '.join(OVERFLOW_POLICIES)}"
            )
        self.workers = self.pool_spec.width()
        self.executor = self.pool_spec.kind(self.workers)
        self.overflow = overflow
        self.retain_jobs = retain_jobs
        self._clock = clock or time.perf_counter
        hard = JobOptions(
            allow_partial=False, integrity=False, min_observations=1, cache="on"
        )
        #: The service-wide default :class:`JobOptions`; per-job options
        #: merge over these (``JobOptions.merged``).
        self.defaults = (options or JobOptions()).merged(hard)
        self._check_options(self.defaults)
        cache = cache or CacheConfig()
        #: The :class:`CacheConfig` the cache tiers were built from.
        self.cache_config = cache
        #: Tiered segment-outcome cache (memory LRU over a persistent
        #: disk store) — the service's one result cache, see
        #: ``docs/CACHING.md``.
        self.segment_cache = SegmentCache(
            mem_mb=cache.mem_mb,
            disk_mb=cache.disk_mb,
            cache_dir=cache.resolved_dir(),
        )
        #: Aggregate engine work of every finalized job (the
        #: ``repro_pipeline_counters_total`` series).
        self.profile = PipelineProfile()
        self._scheduler = RoundRobinScheduler(queue_limit)
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[Future, _Flight] = {}
        self._pool: Executor | None = None
        self._closed = False
        #: Remaining successful collections before parallel dispatch
        #: resumes after a pool break (0 = normal operation).
        self._probation = 0
        #: Active streaming jobs, pumped by ``_absorb_streams``.
        self._streams: list[Job] = []
        #: Admission, outcome and reliability counts, keyed by the
        #: :class:`ServiceStats` field names (:data:`_COUNTED_STATS`).
        self._counts: Counter[str] = Counter()
        #: Hang-gate ids this service registered (released on close).
        self._gates: list[str] = []

    @classmethod
    def from_config(
        cls, config: ServiceConfig, *, clock: Callable[[], float] | None = None
    ) -> "ReconstructionService":
        """Construct a service from one :class:`ServiceConfig` value object.

        The one-object spelling of the constructor — the CLI's
        serve/submit/stream commands build a :class:`ServiceConfig` in a
        single place and hand it here.
        """
        return cls(
            workers=config.workers,
            executor=config.executor,
            queue_limit=config.queue_limit,
            overflow=config.overflow,
            retain_jobs=config.retain_jobs,
            clock=clock,
            options=config.defaults,
            cache=config.cache,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ReconstructionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_options(self, options: JobOptions) -> None:
        """Validate a resolved options set against this service's executor.

        Value/type validation lives in ``JobOptions.__post_init__``;
        this check catches the one executor-dependent combination.
        """
        if (
            options.faults is not None
            and options.faults.kind is FaultKind.HANG
            and self.executor == "inline"
        ):
            raise ValueError(
                "hang faults cannot run on the inline executor (the "
                "dispatching thread would block itself); use threads "
                "or processes"
            )

    def close(self) -> None:
        """Shut the pool down; queued work is abandoned.

        The *abrupt* exit (``with`` blocks use it): in-flight futures
        are cancelled and non-terminal jobs are left as-is — their
        ``result`` raises :class:`ServeError` rather than
        :class:`JobFailed`.  For a deterministic end state (every job
        terminal, open streams flushed, backed-off retries resolved)
        use :meth:`shutdown`.

        Any hang gates this service registered are released first, so
        worker threads blocked on an injected hang unblock and the pool
        shutdown can join them.
        """
        self._closed = True
        for gate_id in self._gates:
            release_hang_gate(gate_id)
        self._gates.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def shutdown(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop the service, leaving every admitted job in a terminal state.

        The graceful counterpart of :meth:`close`, safe with open
        :class:`~repro.serve.stream.StreamingSession` handles and a
        non-empty retry backlog.  Ordering with ``wait=True``:

        1. Open streams are closed (end-of-input): their buffered
           chunks still plan and their trailing segments still run,
           exactly as an explicit ``close()`` on the handle would.
        2. Backed-off retries are released immediately — shutdown
           overrides backoff *pacing* (not the retry *budget*), so a
           segment sitting out a long backoff flushes now instead of
           holding the drain hostage.
        3. The service drains; on a drain ``timeout`` (or with
           ``wait=False``) every still-active job fails deterministically
           (``FAILED``, error ``"service shut down before completion"``)
           — nothing is ever left stuck in a non-terminal state.
        4. The pool shuts down (:meth:`close`).

        Idempotent; a second call is a no-op.
        """
        if self._closed:
            return
        if wait:
            for job in list(self._streams):
                if job.state not in TERMINAL_STATES and job.stream.open:
                    self._close_stream(job)
            for job in self._active_jobs():
                if job.retry_backlog:
                    job.requeued.extend(index for _, index in job.retry_backlog)
                    job.retry_backlog.clear()
            try:
                self.drain(timeout=timeout)
            except TimeoutError:
                self._fail_active(
                    "service shut down before completion "
                    f"(drain timed out after {timeout} s)"
                )
        else:
            self._fail_active("service shut down before completion")
        self.close()

    def _fail_active(self, reason: str) -> None:
        """Deterministically fail every non-terminal job (shutdown path).

        In-flight attempts are abandoned (their late results discarded
        via the epoch bump in :meth:`_abandon_attempt`) and undispatched
        work is cancelled — the invariant :meth:`shutdown` guarantees is
        that no job survives in a non-terminal state.
        """
        for future, flight in list(self._inflight.items()):
            del self._inflight[future]
            self._abandon_attempt(future, flight)
        for job in list(self._active_jobs()):
            self._fail(job, reason)
        self._streams = [
            job for job in self._streams if job.state not in TERMINAL_STATES
        ]

    @property
    def pool(self) -> Executor:
        """The lazily created executor (rebuilt after a pool break)."""
        if self._closed:
            raise ServeError("service is closed")
        if self._pool is None:
            self._pool = self.pool_spec.create(self.workers)
        return self._pool

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        events: EventArray,
        spec: EngineSpec,
        *,
        session: str = "default",
        options: JobOptions | None = None,
    ) -> str:
        """Admit one reconstruction job; returns its job id.

        Admission is cheap (segment planning is a pose-only pass) and
        never executes the hot path; call :meth:`poll` / :meth:`result` /
        :meth:`drain` to make progress.  Raises
        :class:`SessionBacklogFull` when backpressure refuses the job.

        ``options`` overrides the service-wide default
        :class:`~repro.serve.options.JobOptions` for this job (``None``
        fields inherit).  The job's deadline clock starts now (at
        admission, before planning).  When the segment cache holds
        outcomes for some (or all) of the job's segments, those segments
        complete at admission without ever touching the pool; a job with
        every segment cached finalizes (fuses) before ``submit`` returns.
        """
        job = self._admit(spec, session, options, events=events)
        # Admission sweep: key every planned segment by its content and
        # land the already-known ones on the spot — a fully warm job
        # finalizes here and never touches the pool.
        for plan in job.plans:
            self._probe(job, plan.index)
        if job.n_segments == 0:
            # Too short for a single frame: an accounted empty result.
            self._finalize(job)
        return job.job_id

    def _admit(
        self,
        spec: EngineSpec,
        session: str,
        options: JobOptions | None,
        *,
        events: EventArray | None = None,
        max_pending_chunks: int | None = None,
    ) -> Job:
        """The one admission path: a batch job (``events``) or a stream.

        Every step that can raise on caller input — the spec type, the
        chunk bound, option resolution (``options.merged(self.defaults)``
        plus the executor check) and batch planning — runs before a
        ``drop-oldest`` eviction, so a malformed submission never costs
        an innocent queued job its slot.  A refusal is decided before
        planning: refusing costs nothing.  The job's clock
        (``submitted_at``) starts before planning, so its
        ``latency_seconds``, its ``MappingResult.wall_seconds`` and its
        ``deadline_s`` budget include the planning pass.  Then the job
        is built, scheduled, registered and counted.
        """
        if self._closed:
            raise ServeError("service is closed")
        self._prune_terminal()
        batch = max_pending_chunks is None
        if not isinstance(spec, EngineSpec):
            caller = "submit" if batch else "open_stream"
            raise TypeError(f"{caller}() takes an EngineSpec (see EngineSpec.build)")
        if not batch and max_pending_chunks < 1:
            raise ValueError("max_pending_chunks must be >= 1")
        resolved = (options or JobOptions()).merged(self.defaults)
        self._check_options(resolved)
        voxel_size = resolved.voxel_size
        if voxel_size is None:
            voxel_size = default_voxel_size(spec.depth_range)

        # Per-session backpressure: a backlogged session refuses the
        # newcomer or drops its oldest still-queued batch job.
        target = self._scheduler.session(session)
        victim = None
        if target.backlogged:
            if self.overflow == "drop-oldest":
                victim = target.oldest_queued()
            if victim is None:
                self._counts["jobs_refused"] += 1
                raise SessionBacklogFull(
                    f"session {session!r} is at its queue limit "
                    f"({target.queue_limit} active jobs); overflow policy "
                    f"is {self.overflow!r}"
                )
        now = self._clock()
        plans, dropped = spec.plan(events) if batch else ((), 0)
        if victim is not None:
            victim.error = "dropped by overflow policy 'drop-oldest'"
            victim.finish(JobState.DROPPED, at=self._clock())
            self._counts["jobs_dropped"] += 1
            self._retire(victim)

        stream = deadline_at = None
        if not batch:
            # A stream's deadline arms at close() instead of now.
            stream = StreamState(spec.stream_planner(), voxel_size, max_pending_chunks)
        elif resolved.deadline_s is not None:
            deadline_at = now + resolved.deadline_s
        job = Job(
            job_id=new_job_id(session),
            session=session,
            spec=spec,
            plans=tuple(plans),
            segment_events={plan.index: plan.slice(events) for plan in plans},
            dropped_tail=dropped,
            voxel_size=voxel_size,
            min_observations=resolved.min_observations,
            stream=stream,
            submitted_at=now,
            retry=resolved.retry,
            deadline_s=resolved.deadline_s,
            deadline_at=deadline_at,
            segment_deadline_s=resolved.segment_deadline_s,
            allow_partial=bool(resolved.allow_partial),
            fault_plan=resolved.faults,
            integrity=bool(resolved.integrity),
            cache_mode=resolved.cache,
        )
        self._scheduler.admit(job)
        self._jobs[job.job_id] = job
        self._counts["jobs_submitted"] += 1
        if not batch:
            self._streams.append(job)
            self._counts["streams_opened"] += 1
        return job

    def _retire(self, job: Job) -> None:
        """Drop a terminal job from its session's scan list.

        Scheduling decisions iterate ``Session.jobs`` per dispatch, so
        finished records must not linger there; the ``_jobs`` registry
        keeps them pollable until :meth:`_prune_terminal` evicts them.
        """
        jobs = self._scheduler.session(job.session).jobs
        if job in jobs:  # identity: Job is eq=False
            jobs.remove(job)

    def _prune_terminal(self) -> None:
        """Evict the oldest terminal job records beyond ``retain_jobs``.

        Bounds the service's bookkeeping under sustained traffic: counters
        and the cache survive eviction, but ``poll``/``result`` on an
        evicted job id raise ``KeyError`` (its window has passed).
        """
        terminal = [
            job for job in self._jobs.values() if job.state in TERMINAL_STATES
        ]
        for job in terminal[: max(0, len(terminal) - self.retain_jobs)]:
            del self._jobs[job.job_id]

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def open_stream(
        self,
        spec: EngineSpec,
        *,
        session: str = "default",
        max_pending_chunks: int = 64,
        options: JobOptions | None = None,
    ) -> StreamingSession:
        """Admit a streaming job; returns its :class:`StreamingSession` handle.

        The stream occupies one job slot in its session (the same
        backpressure bound as :meth:`submit`), interleaves fairly with
        batch jobs at segment granularity, and emits a
        :class:`~repro.serve.stream.StreamUpdate` per finalized key
        frame.  ``max_pending_chunks`` bounds the in-flight chunk
        buffer; a full buffer applies the service's overflow policy at
        chunk granularity.  Streams warm-start from the segment cache: a
        freshly cut segment whose outcome is already cached emits its
        updates immediately, without a dispatch.

        ``options`` resolve exactly as in :meth:`submit`, with one
        difference: a stream's ``deadline_s`` arms at ``close()`` — an
        open stream can always grow, so there is no meaningful total
        budget until the input ends.
        """
        job = self._admit(
            spec, session, options, max_pending_chunks=max_pending_chunks
        )
        return StreamingSession(self, job)

    def _feed_stream(self, job: Job, events: EventArray) -> None:
        """Buffer one chunk of a stream and pump (see StreamingSession.feed)."""
        if self._closed:
            raise ServeError("service is closed")
        stream = job.stream
        if job.state in (JobState.FAILED, JobState.DROPPED):
            raise JobFailed(
                f"stream {job.job_id!r} {job.state.value}: "
                f"{job.error or 'no error recorded'}"
            )
        if not stream.open or job.state in TERMINAL_STATES:
            raise ServeError(f"stream {job.job_id!r} is closed")
        if len(events) == 0:
            self._pump()
            return
        if events.t_start < stream.last_t:
            # Rejected before buffering: an out-of-order chunk reaching
            # the planner would wedge it, and with it every later pump.
            raise ValueError(
                f"stream {job.job_id!r}: chunk starts at t={events.t_start!r}, "
                f"before the last accepted event at t={stream.last_t!r}; "
                "chunks must arrive in time order"
            )
        if len(stream.pending_chunks) >= stream.max_pending_chunks:
            if self.overflow == "drop-oldest":
                stream.pending_chunks.popleft()
                stream.chunks_dropped += 1
                self._counts["chunks_dropped"] += 1
            else:
                self._counts["chunks_refused"] += 1
                raise StreamBacklogFull(
                    f"stream {job.job_id!r} has {len(stream.pending_chunks)} "
                    f"pending chunks (bound {stream.max_pending_chunks}); "
                    f"overflow policy is {self.overflow!r}"
                )
        stream.pending_chunks.append((events, self._clock()))
        stream.last_t = events.t_end
        stream.chunks_fed += 1
        stream.events_fed += len(events)
        self._pump()

    def _close_stream(self, job: Job) -> None:
        """End a stream's input (idempotent); remaining chunks still run.

        Closing also arms the job deadline, when one was configured: an
        open stream can always grow, so its total budget only makes
        sense once the input has ended.
        """
        stream = job.stream
        if job.state in TERMINAL_STATES or not stream.open:
            return
        stream.open = False
        stream.closed_at = self._clock()
        if job.deadline_s is not None and job.deadline_at is None:
            job.deadline_at = self._clock() + job.deadline_s
        if not self._closed:
            self._pump()

    def _poll_stream(self, job: Job) -> list[StreamUpdate]:
        """Drain the stream's un-polled updates (pumps the service first)."""
        if not self._closed:
            self._pump()
        updates = job.stream.updates
        job.stream.updates = []
        return updates

    def _stream_result(self, job: Job, timeout: float | None) -> MappingResult:
        """Block for a closed stream's final fused result."""
        if job.stream.open and job.state not in TERMINAL_STATES:
            raise ServeError(
                f"stream {job.job_id!r} is still open; close() it before "
                "asking for the final result"
            )
        return self._result_job(job, timeout)

    def _stream_backlog(self, job: Job) -> int:
        """Planned-but-undispatched segments of a streaming job."""
        return job.n_segments - job.next_segment + len(job.requeued)

    def _absorb_streams(self) -> bool:
        """Absorb every active stream's buffered chunks (see :meth:`_absorb`)."""
        progressed = False
        for job in self._streams:
            if job.state not in TERMINAL_STATES:
                progressed = self._absorb(job, self._scheduler.queue_limit) or progressed
        self._streams = [job for job in self._streams if job.state not in TERMINAL_STATES]
        return progressed

    def _absorb(self, job: Job, limit: float) -> bool:
        """Move one stream's buffered chunks through its planner; cut segments.

        Absorption is paced by the dispatch backlog: the stream stops
        planning ahead once it holds ``limit`` undispatched segments, so
        a fast producer cannot turn the bounded chunk buffer into an
        unbounded segment queue — chunks wait (and eventually overflow)
        at the feed side instead.  A closed stream flushes its trailing
        segment once its buffer drains.
        """
        stream = job.stream
        progressed = False
        while stream.pending_chunks and self._stream_backlog(job) < limit:
            chunk, fed_at = stream.pending_chunks.popleft()
            for plan, segment_events in stream.planner.push(chunk):
                self._add_stream_segment(job, plan, segment_events, fed_at)
            progressed = True
        if not stream.open and not stream.flushed and not stream.pending_chunks:
            tail, job.dropped_tail = stream.planner.finish()
            for plan, segment_events in tail:
                self._add_stream_segment(job, plan, segment_events, stream.closed_at)
            stream.flushed = True
            progressed = True
            if job.complete:
                # A stream can settle with nothing in flight (all
                # outcomes already in, or no complete frame at all).
                self._finalize(job)
        return progressed

    def _add_stream_segment(
        self, job: Job, plan, segment_events: EventArray, fed_at: float
    ) -> None:
        """Append one freshly cut segment to a streaming job's plan.

        The segment then probes the segment cache (the streaming twin of
        :meth:`submit`'s admission sweep): a hit lands the outcome —
        releasing the slice and emitting every update it unblocks —
        before the slice is ever dispatched.  The planner cuts a stream
        at the frame-aligned boundaries a batch plan uses, so the keys
        match a prior ``submit`` of the same content.
        """
        job.plans = job.plans + (plan,)
        job.stream.feed_times[plan.index] = fed_at
        job.segment_events[plan.index] = segment_events
        self._probe(job, plan.index)

    def _emit_stream_updates(self, job: Job) -> None:
        """Fold landed outcomes into the fused map, in segment order.

        Outcomes may land in any pool order; the emit cursor holds
        updates back until every earlier segment has been folded, so
        key frames enter the :class:`~repro.core.mapping.GlobalMap` in
        stream order — the insertion order
        :func:`~repro.core.mapping.fuse_keyframes` uses, which is what
        keeps the incremental map bit-identical to a batch fusion.
        Segments abandoned into the ``missing`` manifest emit nothing;
        the cursor steps over them so later outcomes still flow.
        """
        stream = job.stream
        now = self._clock()
        while True:
            index = stream.emit_cursor
            if index in job.missing:
                stream.feed_times.pop(index, None)
                stream.emit_cursor += 1
                continue
            if index not in job.outcomes:
                break
            _, keyframes, _ = job.outcomes[index]
            for keyframe in keyframes:
                stream.global_map.insert_keyframe(keyframe, job.spec.camera)
                stream.updates.append(
                    StreamUpdate(
                        job_id=job.job_id,
                        session=job.session,
                        segment_index=index,
                        keyframe_index=stream.keyframes_emitted,
                        keyframe=keyframe,
                        cloud=stream.global_map.fused_cloud(job.min_observations),
                        map_voxels=stream.global_map.n_voxels,
                        latency_seconds=now - stream.feed_times[index],
                    )
                )
                stream.keyframes_emitted += 1
                self._counts["updates_emitted"] += 1
            stream.feed_times.pop(index, None)
            stream.emit_cursor += 1

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def _dispatch_ready(self) -> bool:
        # Serial probation after a pool break: one future at a time, so
        # a repeat break is attributable to the job that was flying.
        limit = 1 if self._probation > 0 else self.workers
        dispatched = False
        while len(self._inflight) < limit:
            decision = self._scheduler.next_dispatch()
            if decision is None:
                break
            job = decision.job
            index = decision.task.index
            if self._probe(job, index):
                # An outcome that appeared after admission (typically
                # computed by an overlapping job in the meantime)
                # completes the segment without consuming a pool slot.
                dispatched = True
                continue
            directive = None
            if job.fault_plan is not None:
                directive = job.fault_plan.directive(index, decision.attempt - 1)
            if directive is not None:
                if directive.kind is FaultKind.CRASH and self.executor == "process":
                    # Hard crashes are only survivable (and meaningful)
                    # on a process pool; elsewhere the fault degrades to
                    # an ordinary raised exception.
                    directive = replace(directive, hard=True)
                if directive.kind is FaultKind.HANG and self.executor == "thread":
                    # Thread workers hang on a releasable gate so close()
                    # can always join the pool; process workers fall
                    # back to a bounded sleep inside the fault itself.
                    gate_id = new_hang_gate()
                    self._gates.append(gate_id)
                    directive = replace(directive, gate_id=gate_id)
            future = self.pool.submit(
                run_guarded_segment, decision.task, directive, job.integrity
            )
            self._scheduler.record_dispatch(decision)
            self._inflight[future] = _Flight(
                job=job,
                index=index,
                attempt=decision.attempt,
                started_at=self._clock(),
                gate_id=directive.gate_id if directive is not None else None,
                faulted=directive is not None,
            )
            dispatched = True
        return dispatched

    def _probe(self, job: Job, index: int) -> bool:
        """The one segment-cache probe; returns whether the segment landed.

        The first probe of a segment (the admission sweep, the stream
        cut) keys it by the digest of its slice in ``segment_events``.
        The dispatch-time re-probe reads the stored key, and a miss is
        not counted again: the first probe already charged it.
        ``refresh`` keys but never reads.
        """
        if job.cache_mode == "off" or not self.segment_cache.enabled:
            return False
        key = job.segment_keys.get(index)
        first = key is None
        if first:
            key = job.segment_keys[index] = segment_key(
                job.spec, job.segment_events[index].content_digest()
            )
        if job.cache_mode != "on":
            return False
        hit = self.segment_cache.get(key, count_miss=first, verify=job.integrity)
        if hit is None:
            return False
        self._settle(job, index, (index, list(hit[0]), hit[1]), cached=True)
        return True

    def _settle(
        self,
        job: Job,
        index: int,
        outcome: SegmentOutcome | None,
        *,
        cached: bool = False,
    ) -> None:
        """The one place a segment lands — or is abandoned (``None``).

        A computed or ``cached`` outcome enters the job's outcome table;
        an abandoned segment enters the ``missing`` manifest.  Either
        way the job releases the slice (no longer needed for dispatch
        or pool-break requeue), a stream emits every update this
        unblocked, and a job with every segment accounted for finalizes.
        """
        if outcome is None:
            job.missing.add(index)
        else:
            job.outcomes[index] = outcome
            if cached:
                job.segments_cached += 1
        job.segment_events.pop(index, None)
        if job.stream is not None:
            self._emit_stream_updates(job)
        if job.complete:
            self._finalize(job)

    def _fail(self, job: Job, error: str, tb: str | None = None) -> None:
        """The one ``FAILED`` transition: record, count, cancel, retire."""
        job.error = error
        job.traceback = tb
        job.finish(JobState.FAILED, at=self._clock())
        self._counts["jobs_failed"] += 1
        self._scheduler.cancel_job(job)
        self._retire(job)

    def _collect_done(self) -> bool:
        collected = False
        # Pool-break attribution must be judged on the *break snapshot*,
        # not on pop order: a break poisons every in-flight future at
        # once, so the crash is attributable iff exactly one future was
        # in flight when it happened.
        sole_flight = len(self._inflight) == 1
        for future in [f for f in self._inflight if f.done()]:
            flight = self._inflight.pop(future)
            job, index = flight.job, flight.index
            collected = True
            if flight.gate_id is not None:
                release_hang_gate(flight.gate_id)
            if future.cancelled():  # close() cancelled queued work
                continue
            # Epoch staleness: only the newest dispatch of a segment may
            # land — an abandoned (deadline watchdog) or re-dispatched
            # attempt's late result is discarded here.
            current = job.attempts.get(index) == flight.attempt
            exc = future.exception()
            if exc is not None:
                if isinstance(exc, BrokenExecutor):
                    # The pool itself died, which breaks *every*
                    # in-flight future, not just the culprit's.  If this
                    # job was flying alone the crash is attributable and
                    # counts as a segment failure (fatal unless a retry
                    # budget heals it); otherwise its lost segments
                    # requeue and the service probes serially until the
                    # pool proves healthy again (the culprit, once
                    # flying alone, breaks the pool attributably).
                    if self._pool is not None:
                        self._pool.shutdown(wait=False, cancel_futures=True)
                        self._pool = None
                    self._probation = PROBATION_SUCCESSES
                    if job.state in TERMINAL_STATES or not current:
                        continue
                    if not sole_flight:
                        job.requeued.extend(
                            i
                            for i in range(job.next_segment)
                            if i not in job.outcomes
                            and i not in job.requeued
                            and i not in job.missing
                        )
                        continue
                if job.state in TERMINAL_STATES or not current:
                    continue
                error = f"{type(exc).__name__}: {exc}"
                tb = "".join(
                    traceback_module.format_exception(
                        type(exc), exc, exc.__traceback__
                    )
                )
                self._segment_failed(job, index, error, tb)
                continue
            if job.state in TERMINAL_STATES or not current:
                continue  # job already terminal / attempt superseded
            if self._probation > 0:
                self._probation -= 1
            outcome, digest = future.result()
            if (
                job.integrity
                and digest is not None
                and outcome_digest(outcome) != digest
            ):
                # The payload the worker digested is not the payload
                # that arrived: treat the attempt as failed (retryable)
                # rather than fusing a corrupted outcome.
                self._counts["results_corrupted"] += 1
                self._segment_failed(
                    job,
                    index,
                    f"segment {index} failed its result-integrity check "
                    "(payload digest mismatch)",
                )
                continue
            # Store only final good outcomes: the integrity gate above
            # already passed, and a faulted attempt's payload may have
            # been tampered (CORRUPT) without integrity armed, so it
            # never enters the cache.  A segment has a key only when its
            # job caches (see _probe).
            skey = job.segment_keys.get(index)
            if skey is not None and not flight.faulted:
                self.segment_cache.put(skey, (outcome[1], outcome[2]))
            self._settle(job, index, outcome)
        return collected

    def _segment_failed(
        self, job: Job, index: int, error: str, tb: str | None = None
    ) -> None:
        """Route one failed segment attempt: retry, degrade, or fail.

        The attempt first charges the segment's failure meter; a
        :class:`~repro.serve.retry.RetryPolicy` with remaining budget
        re-dispatches the segment (after its deterministic backoff), an
        ``allow_partial`` job abandons it into the missing manifest, and
        otherwise the whole job fails — carrying the culprit's error
        string and full traceback.
        """
        job.failures[index] = job.failures.get(index, 0) + 1
        if job.state in TERMINAL_STATES:
            return
        failures = job.failures[index]
        if job.retry is not None and job.retry.retryable(failures):
            job.retries += 1
            self._counts["segments_retried"] += 1
            delay = job.retry.delay(index, failures)
            if delay > 0:
                job.retry_backlog.append((self._clock() + delay, index))
            else:
                job.requeued.append(index)
            return
        if job.allow_partial:
            self._settle(job, index, None)
            return
        if failures > 1:
            error = f"{error} (segment {index} failed {failures} attempts)"
        self._fail(job, error, tb)

    # ------------------------------------------------------------------
    # Reliability: deadlines, retries, watchdog
    # ------------------------------------------------------------------
    def _active_jobs(self) -> Iterator[Job]:
        """Every admitted, non-terminal job across all sessions."""
        for session in self._scheduler.sessions.values():
            for job in list(session.jobs):
                if job.state not in TERMINAL_STATES:
                    yield job

    def _release_ripe_retries(self) -> bool:
        """Move backed-off retries whose delay elapsed into the requeue."""
        progressed = False
        now = self._clock()
        for job in self._active_jobs():
            if not job.retry_backlog:
                continue
            ripe = [entry for entry in job.retry_backlog if entry[0] <= now]
            if not ripe:
                continue
            job.retry_backlog = [e for e in job.retry_backlog if e[0] > now]
            job.requeued.extend(index for _, index in ripe)
            progressed = True
        return progressed

    def _check_deadlines(self) -> bool:
        """The watchdog: expire over-budget jobs, abandon hung attempts.

        Job deadlines are judged first (an expired job abandons all its
        flights at once); then each in-flight attempt is judged against
        its job's per-segment budget.  Abandonment bumps the segment's
        dispatch epoch so a late landing is discarded, and a hung
        *process* worker — which cannot be cancelled — forces a pool
        kill-and-rebuild (:meth:`_kill_pool`).
        """
        progressed = False
        now = self._clock()
        for job in list(self._active_jobs()):
            if job.deadline_at is not None and now >= job.deadline_at:
                self._expire_job(job)
                progressed = True
        needs_kill = False
        for future, flight in list(self._inflight.items()):
            job, index = flight.job, flight.index
            if job.state in TERMINAL_STATES:
                continue  # lands (and is discarded) in _collect_done
            if (
                job.segment_deadline_s is None
                or now - flight.started_at < job.segment_deadline_s
            ):
                continue
            del self._inflight[future]
            self._counts["segments_timed_out"] += 1
            if self._abandon_attempt(future, flight):
                needs_kill = True
            self._segment_failed(
                job,
                index,
                f"segment {index} exceeded its deadline "
                f"({job.segment_deadline_s} s per attempt)",
            )
            progressed = True
        if needs_kill:
            self._kill_pool()
        return progressed

    def _abandon_attempt(self, future: Future, flight: _Flight) -> bool:
        """Abandon one in-flight attempt; returns whether a pool kill is due.

        A still-queued future simply cancels.  A *running* one cannot
        be: its dispatch epoch is bumped so its late result is
        discarded, its hang gate (if any) is released so a blocked
        thread worker unwinds, and on a process pool the caller must
        kill-and-rebuild — a hung process worker honours no signal the
        executor API offers.
        """
        job, index = flight.job, flight.index
        if flight.gate_id is not None:
            release_hang_gate(flight.gate_id)
        if future.cancel():
            return False
        job.attempts[index] = job.attempts.get(index, 0) + 1
        return self.executor == "process" and not future.done()

    def _expire_job(self, job: Job) -> None:
        """Terminate a job whose whole-job deadline passed.

        In-flight attempts are abandoned (hung process workers force a
        pool kill), undispatched work is cancelled, and the job ends
        ``PARTIAL`` — with everything unlanded in the missing manifest —
        when it allows partial results, ``FAILED`` otherwise.  A closed
        stream's input not yet cut into segments (buffered chunks, the
        planner's open tail) is cut first and never run, so it counts as
        unlanded instead of vanishing.
        """
        needs_kill = False
        for future, flight in list(self._inflight.items()):
            if flight.job is not job:
                continue
            del self._inflight[future]
            self._counts["segments_timed_out"] += 1
            if self._abandon_attempt(future, flight):
                needs_kill = True
        if needs_kill:
            self._kill_pool()
        if job.stream is not None and not job.stream.flushed:
            # Only a closed stream arms its deadline, so all of its input
            # can be cut now; what never ran is then listed as unlanded.
            self._absorb(job, limit=math.inf)
            if job.state in TERMINAL_STATES:
                return  # every cut segment landed from the cache
        unlanded = [
            i
            for i in range(job.n_segments)
            if i not in job.outcomes and i not in job.missing
        ]
        self._scheduler.cancel_job(job)
        if not job.allow_partial:
            self._fail(
                job,
                f"job deadline exceeded ({job.deadline_s} s); "
                f"{len(unlanded)} of {job.n_segments} segments unfinished",
            )
            return
        for index in unlanded:
            self._settle(job, index, None)

    def _kill_pool(self) -> None:
        """Kill a pool wedged by a hung worker and requeue the innocents.

        ``shutdown`` would join the hung worker forever, so a process
        pool's workers are terminated directly.  Every remaining
        in-flight attempt dies with the pool through no fault of its
        own — their segments are requeued proactively (rather than
        letting the post-kill ``BrokenExecutor`` harvest mis-attribute
        a sole survivor as a culprit), and dispatch turns serial until
        the rebuilt pool proves healthy, exactly the pool-break
        probation of :meth:`_collect_done`.
        """
        pool, self._pool = self._pool, None
        for future, flight in list(self._inflight.items()):
            del self._inflight[future]
            job, index = flight.job, flight.index
            if flight.gate_id is not None:
                release_hang_gate(flight.gate_id)
            if not future.cancel():
                job.attempts[index] = job.attempts.get(index, 0) + 1
            if job.state in TERMINAL_STATES:
                continue
            if (
                index not in job.outcomes
                and index not in job.requeued
                and index not in job.missing
            ):
                job.requeued.append(index)
        self._probation = PROBATION_SUCCESSES
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def _finalize(self, job: Job) -> None:
        """Fuse a job's segment outcomes: the one place a result is built.

        Streaming jobs reuse their incrementally fused map instead of
        re-fusing from scratch: the emit cursor inserted every key frame
        in segment order, which is exactly the insertion order
        :func:`~repro.core.mapping.fuse_keyframes` would use, so the two
        maps are bit-identical (the stream ≡ batch tests pin this).

        A job with abandoned segments finalizes ``PARTIAL``: the same
        fusion restricted to the landed outcomes (which
        :func:`~repro.core.mapping.merge_outcomes` sorts into segment
        order, so the map equals a fault-free fusion of the completed
        key frames), plus the missing-segment manifest.  Only the
        segments that landed are in the segment cache, so a later
        identical submission computes just the missing ones.
        """
        keyframes, profile = merge_outcomes(
            list(job.outcomes.values()), job.dropped_tail
        )
        if job.stream is not None:
            global_map = job.stream.global_map
        else:
            global_map = fuse_keyframes(keyframes, job.spec.camera, job.voxel_size)
        missing = tuple(sorted(job.missing))
        job.result = MappingResult(
            keyframes=keyframes,
            global_map=global_map,
            cloud=global_map.fused_cloud(job.min_observations),
            profile=profile,
            segments=job.plans,
            workers=self.workers,
            wall_seconds=self._clock() - job.submitted_at,
            missing_segments=missing,
        )
        if missing:
            job.finish(JobState.PARTIAL, at=self._clock())
            self._counts["jobs_partial"] += 1
        else:
            job.finish(JobState.DONE, at=self._clock())
            self._counts["jobs_done"] += 1
        self.profile.merge(profile)
        self._retire(job)

    def _pump(self) -> None:
        """Collect and dispatch until no immediate progress remains.

        A no-op on a closed service: close() cancelled the in-flight
        futures and the pool is gone, so there is nothing to collect and
        dispatching would silently resurrect a pool nobody will shut
        down again.
        """
        if self._closed:
            return
        progressed = True
        while progressed:
            progressed = self._collect_done()
            progressed = self._check_deadlines() or progressed
            progressed = self._release_ripe_retries() or progressed
            progressed = self._absorb_streams() or progressed
            progressed = self._dispatch_ready() or progressed

    def _job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job id {job_id!r}") from None

    def poll(self, job_id: str) -> JobStatus:
        """Non-blocking progress snapshot (pumps the scheduler first)."""
        return self._status(self._job(job_id), pump=True)

    def _status(self, job: Job, pump: bool = False) -> JobStatus:
        """Build a :class:`JobStatus` snapshot, optionally pumping first."""
        if pump:
            self._pump()
        return JobStatus(
            job_id=job.job_id,
            session=job.session,
            state=job.state,
            segments_total=job.n_segments,
            segments_done=job.segments_done,
            cache_hit=job.n_segments > 0 and job.segments_cached == job.n_segments,
            error=job.error,
            latency_seconds=job.latency_seconds,
            missing_segments=tuple(sorted(job.missing)),
            segments_retried=job.retries,
            traceback=job.traceback,
        )

    def result(self, job_id: str, timeout: float | None = None) -> MappingResult:
        """Block until the job finishes; return its fused result.

        Raises :class:`JobFailed` for failed or dropped jobs (carrying
        the worker's error, and its traceback text as a note),
        ``TimeoutError`` past ``timeout`` seconds, and ``KeyError`` for
        unknown ids.
        """
        return self._result_job(self._job(job_id), timeout)

    def _next_event_time(self) -> float | None:
        """Earliest future instant a deadline or backoff release can fire.

        Bounds the blocking waits of :meth:`result` and :meth:`drain`:
        a hung worker never completes its future, so waiting on futures
        alone would outwait the very watchdog meant to catch it.
        """
        times = []
        for flight in self._inflight.values():
            budget = flight.job.segment_deadline_s
            if budget is not None and flight.job.state not in TERMINAL_STATES:
                times.append(flight.started_at + budget)
        for job in self._active_jobs():
            if job.deadline_at is not None:
                times.append(job.deadline_at)
            times.extend(at for at, _ in job.retry_backlog)
        return min(times, default=None)

    def _wait_for_progress(self, remaining: float | None) -> None:
        """Block until a future settles, a timed event ripens, or timeout."""
        wake = self._next_event_time()
        wait_t = remaining
        if wake is not None:
            until_wake = max(wake - self._clock(), 0.0) + 1e-4
            wait_t = until_wake if wait_t is None else min(wait_t, until_wake)
        if self._inflight:
            wait(set(self._inflight), timeout=wait_t, return_when=FIRST_COMPLETED)
        else:
            # Nothing on the pool: the next progress is a timed event
            # (backoff release or deadline expiry), so nap toward it.
            time.sleep(min(wait_t, 0.05) if wait_t is not None else 0.001)

    def _result_job(self, job: Job, timeout: float | None) -> MappingResult:
        """The blocking wait behind :meth:`result` (job-object addressed).

        Streaming handles call this directly so their jobs stay
        reachable even after ``retain_jobs`` pruning evicts the id from
        the registry.
        """
        job_id = job.job_id
        deadline = None if timeout is None else self._clock() + timeout
        self._pump()
        while job.state not in TERMINAL_STATES:
            if self._closed:
                raise ServeError(
                    f"service is closed; job {job_id!r} will not complete"
                )
            if job.stream is not None and job.stream.open:
                raise ServeError(
                    f"stream {job_id!r} is still open; close() it before "
                    "waiting for its result"
                )
            if not self._inflight and self._next_event_time() is None:
                raise ServeError(
                    f"job {job_id!r} cannot progress: nothing in flight "
                    "(pool lost its work?)"
                )
            remaining = None
            if deadline is not None:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    raise TimeoutError(f"job {job_id!r} not done within {timeout} s")
            self._wait_for_progress(remaining)
            self._pump()
        if job.state in (JobState.DONE, JobState.PARTIAL):
            return job.result
        failure = JobFailed(
            f"job {job_id!r} {job.state.value}: {job.error or 'no error recorded'}"
        )
        if job.traceback:
            # The worker's traceback text, as a note (what 3.11's
            # add_note appends to; 3.10 keeps it without printing it).
            failure.__notes__ = [job.traceback]
        raise failure

    def drain(self, timeout: float | None = None) -> int:
        """Run every admitted job to a terminal state; returns #completed.

        Streams that are still *open* are drained of their currently
        planned work but stay non-terminal — an open stream can always
        grow, so ``drain`` completes what exists and returns rather than
        waiting for a ``close()`` that may never come.  Backed-off
        retries count as pending work: ``drain`` waits out their delay
        and runs the re-dispatch.
        """
        deadline = None if timeout is None else self._clock() + timeout
        self._pump()
        while (
            self._inflight
            or self._scheduler.has_pending_dispatch
            or self._has_deferred_work()
        ):
            if self._closed:
                raise ServeError("service is closed; queued work was abandoned")
            remaining = None
            if deadline is not None:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    raise TimeoutError(f"drain() incomplete after {timeout} s")
            self._wait_for_progress(remaining)
            self._pump()
        counts = self._counts
        return counts["jobs_done"] + counts["jobs_failed"] + counts["jobs_partial"]

    def _has_deferred_work(self) -> bool:
        """Whether any active job holds backed-off retries awaiting release."""
        return any(job.retry_backlog for job in self._active_jobs())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the service was closed (``close`` or ``shutdown``)."""
        return self._closed

    @property
    def jobs(self) -> dict[str, Job]:
        """All retained job records by id (copy)."""
        return dict(self._jobs)

    @property
    def dispatch_log(self) -> list[tuple[str, str, int]]:
        """(session, job_id, segment_index) of each pool submission, in order.

        A segment the dispatch-time cache probe completes never reaches
        the pool and is not listed.
        """
        return list(self._scheduler.dispatch_log)

    def stats(self) -> ServiceStats:
        """Aggregate counters: admission, outcomes, cache, streaming."""
        segment = self.segment_cache
        cache_stats = CacheStats(
            segment_hits=segment.hits,
            segment_misses=segment.misses,
            segment_disk_hits=segment.disk_hits,
            segment_evictions=segment.evictions,
            segment_entries=len(segment),
            segment_disk_entries=segment.disk_entries,
        )
        return ServiceStats(
            **{name: self._counts[name] for name in _COUNTED_STATS},
            cache=cache_stats,
            segments_dispatched={
                name: session.segments_dispatched
                for name, session in self._scheduler.sessions.items()
            },
            profile=replace(
                self.profile, stage_seconds=dict(self.profile.stage_seconds)
            ),
            active_jobs=sum(1 for _ in self._active_jobs()),
            inflight_segments=len(self._inflight),
            queue_depths=self._scheduler.queue_depths(),
        )
