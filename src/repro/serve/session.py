"""Sessions and jobs: the bookkeeping units of the reconstruction service.

A *session* is one logical client stream source (a robot, a dataset
replay, a tenant).  Sessions are the unit of fairness — the scheduler
round-robins segment dispatch across them — and the unit of
backpressure: each session holds a bounded queue of admitted jobs, and
submissions beyond the bound are refused or displace the oldest queued
job, per the service's overflow policy.

A *job* is one independent event-stream reconstruction request.  A
*batch* job is pre-planned into key-frame segments at admission
(:func:`repro.core.engine.plan_segments`); a *streaming* job (opened via
``open_stream``) grows its plan incrementally as chunks arrive, carrying
its live state in a :class:`~repro.serve.stream.StreamState`.  Either
way each planned segment's event slice waits in ``Job.segment_events``
until it lands, the scheduler shards the segments onto the shared
worker pool, and the service fuses the outcomes in segment order.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.core.engine import EngineSpec, SegmentPlan
from repro.core.mapping import MappingResult, SegmentOutcome
from repro.events.containers import EventArray
from repro.serve.stream import StreamState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.faults import FaultPlan
    from repro.serve.retry import RetryPolicy


class JobState(enum.Enum):
    """Lifecycle of a submitted job.

    ``QUEUED -> RUNNING -> DONE | FAILED`` is the normal path; a job
    whose every segment is in the segment cache reaches ``DONE`` at
    admission.  ``DROPPED`` marks queued jobs
    displaced by the ``drop-oldest`` overflow policy (refused jobs are
    never admitted, so they have no job record — the submission raises).
    ``PARTIAL`` is graceful degradation: an ``allow_partial`` job whose
    deadline expired or whose retries exhausted still terminates with a
    usable result — the fused map of its completed key frames plus a
    missing-segment manifest — instead of failing outright.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    PARTIAL = "partial"
    FAILED = "failed"
    DROPPED = "dropped"


#: States a job can never leave.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.PARTIAL, JobState.FAILED, JobState.DROPPED}
)

_job_ids = itertools.count(1)


@dataclass(eq=False)
class Job:
    """One admitted reconstruction request and its progress.

    Identity semantics (``eq=False``): a job is its record, not its
    field values — two submissions of the same stream are distinct jobs.
    """

    job_id: str
    session: str
    spec: EngineSpec
    plans: tuple[SegmentPlan, ...]
    dropped_tail: int
    voxel_size: float
    min_observations: int
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.perf_counter)
    finished_at: float | None = None
    error: str | None = None
    result: MappingResult | None = None
    #: Index of the next segment to dispatch (cursor into ``plans``).
    next_segment: int = 0
    #: Segment indices lost to a pool break, to re-dispatch before the
    #: cursor advances (already-completed segments are not recomputed).
    requeued: list[int] = field(default_factory=list)
    #: Completed segment outcomes, keyed by segment index.
    outcomes: dict[int, SegmentOutcome] = field(default_factory=dict)
    #: Event slice of every planned-but-unlanded segment, keyed by
    #: segment index: views of a batch job's stream made at admission,
    #: the planner's cuts for a stream.  Kept until the segment lands
    #: or is abandoned, so a pool break can requeue it.
    segment_events: dict[int, EventArray] = field(default_factory=dict)
    #: Live state of a streaming job (``None`` for batch jobs): the
    #: incremental planner, the bounded chunk buffer and the
    #: incrementally fused map.
    stream: StreamState | None = None
    #: Retry budget for failed segment attempts (``None`` = fail fast).
    retry: "RetryPolicy | None" = None
    #: Whether exhausted retries / deadlines degrade the job to a
    #: ``PARTIAL`` result instead of failing it.
    allow_partial: bool = False
    #: Wall-clock budget of the whole job; for streams the clock starts
    #: at ``close()`` (an open stream can always grow).
    deadline_s: float | None = None
    #: Absolute (service-clock) expiry instant, once armed.
    deadline_at: float | None = None
    #: Per-attempt budget of a single segment on the pool.
    segment_deadline_s: float | None = None
    #: Deterministic fault schedule injected into this job's segments.
    fault_plan: "FaultPlan | None" = None
    #: Whether workers digest their outcomes for merge-time verification.
    integrity: bool = False
    #: Dispatch epoch per segment index — bumped on every dispatch (and
    #: on abandonment), so a stale attempt's late result is discarded.
    attempts: dict[int, int] = field(default_factory=dict)
    #: Failed attempts per segment index (the retry budget's meter).
    failures: dict[int, int] = field(default_factory=dict)
    #: Segment attempts this job re-dispatched (retries granted).
    retries: int = 0
    #: Backoff queue: ``(eligible_at, segment_index)`` pairs released
    #: into ``requeued`` once the service clock passes ``eligible_at``.
    retry_backlog: list[tuple[float, int]] = field(default_factory=list)
    #: Segments abandoned under ``allow_partial`` (the missing-segment
    #: manifest of a ``PARTIAL`` result).
    missing: set[int] = field(default_factory=set)
    #: Full traceback of the failure that terminated the job, if any.
    traceback: str | None = None
    #: This job's cache mode (``"on"`` / ``"off"`` / ``"refresh"``, see
    #: :data:`repro.serve.options.CACHE_MODES`).
    cache_mode: str = "on"
    #: Segment-cache key per segment index, computed at admission (batch
    #: jobs) or as segments are cut (streams); empty when the segment
    #: cache is disabled or the job's cache mode is ``"off"``.
    segment_keys: dict[int, str] = field(default_factory=dict)
    #: Segments served from the segment cache (admission, stream cut, or
    #: dispatch-time probe) — they never touched the pool.
    segments_cached: int = 0

    @property
    def n_segments(self) -> int:
        """Segments planned so far (grows while a stream is open)."""
        return len(self.plans)

    @property
    def segments_done(self) -> int:
        """Segments whose outcome has landed."""
        return len(self.outcomes)

    @property
    def dispatch_exhausted(self) -> bool:
        """All *currently planned* segments dispatched (not completed).

        A streaming job whose planned segments are all on the pool is
        exhausted *for now*; absorbing more chunks re-arms it.
        """
        return not self.requeued and self.next_segment >= self.n_segments

    @property
    def complete(self) -> bool:
        """Every segment accounted for (and, for streams, no more can come).

        "Accounted for" means the outcome landed *or* the segment was
        abandoned into the ``missing`` manifest — an ``allow_partial``
        job is complete (and finalizes ``PARTIAL``) once nothing else
        can arrive.
        """
        if self.stream is not None and not self.stream.flushed:
            return False
        return self.segments_done + len(self.missing) >= self.n_segments

    def take_next_index(self) -> int | None:
        """Claim the next segment index that actually needs dispatching.

        Drains the recovery/retry requeue first, then advances the plan
        cursor — skipping, in both sources, segments whose outcome
        already landed (e.g. served from the segment cache after the
        index was queued) or that were abandoned into ``missing``.
        Returns ``None`` when nothing currently needs the pool; the
        cursor state is consumed either way, so callers must dispatch
        (or account) a returned index.
        """
        while self.requeued:
            index = self.requeued.pop(0)
            if index not in self.outcomes and index not in self.missing:
                return index
        while self.next_segment < self.n_segments:
            index = self.next_segment
            self.next_segment += 1
            if index not in self.outcomes and index not in self.missing:
                return index
        return None

    @property
    def latency_seconds(self) -> float | None:
        """Submit-to-terminal latency, or ``None`` while in flight."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def finish(self, state: JobState, at: float | None = None) -> None:
        """Move to a terminal state and release the input event buffers.

        Terminal jobs keep their (fused) result, not the segment slices
        — a long-lived service must not pin every stream it ever
        served.  Streaming jobs likewise drop their buffered chunks
        (un-polled updates and the fused map survive for the client),
        and their ``open`` flag flips off — a terminal stream accepts
        no more feeds, and its result must be claimable without a prior
        explicit ``close()`` (a stream whose segments all failed would
        otherwise wait on updates that can never arrive).

        ``at`` is the terminal instant on the owning service's clock;
        the service always passes its injected ``clock`` reading so
        ``latency_seconds`` is measured on the same (fake-able)
        timeline as deadlines and backoff — never on the host clock.
        """
        self.state = state
        self.finished_at = time.perf_counter() if at is None else at
        self.segment_events.clear()
        self.retry_backlog.clear()
        if self.stream is not None:
            self.stream.open = False
            self.stream.pending_chunks.clear()
            self.stream.feed_times.clear()


def new_job_id(session: str) -> str:
    """Monotonic, human-greppable job identifiers (``job-<n>@<session>``)."""
    return f"job-{next(_job_ids)}@{session}"


@dataclass(frozen=True)
class JobStatus:
    """Immutable progress snapshot returned by ``ReconstructionService.poll``."""

    job_id: str
    session: str
    state: JobState
    segments_total: int
    segments_done: int
    #: Whether every planned segment came from the segment cache (none
    #: touched the pool).
    cache_hit: bool
    error: str | None
    #: Admission-to-terminal seconds (``None`` in flight).  Admission
    #: starts before segment planning, so planning is included.
    latency_seconds: float | None
    #: Abandoned segment indices of a ``PARTIAL`` (or degrading) job.
    missing_segments: tuple[int, ...] = ()
    #: Segment attempts re-dispatched by the job's retry policy so far.
    segments_retried: int = 0
    #: Full culprit traceback of a failed job, when one was captured.
    traceback: str | None = None

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in TERMINAL_STATES


class Session:
    """One client's bounded job queue plus fairness accounting.

    ``queue_limit`` bounds the number of *active* (queued or running)
    jobs the session may hold; admission beyond it is the service's
    overflow decision, not the session's.  Segment dispatch within a
    session is strictly FIFO over its jobs — a session's second job never
    overtakes its first — while fairness *across* sessions is the
    scheduler's round-robin.
    """

    def __init__(self, name: str, queue_limit: int):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.name = name
        self.queue_limit = queue_limit
        self.jobs: list[Job] = []
        self.segments_dispatched = 0

    # ------------------------------------------------------------------
    @property
    def active_jobs(self) -> list[Job]:
        """Jobs admitted but not yet terminal, in submission order."""
        return [job for job in self.jobs if job.state not in TERMINAL_STATES]

    @property
    def pending_segments(self) -> int:
        """Planned-but-unlanded segments across the session's active jobs.

        The session's queue depth: undispatched plan tail plus
        recovery/retry requeues plus backed-off retries — the number
        exported per session by ``/metrics`` (``repro_serve_queue_depth``).
        """
        return sum(
            (job.n_segments - job.next_segment)
            + len(job.requeued)
            + len(job.retry_backlog)
            for job in self.active_jobs
        )

    @property
    def backlogged(self) -> bool:
        """Whether the session's active jobs reached the queue bound."""
        return len(self.active_jobs) >= self.queue_limit

    def oldest_queued(self) -> Job | None:
        """The drop-oldest victim: first job with no segment dispatched yet.

        Streaming jobs are never victims: a live
        stream handle must not be killed to admit a batch job (streams
        shed load at chunk granularity instead, via their bounded chunk
        buffer).
        """
        for job in self.jobs:
            if (
                job.state is JobState.QUEUED
                and job.next_segment == 0
                and job.stream is None
            ):
                return job
        return None

    def add(self, job: Job) -> None:
        """Append an admitted job to the session's FIFO."""
        self.jobs.append(job)

    def next_dispatch(self) -> Job | None:
        """The FIFO-first active job that still has segments to dispatch.

        A fully-dispatched but still-running job is skipped rather than
        waited on, so a session with spare queue depth keeps the pool
        busy; outcome ordering is restored at fusion time per job.
        """
        for job in self.jobs:
            if job.state not in TERMINAL_STATES and not job.dispatch_exhausted:
                return job
        return None

    @property
    def has_pending_dispatch(self) -> bool:
        """Whether any job still has a segment to dispatch."""
        return self.next_dispatch() is not None
