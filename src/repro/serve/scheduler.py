"""Fair round-robin sharding of session work onto one worker pool.

The scheduler owns no threads and no pool — it is a deterministic
decision procedure: *given the sessions' queues, which segment runs
next?*  The service pumps it for tasks whenever pool slots free up.
Keeping the policy synchronous and stateful-but-deterministic is what
makes fairness testable: the dispatch log for a fixed submission order
is always the same, whatever the pool timing.

Fairness model (ESVO-style interleaving generalized to N streams):

* **across sessions** — strict round robin at *segment* granularity.  A
  session that just dispatched goes to the back of the rotation, so one
  heavy job cannot starve other sessions; their segments interleave on
  the shared pool.  Streaming jobs take part exactly like batch jobs —
  a live stream's freshly planned segments interleave with batch jobs'
  pre-planned ones in the same dispatch log.
* **within a session** — FIFO over jobs; a job's segments dispatch in
  stream order.

Backpressure is enforced at admission (see
:meth:`ReconstructionService.submit`): a session whose active-job count
reached its bound either refuses the submission or drops its oldest
still-queued job, per the service's overflow policy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.mapping import SegmentTask
from repro.serve.session import Job, JobState, Session


@dataclass(frozen=True)
class Dispatch:
    """One scheduling decision: a segment task and the job it belongs to.

    ``attempt`` is the segment's dispatch epoch (1 on the first try,
    bumped per re-dispatch) — the service stamps it on the in-flight
    record so a superseded attempt's late result is discarded instead
    of fused twice.
    """

    job: Job
    task: SegmentTask
    attempt: int = 1


class RoundRobinScheduler:
    """Segment-granular round robin across sessions (see module docs)."""

    def __init__(self, queue_limit: int = 8):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.queue_limit = queue_limit
        self._sessions: dict[str, Session] = {}
        self._rotation: deque[str] = deque()
        #: Record of (session, job_id, segment_index) of every segment
        #: submitted to the pool, in dispatch order (see
        #: :meth:`record_dispatch`) — the artifact the fairness tests
        #: inspect.  Bounded so a long-lived service's log cannot grow
        #: without limit.
        self.dispatch_log: deque[tuple[str, str, int]] = deque(maxlen=100_000)

    # ------------------------------------------------------------------
    def session(self, name: str) -> Session:
        """The named session, created on first use."""
        if name not in self._sessions:
            self._sessions[name] = Session(name, self.queue_limit)
            self._rotation.append(name)
        return self._sessions[name]

    @property
    def sessions(self) -> dict[str, Session]:
        """Registered sessions by name (copy)."""
        return dict(self._sessions)

    def admit(self, job: Job) -> None:
        """Record an admitted job (capacity is the service's decision)."""
        self.session(job.session).add(job)

    # ------------------------------------------------------------------
    def next_dispatch(self) -> Dispatch | None:
        """Pick the next segment fairly, or ``None`` when all queues idle.

        Rotates through sessions starting from the head of the rotation;
        the session that yields work is moved to the back.  Sessions with
        nothing to dispatch keep their position, so a returning stream
        re-enters where it left off.
        """
        for position in range(len(self._rotation)):
            name = self._rotation[position]
            session = self._sessions[name]
            job = session.next_dispatch()
            if job is None:
                continue  # idle sessions keep their rotation position
            # Recovery/retry re-dispatches come first; indices whose
            # outcome already landed (segment-cache prefills) are
            # consumed without dispatching.
            index = job.take_next_index()
            if index is None:
                continue  # everything left had landed; session keeps its turn
            if job.state is JobState.QUEUED:
                job.state = JobState.RUNNING
            # Bump the segment's dispatch epoch: outcomes are only
            # accepted from the newest attempt (see _collect_done).
            attempt = job.attempts.get(index, 0) + 1
            job.attempts[index] = attempt
            del self._rotation[position]
            self._rotation.append(name)
            # The slice stays in segment_events until the outcome lands,
            # so a pool break can requeue it.
            task = SegmentTask(index, job.segment_events[index], job.spec)
            return Dispatch(job=job, task=task, attempt=attempt)
        return None

    def record_dispatch(self, decision: Dispatch) -> None:
        """Account a decision whose task was actually submitted to the pool.

        Kept apart from :meth:`next_dispatch` because the service may
        still complete the segment from the segment cache without a pool
        slot; such a segment is neither counted in
        ``Session.segments_dispatched`` nor logged.
        """
        job = decision.job
        self._sessions[job.session].segments_dispatched += 1
        self.dispatch_log.append((job.session, job.job_id, decision.task.index))

    @property
    def has_pending_dispatch(self) -> bool:
        """Whether any session still has a segment to dispatch."""
        return any(s.has_pending_dispatch for s in self._sessions.values())

    def queue_depths(self) -> dict[str, int]:
        """Pending (planned-but-unlanded) segments per session.

        The observability view of the scheduler's queues: each entry is
        :attr:`Session.pending_segments` — undispatched plan tail plus
        requeues plus backed-off retries — keyed by session name.
        Idle sessions report ``0`` rather than being omitted, so a
        scrape always sees every session the service has touched.
        """
        return {
            name: session.pending_segments
            for name, session in self._sessions.items()
        }

    def cancel_job(self, job: Job) -> None:
        """Stop dispatching a job's remaining segments (failure path)."""
        job.next_segment = job.n_segments
        job.requeued.clear()
        job.retry_backlog.clear()
