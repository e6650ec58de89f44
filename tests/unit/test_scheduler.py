"""Unit tests for the Fig. 6 frame scheduler and serve victim selection.

The first half covers the hardware :class:`FrameScheduler` (paper
Fig. 6 pipelining); the second half pins the serving layer's
``drop-oldest`` victim-selection order on :meth:`Session.oldest_queued`
— the overflow policy the gateway's admission path ultimately delegates
to.
"""

import pytest

from repro.core import EMVSConfig, EngineSpec
from repro.core.mapping import SegmentPlan
from repro.hardware.scheduler import FrameScheduler
from repro.hardware.timing import FrameTiming
from repro.serve import Job, JobState, Session
from repro.serve.session import new_job_id


def normal(c=1071.0, p=71708.0):
    return FrameTiming(canonical_cycles=c, proportional_cycles=p, dma_cycles=1040.0)


def keyframe(c=1071.0, p=71708.0):
    return FrameTiming(
        canonical_cycles=c, proportional_cycles=p, dma_cycles=1040.0, is_keyframe=True
    )


class TestNormalFramePipeline:
    def test_canonical_overlaps_previous_proportional(self):
        s = FrameScheduler()
        s.add_frame(normal())
        s.add_frame(normal())
        r = s.result()
        canon = [e for e in r.timeline if e.module == "canonical"]
        prop = [e for e in r.timeline if e.module == "proportional"]
        # Frame 1's canonical stage starts while frame 0's proportional runs.
        assert canon[1].start < prop[0].end

    def test_steady_state_period_is_proportional_time(self):
        s = FrameScheduler()
        for _ in range(5):
            s.add_frame(normal())
        r = s.result()
        assert r.frame_period(3) == pytest.approx(71708.0)

    def test_first_frame_serial(self):
        s = FrameScheduler()
        s.add_frame(normal())
        r = s.result()
        assert r.total_cycles == pytest.approx(1071.0 + 71708.0)

    def test_proportional_module_never_idles_in_steady_state(self):
        s = FrameScheduler()
        for _ in range(10):
            s.add_frame(normal())
        r = s.result()
        prop = [e for e in r.timeline if e.module == "proportional"]
        for a, b in zip(prop[1:], prop[:-1]):
            assert a.start == pytest.approx(b.end)


class TestKeyframeSerialization:
    def test_keyframe_waits_for_previous_frame(self):
        s = FrameScheduler()
        s.add_frame(normal())
        s.add_frame(keyframe())
        r = s.result()
        canon = [e for e in r.timeline if e.module == "canonical"]
        prop = [e for e in r.timeline if e.module == "proportional"]
        # Key frame's canonical stage starts only after frame 0 fully retires.
        assert canon[1].start == pytest.approx(prop[0].end)

    def test_keyframe_period_is_serial_sum(self):
        s = FrameScheduler()
        s.add_frame(normal())
        s.add_frame(keyframe())
        r = s.result()
        assert r.frame_period(1) == pytest.approx(1071.0 + 71708.0)

    def test_paper_runtimes(self):
        """Normal 551.58 us vs key 559.82 us at 130 MHz (Table 3)."""
        s = FrameScheduler()
        for _ in range(3):
            s.add_frame(normal())
        s.add_frame(keyframe())
        s.add_frame(normal())
        r = s.result()
        normal_us = r.frame_period(2) / 130e6 * 1e6
        key_us = r.frame_period(3) / 130e6 * 1e6
        assert normal_us == pytest.approx(551.6, abs=0.5)
        assert key_us == pytest.approx(559.8, abs=0.5)


class TestResultHelpers:
    def test_utilization_bounds(self):
        s = FrameScheduler()
        for _ in range(5):
            s.add_frame(normal())
        u = s.result().utilization()
        assert 0.9 < u["proportional"] <= 1.0
        assert u["canonical"] < 0.1  # P(Z0) is tiny relative to P(Zi)+R

    def test_frame_period_bounds_checked(self):
        s = FrameScheduler()
        s.add_frame(normal())
        with pytest.raises(IndexError):
            s.result().frame_period(0)

    def test_gantt_rendering(self):
        s = FrameScheduler()
        s.add_frame(normal())
        s.add_frame(keyframe())
        text = FrameScheduler.render_gantt(s.result(), clock_hz=130e6)
        assert "canonical" in text
        assert "K" in text

    def test_empty_schedule(self):
        assert "empty" in FrameScheduler.render_gantt(
            FrameScheduler().result(), 130e6
        )


# ----------------------------------------------------------------------
# Serve-layer drop-oldest victim selection
# ----------------------------------------------------------------------
def _serve_job(session: Session, spec, n_segments: int = 2) -> Job:
    """Admit a minimal batch job with ``n_segments`` planned segments."""
    plans = tuple(
        SegmentPlan(
            index=i, start_frame=i, end_frame=i + 1, frame_size=100,
            t_ref=float(i),
        )
        for i in range(n_segments)
    )
    job = Job(
        job_id=new_job_id(session.name),
        session=session.name,
        spec=spec,
        plans=plans,
        dropped_tail=0,
        voxel_size=0.01,
        min_observations=1,
    )
    session.add(job)
    return job


@pytest.fixture
def serve_spec(davis_camera, simple_trajectory):
    return EngineSpec(davis_camera, simple_trajectory, EMVSConfig())


class TestDropOldestVictimSelection:
    """Pin :meth:`Session.oldest_queued` — the drop-oldest victim rule.

    The victim must be the session's oldest *untouched* queued batch
    job: never a job with dispatched segments and never a streaming job.
    """

    def test_victim_is_oldest_untouched_job(self, serve_spec):
        session = Session("s", queue_limit=8)
        first = _serve_job(session, serve_spec)
        second = _serve_job(session, serve_spec)
        assert session.oldest_queued() is first
        # Once the first job has a segment on the pool it is exempt.
        first.take_next_index()
        first.state = JobState.RUNNING
        assert session.oldest_queued() is second

    def test_streaming_job_is_never_victim(self, serve_spec):
        import types

        session = Session("s", queue_limit=8)
        stream_job = _serve_job(session, serve_spec, n_segments=0)
        stream_job.stream = types.SimpleNamespace(open=True)
        batch = _serve_job(session, serve_spec)
        assert session.oldest_queued() is batch
        batch.take_next_index()
        batch.state = JobState.RUNNING
        assert session.oldest_queued() is None

    def test_pending_segments_accounting(self, serve_spec):
        """``pending_segments`` (the queue-depth gauge) tracks the tail.

        Plan tail + requeues + backed-off retries.
        """
        session = Session("s", queue_limit=8)
        job = _serve_job(session, serve_spec, n_segments=3)
        assert session.pending_segments == 3
        job.take_next_index()
        assert session.pending_segments == 2
        job.requeued.append(0)
        job.retry_backlog.append((123.0, 1))
        assert session.pending_segments == 4
