"""Unit tests for online (incremental) mapping on the streaming engine."""

import pytest

from repro.core import EMVSConfig, ReconstructionEngine


@pytest.fixture
def config():
    return EMVSConfig(n_depth_planes=48, frame_size=1024, keyframe_distance=0.15)


def online_engine(seq, config):
    return ReconstructionEngine(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        policy="reformulated",
    )


class TestOnlineMapping:
    def test_keyframe_callback_can_be_assigned_late(self, seq_3planes_fast, config):
        """Reassigning on_keyframe after construction must take effect."""
        seq = seq_3planes_fast
        events = seq.events.time_slice(0.6, 1.4)
        engine = online_engine(seq, config)
        seen = []
        engine.on_keyframe = seen.append
        engine.push(events)
        engine.finish()
        assert len(seen) == len(engine.keyframes) > 0

    def test_preview_does_not_close_the_segment(self, seq_3planes_fast, config):
        seq = seq_3planes_fast
        engine = online_engine(seq, config)
        assert engine.preview_depth_map() is None
        engine.push(seq.events.time_slice(0.9, 1.05))
        assert engine.preview_depth_map() is not None
        assert len(engine.keyframes) == 0

    def test_events_pushed_counter(self, seq_3planes_fast, config):
        seq = seq_3planes_fast
        events = seq.events.time_slice(0.9, 1.0)
        engine = online_engine(seq, config)
        engine.push(events)
        assert engine.events_pushed == len(events)
