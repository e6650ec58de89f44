"""Unit tests for the streaming ReconstructionEngine and its registry."""

import numpy as np
import pytest

from repro.core import (
    BACKENDS,
    EMVSConfig,
    EngineSpec,
    ORIGINAL_POLICY,
    REFORMULATED_POLICY,
    ReconstructionEngine,
)
from repro.core.engine import ExecutionBackend, create_backend, register_backend
from repro.core.policy import resolve_policy
from repro.events.containers import EventArray


# `engine_config` / `engine_scene` are the session-scoped builders in
# tests/conftest.py (shared with the mapping/serving/fuzz suites); the
# short names keep this module's call sites readable.
@pytest.fixture
def config(engine_config):
    return engine_config


@pytest.fixture
def scene(engine_scene):
    return engine_scene


def make_engine(seq, config, **kwargs):
    return ReconstructionEngine(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        **kwargs,
    )


class TestRegistry:
    def test_required_backends_registered(self):
        for name in (
            "numpy-reference",
            "numpy-batch",
            "hardware-model",
        ):
            assert name in BACKENDS

    def test_unknown_backend_rejected(self, scene, config):
        seq, _ = scene
        with pytest.raises(ValueError, match="unknown backend"):
            make_engine(seq, config, backend="no-such-substrate")

    def test_spec_rejects_unknown_backend_at_construction(self, scene, config):
        seq, _ = scene
        with pytest.raises(ValueError, match=r"unknown backend 'cuda'; known: \["):
            EngineSpec(seq.camera, seq.trajectory, config, backend="cuda")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            resolve_policy("no-such-policy")

    def test_policy_by_name(self, scene, config):
        seq, _ = scene
        engine = make_engine(seq, config, policy="original")
        assert engine.policy is ORIGINAL_POLICY
        with pytest.raises(ValueError, match="unknown policy"):
            make_engine(seq, config, policy="no-such-policy")

    def test_hardware_backend_rejects_incompatible_policy(self, scene):
        from repro.core.policy import DataflowPolicy
        from repro.core.voting import VotingMethod
        from repro.fixedpoint.quantize import EVENTOR_SCHEMA

        seq, _ = scene
        config = EMVSConfig(n_depth_planes=64, frame_size=1024)
        with pytest.raises(ValueError, match="nearest voting only"):
            make_engine(
                seq,
                config,
                policy=DataflowPolicy(
                    voting=VotingMethod.BILINEAR, schema=EVENTOR_SCHEMA
                ),
                backend="hardware-model",
            )
        with pytest.raises(ValueError, match="integer DSI scores"):
            make_engine(
                seq,
                config,
                policy=DataflowPolicy(
                    schema=EVENTOR_SCHEMA, integer_scores=False
                ),
                backend="hardware-model",
            )

    def test_custom_backend_registration(self, scene, config):
        seq, _ = scene

        class Probe(ExecutionBackend):
            name = "probe"

            def start_reference(self, T_w_ref):
                pass

            def process_frame(self, frame):
                return 0, 0

            def read_dsi(self):
                raise NotImplementedError

        register_backend("probe-test")(lambda engine: Probe())
        try:
            engine = make_engine(seq, config, backend="probe-test")
            assert engine.backend.name == "probe"
            assert engine.backend.engine is engine
        finally:
            del BACKENDS["probe-test"]

    def test_instance_passthrough_binds(self, scene, config):
        seq, _ = scene
        engine = make_engine(seq, config)
        backend = engine.backend
        assert create_backend(backend, engine) is backend


class TestEngineLifecycle:
    def test_single_use(self, scene, config):
        seq, events = scene
        engine = make_engine(seq, config)
        engine.run(events)
        with pytest.raises(RuntimeError, match="finished"):
            engine.push(events)

    def test_finish_idempotent(self, scene, config):
        seq, events = scene
        engine = make_engine(seq, config)
        engine.push(events)
        a = engine.finish()
        b = engine.finish()
        assert a.n_points == b.n_points
        assert a.profile is b.profile

    def test_empty_push(self, scene, config):
        seq, _ = scene
        engine = make_engine(seq, config)
        assert engine.push(EventArray.empty()) == 0
        assert engine.finish().n_points == 0

    def test_preview_none_before_frames(self, scene, config):
        seq, _ = scene
        engine = make_engine(seq, config)
        assert engine.preview_depth_map() is None

    def test_trailing_partial_frame_accounted(self, scene, config):
        seq, events = scene
        engine = make_engine(seq, config)
        engine.push(events)
        tail = len(events) % config.frame_size
        misses = engine.profile.dropped_events
        result = engine.finish()
        assert result.profile.dropped_events == misses + tail

    def test_streaming_equals_batch(self, scene, config):
        seq, events = scene
        batch = make_engine(seq, config).run(events)
        streamed = make_engine(seq, config)
        boundaries = np.linspace(0, len(events), 13).astype(int)
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            streamed.push(events[int(a):int(b)])
        result = streamed.finish()
        assert result.n_points == batch.n_points
        np.testing.assert_allclose(
            result.cloud.points, batch.cloud.points, atol=1e-12
        )


class TestNumpyBatchBackend:
    """Engine lifecycle under the segment-batched backend."""

    def run_pair(self, seq, events, config, policy=REFORMULATED_POLICY, **kwargs):
        ref = make_engine(
            seq, config, policy=policy, backend="numpy-reference"
        ).run(events)
        batch = make_engine(
            seq, config, policy=policy, backend="numpy-batch", **kwargs
        ).run(events)
        return ref, batch

    def assert_bit_exact(self, ref, batch):
        assert batch.profile.votes_cast == ref.profile.votes_cast
        assert batch.profile.dropped_events == ref.profile.dropped_events
        assert batch.profile.n_keyframes == ref.profile.n_keyframes
        assert batch.profile.n_frames == ref.profile.n_frames
        assert len(batch.keyframes) == len(ref.keyframes)
        for a, b in zip(ref.keyframes, batch.keyframes):
            np.testing.assert_array_equal(a.depth_map.mask, b.depth_map.mask)
            np.testing.assert_array_equal(
                a.depth_map.confidence, b.depth_map.confidence
            )
        np.testing.assert_allclose(ref.cloud.points, batch.cloud.points, atol=0)

    def test_bit_exact_with_keyframes(self, seq_3planes_fast):
        seq = seq_3planes_fast
        events = seq.events.time_slice(0.4, 1.6)
        config = EMVSConfig(
            n_depth_planes=48, frame_size=1024, keyframe_distance=0.12
        )
        ref, batch = self.run_pair(seq, events, config)
        assert ref.profile.n_keyframes >= 2  # the fixture crosses segments
        self.assert_bit_exact(ref, batch)

    def test_bit_exact_bilinear(self, scene, config):
        seq, events = scene
        ref, batch = self.run_pair(seq, events, config, policy=ORIGINAL_POLICY)
        self.assert_bit_exact(ref, batch)

    @pytest.mark.parametrize("batch_frames", [1, 3, 64])
    def test_batch_frames_is_pure_scheduling(self, scene, config, batch_frames):
        import dataclasses

        seq, events = scene
        policy = dataclasses.replace(
            REFORMULATED_POLICY, batch_frames=batch_frames
        )
        ref, batch = self.run_pair(seq, events, config, policy=policy)
        self.assert_bit_exact(ref, batch)

    def test_batch_frames_validated(self):
        import dataclasses

        from repro.core.policy import DataflowPolicy

        with pytest.raises(ValueError, match="batch_frames"):
            DataflowPolicy(batch_frames=0)
        assert dataclasses.replace(
            REFORMULATED_POLICY, batch_frames=8
        ).batch_frames == 8

    def test_streaming_equals_batch_run(self, scene, config):
        seq, events = scene
        whole = make_engine(seq, config, backend="numpy-batch").run(events)
        streamed = make_engine(seq, config, backend="numpy-batch")
        boundaries = np.linspace(0, len(events), 9).astype(int)
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            streamed.push(events[int(a):int(b)])
        result = streamed.finish()
        assert result.profile.votes_cast == whole.profile.votes_cast
        np.testing.assert_allclose(
            result.cloud.points, whole.cloud.points, atol=0
        )

    def test_on_keyframe_fires_at_segment_close(self, scene, config):
        """Buffered frames must be flushed before the callback's detection."""
        seq, events = scene
        seen_ref, seen_batch = [], []
        make_engine(
            seq, config, backend="numpy-reference",
            on_keyframe=lambda kf: seen_ref.append(kf),
        ).run(events)
        make_engine(
            seq, config, backend="numpy-batch",
            on_keyframe=lambda kf: seen_batch.append(kf),
        ).run(events)
        assert len(seen_batch) == len(seen_ref) >= 1
        for a, b in zip(seen_ref, seen_batch):
            assert (a.n_events, a.n_frames) == (b.n_events, b.n_frames)
            np.testing.assert_array_equal(
                a.depth_map.confidence, b.depth_map.confidence
            )

    def test_ragged_frames_fall_back(self, scene, config):
        """Direct backend users may hand over mixed frame sizes."""
        from repro.events.packetizer import aggregate_frames

        seq, events = scene
        engine = make_engine(seq, config, backend="numpy-batch")
        frames = aggregate_frames(
            events, seq.trajectory, config.frame_size, drop_partial=False
        )[-3:]
        assert len({len(f) for f in frames}) > 1  # tail frame is partial
        engine.backend.start_reference(frames[0].T_wc)
        votes, misses = engine.backend.process_batch(frames)
        assert votes > 0
        flat_batch = engine.backend.read_dsi().scores.copy()

        ref = make_engine(seq, config, backend="numpy-reference")
        ref.backend.start_reference(frames[0].T_wc)
        for f in frames:
            ref.backend.process_frame(f)
        np.testing.assert_array_equal(flat_batch, ref.backend.read_dsi().scores)


class TestPreviewRematerialization:
    """Preview -> more votes -> finalize equals a no-preview run.

    ``numpy-batch`` defers vote materialization into the DSI, so
    ``read_dsi`` must be non-destructive and re-materialize correctly
    after further votes arrive mid-segment.
    """

    @pytest.mark.parametrize(
        "backend", ["numpy-reference", "numpy-batch"]
    )
    def test_interleaved_previews_do_not_perturb(self, scene, config, backend):
        seq, events = scene
        plain = make_engine(seq, config, backend=backend).run(events)
        probed = make_engine(seq, config, backend=backend)
        boundaries = np.linspace(0, len(events), 5).astype(int)
        previews = 0
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            probed.push(events[int(a):int(b)])
            if probed.preview_depth_map() is not None:
                previews += 1
        result = probed.finish()
        assert previews >= 2  # the probe actually forced mid-segment reads
        assert result.profile.votes_cast == plain.profile.votes_cast
        assert result.profile.dropped_events == plain.profile.dropped_events
        assert len(result.keyframes) == len(plain.keyframes)
        for a, b in zip(plain.keyframes, result.keyframes):
            np.testing.assert_array_equal(a.depth_map.mask, b.depth_map.mask)
            np.testing.assert_array_equal(
                a.depth_map.confidence, b.depth_map.confidence
            )
            np.testing.assert_array_equal(
                np.nan_to_num(a.depth_map.depth), np.nan_to_num(b.depth_map.depth)
            )
        np.testing.assert_allclose(
            result.cloud.points, plain.cloud.points, atol=0
        )

    @pytest.mark.parametrize("backend", ["numpy-batch"])
    def test_preview_is_consistent_snapshot(self, scene, config, backend):
        """A mid-segment preview equals the reference backend's preview."""
        seq, events = scene
        half = len(events) // 2
        engines = {}
        for name in ("numpy-reference", backend):
            engine = make_engine(seq, config, backend=name)
            engine.push(events[:half])
            engines[name] = engine.preview_depth_map()
        assert engines[backend] is not None
        np.testing.assert_array_equal(
            engines["numpy-reference"].confidence, engines[backend].confidence
        )
        np.testing.assert_array_equal(
            engines["numpy-reference"].mask, engines[backend].mask
        )
