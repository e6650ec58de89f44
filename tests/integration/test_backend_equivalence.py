"""Engine-level backend equivalence: one front-end, four substrates.

The acceptance bar of the engine refactor: under ``EVENTOR_SCHEMA`` the
``numpy-reference`` and ``hardware-model`` backends produce *identical*
depth maps through the same :class:`ReconstructionEngine` front-end, and
``numpy-batch`` / ``native-batch`` are bit-exact with ``numpy-reference``
while executing whole buffered frame batches as fused array passes
(across every voting method × correction scheduling combination,
including identical profile counters).
"""

import numpy as np
import pytest

from repro.core import EMVSConfig, ReconstructionEngine, REFORMULATED_POLICY
from repro.core.engine import BACKENDS
from repro.core.policy import CorrectionScheduling, DataflowPolicy
from repro.core.voting import VotingMethod
from repro.fixedpoint.quantize import EVENTOR_SCHEMA, FLOAT_SCHEMA
from repro.hardware.backend import HardwareBackend


@pytest.fixture(scope="module")
def setup(seq_3planes_fast):
    seq = seq_3planes_fast
    events = seq.events.time_slice(0.9, 1.1)
    config = EMVSConfig(n_depth_planes=64, frame_size=1024, keyframe_distance=None)
    return seq, events, config


def run_backend(setup, backend):
    seq, events, config = setup
    engine = ReconstructionEngine(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        policy=REFORMULATED_POLICY,
        backend=backend,
    )
    return engine, engine.run(events)


@pytest.fixture(scope="module")
def reference(setup):
    return run_backend(setup, "numpy-reference")[1]


@pytest.fixture(scope="module")
def hardware(setup):
    return run_backend(setup, "hardware-model")


class TestHardwareBackendBitExact:
    """numpy-reference vs hardware-model under EVENTOR_SCHEMA."""

    def test_identical_depth_maps(self, reference, hardware):
        _, hw = hardware
        assert len(hw.keyframes) == len(reference.keyframes)
        for sw_kf, hw_kf in zip(reference.keyframes, hw.keyframes):
            np.testing.assert_array_equal(sw_kf.depth_map.mask, hw_kf.depth_map.mask)
            np.testing.assert_array_equal(
                sw_kf.depth_map.confidence, hw_kf.depth_map.confidence
            )
            np.testing.assert_array_equal(
                np.nan_to_num(sw_kf.depth_map.depth),
                np.nan_to_num(hw_kf.depth_map.depth),
            )

    def test_identical_vote_and_event_counts(self, reference, hardware):
        _, hw = hardware
        assert hw.profile.votes_cast == reference.profile.votes_cast
        assert hw.profile.n_events == reference.profile.n_events
        assert hw.profile.dropped_events == reference.profile.dropped_events

    def test_identical_clouds(self, reference, hardware):
        _, hw = hardware
        np.testing.assert_allclose(
            reference.cloud.points, hw.cloud.points, atol=1e-12
        )

    def test_report_available_from_backend(self, hardware):
        engine, result = hardware
        assert isinstance(engine.backend, HardwareBackend)
        report = engine.backend.report()
        assert report.votes == result.profile.votes_cast
        assert report.frames == result.profile.n_frames
        assert report.total_cycles > 0

    def test_engine_matches_eventor_system_run(self, setup, hardware):
        """EventorSystem.run is the same engine + backend composition."""
        from repro.hardware import EventorConfig, EventorSystem

        seq, events, config = setup
        _, engine_result = hardware
        system = EventorSystem(
            seq.camera,
            config,
            depth_range=seq.depth_range,
            hw_config=EventorConfig(n_planes=64),
        )
        sys_result, report = system.run(events, seq.trajectory)
        assert sys_result.n_points == engine_result.n_points
        assert report.votes == engine_result.profile.votes_cast


#: The full voting × correction design-space corners the batch backend
#: must reproduce bit-exactly.  Quantization follows the pairing the
#: presets use (quantized nearest, float bilinear) plus the two crossed
#: corners, so both schemas appear under both schedulings.
BATCH_POLICIES = [
    DataflowPolicy(
        correction=CorrectionScheduling.PER_EVENT,
        voting=VotingMethod.NEAREST,
        schema=EVENTOR_SCHEMA,
        integer_scores=True,
        name="nearest/per-event",
    ),
    DataflowPolicy(
        correction=CorrectionScheduling.PER_FRAME,
        voting=VotingMethod.NEAREST,
        schema=FLOAT_SCHEMA,
        integer_scores=False,
        name="nearest/per-frame",
    ),
    DataflowPolicy(
        correction=CorrectionScheduling.PER_FRAME,
        voting=VotingMethod.BILINEAR,
        schema=FLOAT_SCHEMA,
        integer_scores=False,
        name="bilinear/per-frame",
    ),
    DataflowPolicy(
        correction=CorrectionScheduling.PER_EVENT,
        voting=VotingMethod.BILINEAR,
        schema=EVENTOR_SCHEMA,
        integer_scores=True,
        name="bilinear/per-event",
    ),
]


def run_policy(seq, policy, backend):
    """Run ``backend`` under ``policy`` over a multi-keyframe slice."""
    events = seq.events.time_slice(0.4, 1.6)
    config = EMVSConfig(n_depth_planes=64, frame_size=1024, keyframe_distance=0.12)
    engine = ReconstructionEngine(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        policy=policy,
        backend=backend,
    )
    return engine.run(events)


@pytest.fixture(scope="module", params=BATCH_POLICIES, ids=lambda p: p.name)
def policy_reference(request, seq_3planes_fast):
    """``(policy, numpy-reference result)`` for one policy corner.

    Module-scoped, so the batch and native classes compare against one
    reference run per corner instead of recomputing it per backend.
    """
    policy = request.param
    return policy, run_policy(seq_3planes_fast, policy, "numpy-reference")


def assert_backend_bit_exact(seq, policy_reference, backend):
    """Run ``backend`` and compare it bitwise with ``numpy-reference``.

    The shared acceptance check of the batching substrates: identical
    profile counters, depth maps and global map across a multi-keyframe
    slice under the given policy corner.
    """
    policy, ref = policy_reference
    other = run_policy(seq, policy, backend)

    # Identical profile counters...
    assert other.profile.votes_cast == ref.profile.votes_cast
    assert other.profile.dropped_events == ref.profile.dropped_events
    assert other.profile.n_keyframes == ref.profile.n_keyframes
    assert other.profile.n_frames == ref.profile.n_frames
    assert other.profile.n_events == ref.profile.n_events
    assert ref.profile.n_keyframes >= 2  # the slice crosses segments

    # ...identical depth maps (bitwise, not approximately)...
    assert len(other.keyframes) == len(ref.keyframes)
    for sw_kf, bt_kf in zip(ref.keyframes, other.keyframes):
        np.testing.assert_array_equal(sw_kf.depth_map.mask, bt_kf.depth_map.mask)
        np.testing.assert_array_equal(
            sw_kf.depth_map.confidence, bt_kf.depth_map.confidence
        )
        np.testing.assert_array_equal(
            np.nan_to_num(sw_kf.depth_map.depth),
            np.nan_to_num(bt_kf.depth_map.depth),
        )

    # ...and an identical map.
    np.testing.assert_array_equal(ref.cloud.points, other.cloud.points)


class TestBatchBackendBitExact:
    """numpy-batch vs numpy-reference over the whole policy design space."""

    def test_bit_exact_across_policies(self, seq_3planes_fast, policy_reference):
        assert_backend_bit_exact(seq_3planes_fast, policy_reference, "numpy-batch")

    def test_matches_hardware_model(self, setup, reference):
        """Transitivity check: batch == reference == hardware datapath."""
        _, batch = run_backend(setup, "numpy-batch")
        assert batch.profile.votes_cast == reference.profile.votes_cast
        for a, b in zip(reference.keyframes, batch.keyframes):
            np.testing.assert_array_equal(a.depth_map.mask, b.depth_map.mask)
            np.testing.assert_array_equal(
                a.depth_map.confidence, b.depth_map.confidence
            )


@pytest.mark.skipif(
    "native-batch" not in BACKENDS,
    reason="no native kernel provider on this host",
)
class TestNativeBackendBitExact:
    """native-batch vs numpy-reference over the whole policy design space.

    The compiled backend's acceptance bar: the same bitwise comparison
    the numpy batch backend passes, across every voting × correction ×
    schema corner — the φ tables, fused nearest scatter and bilinear
    corner accumulation all run in compiled code, yet no count, weight
    or counter may differ.
    """

    def test_bit_exact_across_policies(self, seq_3planes_fast, policy_reference):
        assert_backend_bit_exact(seq_3planes_fast, policy_reference, "native-batch")

    def test_matches_hardware_model(self, setup, reference):
        """Transitivity check: native == reference == hardware datapath."""
        _, native = run_backend(setup, "native-batch")
        assert native.profile.votes_cast == reference.profile.votes_cast
        for a, b in zip(reference.keyframes, native.keyframes):
            np.testing.assert_array_equal(a.depth_map.mask, b.depth_map.mask)
            np.testing.assert_array_equal(
                a.depth_map.confidence, b.depth_map.confidence
            )

    def test_process_pool_round_trip(self, seq_3planes_fast):
        """A pickled EngineSpec naming native-batch runs in process workers."""
        from repro.core import EngineSpec, MappingOrchestrator

        seq = seq_3planes_fast
        events = seq.events.time_slice(0.4, 1.6)
        config = EMVSConfig(
            n_depth_planes=64, frame_size=1024, keyframe_distance=0.12
        )
        spec = EngineSpec(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            backend="native-batch",
        )
        import pickle

        # The spec carries the backend by registry *name*, so it pickles
        # without dragging kernel handles along; the restored copy must
        # build a live native engine in this process too.
        restored = pickle.loads(pickle.dumps(spec))
        assert restored.backend == "native-batch"
        assert type(restored.build().backend).__name__ == "NativeBatchBackend"

        single = spec.build().run(events)
        orchestrator = MappingOrchestrator(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            backend="native-batch",
            workers=2,
        )
        mapped = orchestrator.run(events)
        assert mapped.workers == 2
        assert len(mapped.segments) == len(single.keyframes) >= 2
        assert mapped.profile.votes_cast == single.profile.votes_cast
        assert mapped.profile.n_events == single.profile.n_events
        for solo_kf, pool_kf in zip(single.keyframes, mapped.keyframes):
            np.testing.assert_array_equal(
                np.nan_to_num(solo_kf.depth_map.depth),
                np.nan_to_num(pool_kf.depth_map.depth),
            )
