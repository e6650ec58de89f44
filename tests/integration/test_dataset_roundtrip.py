"""Integration test: synthetic sequences survive dataset-format IO.

A sequence written in Event Camera Dataset layout and read back must
reconstruct to the same result — validating the IO layer end to end.
"""

import numpy as np
import pytest

from repro.core import EMVSConfig, ReconstructionEngine
from repro.events.davis_io import load_dataset_dir, save_dataset_dir


@pytest.fixture(scope="module")
def config():
    return EMVSConfig(n_depth_planes=48, frame_size=1024, keyframe_distance=None)


class TestRoundTrip:
    def test_reconstruction_equivalence(self, tmp_path_factory, seq_3planes_fast, config):
        seq = seq_3planes_fast
        events = seq.events.time_slice(0.9, 1.1)
        root = str(tmp_path_factory.mktemp("seq") / "simulation_3planes")
        save_dataset_dir(root, events, seq.trajectory, seq.camera)
        ev2, traj2, cam2 = load_dataset_dir(root)

        direct = ReconstructionEngine(
            seq.camera, seq.trajectory, config, seq.depth_range,
            policy="reformulated",
        ).run(events)
        loaded = ReconstructionEngine(
            cam2, traj2, config, seq.depth_range, policy="reformulated"
        ).run(ev2)

        # The text format stores coordinates at millipixels and poses at
        # nanometre precision; the reconstruction must agree to within a
        # fraction of a percent of detected points.
        assert loaded.n_points == pytest.approx(direct.n_points, rel=0.01)
        assert len(loaded.keyframes) == len(direct.keyframes)

    def test_event_stream_preserved(self, tmp_path_factory, seq_3planes_fast):
        seq = seq_3planes_fast
        events = seq.events.time_slice(1.0, 1.02)
        root = str(tmp_path_factory.mktemp("seq") / "x")
        save_dataset_dir(root, events, seq.trajectory, seq.camera)
        ev2, _, _ = load_dataset_dir(root)
        assert len(ev2) == len(events)
        np.testing.assert_allclose(ev2.t, events.t, atol=1e-8)
        np.testing.assert_array_equal(ev2.p, events.p)
