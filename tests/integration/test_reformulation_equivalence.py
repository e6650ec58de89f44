"""Integration tests: the Fig. 3 rescheduling is functionally exact.

Eventor's dataflow reformulation moves two computations without changing
their results: distortion correction runs per event *before* aggregation
(instead of per frame after it), and the proportional coefficients φ are
pre-computed before ``P(Z0)`` (instead of between the projection stages).
This suite proves the claim on a lens-distorted sensor: the original and
rescheduled orderings produce identical events, frames and depth maps;
only voting approximation and quantization (tested elsewhere) change
numbers.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import EMVSConfig, ORIGINAL_POLICY, ReconstructionEngine
from repro.core.voting import VotingMethod
from repro.events.containers import EventArray
from repro.fixedpoint.quantize import EVENTOR_SCHEMA
from repro.geometry.camera import PinholeCamera


@pytest.fixture(scope="module")
def distorted_setup(seq_slider_close_fast):
    """A lens-distorted view of the slider scene.

    The replica is simulated with ideal pinhole geometry; applying the
    forward distortion model to its event coordinates produces exactly
    what a distorted sensor would have measured, so the undistortion
    stages of both pipelines have real work to do.
    """
    seq = seq_slider_close_fast
    camera = PinholeCamera.davis240c(distorted=True)
    events = seq.events.time_slice(0.7, 0.9)
    rays = camera.back_project(events.xy, undistort=False)
    xd, yd = camera.distortion.distort(rays[:, 0], rays[:, 1])
    raw_xy = np.stack(
        [camera.fx * xd + camera.cx, camera.fy * yd + camera.cy], axis=1
    )
    raw = events.with_coordinates(raw_xy).crop_to_sensor(
        camera.width, camera.height
    )
    return seq, camera, raw


class TestDistortionRescheduling:
    def test_streaming_equals_batched_correction(self, distorted_setup):
        """Per-event (streaming) undistortion == per-frame (batch)."""
        _, camera, raw = distorted_setup
        streaming = camera.undistort_pixels(raw.xy)
        batched_parts = [
            camera.undistort_pixels(chunk)
            for chunk in np.array_split(raw.xy, 23)
        ]
        np.testing.assert_array_equal(streaming, np.vstack(batched_parts))

    def test_pipelines_identical_up_to_voting(self, distorted_setup):
        """With voting and quantization held equal, the original and
        rescheduled pipelines produce the same reconstruction."""
        seq, camera, raw = distorted_setup
        config = EMVSConfig(n_depth_planes=64, frame_size=1024)

        original_order = ReconstructionEngine(
            camera,
            seq.trajectory,
            config,
            seq.depth_range,
            policy=replace(
                ORIGINAL_POLICY, voting=VotingMethod.NEAREST, schema=EVENTOR_SCHEMA
            ),
        ).run(raw)
        rescheduled = ReconstructionEngine(
            camera, seq.trajectory, config, seq.depth_range, policy="reformulated"
        ).run(raw)

        assert len(original_order.keyframes) == len(rescheduled.keyframes)
        for a, b in zip(original_order.keyframes, rescheduled.keyframes):
            np.testing.assert_array_equal(a.depth_map.mask, b.depth_map.mask)
            np.testing.assert_array_equal(
                a.depth_map.confidence, b.depth_map.confidence
            )
        assert original_order.n_points == rescheduled.n_points

    def test_undistortion_actually_matters(self, distorted_setup):
        """Sanity: skipping the correction changes the result (the test
        above is not vacuous)."""
        seq, camera, raw = distorted_setup
        config = EMVSConfig(n_depth_planes=64, frame_size=1024)
        ideal_camera = PinholeCamera.davis240c(distorted=False)

        corrected = ReconstructionEngine(
            camera, seq.trajectory, config, seq.depth_range, policy="reformulated"
        ).run(raw)
        uncorrected = ReconstructionEngine(
            ideal_camera, seq.trajectory, config, seq.depth_range,
            policy="reformulated",
        ).run(raw)
        assert corrected.profile.votes_cast != uncorrected.profile.votes_cast


class TestPhiPrecompute:
    def test_phi_independent_of_events(self, distorted_setup):
        """φ depends only on the frame pose — pre-computing it before the
        canonical projection (the rescheduling) cannot change it."""
        from repro.core.backprojection import BackProjector
        from repro.core.dsi import depth_planes

        seq, camera, raw = distorted_setup
        pose = seq.trajectory.sample(0.8)
        proj = BackProjector(
            camera,
            seq.trajectory.sample(0.7),
            depth_planes(*seq.depth_range, 64),
            schema=EVENTOR_SCHEMA,
        )
        a = proj.frame_parameters(pose)
        # "Processing events" in between (any amount) leaves φ unchanged.
        proj.canonical(a, raw.xy[:2048])
        b = proj.frame_parameters(pose)
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.H_Z0, b.H_Z0)
