"""End-to-end integration tests for both EMVS dataflow policies.

Runs on a time slice of the fast ``simulation_3planes`` replica: large
enough for a meaningful reconstruction, small enough for CI.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import EMVSConfig, ORIGINAL_POLICY, ReconstructionEngine
from repro.core.voting import VotingMethod
from repro.eval.metrics import evaluate_reconstruction


def run(seq, events, config, policy):
    return ReconstructionEngine(
        seq.camera, seq.trajectory, config, seq.depth_range, policy=policy
    ).run(events)


@pytest.fixture(scope="module")
def subset(seq_3planes_fast):
    return seq_3planes_fast.events.time_slice(0.8, 1.2)


@pytest.fixture(scope="module")
def config():
    return EMVSConfig(n_depth_planes=64, frame_size=1024, keyframe_distance=None)


@pytest.fixture(scope="module")
def original_result(seq_3planes_fast, subset, config):
    return run(seq_3planes_fast, subset, config, "original")


@pytest.fixture(scope="module")
def reformulated_result(seq_3planes_fast, subset, config):
    return run(seq_3planes_fast, subset, config, "reformulated")


class TestOriginalPipeline:
    def test_produces_reconstruction(self, original_result):
        assert len(original_result.keyframes) == 1
        assert original_result.n_points > 500

    def test_profile_counts(self, original_result, subset, config):
        profile = original_result.profile
        expected_frames = len(subset) // config.frame_size
        assert profile.n_frames == expected_frames
        assert profile.n_events == expected_frames * config.frame_size
        assert profile.votes_cast > 0

    def test_accuracy_within_band(self, original_result, seq_3planes_fast):
        m = evaluate_reconstruction(original_result, seq_3planes_fast)
        # Semi-dense EMVS on this scene: single-digit percent AbsRel.
        assert m.absrel < 0.12
        assert m.n_points > 500

    def test_depth_estimates_inside_dsi_range(self, original_result, seq_3planes_fast):
        lo, hi = seq_3planes_fast.depth_range
        for kf in original_result.keyframes:
            depths = kf.depth_map.depths()
            assert np.all(depths >= lo - 1e-9)
            assert np.all(depths <= hi + 1e-9)

    def test_cloud_bounding_box_sane(self, original_result):
        lo, hi = original_result.cloud.bounding_box()
        # The 3planes scene spans roughly [-1.2, 1.2] x [-1, 1] x [1, 2.6].
        assert lo[2] > 0.5
        assert hi[2] < 4.0


class TestReformulatedPolicy:
    def test_produces_reconstruction(self, reformulated_result):
        assert reformulated_result.n_points > 500

    def test_accuracy_close_to_original(
        self, original_result, reformulated_result, seq_3planes_fast
    ):
        """The Fig. 7a claim: reformulation costs at most ~2 % AbsRel."""
        m_orig = evaluate_reconstruction(original_result, seq_3planes_fast)
        m_ref = evaluate_reconstruction(reformulated_result, seq_3planes_fast)
        assert abs(m_ref.absrel - m_orig.absrel) < 0.03

    def test_integer_scores(self, reformulated_result):
        # Nearest voting with integral votes: counts are whole numbers.
        assert reformulated_result.profile.votes_cast == int(
            reformulated_result.profile.votes_cast
        )

    def test_deterministic(self, seq_3planes_fast, subset, config):
        a = run(seq_3planes_fast, subset, config, "reformulated")
        b = run(seq_3planes_fast, subset, config, "reformulated")
        assert a.n_points == b.n_points
        np.testing.assert_array_equal(
            a.keyframes[0].depth_map.mask, b.keyframes[0].depth_map.mask
        )


class TestKeyframing:
    def test_multiple_keyframes_with_threshold(self, seq_3planes_fast, config):
        events = seq_3planes_fast.events.time_slice(0.3, 1.7)
        cfg = EMVSConfig(
            n_depth_planes=64, frame_size=1024, keyframe_distance=0.12
        )
        result = run(seq_3planes_fast, events, cfg, "reformulated")
        assert len(result.keyframes) >= 2
        assert result.profile.n_keyframes >= 2
        # Each keyframe carries its own reference pose.
        refs = [kf.T_w_ref.translation[0] for kf in result.keyframes]
        assert len(set(np.round(refs, 6))) == len(refs)

    def test_merged_cloud_grows_with_keyframes(self, seq_3planes_fast):
        events = seq_3planes_fast.events.time_slice(0.3, 1.7)
        cfg = EMVSConfig(n_depth_planes=64, frame_size=1024, keyframe_distance=0.12)
        result = run(seq_3planes_fast, events, cfg, "reformulated")
        total = sum(kf.depth_map.n_points for kf in result.keyframes)
        assert result.n_points == total


class TestVotingAblation:
    def test_nearest_close_to_bilinear(self, seq_3planes_fast, subset, config):
        """The Fig. 4a claim: nearest voting costs ~1 % AbsRel."""
        bil = run(
            seq_3planes_fast, subset, config,
            replace(ORIGINAL_POLICY, voting=VotingMethod.BILINEAR),
        )
        near = run(
            seq_3planes_fast, subset, config,
            replace(ORIGINAL_POLICY, voting=VotingMethod.NEAREST),
        )
        m_b = evaluate_reconstruction(bil, seq_3planes_fast)
        m_n = evaluate_reconstruction(near, seq_3planes_fast)
        # The paper's gap is ~1.2 % on real data; at this test's coarse
        # 64-plane DSI and fast-quality replica the gap widens somewhat.
        assert abs(m_n.absrel - m_b.absrel) < 0.035
