"""Unit tests for the reusable experiment runners."""

import pytest

from repro.core import ReconstructionEngine
from repro.core.policy import CorrectionScheduling
from repro.core.voting import VotingMethod
from repro.eval import experiments
from repro.eval.experiments import (
    efficiency_gain,
    performance_summary,
    resource_summary,
)
from repro.hardware.config import EventorConfig


class TestPerformanceSummary:
    def test_contains_all_table3_rows(self):
        summary = performance_summary()
        expected = {
            "canonical_us",
            "proportional_vote_us",
            "normal_frame_us",
            "key_frame_us",
            "rate_normal_mev",
            "rate_key_mev",
            "power_w",
        }
        assert set(summary) == expected
        for metric in summary.values():
            assert set(metric) == {"cpu", "eventor"}

    def test_paper_values(self):
        s = performance_summary()
        assert s["canonical_us"]["cpu"] == pytest.approx(22.40, abs=0.01)
        assert s["canonical_us"]["eventor"] == pytest.approx(8.24, abs=0.01)
        assert s["normal_frame_us"]["eventor"] == pytest.approx(551.58, abs=0.5)
        assert s["power_w"]["eventor"] == pytest.approx(1.86)

    def test_efficiency_gain(self):
        assert efficiency_gain() == pytest.approx(24.2, abs=0.3)

    def test_respects_configuration(self):
        small = performance_summary(EventorConfig(n_planes=64))
        default = performance_summary()
        assert (
            small["proportional_vote_us"]["eventor"]
            < default["proportional_vote_us"]["eventor"]
        )


class TestResourceSummary:
    def test_paper_values(self):
        r = resource_summary()
        assert r["luts"] == 17538
        assert r["flip_flops"] == 22830
        assert r["bram_kb"] == 64
        assert r["lut_util"] == pytest.approx(0.3297, abs=2e-4)

    def test_scales_with_pes(self):
        big = resource_summary(EventorConfig(n_pe_zi=4))
        assert big["luts"] > 17538


class TestVariantExperiments:
    """End-to-end variant runners on a tiny slice (smoke-level)."""

    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "quant"])
    @pytest.mark.parametrize(
        "voting", [VotingMethod.BILINEAR, VotingMethod.NEAREST],
        ids=["bilinear", "nearest"],
    )
    def test_run_variant_policy(
        self, seq_3planes_fast, monkeypatch, voting, quantized
    ):
        """Only nearest + quantized is the fully reformulated dataflow;
        every other variant keeps the original per-frame correction."""
        from repro.core import EMVSConfig

        seen = []

        class RecordingEngine(ReconstructionEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self.policy)

        monkeypatch.setattr(experiments, "ReconstructionEngine", RecordingEngine)
        events = seq_3planes_fast.events.time_slice(0.95, 1.1)
        metrics = experiments.run_variant(
            seq_3planes_fast, events, voting, quantized,
            EMVSConfig(n_depth_planes=32),
        )
        (policy,) = seen
        reformulated = quantized and voting is VotingMethod.NEAREST
        assert policy.voting is voting
        assert policy.schema.enabled is quantized
        assert policy.integer_scores is reformulated
        assert policy.correction is (
            CorrectionScheduling.PER_EVENT
            if reformulated
            else CorrectionScheduling.PER_FRAME
        )
        assert metrics.n_points > 0

    def test_voting_experiment(self, seq_3planes_fast):
        from repro.core import EMVSConfig
        from repro.eval.experiments import voting_experiment

        events = seq_3planes_fast.events.time_slice(0.95, 1.1)
        cmp = voting_experiment(
            seq_3planes_fast, events, EMVSConfig(n_depth_planes=48)
        )
        assert cmp.sequence == "simulation_3planes"
        assert 0 <= cmp.baseline.absrel < 0.5
        assert abs(cmp.gap) < 0.1

    def test_reformulation_experiment(self, seq_3planes_fast):
        from repro.core import EMVSConfig
        from repro.eval.experiments import reformulation_experiment

        events = seq_3planes_fast.events.time_slice(0.95, 1.1)
        cmp = reformulation_experiment(
            seq_3planes_fast, events, EMVSConfig(n_depth_planes=48)
        )
        assert cmp.variant.n_points > 100
