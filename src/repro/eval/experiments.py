"""Reusable experiment runners for the paper's evaluation.

The benchmark harness (``benchmarks/``) and any downstream user regenerate
the paper's artifacts through these functions; each returns plain data
(dataclasses/dicts) that :mod:`repro.eval.reporting` can render.

====================  =====================================================
Function              Paper artifact
====================  =====================================================
``voting_experiment``        Fig. 4a (bilinear vs. nearest)
``quantization_experiment``  Fig. 4b (float vs. Table 1 quantization)
``reformulation_experiment`` Fig. 7a (original vs. fully reformulated)
``performance_summary``      Table 3 (CPU vs. Eventor models)
``resource_summary``         Table 2 (FPGA utilization)
====================  =====================================================

:func:`run_variant` is the single home of the ``(voting, quantized)`` →
dataflow-policy mapping the accuracy experiments share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.baseline.cpu_model import CPUTimingModel
from repro.core import (
    EMVSConfig,
    ORIGINAL_POLICY,
    REFORMULATED_POLICY,
    ReconstructionEngine,
)
from repro.core.voting import VotingMethod
from repro.eval.metrics import DepthMetrics, evaluate_reconstruction
from repro.fixedpoint.quantize import EVENTOR_SCHEMA, FLOAT_SCHEMA
from repro.hardware.config import EventorConfig
from repro.hardware.energy import PowerModel
from repro.hardware.resources import ResourceModel
from repro.hardware.timing import TimingModel


@dataclass(frozen=True)
class VariantComparison:
    """AbsRel comparison between two pipeline variants on one sequence."""

    sequence: str
    baseline: DepthMetrics
    variant: DepthMetrics

    @property
    def gap(self) -> float:
        """Signed AbsRel difference (variant - baseline)."""
        return self.variant.absrel - self.baseline.absrel


def run_variant(
    seq, events, voting: VotingMethod, quantized: bool, config: EMVSConfig
) -> DepthMetrics:
    """Reconstruct ``events`` under one (voting, quantization) variant.

    The fully-reformulated combination (nearest voting, quantized) runs
    :data:`REFORMULATED_POLICY` — streaming undistortion and integer DSI
    scores; every other combination is :data:`ORIGINAL_POLICY` with the
    voting kernel and quantization schema swapped in.
    """
    if quantized and voting is VotingMethod.NEAREST:
        policy = REFORMULATED_POLICY
    else:
        policy = replace(
            ORIGINAL_POLICY,
            voting=voting,
            schema=EVENTOR_SCHEMA if quantized else FLOAT_SCHEMA,
        )
    engine = ReconstructionEngine(
        seq.camera, seq.trajectory, config, seq.depth_range, policy=policy
    )
    return evaluate_reconstruction(engine.run(events), seq)


def voting_experiment(seq, events, config: EMVSConfig | None = None) -> VariantComparison:
    """Fig. 4a: bilinear (baseline) vs. nearest voting, full precision."""
    config = config or EMVSConfig(n_depth_planes=100)
    return VariantComparison(
        sequence=seq.name,
        baseline=run_variant(seq, events, VotingMethod.BILINEAR, False, config),
        variant=run_variant(seq, events, VotingMethod.NEAREST, False, config),
    )


def quantization_experiment(seq, events, config: EMVSConfig | None = None) -> VariantComparison:
    """Fig. 4b: full precision (baseline) vs. Table 1 quantization."""
    config = config or EMVSConfig(n_depth_planes=100)
    return VariantComparison(
        sequence=seq.name,
        baseline=run_variant(seq, events, VotingMethod.BILINEAR, False, config),
        variant=run_variant(seq, events, VotingMethod.BILINEAR, True, config),
    )


def reformulation_experiment(seq, events, config: EMVSConfig | None = None) -> VariantComparison:
    """Fig. 7a: original EMVS vs. the fully reformulated pipeline."""
    config = config or EMVSConfig(n_depth_planes=100)
    return VariantComparison(
        sequence=seq.name,
        baseline=run_variant(seq, events, VotingMethod.BILINEAR, False, config),
        variant=run_variant(seq, events, VotingMethod.NEAREST, True, config),
    )


def performance_summary(
    hw_config: EventorConfig | None = None,
) -> dict[str, dict[str, float]]:
    """Table 3 as a nested dict: metric -> {'cpu': ..., 'eventor': ...}."""
    cfg = hw_config or EventorConfig()
    cpu = CPUTimingModel.calibrated(n_planes=cfg.n_planes)
    tm = TimingModel(cfg)
    pm = PowerModel()
    ts = tm.task_seconds()
    return {
        "canonical_us": {
            "cpu": cpu.time_canonical(cfg.frame_size) * 1e6,
            "eventor": ts["P_Z0"] * 1e6,
        },
        "proportional_vote_us": {
            "cpu": cpu.time_proportional_and_vote(cfg.frame_size) * 1e6,
            "eventor": ts["P_Zi_R"] * 1e6,
        },
        "normal_frame_us": {
            "cpu": cpu.time_frame(cfg.frame_size) * 1e6,
            "eventor": tm.frame_seconds(False) * 1e6,
        },
        "key_frame_us": {
            "cpu": cpu.time_frame(cfg.frame_size) * 1e6,
            "eventor": tm.frame_seconds(True) * 1e6,
        },
        "rate_normal_mev": {
            "cpu": cpu.event_rate(cfg.frame_size) / 1e6,
            "eventor": tm.event_rate(False) / 1e6,
        },
        "rate_key_mev": {
            "cpu": cpu.event_rate(cfg.frame_size) / 1e6,
            "eventor": tm.event_rate(True) / 1e6,
        },
        "power_w": {
            "cpu": cpu.power_watts,
            "eventor": pm.total_watts(cfg),
        },
    }


def efficiency_gain(hw_config: EventorConfig | None = None) -> float:
    """The 24x headline: CPU-to-Eventor power ratio at iso-throughput."""
    summary = performance_summary(hw_config)
    return summary["power_w"]["cpu"] / summary["power_w"]["eventor"]


def resource_summary(hw_config: EventorConfig | None = None) -> dict[str, float]:
    """Table 2 as a flat dict (counts + utilization fractions)."""
    model = ResourceModel(hw_config or EventorConfig())
    totals = model.totals()
    util = model.utilization()
    return {
        "luts": totals.luts,
        "flip_flops": totals.flip_flops,
        "bram_kb": totals.bram_bytes / 1024,
        "lut_util": util["lut"],
        "ff_util": util["ff"],
        "bram_util": util["bram"],
    }
