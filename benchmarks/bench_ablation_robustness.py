"""Robustness ablations — pose noise and frame-size sensitivity.

EMVS consumes a *known* trajectory; a real deployment feeds it tracker
estimates.  The pose-noise sweep quantifies how AbsRel degrades with
Gaussian pose error, bounding the tracker accuracy an Eventor-based system
needs.  The frame-size sweep probes the paper's choice of 1024 events per
frame: accuracy is essentially flat (the pose-per-frame approximation only
bites once frames span visible motion), so the choice is driven by buffer
sizing and DMA efficiency — as Sec. 4.1 states.
"""

import pytest

from benchmarks.conftest import eval_events, write_result
from repro.core import EMVSConfig, ReconstructionEngine
from repro.eval.metrics import evaluate_reconstruction
from repro.eval.reporting import Table
from repro.hardware.config import EventorConfig
from repro.hardware.timing import TimingModel

_CACHE: dict = {}


def _pose_noise_sweep(sequences):
    seq = sequences["simulation_3planes"]
    events = eval_events(seq)
    config = EMVSConfig(n_depth_planes=100, frame_size=1024)
    rows = []
    for noise_mm in (0.0, 1.0, 3.0, 10.0):
        trajectory = seq.trajectory.perturbed(
            translation_std=noise_mm * 1e-3, rotation_std=noise_mm * 2e-4, seed=7
        )
        engine = ReconstructionEngine(
            seq.camera, trajectory, config, seq.depth_range, policy="reformulated"
        )
        metrics = evaluate_reconstruction(engine.run(events), seq)
        rows.append((noise_mm, metrics))
    return rows


@pytest.mark.benchmark(group="robustness")
def test_pose_noise_sweep(benchmark, sequences):
    rows = benchmark.pedantic(
        lambda: _pose_noise_sweep(sequences), rounds=1, iterations=1
    )
    _CACHE["pose_rows"] = rows
    table = Table(
        "Ablation — AbsRel vs. trajectory noise (simulation_3planes)",
        ["pose noise (mm / 0.2mrad)", "AbsRel", "points"],
    )
    for noise_mm, m in rows:
        table.add_row(f"{noise_mm:.0f}", f"{m.absrel:.2%}", m.n_points)
    table.add_note(
        "EMVS tolerates millimetre-level pose error; accuracy collapses "
        "once noise approaches the voxel footprint at scene depth"
    )
    write_result("ablation_pose_noise", table.render())

    clean = rows[0][1].absrel
    mild = rows[1][1].absrel
    heavy = rows[-1][1].absrel
    # Millimetre noise is benign; centimetre noise visibly degrades.
    assert mild < clean + 0.03
    assert heavy > clean


def test_pose_noise_monotone_trend(sequences):
    rows = _CACHE.get("pose_rows") or _pose_noise_sweep(sequences)
    _CACHE["pose_rows"] = rows
    absrels = [m.absrel for _, m in rows]
    # The trend over a 10x noise range is upward (allowing local jitter).
    assert absrels[-1] > absrels[0]


def _frame_size_sweep(sequences):
    seq = sequences["simulation_3planes"]
    events = eval_events(seq)
    rows = []
    for frame_size in (256, 1024, 4096):
        config = EMVSConfig(n_depth_planes=128, frame_size=frame_size)
        engine = ReconstructionEngine(
            seq.camera, seq.trajectory, config, seq.depth_range,
            policy="reformulated",
        )
        metrics = evaluate_reconstruction(engine.run(events), seq)
        cfg = EventorConfig(frame_size=frame_size)
        rate = TimingModel(cfg).event_rate(False)
        rows.append((frame_size, metrics, rate))
    return rows


@pytest.mark.benchmark(group="robustness")
def test_frame_size_sweep(benchmark, sequences):
    rows = benchmark.pedantic(
        lambda: _frame_size_sweep(sequences), rounds=1, iterations=1
    )
    table = Table(
        "Ablation — frame size (accuracy & modeled throughput)",
        ["events/frame", "AbsRel", "points", "Mev/s (model)"],
    )
    for frame_size, m, rate in rows:
        table.add_row(frame_size, f"{m.absrel:.2%}", m.n_points, f"{rate / 1e6:.3f}")
    table.add_note(
        "accuracy is stable through 1024 events/frame; very large frames "
        "start paying the one-pose-per-frame approximation, and 1024 also "
        "balances buffer cost against pipeline-fill amortization (Sec. 4.1)"
    )
    write_result("ablation_frame_size", table.render())

    absrels = [m.absrel for _, m, _ in rows]
    assert max(absrels) - min(absrels) < 0.02  # flat in accuracy
    rates = [rate for _, _, rate in rows]
    assert rates[2] > rates[0]  # larger frames amortize fill slightly
