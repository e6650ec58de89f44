"""Eventor reproduction: event-based monocular multi-view stereo + FPGA accelerator model.

Full-system Python reproduction of *"Eventor: An Efficient Event-Based
Monocular Multi-View Stereo Accelerator on FPGA Platform"* (DAC 2022).

Packages
--------
:mod:`repro.geometry`
    SE(3), cameras, distortion, plane homographies, trajectories.
:mod:`repro.events`
    Event containers, aggregation, dataset IO, the event-camera simulator
    and the four evaluation-sequence replicas.
:mod:`repro.fixedpoint`
    Q-format fixed point and the paper's Table 1 quantization schema.
:mod:`repro.core`
    The EMVS algorithm: one streaming reconstruction engine running the
    original (bilinear, float) or reformulated (rescheduled, nearest
    voting, quantized) dataflow policy.
:mod:`repro.hardware`
    The Eventor accelerator model: bit-true PE datapaths, buffers, DRAM,
    the Fig. 6 frame scheduler, and timing/energy/resource models.
:mod:`repro.baseline`
    The Intel i5 CPU timing model Eventor is compared against.
:mod:`repro.eval`
    AbsRel metrics, experiment runners, table rendering.
:mod:`repro.serve`
    Multi-session reconstruction serving: shared worker pool, fair
    round-robin scheduling, backpressure, segment-level result caching.

Quick start
-----------
>>> from repro.events.datasets import load_sequence
>>> from repro.core import EMVSConfig, ReconstructionEngine
>>> seq = load_sequence("simulation_3planes", quality="fast")
>>> engine = ReconstructionEngine(
...     seq.camera, seq.trajectory, EMVSConfig(), seq.depth_range,
...     policy="reformulated",
... )
>>> result = engine.run(seq.events)
>>> len(result.cloud) > 0
True
"""

__version__ = "1.0.0"

__all__ = [
    "geometry",
    "events",
    "fixedpoint",
    "core",
    "hardware",
    "baseline",
    "eval",
    "serve",
]
