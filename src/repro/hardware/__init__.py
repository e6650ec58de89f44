"""Eventor accelerator model (Fig. 5 of the paper).

A transaction-level, cycle-approximate model of the Zynq XC7Z020 design:
functional datapaths are *bit-true* (integer fixed-point arithmetic per
Table 1, identical results to a :class:`repro.core.ReconstructionEngine`
run under the reformulated policy), and timing follows the pipelined
execution model of Fig. 6 with constants calibrated to the published
Table 3 runtimes.

Top-level entry point: :class:`repro.hardware.accelerator.EventorSystem`.
"""

from repro.hardware.config import EventorConfig, ZYNQ_7020
from repro.hardware.accelerator import EventorSystem, HardwareReport
from repro.hardware.backend import HardwareBackend
from repro.hardware.scheduler import FrameScheduler, TimelineEntry
from repro.hardware.timing import TimingModel, FrameTiming
from repro.hardware.energy import PowerModel
from repro.hardware.resources import ResourceModel, FPGAPart

__all__ = [
    "EventorConfig",
    "ZYNQ_7020",
    "EventorSystem",
    "HardwareReport",
    "HardwareBackend",
    "FrameScheduler",
    "TimelineEntry",
    "TimingModel",
    "FrameTiming",
    "PowerModel",
    "ResourceModel",
    "FPGAPart",
]
