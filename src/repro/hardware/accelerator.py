"""Eventor top level: the FPGA/ARM heterogeneous system (Fig. 5).

:class:`EventorSystem` executes the full reformulated EMVS dataflow with
the responsibilities split exactly as in the paper:

**ARM (PS) side** — streaming event distortion correction, event
aggregation, key-frame selection, per-frame computation of ``H_Z0`` and
the proportional coefficients φ, DMA configuration, and — after each key
segment — scene-structure detection and map merging on the DSI read back
from DRAM.

**FPGA (PL) side** — PE_Z0 (canonical back-projection), the Data
Allocator feeding ``n`` PE_Zi (proportional back-projection + vote-address
generation), and the Vote Execute Unit performing saturating RMW votes in
DRAM, all driven through double-buffered BRAM buffers and the two FSM
controllers, scheduled per Fig. 6.

The functional output (DSI contents, depth maps, point cloud) is bit-exact
with a :class:`repro.core.ReconstructionEngine` run under the reformulated
policy; on top of that the system produces a :class:`HardwareReport` with
cycle-level timing, DRAM traffic, energy and utilization — the numbers
behind Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.backprojection import BackProjector
from repro.core.config import EMVSConfig
from repro.core.dsi import DSI, depth_planes
from repro.core.engine import ReconstructionEngine
from repro.core.results import EMVSResult
from repro.core.policy import REFORMULATED_POLICY
from repro.events.containers import EventArray
from repro.fixedpoint.quantize import EVENTOR_SCHEMA, QuantizationSchema, pack_event_word, unpack_event_word
from repro.geometry.camera import PinholeCamera
from repro.geometry.trajectory import Trajectory
from repro.hardware.axi import DMAEngine
from repro.hardware.buffers import make_eventor_buffers
from repro.hardware.config import EventorConfig
from repro.hardware.controller import (
    CanonicalProjectionController,
    CtrlState,
    ProportionalProjectionController,
)
from repro.hardware.dram import DRAMModel
from repro.hardware.energy import PowerModel
from repro.hardware.pe_z0 import PEZ0
from repro.hardware.pe_zi import PEZi, split_planes
from repro.hardware.scheduler import ScheduleResult
from repro.hardware.timing import TimingModel
from repro.hardware.vote_unit import VoteExecuteUnit


@dataclass
class HardwareReport:
    """Cycle/energy/traffic accounting of one accelerator run."""

    total_cycles: float = 0.0
    frames: int = 0
    keyframes: int = 0
    events: int = 0
    votes: int = 0
    dram_bytes: int = 0
    dma_bytes: int = 0
    dsi_reset_seconds: float = 0.0
    schedule: ScheduleResult | None = None
    power_watts: float = 0.0
    clock_hz: float = 130e6
    task_seconds: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def event_rate(self) -> float:
        """Sustained events/second over the accelerated portion."""
        if self.total_seconds <= 0:
            return 0.0
        return self.events / self.total_seconds

    @property
    def energy_joules(self) -> float:
        return self.power_watts * self.total_seconds

    @property
    def energy_per_event(self) -> float:
        return self.energy_joules / self.events if self.events else 0.0


class EventorSystem:
    """The heterogeneous accelerator (functional + timing model).

    Parameters
    ----------
    camera:
        Sensor calibration.
    emvs_config:
        Algorithm parameters; ``frame_size`` must match the hardware
        configuration.
    depth_range:
        DSI depth bounds.
    hw_config:
        Architecture parameters (clock, PEs, formats are fixed by Table 1).
    schema:
        Quantization schema (the Table 1 default).
    """

    def __init__(
        self,
        camera: PinholeCamera,
        emvs_config: EMVSConfig | None = None,
        depth_range: tuple[float, float] = (0.5, 5.0),
        hw_config: EventorConfig | None = None,
        schema: QuantizationSchema = EVENTOR_SCHEMA,
    ):
        self.camera = camera
        self.hw_config = hw_config or EventorConfig()
        self.emvs_config = emvs_config or EMVSConfig(
            n_depth_planes=self.hw_config.n_planes,
            frame_size=self.hw_config.frame_size,
        )
        if self.emvs_config.frame_size != self.hw_config.frame_size:
            raise ValueError(
                "algorithm frame_size must match the hardware buffer sizing"
            )
        if self.emvs_config.n_depth_planes != self.hw_config.n_planes:
            raise ValueError("algorithm Nz must match the hardware plane count")
        if not schema.enabled:
            raise ValueError("the accelerator datapath is quantized by design")
        self.schema = schema
        self.depth_range = depth_range
        self.depths = depth_planes(
            depth_range[0],
            depth_range[1],
            self.emvs_config.n_depth_planes,
            self.emvs_config.depth_sampling,
        )

        # --- PL-side blocks -------------------------------------------
        cfg = self.hw_config
        self.dram = DRAMModel(cfg.dram_bytes, cfg.dma_bus_bits, cfg.ddr_clock_hz)
        self.dma = DMAEngine(bus_bits=cfg.dma_bus_bits)
        self.buffers = make_eventor_buffers(cfg.frame_size, cfg.n_planes)
        self.pe_z0 = PEZ0(latency=cfg.pe_z0_latency)
        self.pe_zi = [
            PEZi(
                plane_indices=planes,
                sensor_width=camera.width,
                sensor_height=camera.height,
                latency=cfg.pe_zi_latency,
            )
            for planes in split_planes(cfg.n_planes, cfg.n_pe_zi)
        ]
        self.vote_unit = VoteExecuteUnit(
            self.dram, n_ports=cfg.n_vote_ports, stall_fraction=cfg.vote_stall_fraction
        )
        self.canonical_ctrl = CanonicalProjectionController()
        self.proportional_ctrl = ProportionalProjectionController()
        self.timing = TimingModel(cfg)
        self.power = PowerModel()

    # ------------------------------------------------------------------
    # ARM-side helpers
    # ------------------------------------------------------------------
    def read_out_dsi(self, T_w_ref) -> DSI:
        """ARM reads the voted DSI back from DRAM for detection."""
        scores = self.dram.read_dsi()
        dsi = DSI(
            self.camera,
            T_w_ref,
            self.depths,
            integer_scores=True,
            score_limit=self.schema.dsi_score.raw_max,
        )
        dsi.scores[...] = scores
        return dsi

    # ------------------------------------------------------------------
    # One frame through the PL datapath
    # ------------------------------------------------------------------
    def process_frame_on_fpga(
        self, projector: BackProjector, frame, scheduler, cycle: float
    ) -> tuple[int, int]:
        """Functional + timing execution of one event frame.

        Returns ``(votes, misses)``: votes applied to the DSI and events
        the projection-miss judgement rejected.
        """
        # ARM: per-frame parameters (quantized), then DMA configuration.
        params = projector.frame_parameters(frame.T_wc)
        h_raw = self.schema.homography.to_raw(params.H_Z0)
        phi_raw = self.schema.phi.to_raw(params.phi)

        xy_q = self.schema.quantize_event_coords(frame.events.xy)
        xy_raw = self.schema.event_coord.to_raw(xy_q)
        packed = pack_event_word(xy_raw)

        # DMA ingest into the double-buffered input structures.
        self.canonical_ctrl.configure(cycle)
        self.canonical_ctrl.start_load(cycle)
        buf_e = self.buffers["Buf_E"]
        buf_p = self.buffers["Buf_P"]
        buf_h = self.buffers["Buf_H"]
        self.dma.to_buffer(buf_e, packed)
        self.dma.to_buffer(buf_p, phi_raw.reshape(-1))
        self.dma.to_registers(buf_h, h_raw.reshape(-1))
        self.dram.stream_read(packed.size * 4 + phi_raw.size * 4 + h_raw.size * 4)
        buf_e.swap()
        buf_p.swap()

        # PE_Z0: canonical back-projection from Buf_E into Buf_I.
        self.canonical_ctrl.start_run(cycle)
        words = buf_e.read_all()
        xy_in = unpack_event_word(words)
        uv0_raw, valid = self.pe_z0.process(h_raw, xy_in)
        buf_i = self.buffers["Buf_I"]
        buf_i.write(pack_event_word(uv0_raw))
        self.canonical_ctrl.request_sync(cycle)
        buf_i.swap()
        self.canonical_ctrl.complete(cycle)

        # Data Allocator -> PE_Zi array -> Buf_V -> Vote Execute Unit.
        if self.proportional_ctrl.state is CtrlState.IDLE:
            self.proportional_ctrl.configure(cycle)
        self.proportional_ctrl.wait_input(cycle)
        self.proportional_ctrl.start_run(cycle)
        uv0_in = unpack_event_word(buf_i.read_all())
        phi_in = buf_p.read_all().reshape(-1, 3)
        buf_v = self.buffers["Buf_V"]
        n_votes = 0
        for pe in self.pe_zi:
            addresses = pe.process(phi_in, uv0_in, valid)
            # Vote addresses stream through Buf_V in bounded chunks.
            for start in range(0, addresses.size, buf_v.capacity_words):
                chunk = addresses[start : start + buf_v.capacity_words]
                buf_v.write(chunk)
                buf_v.swap()
                n_votes += self.vote_unit.execute(buf_v.read_all())
        self.proportional_ctrl.complete(cycle)

        # Timing: the scheduler receives this frame's stage durations.
        votes_per_event = n_votes / max(len(frame), 1)
        scheduler.add_frame(
            self.timing.frame_timing(
                n_events=len(frame),
                votes_per_event=votes_per_event,
                is_keyframe=frame.is_keyframe,
            )
        )
        return n_votes, int((~valid).sum())

    # ------------------------------------------------------------------
    # Full-sequence execution
    # ------------------------------------------------------------------
    def make_backend(self):
        """A fresh engine backend driving this system's datapath.

        Returned instances plug into
        :class:`repro.core.engine.ReconstructionEngine` (registry name
        ``"hardware-model"``); each instance carries the report of one run.
        """
        from repro.hardware.backend import HardwareBackend

        return HardwareBackend(self)

    def run(
        self, events: EventArray, trajectory: Trajectory
    ) -> tuple[EMVSResult, HardwareReport]:
        """Execute the full heterogeneous pipeline over an event stream.

        The ARM-side front-end (streaming correction, aggregation,
        key-framing, detection, merging) is the shared
        :class:`~repro.core.engine.ReconstructionEngine` dataflow; only
        the per-frame hot path runs on the modelled PL datapath.
        """
        backend = self.make_backend()
        engine = ReconstructionEngine(
            self.camera,
            trajectory,
            self.emvs_config,
            self.depth_range,
            policy=replace(REFORMULATED_POLICY, schema=self.schema),
            backend=backend,
        )
        result = engine.run(events)
        return result, backend.report()
