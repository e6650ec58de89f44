"""Result and accounting types shared by every pipeline and backend.

Historically these lived next to the (since removed) ``EMVSMapper``; the
per-frame hot path it owned is now an
:class:`~repro.core.engine.ExecutionBackend` and the keyframe lifecycle
lives in :class:`~repro.core.engine.ReconstructionEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.depthmap import SemiDenseDepthMap
from repro.core.pointcloud import PointCloud
from repro.geometry.se3 import SE3


@dataclass(frozen=True)
class KeyframeReconstruction:
    """Depth estimate produced at one key reference view."""

    T_w_ref: SE3
    depth_map: SemiDenseDepthMap
    n_events: int
    n_frames: int


@dataclass
class PipelineProfile:
    """Work and wall-clock accounting across a pipeline run.

    ``stage_seconds`` records host time per algorithm stage (keys: ``A``,
    ``P_Z0``, ``P_Zi_R``, ``D``, ``M``); ``votes_cast`` counts DSI updates —
    the quantity the accelerator's throughput is sized by.
    ``dropped_events`` counts events that produced no vote: projection
    misses plus the trailing partial frame dropped at stream end.
    """

    n_events: int = 0
    n_frames: int = 0
    n_keyframes: int = 0
    votes_cast: int = 0
    dropped_events: int = 0
    stage_seconds: dict = field(default_factory=dict)

    def add_time(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock seconds into one stage's bucket."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def total_seconds(self) -> float:
        """Summed wall-clock time across all stages."""
        return sum(self.stage_seconds.values())

    def merge(self, other: "PipelineProfile") -> None:
        """Fold another profile into this one (parallel mapping aggregation).

        Counters add; stage times add per stage.  Summed wall-clock times of
        concurrent runs measure total *work*, not elapsed time — elapsed
        time of a parallel run is tracked by its orchestrator.
        """
        self.n_events += other.n_events
        self.n_frames += other.n_frames
        self.n_keyframes += other.n_keyframes
        self.votes_cast += other.votes_cast
        self.dropped_events += other.dropped_events
        for stage, seconds in other.stage_seconds.items():
            self.add_time(stage, seconds)

    def counters(self) -> dict:
        """The deterministic (timing-free) counters as a plain dict.

        Two runs of the same stream must agree on these exactly, whatever
        the backend, batching or worker count — the equality the
        determinism tests pin.
        """
        return {
            "n_events": self.n_events,
            "n_frames": self.n_frames,
            "n_keyframes": self.n_keyframes,
            "votes_cast": self.votes_cast,
            "dropped_events": self.dropped_events,
        }


@dataclass(frozen=True)
class EMVSResult:
    """Output of a pipeline run."""

    keyframes: list[KeyframeReconstruction]
    cloud: PointCloud
    profile: PipelineProfile

    @property
    def n_points(self) -> int:
        """Point count of the merged cloud."""
        return len(self.cloud)
