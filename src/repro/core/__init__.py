"""EMVS core: the paper's target algorithm and its reformulation.

The central abstraction is :class:`repro.core.engine.ReconstructionEngine`
— a single streaming owner of the packetize → undistort → back-project →
vote → detect → lift dataflow, parameterized by a
:class:`repro.core.policy.DataflowPolicy` (correction scheduling, voting,
quantization, score storage, batch scheduling) and an execution backend
from :data:`repro.core.engine.BACKENDS` (``numpy-reference``,
``numpy-batch``, ``native-batch``, ``hardware-model``).

The paper's two dataflows (Fig. 3) are the policy presets
:data:`~repro.core.policy.ORIGINAL_POLICY` (full-precision EMVS with
bilinear voting, after Rebecq et al., IJCV 2018) and
:data:`~repro.core.policy.REFORMULATED_POLICY` (Eventor's
hardware-friendly dataflow); pass either, or its name, as the engine's
``policy``.  :meth:`~repro.core.engine.ReconstructionEngine.run` consumes
a whole event stream; ``push``/``finish`` with an ``on_keyframe``
callback serve an incremental SLAM front-end.  Both produce an
:class:`EMVSResult`.
"""

from repro.core.config import EMVSConfig, DetectionConfig
from repro.core.dsi import DSI, depth_planes
from repro.core.voting import vote_bilinear, vote_nearest, VotingMethod
from repro.core.backprojection import BackProjector
from repro.core.keyframes import KeyframeSelector
from repro.core.detection import detect_structure
from repro.core.depthmap import SemiDenseDepthMap
from repro.core.pointcloud import PointCloud
from repro.core.results import EMVSResult, KeyframeReconstruction, PipelineProfile
from repro.core.policy import (
    CorrectionScheduling,
    DataflowPolicy,
    ORIGINAL_POLICY,
    POLICIES,
    REFORMULATED_POLICY,
)
from repro.core.engine import (
    BACKENDS,
    EngineSpec,
    ExecutionBackend,
    ReconstructionEngine,
    SegmentPlan,
    StreamSegmentPlanner,
    plan_segments,
    register_backend,
)
from repro.core.mapping import (
    GlobalMap,
    MappingOrchestrator,
    MappingResult,
    SegmentTask,
    default_voxel_size,
    fuse_camera_keyframes,
    fuse_keyframes,
    merge_outcomes,
    run_segment_task,
    segment_tasks,
)
from repro.core.rig import (
    CameraRig,
    RigCamera,
    RigJobHandle,
    RigMappingResult,
    RigOrchestrator,
)

__all__ = [
    "EMVSConfig",
    "DetectionConfig",
    "DSI",
    "depth_planes",
    "vote_bilinear",
    "vote_nearest",
    "VotingMethod",
    "BackProjector",
    "KeyframeSelector",
    "detect_structure",
    "SemiDenseDepthMap",
    "PointCloud",
    "EMVSResult",
    "KeyframeReconstruction",
    "PipelineProfile",
    "CorrectionScheduling",
    "DataflowPolicy",
    "ORIGINAL_POLICY",
    "REFORMULATED_POLICY",
    "POLICIES",
    "BACKENDS",
    "EngineSpec",
    "ExecutionBackend",
    "ReconstructionEngine",
    "SegmentPlan",
    "StreamSegmentPlanner",
    "plan_segments",
    "register_backend",
    "GlobalMap",
    "MappingOrchestrator",
    "MappingResult",
    "SegmentTask",
    "default_voxel_size",
    "fuse_camera_keyframes",
    "fuse_keyframes",
    "merge_outcomes",
    "run_segment_task",
    "segment_tasks",
    "CameraRig",
    "RigCamera",
    "RigJobHandle",
    "RigMappingResult",
    "RigOrchestrator",
]
