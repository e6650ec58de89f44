"""Multi-session reconstruction serving.

The scaling layer above :mod:`repro.core.mapping`: many independent
event-stream jobs, one shared bounded worker pool, fair round-robin
segment scheduling across sessions, explicit backpressure, and one
result cache — a segment-level memo (in-memory LRU over a persistent
on-disk store) that lets repeated and overlapping jobs and warm-started
streams skip already-computed segments.  See
:class:`ReconstructionService` for the batch API
(``submit`` / ``poll`` / ``result`` / ``drain``),
:class:`StreamingSession` for the incremental one (``open_stream`` /
``feed`` / ``poll_updates`` / ``close``), and ``repro serve`` /
``repro submit`` / ``repro stream`` for the CLI drivers.

Configuration is consolidated in :mod:`repro.serve.options`:
:class:`JobOptions` (per-job knobs, mergeable over service defaults),
:class:`CacheConfig` (segment-cache tier capacities and placement) and
:class:`ServiceConfig` (the whole service;
:meth:`ReconstructionService.from_config` consumes one).

Reliability lives in :mod:`repro.serve.retry` (deterministic retry
budgets), :mod:`repro.serve.faults` (seeded fault injection for chaos
testing), and the service's deadline/watchdog/``allow_partial`` knobs;
``docs/RELIABILITY.md`` documents the full contract and
``docs/CACHING.md`` the caching one.

The async front door lives in :mod:`repro.serve.gateway`: an asyncio
:class:`Gateway` runs one service (capacity is its worker pool) behind
token-bucket admission control, with a stdlib-HTTP
:class:`GatewayServer` exposing ``/metrics`` (Prometheus text built by
:mod:`repro.serve.metrics`), ``/status`` and job submission; ``repro
gateway`` is the CLI driver and ``docs/OBSERVABILITY.md`` the metrics
catalog.
"""

from repro.serve.cache import (
    SEGMENT_CACHE_SCHEMA,
    CacheStats,
    SegmentCache,
    outcome_digest,
    payload_digest,
    segment_key,
)
from repro.serve.faults import (
    FaultDirective,
    FaultInjected,
    FaultKind,
    FaultPlan,
)
from repro.serve.gateway import (
    AdmissionController,
    Gateway,
    GatewayRefused,
    GatewayServer,
    GatewayStream,
    TokenBucket,
    http_request,
)
from repro.serve.metrics import (
    Histogram,
    MetricFamily,
    format_status,
    parse_metrics,
    render_metrics,
    service_families,
    status_snapshot,
    sum_series,
)
from repro.serve.options import (
    CACHE_MODES,
    CacheConfig,
    GatewayConfig,
    JobOptions,
    ServiceConfig,
)
from repro.serve.retry import RetryPolicy
from repro.serve.scheduler import Dispatch, RoundRobinScheduler
from repro.serve.service import (
    OVERFLOW_POLICIES,
    JobFailed,
    ReconstructionService,
    ServeError,
    ServiceStats,
    SessionBacklogFull,
    StreamBacklogFull,
)
from repro.serve.session import Job, JobState, JobStatus, Session
from repro.serve.stream import StreamingSession, StreamUpdate

__all__ = [
    "SEGMENT_CACHE_SCHEMA",
    "CacheStats",
    "SegmentCache",
    "outcome_digest",
    "payload_digest",
    "segment_key",
    "FaultDirective",
    "FaultInjected",
    "FaultKind",
    "FaultPlan",
    "AdmissionController",
    "Gateway",
    "GatewayRefused",
    "GatewayServer",
    "GatewayStream",
    "TokenBucket",
    "http_request",
    "Histogram",
    "MetricFamily",
    "format_status",
    "parse_metrics",
    "render_metrics",
    "service_families",
    "status_snapshot",
    "sum_series",
    "CACHE_MODES",
    "CacheConfig",
    "GatewayConfig",
    "JobOptions",
    "ServiceConfig",
    "RetryPolicy",
    "Dispatch",
    "RoundRobinScheduler",
    "OVERFLOW_POLICIES",
    "JobFailed",
    "ReconstructionService",
    "ServeError",
    "ServiceStats",
    "SessionBacklogFull",
    "StreamBacklogFull",
    "Job",
    "JobState",
    "JobStatus",
    "Session",
    "StreamingSession",
    "StreamUpdate",
]
