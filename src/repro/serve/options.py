"""Consolidated configuration objects of the serving layer.

PR 7 grew :class:`~repro.serve.ReconstructionService` six reliability
kwargs (``retry``, ``deadline_s``, ``segment_deadline_s``,
``allow_partial``, ``faults``, ``integrity``) copy-pasted across three
signatures (``__init__`` / ``submit`` / ``open_stream``); the segment
cache adds tier knobs on top.  This module replaces the knob spread with
three frozen value objects:

* :class:`JobOptions` — everything that can vary *per job*: the
  reliability knobs, the fuse parameters, and the cache mode.  ``None``
  in any field means "inherit" — per-job options are merged over the
  service defaults by one :meth:`JobOptions.merged` method, so the
  override semantics live in exactly one place.
* :class:`CacheConfig` — the cache tiers: job-level LRU entry count,
  segment memory-tier bytes, segment disk-tier bytes and directory
  (with an ``REPRO_CACHE_DIR`` environment fallback).
* :class:`ServiceConfig` — the whole service: pool shape, admission
  knobs, the cache config and the default :class:`JobOptions`.
  :meth:`ReconstructionService.from_config` constructs a service from
  one of these; the CLI builds it in a single place.

``options=JobOptions(...)`` is the only spelling of the per-job knobs:
``ReconstructionService.__init__`` / ``submit`` / ``open_stream`` take
no loose reliability kwargs.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.faults import FaultPlan
    from repro.serve.retry import RetryPolicy

#: Per-job cache modes: ``"on"`` reads and writes both cache levels,
#: ``"off"`` touches neither (no reads, no writes, no coalescing),
#: ``"refresh"`` recomputes (no reads) but writes its results — the
#: cache-busting resubmission that repopulates stale entries.
CACHE_MODES = ("on", "off", "refresh")


@dataclass(frozen=True)
class JobOptions:
    """Per-job execution options, mergeable over service defaults.

    Every field defaults to ``None`` = "inherit the service default";
    a service resolves the effective options with :meth:`merged`.  The
    reliability fields carry PR 7's exact semantics (see
    ``docs/RELIABILITY.md``); ``voxel_size`` / ``min_observations`` are
    the fuse parameters previously passed as loose ``submit`` kwargs;
    ``cache`` selects this job's cache mode (:data:`CACHE_MODES`).
    """

    #: Retry budget for failed segment attempts (``None`` = inherit).
    retry: "RetryPolicy | None" = None
    #: Whole-job wall-clock budget in seconds.
    deadline_s: float | None = None
    #: Per-attempt budget of one segment on the pool, in seconds.
    segment_deadline_s: float | None = None
    #: Degrade out-of-budget jobs to ``PARTIAL`` instead of ``FAILED``.
    allow_partial: bool | None = None
    #: Deterministic fault schedule injected into the job's segments.
    faults: "FaultPlan | None" = None
    #: Verify each outcome's content digest at merge time (and re-verify
    #: segment-cache disk loads).
    integrity: bool | None = None
    #: Fusion voxel edge in metres (``None`` = 1 % of mean DSI depth).
    voxel_size: float | None = None
    #: Cross-view support threshold of the fused cloud.
    min_observations: int | None = None
    #: Cache mode: ``"on"``, ``"off"`` or ``"refresh"``.
    cache: str | None = None

    def __post_init__(self) -> None:
        """Validate every supplied field (``None`` fields are unchecked)."""
        # Deferred imports: options is imported by the package __init__
        # before faults/retry, and only needs the types for isinstance.
        from repro.serve.faults import FaultPlan
        from repro.serve.retry import RetryPolicy

        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise TypeError("retry must be a RetryPolicy (or None)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.segment_deadline_s is not None and self.segment_deadline_s <= 0:
            raise ValueError("segment_deadline_s must be positive (or None)")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError("faults must be a FaultPlan (or None)")
        if self.voxel_size is not None and self.voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        if self.min_observations is not None and self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if self.cache is not None and self.cache not in CACHE_MODES:
            raise ValueError(
                f"cache mode must be one of {CACHE_MODES}, got {self.cache!r}"
            )

    def merged(self, defaults: "JobOptions") -> "JobOptions":
        """These options layered over ``defaults`` (field-wise).

        Every ``None`` field inherits the default's value; every set
        field overrides it.  The single merge rule of the options
        redesign — the service resolves per-job options as
        ``explicit_kwargs.merged(options).merged(service_defaults)``.
        """
        overrides = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if getattr(self, f.name) is not None
        }
        return dataclasses.replace(defaults, **overrides)


@dataclass(frozen=True)
class CacheConfig:
    """Capacity and placement of the serving layer's cache tiers.

    ``job_entries`` bounds the job-level LRU (whole fused results, in
    entries; ``0`` disables it).  The segment tiers are byte-bounded:
    ``mem_mb`` for the in-memory LRU (``0`` disables it, the default)
    and ``disk_mb`` for the on-disk store, which activates only when a
    directory is resolved — from
    ``cache_dir``, or from the ``REPRO_CACHE_DIR`` environment variable
    when ``cache_dir`` is ``None`` (pass ``cache_dir=""`` to suppress
    the environment fallback explicitly).
    """

    #: Job-level LRU capacity in entries (``0`` disables).
    job_entries: int = 32
    #: Segment memory-tier bound in MiB (``0`` disables, the default).
    mem_mb: float = 0.0
    #: Segment disk-tier bound in MiB (``0`` disables).
    disk_mb: float = 256.0
    #: Disk-tier directory; ``None`` falls back to ``REPRO_CACHE_DIR``,
    #: ``""`` disables the disk tier unconditionally.
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        """Validate the tier bounds."""
        if self.job_entries < 0:
            raise ValueError("cache capacity must be >= 0 (0 disables)")
        if self.mem_mb < 0:
            raise ValueError("mem_mb must be >= 0 (0 disables the memory tier)")
        if self.disk_mb < 0:
            raise ValueError("disk_mb must be >= 0 (0 disables the disk tier)")

    def resolved_dir(self) -> str | None:
        """The effective disk-tier directory, or ``None`` (tier off).

        ``cache_dir`` when set, else the ``REPRO_CACHE_DIR`` environment
        variable; an empty string (either source) disables the tier.
        """
        if self.disk_mb <= 0:
            return None
        if self.cache_dir is not None:
            return self.cache_dir or None
        return os.environ.get("REPRO_CACHE_DIR") or None


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`ReconstructionService` is constructed from.

    The one-object spelling of the constructor surface:
    :meth:`ReconstructionService.from_config` unpacks it, and the CLI's
    serve/submit/stream commands build exactly one of these from their
    flags instead of threading fourteen positional knobs.
    """

    #: Shared pool width (``None`` = machine CPU count).
    workers: int | None = None
    #: ``"process"``, ``"thread"``, ``"inline"`` or ``None`` (auto).
    executor: str | None = None
    #: Per-session bound on active jobs.
    queue_limit: int = 8
    #: Full-queue policy: ``"refuse"`` or ``"drop-oldest"``.
    overflow: str = "refuse"
    #: Terminal job records retained for late ``poll``/``result`` calls.
    retain_jobs: int = 256
    #: Cache-tier capacities and placement.
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: Service-wide default :class:`JobOptions` (per-job options merge
    #: over these).
    defaults: JobOptions = field(default_factory=JobOptions)


@dataclass(frozen=True)
class GatewayConfig:
    """Everything a :class:`~repro.serve.gateway.Gateway` is built from.

    The gateway-level twin of :class:`ServiceConfig`: shard count and
    fan-out policy, the admission-control knobs layered *above* the
    per-shard ``refuse``/``drop-oldest`` policies, the HTTP bind
    address, and the :class:`ServiceConfig` every shard is constructed
    from (shards are homogeneous — one config, N services).
    """

    #: Number of :class:`ReconstructionService` shards.
    shards: int = 1
    #: Per-tenant token-bucket refill rate in requests/second
    #: (``0`` disables per-tenant throttling).
    tenant_rate: float = 0.0
    #: Per-tenant token-bucket burst capacity in requests.
    tenant_burst: int = 8
    #: Global bound on jobs admitted but not yet observed terminal
    #: (``0`` = unbounded).
    max_inflight: int = 0
    #: HTTP bind host of :class:`~repro.serve.gateway.GatewayServer`.
    host: str = "127.0.0.1"
    #: HTTP bind port (``0`` = ephemeral, reported after ``start``).
    port: int = 0
    #: The :class:`ServiceConfig` every shard is constructed from.
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        """Validate the shard and admission knobs."""
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.tenant_rate < 0:
            raise ValueError("tenant_rate must be >= 0 (0 disables)")
        if self.tenant_burst < 1:
            raise ValueError("tenant_burst must be >= 1")
        if self.max_inflight < 0:
            raise ValueError("max_inflight must be >= 0 (0 = unbounded)")
        if not (0 <= self.port <= 65535):
            raise ValueError("port must be in [0, 65535]")
