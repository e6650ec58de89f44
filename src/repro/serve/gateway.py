"""Async front door: admission control and HTTP over one service.

A :class:`Gateway` owns one :class:`~repro.serve.ReconstructionService`
and runs it behind a dedicated single-thread executor: the service is
not thread-safe, so every call is funneled through that one thread, and
the event loop delegates each call with ``run_in_executor`` so it never
blocks on reconstruction work.  Capacity comes from the service's worker
pool (``ServiceConfig.workers``), not from replicating the service —
the same split as Eventor's one host scheduler over replicated
processing elements.  Per-session FIFO ordering, the segment cache and
the per-session backpressure bound are the service's own.

Above the service's ``refuse``/``drop-oldest`` policies sits gateway
**admission control** (:class:`AdmissionController`): a per-tenant
token bucket (rate/burst) plus a global in-flight cap, refusals
surfaced as structured 429-style :class:`GatewayRefused` errors — and,
through :class:`GatewayServer`, as actual HTTP 429 responses with a
JSON body and ``Retry-After`` hint.

:class:`GatewayServer` is a minimal stdlib HTTP/1.1 server
(``asyncio.start_server`` — the container has no aiohttp) exposing
``GET /healthz``, ``GET /metrics`` (Prometheus text, see
:mod:`repro.serve.metrics`), ``GET /status`` (JSON), ``GET /jobs/<id>``
and ``POST /jobs`` (submit a named registry sequence).  Tests drive
the same surface through :func:`http_request`, an in-process async
client over ``asyncio.open_connection``.

The gateway changes *how* work is admitted, never *what* it computes:
a gateway job's :class:`~repro.core.mapping.MappingResult` is
bit-identical to a direct single-service run (pinned by the gateway leg
of the differential fuzz suite).
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.serve.metrics import (
    Histogram,
    histogram_family,
    make_family,
    render_metrics,
    service_families,
    status_snapshot,
)
from repro.serve.options import GatewayConfig, JobOptions
from repro.serve.request import JobRequest
from repro.serve.service import (
    ReconstructionService,
    ServeError,
    ServiceStats,
    SessionBacklogFull,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import EngineSpec
    from repro.core.mapping import MappingResult
    from repro.events.containers import EventArray
    from repro.serve.session import JobStatus
    from repro.serve.stream import StreamUpdate

#: Poll interval of the gateway's async result/drain waits, seconds.
POLL_INTERVAL_S = 0.002


class GatewayRefused(ServeError):
    """A request the gateway's admission control (or the service) refused.

    The structured 429: ``reason`` is one of ``"throttled"`` (the
    tenant's token bucket is empty), ``"overloaded"`` (the global
    in-flight cap is reached) or ``"backlogged"`` (the service's
    per-session queue refused the job); ``retry_after_s`` carries the
    earliest useful retry instant for throttled tenants.
    :meth:`to_payload` is the HTTP response body.
    """

    def __init__(
        self, reason: str, message: str, retry_after_s: float | None = None
    ):
        super().__init__(message)
        self.reason = reason
        self.status = 429
        self.retry_after_s = retry_after_s

    def to_payload(self) -> dict:
        """The JSON body of the 429 response."""
        payload = {
            "error": str(self),
            "reason": self.reason,
            "status": self.status,
        }
        if self.retry_after_s is not None:
            payload["retry_after_s"] = round(self.retry_after_s, 3)
        return payload


class TokenBucket:
    """Per-tenant request throttle (rate/burst, injectable clock).

    ``rate`` tokens/second refill up to ``burst``; each admitted
    request takes one token.  ``rate == 0`` disables the bucket (every
    take succeeds).  Refill arithmetic runs on the owner's monotonic
    clock — the same seam the service's deadlines use, so tests drive
    throttling with a fake clock instead of sleeps.
    """

    def __init__(self, rate: float, burst: int, clock: Callable[[], float]):
        if rate < 0:
            raise ValueError("rate must be >= 0 (0 disables)")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate)

    def try_take(self) -> float | None:
        """Take one token; ``None`` on success, else seconds until one.

        The failure value is the ``retry_after_s`` hint of the 429.
        """
        if self.rate == 0:
            return None
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return None
        return (1.0 - self._tokens) / self.rate


class AdmissionController:
    """Gateway-level admission: per-tenant fairness + a global cap.

    Layered *above* the service's per-session queue bounds: the token
    buckets stop one tenant from monopolizing submission bandwidth,
    and the in-flight cap bounds the gateway's total outstanding work
    whatever the tenant mix.  Refusal raises :class:`GatewayRefused`;
    the caller owns the in-flight count (jobs leave it when observed
    terminal, see :meth:`Gateway._observe_status`).
    """

    def __init__(self, config: GatewayConfig, clock: Callable[[], float]):
        self._config = config
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}

    def admit(self, session: str, inflight: int) -> None:
        """Admit one request for ``session`` or raise :class:`GatewayRefused`."""
        cap = self._config.max_inflight
        if cap and inflight >= cap:
            raise GatewayRefused(
                "overloaded",
                f"gateway at its global in-flight cap ({cap} jobs)",
                retry_after_s=POLL_INTERVAL_S,
            )
        if self._config.tenant_rate > 0:
            bucket = self._buckets.get(session)
            if bucket is None:
                bucket = self._buckets[session] = TokenBucket(
                    self._config.tenant_rate,
                    self._config.tenant_burst,
                    self._clock,
                )
            wait = bucket.try_take()
            if wait is not None:
                raise GatewayRefused(
                    "throttled",
                    f"tenant {session!r} exceeded its request rate "
                    f"({self._config.tenant_rate}/s, burst "
                    f"{self._config.tenant_burst})",
                    retry_after_s=wait,
                )


class GatewayStream:
    """Async client handle of one gateway streaming session.

    The async twin of :class:`~repro.serve.stream.StreamingSession`:
    every feed, poll and the final result run on the gateway's service
    thread, so the stream's incremental plan and fused map live (and
    stay bit-exact) exactly as in a direct service stream.  Usable as an
    async context manager; leaving the block closes the stream.
    """

    def __init__(self, gateway: "Gateway", handle):
        self._gateway = gateway
        self._handle = handle

    @property
    def job_id(self) -> str:
        """Service job id of the underlying streaming job."""
        return self._handle.job_id

    @property
    def session(self) -> str:
        """Tenant session the stream was opened under."""
        return self._handle.session

    async def feed(self, events: "EventArray") -> None:
        """Push one time-ordered event chunk (see ``StreamingSession.feed``)."""
        await self._gateway._on_thread(self._handle.feed, events)

    async def poll_updates(self) -> list["StreamUpdate"]:
        """Drain updates emitted since the previous poll."""
        return await self._gateway._on_thread(self._handle.poll_updates)

    async def close(self) -> None:
        """End the stream's input (idempotent)."""
        await self._gateway._on_thread(self._handle.close)

    async def result(self, timeout: float | None = None) -> "MappingResult":
        """Await the closed stream's final fused result."""
        return await self._gateway.result(self.job_id, timeout=timeout)

    async def status(self) -> "JobStatus":
        """Non-blocking job-status snapshot."""
        return await self._gateway.poll(self.job_id)

    async def __aenter__(self) -> "GatewayStream":
        """Enter the async context (no-op; the stream is already open)."""
        return self

    async def __aexit__(self, *exc) -> None:
        """Close the stream on context exit."""
        await self.close()


class Gateway:
    """The asyncio front door over one reconstruction service.

    Lifecycle: ``await start()`` builds the service and its call
    thread, ``await stop()`` shuts them down in order — HTTP callers
    first (:class:`GatewayServer` stops accepting before the gateway
    stops), then the service's
    :meth:`~repro.serve.ReconstructionService.shutdown` so every
    admitted job ends terminal, then the call thread.  Also an async
    context manager.

    All public methods are coroutines safe to call from one event
    loop; the reconstruction work itself always runs on the service
    thread and the service's worker pool, never on the loop.
    """

    def __init__(
        self,
        config: GatewayConfig | None = None,
        *,
        clock: Callable[[], float] | None = None,
    ):
        import time

        self.config = config or GatewayConfig()
        self._clock = clock or time.perf_counter
        self._admission = AdmissionController(self.config, self._clock)
        self._service: ReconstructionService | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._inflight_ids: set[str] = set()
        self._requests = {"submit": 0, "stream": 0}
        self._refusals = {"throttled": 0, "overloaded": 0, "backlogged": 0}
        self._latency = Histogram()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Gateway":
        """Build the service and its call thread; idempotent."""
        if self._started:
            return self
        self._service = ReconstructionService.from_config(self.config.service)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="gateway-service"
        )
        self._started = True
        return self

    async def stop(self, wait: bool = True, timeout: float | None = None) -> None:
        """Shut the service down; every admitted job ends terminal.

        ``wait``/``timeout`` forward to
        :meth:`~repro.serve.ReconstructionService.shutdown` — with
        ``wait=True`` open streams flush and backed-off retries run,
        with ``wait=False`` (or past ``timeout``) remaining jobs fail
        deterministically.
        """
        if not self._started:
            return
        await self._call("shutdown", wait=wait, timeout=timeout)
        self._executor.shutdown(wait=True)
        self._started = False

    async def __aenter__(self) -> "Gateway":
        """Start the gateway on context entry."""
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        """Stop the gateway on context exit."""
        await self.stop()

    # ------------------------------------------------------------------
    # Service thread
    # ------------------------------------------------------------------
    def _on_thread(self, fn, /, *args, **kwargs):
        """Schedule one call on the service thread; returns an awaitable."""
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(self._executor, partial(fn, *args, **kwargs))

    def _call(self, method: str, /, *args, **kwargs):
        """Run one service method on the service thread; returns an awaitable."""
        if not self._started:
            raise ServeError("gateway is not started")
        return self._on_thread(getattr(self._service, method), *args, **kwargs)

    def _admit(self, session: str, kind: str) -> None:
        """Run gateway admission; count the request and any refusal."""
        self._requests[kind] += 1
        try:
            self._admission.admit(session, len(self._inflight_ids))
        except GatewayRefused as refusal:
            self._refusals[refusal.reason] += 1
            raise

    def _observe_status(self, status: "JobStatus") -> None:
        """Fold one status snapshot into the gateway's observability state.

        A job observed terminal for the first time leaves the in-flight
        set (freeing global-cap room) and files its submit-to-terminal
        latency into the request histogram.
        """
        if status.done and status.job_id in self._inflight_ids:
            self._inflight_ids.discard(status.job_id)
            if status.latency_seconds is not None:
                self._latency.observe(status.latency_seconds)

    # ------------------------------------------------------------------
    # Job API
    # ------------------------------------------------------------------
    async def submit(
        self,
        events: "EventArray",
        spec: "EngineSpec",
        *,
        session: str = "default",
        options: JobOptions | None = None,
    ) -> str:
        """Admit one batch job; return its id.

        Gateway admission (token bucket, global cap) runs first; the
        service's own backpressure runs second, and its
        :class:`~repro.serve.SessionBacklogFull` refusal is re-raised
        as a structured ``backlogged`` :class:`GatewayRefused` —
        ``drop-oldest`` eviction (which never selects a live stream)
        applies exactly as in a direct submission.
        """
        self._admit(session, "submit")
        try:
            job_id = await self._call(
                "submit", events, spec, session=session, options=options
            )
        except SessionBacklogFull as exc:
            self._refusals["backlogged"] += 1
            raise GatewayRefused("backlogged", str(exc)) from exc
        self._inflight_ids.add(job_id)
        return job_id

    async def open_stream(
        self,
        spec: "EngineSpec",
        *,
        session: str = "default",
        max_pending_chunks: int = 64,
        options: JobOptions | None = None,
    ) -> GatewayStream:
        """Open a streaming session on the service."""
        self._admit(session, "stream")
        try:
            handle = await self._call(
                "open_stream", spec,
                session=session,
                max_pending_chunks=max_pending_chunks,
                options=options,
            )
        except SessionBacklogFull as exc:
            self._refusals["backlogged"] += 1
            raise GatewayRefused("backlogged", str(exc)) from exc
        self._inflight_ids.add(handle.job_id)
        return GatewayStream(self, handle)

    async def poll(self, job_id: str) -> "JobStatus":
        """Non-blocking progress snapshot of a job."""
        status = await self._call("poll", job_id)
        self._observe_status(status)
        return status

    async def result(
        self, job_id: str, timeout: float | None = None
    ) -> "MappingResult":
        """Await a job's fused result (poll loop, loop never blocks).

        Polling — rather than parking the service thread in the
        service's blocking ``result`` — keeps the service thread
        available to every other request between pumps.  Raises
        :class:`~repro.serve.JobFailed` for failed jobs and
        ``TimeoutError`` past ``timeout`` (measured on the gateway
        clock).
        """
        deadline = None if timeout is None else self._clock() + timeout
        while True:
            status = await self._call("poll", job_id)
            self._observe_status(status)
            if status.done:
                break
            if deadline is not None and self._clock() >= deadline:
                raise TimeoutError(f"job {job_id!r} not done within {timeout} s")
            await asyncio.sleep(POLL_INTERVAL_S)
        # Terminal: the blocking call returns (or raises JobFailed)
        # immediately, without occupying the service thread in a wait.
        return await self._call("result", job_id)

    async def drain(self, timeout: float | None = None) -> int:
        """Drain the service; returns the number of completed jobs.

        Jobs observed terminal settle the gateway's in-flight set and
        latency histogram.
        """
        completed = await self._call("drain", timeout=timeout)
        for job_id in list(self._inflight_ids):
            try:
                self._observe_status(await self._call("poll", job_id))
            except KeyError:
                # Pruned from the service's terminal-record ring: it was
                # terminal; settle the in-flight count without a latency
                # sample.
                self._inflight_ids.discard(job_id)
        return completed

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    async def stats(self) -> dict[int, ServiceStats]:
        """``{0: ServiceStats}``: the service's snapshot.

        The one-entry mapping is a vestige of the retired sharded
        gateway, kept only because the frozen ``perfbench`` harness
        calls ``.values()`` on it.  The snapshot is ``stats()[0]``.
        """
        return {0: await self._call("stats")}

    def gateway_families(self):
        """The gateway-level metric families (requests, refusals, latency)."""
        return [
            make_family(
                "repro_gateway_requests_total", "counter",
                "Requests received by kind (submit, stream).",
                [({"kind": kind}, count) for kind, count in self._requests.items()],
            ),
            make_family(
                "repro_gateway_refusals_total", "counter",
                "Structured 429 refusals by reason.",
                [
                    ({"reason": reason}, count)
                    for reason, count in self._refusals.items()
                ],
            ),
            make_family(
                "repro_gateway_inflight_jobs", "gauge",
                "Jobs admitted but not yet observed terminal.",
                [({}, len(self._inflight_ids))],
            ),
            histogram_family(
                "repro_gateway_request_latency_seconds",
                "Submit-to-terminal job latency as observed by the gateway.",
                [((), self._latency)],
            ),
        ]

    async def metrics_text(self) -> str:
        """The full ``/metrics`` document (Prometheus text format)."""
        stats = (await self.stats())[0]
        families = self.gateway_families() + service_families(stats)
        return render_metrics(families)

    async def status(self) -> dict:
        """The ``/status`` JSON document: the service record plus gateway state."""
        snap = status_snapshot((await self.stats())[0])
        snap["gateway"] = {
            "requests": dict(self._requests),
            "refusals": dict(self._refusals),
            "inflight_jobs": len(self._inflight_ids),
            "latency_p50_s": self._latency.quantile(0.5),
            "latency_p99_s": self._latency.quantile(0.99),
        }
        return snap


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class GatewayServer:
    """Minimal stdlib HTTP/1.1 server over a :class:`Gateway`.

    Routes: ``GET /healthz``, ``GET /metrics`` (Prometheus text),
    ``GET /status`` (JSON), ``GET /jobs/<id>`` (status snapshot) and
    ``POST /jobs`` (submit a named registry sequence; body schema in
    ``docs/OBSERVABILITY.md``).  One request per connection
    (``Connection: close``) — the serving cost lives in the
    reconstruction work, not connection reuse, and the parser stays
    ~40 lines of stdlib.
    """

    def __init__(self, gateway: Gateway, host: str | None = None, port: int | None = None):
        self.gateway = gateway
        self.host = host if host is not None else gateway.config.host
        self.port = port if port is not None else gateway.config.port
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> "GatewayServer":
        """Bind and start serving; resolves an ephemeral port."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop accepting connections (the gateway keeps running)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "GatewayServer":
        """Start serving on context entry."""
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        """Stop serving on context exit."""
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one request: parse, dispatch, respond, close."""
        try:
            request_line = (await reader.readline()).decode("latin-1").strip()
            if not request_line:
                return
            try:
                method, path, _ = request_line.split(" ", 2)
            except ValueError:
                await self._respond(writer, 400, {"error": "malformed request line"})
                return
            headers = {}
            while True:
                line = (await reader.readline()).decode("latin-1").strip()
                if not line:
                    break
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length") or "0")
            except ValueError:
                length = -1
            if length < 0:
                await self._respond(writer, 400, {"error": "invalid Content-Length"})
                return
            body = await reader.readexactly(length) if length else b""
            status, payload, content_type = await self._dispatch(
                method, path, body
            )
            await self._respond(writer, status, payload, content_type)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, object, str]:
        """Route one parsed request to the gateway API."""
        path = path.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok"}, "json"
        if method == "GET" and path == "/metrics":
            return 200, await self.gateway.metrics_text(), "text"
        if method == "GET" and path == "/status":
            return 200, await self.gateway.status(), "json"
        if method == "GET" and path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            try:
                status = await self.gateway.poll(job_id)
            except KeyError:
                return 404, {"error": f"unknown job id {job_id!r}"}, "json"
            return 200, self._status_payload(status), "json"
        if method == "POST" and path == "/jobs":
            return await self._submit(body)
        return 404, {"error": f"no route {method} {path}"}, "json"

    @staticmethod
    def _status_payload(status: "JobStatus") -> dict:
        """JSON form of a :class:`~repro.serve.session.JobStatus`."""
        return {
            "job_id": status.job_id,
            "session": status.session,
            "state": status.state.value,
            "done": status.done,
            "segments_done": status.segments_done,
            "segments_total": status.segments_total,
            "cache_hit": status.cache_hit,
            "segments_retried": status.segments_retried,
            "missing_segments": list(status.missing_segments),
            "latency_seconds": status.latency_seconds,
            "error": status.error,
        }

    async def _submit(self, body: bytes) -> tuple[int, object, str]:
        """``POST /jobs``: parse a :class:`JobRequest`, build and submit it."""
        try:
            request = JobRequest.from_json(body)
            loop = asyncio.get_running_loop()
            events, spec = await loop.run_in_executor(None, request.build)
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}, "json"
        try:
            job_id = await self.gateway.submit(events, spec, session=request.session)
        except GatewayRefused as refusal:
            return refusal.status, refusal.to_payload(), "json"
        return 202, {"job_id": job_id, "session": request.session}, "json"

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        content_type: str = "json",
    ) -> None:
        """Write one HTTP/1.1 response and flush."""
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 429: "Too Many Requests"}
        if content_type == "text":
            body = str(payload).encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            ctype = "application/json"
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if status == 429 and isinstance(payload, dict) and "retry_after_s" in payload:
            head += f"Retry-After: {max(1, round(payload['retry_after_s']))}\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


async def http_request(
    host: str, port: int, method: str, path: str, body: dict | None = None
) -> tuple[int, bytes]:
    """In-process async HTTP client (tests and the CLI's self-scrape).

    Speaks exactly the subset :class:`GatewayServer` serves — one
    request per connection, optional JSON body — over
    ``asyncio.open_connection``; returns ``(status_code, body_bytes)``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
        status_line = (await reader.readline()).decode("latin-1")
        if not status_line:
            raise ConnectionError(f"empty reply to {method} {path}")
        status = int(status_line.split(" ", 2)[1])
        length = None
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        data = await (
            reader.readexactly(length) if length is not None else reader.read()
        )
        return status, data
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:  # pragma: no cover - platform dependent
            pass
