"""End-to-end gateway integration: tenants, admission, HTTP, shutdown.

Each test drives a real :class:`~repro.serve.Gateway` (a real service on
its call thread) from a private event loop via ``asyncio.run`` — no
external HTTP client library, the in-process
:func:`~repro.serve.http_request` speaks to the stdlib
:class:`~repro.serve.GatewayServer` over a loopback socket.

The invariants pinned here:

* **equivalence** — every tenant's job through the gateway is
  bit-identical to a direct single-service run, streams included (the
  gateway changes *how* work is admitted, not *what* it computes);
* **admission** — the token bucket and the global in-flight cap refuse
  with structured 429s (and real HTTP 429 responses), on a fake clock;
* **observability** — ``/metrics`` parses back to numbers that
  reconcile exactly with the service's ``ServiceStats``;
* **HTTP contract** — a malformed request gets a 400 with a JSON
  ``error``, never a dropped connection, and the server keeps serving;
* **shutdown** — ``stop()`` leaves every admitted job terminal, open
  streams included.

An autouse fixture fails any test during which asyncio logged an error,
so a crashed request handler cannot pass as a client-side failure.
"""

import asyncio
import json
import logging

import numpy as np
import pytest

from repro.core import EMVSConfig, EngineSpec
from repro.events.datasets import load_sequence
from repro.serve import (
    CacheConfig,
    Gateway,
    GatewayConfig,
    GatewayRefused,
    GatewayServer,
    JobState,
    ReconstructionService,
    ServiceConfig,
    http_request,
    parse_metrics,
    sum_series,
)

#: Tenant sessions sharing the gateway's one service.
TENANTS = ("tenant-a", "tenant-b", "tenant-c")


@pytest.fixture(autouse=True)
def no_asyncio_errors(caplog):
    """Fail the test if the ``asyncio`` logger recorded an error.

    An exception escaping ``GatewayServer._handle`` is only logged by
    asyncio ("Unhandled exception in client_connected_cb") while the
    client sees an empty reply; this turns that log into a failure.
    """
    caplog.set_level(logging.ERROR, logger="asyncio")
    yield
    errors = [
        record.getMessage()
        for record in caplog.get_records("call")
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert not errors, f"asyncio logged errors: {errors}"


@pytest.fixture(scope="module")
def served(mapping_workload):
    """``(events, spec)`` for the shared multi-segment workload."""
    seq, events, config = mapping_workload
    spec = EngineSpec(
        seq.camera,
        seq.trajectory,
        config,
        depth_range=seq.depth_range,
        backend="numpy-batch",
    )
    return events, spec


def service_config() -> ServiceConfig:
    """One inline worker, caches off — a determinism-friendly service."""
    return ServiceConfig(
        workers=1,
        executor="inline",
        cache=CacheConfig(mem_mb=0.0, cache_dir=""),
    )


def gateway_config(**kwargs) -> GatewayConfig:
    """A gateway over :func:`service_config`."""
    return GatewayConfig(service=service_config(), **kwargs)


def direct_result(events, spec):
    """The reference: one job through a direct single service."""
    with ReconstructionService(
        workers=1, executor="inline", cache=CacheConfig(mem_mb=0)
    ) as service:
        return service.result(service.submit(events, spec), timeout=300.0)


def assert_bit_equal(result, direct) -> None:
    """Fused map, cloud and deterministic counters match bit for bit."""
    assert result.profile.counters() == direct.profile.counters()
    np.testing.assert_array_equal(result.cloud.points, direct.cloud.points)
    np.testing.assert_array_equal(
        result.global_map.fused_points(), direct.global_map.fused_points()
    )


class FakeClock:
    """A manually advanced monotonic clock for admission tests."""

    def __init__(self, start: float = 1000.0):
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestRouting:
    def test_tenant_sessions_share_one_service(self, served):
        """Three tenants' jobs run on the one service, each counted under
        its own session, each bit-identical to a direct run.
        """
        events, spec = served
        direct = direct_result(events, spec)

        async def run():
            async with Gateway(gateway_config()) as gateway:
                jobs = [
                    await gateway.submit(events, spec, session=tenant)
                    for tenant in TENANTS
                ]
                results = [
                    await gateway.result(job_id, timeout=300.0)
                    for job_id in jobs
                ]
                return jobs, results, (await gateway.stats())[0]

        jobs, results, stats = asyncio.run(run())
        assert [job_id.split("@", 1)[1] for job_id in jobs] == list(TENANTS)
        assert stats.jobs_submitted == stats.jobs_done == len(TENANTS)
        assert set(stats.segments_dispatched) == set(TENANTS)
        for result in results:
            assert_bit_equal(result, direct)

    def test_routed_result_bit_identical_to_direct(self, served):
        """One session: the gateway result equals a direct single-service
        run bit-for-bit.
        """
        events, spec = served
        direct = direct_result(events, spec)

        async def routed():
            async with Gateway(gateway_config()) as gateway:
                job_id = await gateway.submit(events, spec, session="tenant-7")
                return await gateway.result(job_id, timeout=300.0)

        assert_bit_equal(asyncio.run(routed()), direct)

    def test_interleaved_streams_bit_exact(self, served):
        """Two tenants' streams fed in interleaved chunks on the one
        service: each closed stream equals a one-shot direct submit.
        """
        events, spec = served
        direct = direct_result(events, spec)

        async def run():
            async with Gateway(gateway_config()) as gateway:
                streams = [
                    await gateway.open_stream(spec, session=tenant)
                    for tenant in TENANTS[:2]
                ]
                half = len(events) // 2
                for chunk in (events[:half], events[half:]):
                    for stream in streams:
                        await stream.feed(chunk)
                for stream in streams:
                    await stream.close()
                results = [
                    await stream.result(timeout=300.0) for stream in streams
                ]
                return results, (await gateway.stats())[0]

        results, stats = asyncio.run(run())
        assert stats.streams_opened == 2
        for result in results:
            assert_bit_equal(result, direct)


class TestAdmission:
    def test_token_bucket_throttles_with_429(self, served):
        events, spec = served
        clock = FakeClock()

        async def run():
            config = gateway_config(tenant_rate=1.0, tenant_burst=2)
            async with Gateway(config, clock=clock) as gateway:
                jobs = [
                    await gateway.submit(events, spec, session="greedy")
                    for _ in range(2)
                ]
                with pytest.raises(GatewayRefused) as exc:
                    await gateway.submit(events, spec, session="greedy")
                assert exc.value.reason == "throttled"
                assert exc.value.status == 429
                assert exc.value.retry_after_s == pytest.approx(1.0)
                # Another tenant is unaffected; the throttled tenant
                # recovers once its bucket refills.
                jobs.append(
                    await gateway.submit(events, spec, session="polite")
                )
                clock.advance(1.5)
                jobs.append(
                    await gateway.submit(events, spec, session="greedy")
                )
                await gateway.drain()
                status = await gateway.status()
                assert status["gateway"]["refusals"]["throttled"] == 1
                assert status["service"]["jobs_submitted"] == len(jobs)

        asyncio.run(run())

    def test_global_inflight_cap_with_429(self, served):
        events, spec = served

        async def run():
            async with Gateway(gateway_config(max_inflight=2)) as gateway:
                names = TENANTS[:2]
                jobs = [
                    await gateway.submit(events, spec, session=name)
                    for name in names
                ]
                with pytest.raises(GatewayRefused) as exc:
                    await gateway.submit(events, spec, session=names[0])
                assert exc.value.reason == "overloaded"
                # Observing a terminal job frees cap room.
                await gateway.result(jobs[0], timeout=300.0)
                await gateway.submit(events, spec, session=names[0])
                await gateway.drain()

        asyncio.run(run())


class TestObservability:
    def test_metrics_reconcile_with_service_stats(self, served):
        """The scraped /metrics document reads back to the service's
        ``ServiceStats`` exactly, per tenant session included.
        """
        events, spec = served

        async def run():
            async with Gateway(gateway_config()) as gateway:
                async with GatewayServer(gateway) as server:
                    for session in TENANTS:
                        await gateway.submit(events, spec, session=session)
                    await gateway.drain()
                    status_code, text = await http_request(
                        server.host, server.port, "GET", "/metrics"
                    )
                    stats = (await gateway.stats())[0]
                    return status_code, text.decode("utf-8"), stats

        status_code, text, stats = asyncio.run(run())
        assert status_code == 200
        parsed = parse_metrics(text)
        for state in ("submitted", "done", "failed"):
            assert sum_series(
                parsed, "repro_serve_jobs_total", state=state
            ) == getattr(stats, f"jobs_{state}")
        assert stats.jobs_done == len(TENANTS)
        # Per-session series reconcile session by session.
        assert set(stats.segments_dispatched) == set(TENANTS)
        for session, count in stats.segments_dispatched.items():
            assert sum_series(
                parsed, "repro_serve_segments_dispatched_total",
                session=session,
            ) == count
        # Deterministic pipeline counters are exported and reconcile.
        assert (
            sum_series(parsed, "repro_pipeline_counters_total",
                       counter="votes_cast")
            == stats.profile.counters()["votes_cast"]
        )
        # One service: no series carries a shard label.
        assert not any(key == "shard" for _, labels in parsed for key, _ in labels)
        # Gateway-level series: every submit was counted, latency filed.
        assert sum_series(parsed, "repro_gateway_requests_total",
                          kind="submit") == len(TENANTS)
        assert sum_series(parsed, "repro_gateway_request_latency_seconds_count"
                          ) == len(TENANTS)
        assert sum_series(parsed, "repro_gateway_inflight_jobs") == 0

    def test_http_surface(self, served):
        """healthz, status, job status, 404 and 400 over the wire."""
        events, spec = served

        async def run():
            async with Gateway(gateway_config()) as gateway:
                async with GatewayServer(gateway) as server:
                    job_id = await gateway.submit(events, spec, session="web")
                    await gateway.result(job_id, timeout=300.0)
                    host, port = server.host, server.port
                    health = await http_request(host, port, "GET", "/healthz")
                    status = await http_request(host, port, "GET", "/status")
                    job = await http_request(
                        host, port, "GET", f"/jobs/{job_id}"
                    )
                    missing = await http_request(
                        host, port, "GET", "/jobs/job-999@nowhere"
                    )
                    bad_body = await http_request(
                        host, port, "POST", "/jobs", body={"nonsense": True}
                    )
                    bad_seq = await http_request(
                        host, port, "POST", "/jobs",
                        body={"sequence": "no-such-sequence"},
                    )
                    no_route = await http_request(
                        host, port, "GET", "/teapot"
                    )
                    return (health, status, job, missing, bad_body,
                            bad_seq, no_route)

        health, status, job, missing, bad_body, bad_seq, no_route = (
            asyncio.run(run())
        )
        assert health[0] == 200
        assert json.loads(health[1]) == {"status": "ok"}
        assert status[0] == 200
        doc = json.loads(status[1])
        assert set(doc) == {"service", "gateway"}
        assert doc["service"]["jobs_done"] == 1
        assert doc["gateway"]["requests"]["submit"] == 1
        assert job[0] == 200
        record = json.loads(job[1])
        assert record["state"] == "done"
        assert record["done"] is True
        assert record["segments_done"] == record["segments_total"] > 0
        assert missing[0] == 404
        assert bad_body[0] == 400
        assert bad_seq[0] == 400
        assert no_route[0] == 404

    def test_http_429_with_retry_after(self, served):
        events, spec = served
        clock = FakeClock()

        async def run():
            config = gateway_config(tenant_rate=0.5, tenant_burst=1)
            async with Gateway(config, clock=clock) as gateway:
                async with GatewayServer(gateway) as server:
                    body = {"sequence": "slider_long", "quality": "fast",
                            "planes": 24, "frame_size": 256,
                            "session": "hammered"}
                    first = await http_request(
                        server.host, server.port, "POST", "/jobs", body=body
                    )
                    second = await http_request(
                        server.host, server.port, "POST", "/jobs", body=body
                    )
                    await gateway.drain()
                    return first, second

        first, second = asyncio.run(run())
        assert first[0] == 202
        assert "job_id" in json.loads(first[1])
        assert second[0] == 429
        refusal = json.loads(second[1])
        assert refusal["reason"] == "throttled"
        assert refusal["retry_after_s"] == pytest.approx(2.0)


async def raw_request(host: str, port: int, head: str) -> tuple[int, bytes]:
    """Send a hand-written, body-less request; return ``(status, body)``.

    For requests :func:`http_request` cannot produce (a bad
    ``Content-Length`` header).  Raises ``ConnectionError`` on an empty
    reply, like :func:`http_request`.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(head.encode("latin-1"))
        await writer.drain()
        reply = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    if not reply:
        raise ConnectionError("empty reply")
    status_line, _, rest = reply.partition(b"\r\n")
    return int(status_line.split(b" ", 2)[1]), rest.partition(b"\r\n\r\n")[2]


#: A valid ``POST /jobs`` body the malformed cases perturb (an explicit
#: ``keyframe_distance``, so each case fails on its own field alone).
GOOD_JOB = {"sequence": "simulation_3planes", "quality": "fast",
            "keyframe_distance": 0.1}


class TestHttpContract:
    def test_paper_sequence_submits_over_http(self):
        """``POST /jobs`` for a paper sequence (``keyframe_distance`` is
        ``None``: one key frame) is accepted, and the job's fused cloud
        equals a direct submit of the same slice.
        """
        seq = load_sequence("simulation_3planes", quality="fast")
        assert seq.keyframe_distance is None
        body = {"sequence": "simulation_3planes", "t_start": 0.95, "t_end": 1.1,
                "planes": 24, "frame_size": 512, "session": "paper"}
        events = seq.events.time_slice(0.95, 1.1)
        spec = EngineSpec(
            seq.camera, seq.trajectory,
            EMVSConfig(n_depth_planes=24, frame_size=512),
            depth_range=seq.depth_range, backend="numpy-batch",
        )
        direct = direct_result(events, spec)

        async def run():
            async with Gateway(gateway_config()) as gateway:
                async with GatewayServer(gateway) as server:
                    code, data = await http_request(
                        server.host, server.port, "POST", "/jobs", body=body
                    )
                    assert code == 202, data
                    reply = json.loads(data)
                    assert reply == {"job_id": reply["job_id"], "session": "paper"}
                    return await gateway.result(reply["job_id"], timeout=300.0)

        assert_bit_equal(asyncio.run(run()), direct)

    @pytest.mark.parametrize(
        "request_",
        [
            {**GOOD_JOB, "t_start": "soon"},
            {**GOOD_JOB, "t_end": [1.0]},
            {**GOOD_JOB, "sequence": ["simulation_3planes"]},
            {**GOOD_JOB, "session": {"tenant": 1}},
            {**GOOD_JOB, "quality": 3},
            {**GOOD_JOB, "quality": "bogus"},
            {**GOOD_JOB, "t_start": float("nan"), "t_end": 1.0},
            {**GOOD_JOB, "t_start": 0.7, "t_end": 0.5},
            {**GOOD_JOB, "t_start": 0.5, "t_end": 0.7,
             "keyframe_distance": float("nan")},
            "POST /jobs HTTP/1.1\r\nContent-Length: many\r\n\r\n",
            "POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        ],
        ids=[
            "t_start-not-numeric", "t_end-not-numeric", "sequence-not-string",
            "session-not-string", "quality-not-string", "quality-unknown",
            "t_start-nan", "window-reversed", "keyframe_distance-nan",
            "content-length-not-numeric", "content-length-negative",
        ],
    )
    def test_malformed_request_gets_400(self, request_):
        """Each malformed request — a ``POST /jobs`` body, or raw request
        bytes — gets a 400 with a JSON ``error`` (not a dropped
        connection), and the server answers ``/healthz`` after.
        """

        async def run():
            async with Gateway(gateway_config()) as gateway:
                async with GatewayServer(gateway) as server:
                    host, port = server.host, server.port
                    if isinstance(request_, dict):
                        reply = await http_request(
                            host, port, "POST", "/jobs", body=request_
                        )
                    else:
                        reply = await raw_request(host, port, request_)
                    health = await http_request(host, port, "GET", "/healthz")
                    return reply, health

        (code, data), health = asyncio.run(run())
        assert code == 400
        assert isinstance(json.loads(data)["error"], str)
        assert health == (200, b'{"status": "ok"}')

    def test_unknown_backend_gets_400_and_admits_nothing(self):
        """``POST /jobs`` naming an unregistered backend is refused at
        the request (400 naming it), not admitted to fail in a worker."""

        async def run():
            async with Gateway(gateway_config()) as gateway:
                async with GatewayServer(gateway) as server:
                    reply = await http_request(
                        server.host, server.port, "POST", "/jobs",
                        body={**GOOD_JOB, "backend": "cuda"},
                    )
                    return reply, (await gateway.stats())[0]

        (code, data), stats = asyncio.run(run())
        assert code == 400
        assert "unknown backend 'cuda'" in json.loads(data)["error"]
        assert stats.jobs_submitted == 0

    def test_http_request_raises_on_empty_reply(self):
        """A server that closes without answering is a ``ConnectionError``."""

        async def run():
            async def hang_up(reader, writer):
                await reader.readline()
                writer.close()

            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(ConnectionError):
                    await http_request("127.0.0.1", port, "GET", "/healthz")
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())


class TestShutdown:
    def test_stop_leaves_everything_terminal(self, served):
        """``stop()`` with an open stream and queued work: every job
        observed through the gateway ends terminal.
        """
        events, spec = served

        async def run():
            gateway = await Gateway(gateway_config()).start()
            job_id = await gateway.submit(events, spec, session=TENANTS[0])
            stream = await gateway.open_stream(spec, session=TENANTS[1])
            half = events.t_start + events.duration / 2
            await stream.feed(events.time_slice(events.t_start, half))
            await gateway.stop(wait=True)
            # Post-stop: both jobs are terminal on the service.
            states = {
                jid: job.state for jid, job in gateway._service.jobs.items()
            }
            assert states[job_id] is JobState.DONE
            assert states[stream.job_id] in (JobState.DONE, JobState.PARTIAL)

        asyncio.run(run())

    def test_stop_is_idempotent_and_restartable(self, served):
        events, spec = served

        async def run():
            gateway = Gateway(gateway_config())
            await gateway.start()
            await gateway.start()  # idempotent
            job_id = await gateway.submit(events, spec, session="only")
            await gateway.result(job_id, timeout=300.0)
            await gateway.stop()
            await gateway.stop()  # idempotent
            await gateway.start()  # restart: a fresh service
            job_id = await gateway.submit(events, spec, session="only")
            await gateway.result(job_id, timeout=300.0)
            await gateway.stop()

        asyncio.run(run())
