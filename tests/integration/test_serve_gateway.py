"""End-to-end gateway integration: routing, admission, HTTP, shutdown.

Each test drives a real :class:`~repro.serve.Gateway` (real services,
real shard threads) from a private event loop via ``asyncio.run`` — no
external HTTP client library, the in-process
:func:`~repro.serve.http_request` speaks to the stdlib
:class:`~repro.serve.GatewayServer` over a loopback socket.

The invariants pinned here:

* **routing** — a session's jobs always land on the shard the hash
  ring names, the mapping survives a gateway restart with an equal
  shard count, and streams stay pinned for their whole life;
* **equivalence** — a gateway-routed job's result is bit-identical to
  a direct single-service run (the scaling layer changes *where*, not
  *what*);
* **admission** — the token bucket and the global in-flight cap refuse
  with structured 429s (and real HTTP 429 responses), on a fake clock;
* **observability** — ``/metrics`` parses back to numbers that
  reconcile exactly with the per-shard ``ServiceStats``;
* **shutdown** — ``stop()`` leaves every admitted job terminal, open
  streams included.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core import EngineSpec
from repro.serve import (
    CacheConfig,
    Gateway,
    GatewayConfig,
    GatewayRefused,
    GatewayServer,
    HashRing,
    JobState,
    ReconstructionService,
    ServiceConfig,
    http_request,
    parse_metrics,
    sum_series,
)


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
    """One inline worker, caches off — determinism-friendly shards."""
    return ServiceConfig(
        workers=1,
        executor="inline",
        cache=CacheConfig(job_entries=0, mem_mb=0.0, cache_dir=""),
    )


def sessions_covering_all_shards(shards: int) -> list[str]:
    """Deterministic session names that hit every shard once."""
    ring = HashRing(shards)
    found: dict[int, str] = {}
    i = 0
    while len(found) < shards:
        name = f"tenant-{i}"
        found.setdefault(ring.shard_for(name), name)
        i += 1
    return [found[shard] for shard in sorted(found)]


class FakeClock:
    """A manually advanced monotonic clock for admission tests."""

    def __init__(self, start: float = 1000.0):
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestRouting:
    def test_sessions_route_to_ring_shard_and_survive_restart(self, served):
        """Jobs land on the shard the ring names; an equal-shard-count
        "restarted" gateway routes every session identically.
        """
        events, spec = served
        names = sessions_covering_all_shards(3)

        async def run_once():
            config = GatewayConfig(shards=3, service=service_config())
            placements = {}
            async with Gateway(config) as gateway:
                for session in names:
                    job_id = await gateway.submit(events, spec, session=session)
                    expected = gateway.shard_index(session)
                    # The job is registered on exactly the ring's shard.
                    stats = await gateway.stats()
                    assert stats[expected].jobs_submitted >= 1
                    placements[session] = expected
                    await gateway.result(job_id, timeout=300.0)
            return placements

        first = asyncio.run(run_once())
        second = asyncio.run(run_once())  # the "restart"
        assert first == second
        assert sorted(first.values()) == [0, 1, 2]  # all shards exercised

    def test_routed_result_bit_identical_to_direct(self, served):
        """One session, three shards: the routed result equals a direct
        single-service run bit-for-bit.
        """
        events, spec = served
        with ReconstructionService(
            workers=1, executor="inline", cache=CacheConfig(job_entries=0)
        ) as service:
            direct = service.result(service.submit(events, spec), timeout=300.0)

        async def routed():
            config = GatewayConfig(shards=3, service=service_config())
            async with Gateway(config) as gateway:
                job_id = await gateway.submit(events, spec, session="tenant-7")
                return await gateway.result(job_id, timeout=300.0)

        result = asyncio.run(routed())
        assert result.profile.counters() == direct.profile.counters()
        np.testing.assert_array_equal(result.cloud.points, direct.cloud.points)
        np.testing.assert_array_equal(
            result.global_map.fused_points(), direct.global_map.fused_points()
        )

    def test_stream_pinned_to_its_shard(self, served):
        """A stream's feeds, polls and result all run on the shard that
        admitted it, interleaved feeds from two sessions included.
        """
        events, spec = served

        async def run():
            config = GatewayConfig(shards=3, service=service_config())
            a_name, b_name = sessions_covering_all_shards(3)[:2]
            async with Gateway(config) as gateway:
                stream_a = await gateway.open_stream(spec, session=a_name)
                stream_b = await gateway.open_stream(spec, session=b_name)
                assert stream_a.shard_index == gateway.shard_index(a_name)
                assert stream_b.shard_index == gateway.shard_index(b_name)
                assert stream_a.shard_index != stream_b.shard_index
                half = events.t_start + events.duration / 2
                for stream in (stream_a, stream_b):
                    await stream.feed(events.time_slice(events.t_start, half))
                    await stream.feed(events.time_slice(half, events.t_end))
                    await stream.close()
                results = [
                    await stream.result(timeout=300.0)
                    for stream in (stream_a, stream_b)
                ]
                stats = await gateway.stats()
                for stream in (stream_a, stream_b):
                    assert stats[stream.shard_index].streams_opened == 1
                return results

        result_a, result_b = asyncio.run(run())
        # Same workload on two shards: identical output, shard-independent.
        assert result_a.profile.counters() == result_b.profile.counters()
        np.testing.assert_array_equal(
            result_a.cloud.points, result_b.cloud.points
        )


class TestAdmission:
    def test_token_bucket_throttles_with_429(self, served):
        events, spec = served
        clock = FakeClock()

        async def run():
            config = GatewayConfig(
                shards=2, tenant_rate=1.0, tenant_burst=2,
                service=service_config(),
            )
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
                assert status["totals"]["jobs_submitted"] == len(jobs)

        asyncio.run(run())

    def test_global_inflight_cap_with_429(self, served):
        events, spec = served

        async def run():
            config = GatewayConfig(
                shards=2, max_inflight=2, service=service_config()
            )
            async with Gateway(config) as gateway:
                names = sessions_covering_all_shards(2)
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
        """The scraped /metrics document sums back to the per-shard
        ``ServiceStats`` exactly — the reconcile bar of the ISSUE.
        """
        events, spec = served

        async def run():
            config = GatewayConfig(shards=3, service=service_config())
            async with Gateway(config) as gateway:
                async with GatewayServer(gateway) as server:
                    for session in sessions_covering_all_shards(3):
                        await gateway.submit(events, spec, session=session)
                    await gateway.drain()
                    status_code, text = await http_request(
                        server.host, server.port, "GET", "/metrics"
                    )
                    stats = await gateway.stats()
                    return status_code, text.decode("utf-8"), stats

        status_code, text, stats = asyncio.run(run())
        assert status_code == 200
        parsed = parse_metrics(text)
        totals = {
            "submitted": sum(s.jobs_submitted for s in stats.values()),
            "done": sum(s.jobs_done for s in stats.values()),
            "failed": sum(s.jobs_failed for s in stats.values()),
        }
        for state, expected in totals.items():
            assert (
                sum_series(parsed, "repro_serve_jobs_total", state=state)
                == expected
            )
        # Per-shard series reconcile shard by shard, not just in total.
        for shard, shard_stats in stats.items():
            assert (
                sum_series(
                    parsed,
                    "repro_serve_jobs_total",
                    state="done",
                    shard=str(shard),
                )
                == shard_stats.jobs_done
            )
        # Deterministic pipeline counters are exported and reconcile.
        votes = sum(s.profile.counters()["votes_cast"] for s in stats.values())
        assert (
            sum_series(parsed, "repro_pipeline_counters_total",
                       counter="votes_cast")
            == votes
        )
        # Gateway-level series: every submit was counted, latency filed.
        assert sum_series(parsed, "repro_gateway_requests_total",
                          kind="submit") == 3
        assert sum_series(parsed, "repro_gateway_request_latency_seconds_count"
                          ) == 3
        assert sum_series(parsed, "repro_gateway_inflight_jobs") == 0

    def test_http_surface(self, served):
        """healthz, status, job status, 404 and 400 over the wire."""
        events, spec = served

        async def run():
            config = GatewayConfig(shards=2, service=service_config())
            async with Gateway(config) as gateway:
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
        assert json.loads(health[1]) == {"status": "ok", "shards": 2}
        assert status[0] == 200
        doc = json.loads(status[1])
        assert doc["totals"]["jobs_done"] == 1
        assert doc["gateway"]["shards"] == 2
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
            config = GatewayConfig(
                shards=1, tenant_rate=0.5, tenant_burst=1,
                service=service_config(),
            )
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


class TestShutdown:
    def test_stop_leaves_everything_terminal(self, served):
        """``stop()`` with an open stream and queued work: every job
        observed through the gateway ends terminal.
        """
        events, spec = served

        async def run():
            config = GatewayConfig(shards=2, service=service_config())
            gateway = await Gateway(config).start()
            names = sessions_covering_all_shards(2)
            job_id = await gateway.submit(events, spec, session=names[0])
            stream = await gateway.open_stream(spec, session=names[1])
            half = events.t_start + events.duration / 2
            await stream.feed(events.time_slice(events.t_start, half))
            await gateway.stop(wait=True)
            # Post-stop: both jobs are terminal on their shards.
            states = {}
            for shard in gateway._shards:
                for jid, job in shard.service.jobs.items():
                    states[jid] = job.state
            assert states[job_id] is JobState.DONE
            assert states[stream.job_id] in (JobState.DONE, JobState.PARTIAL)

        asyncio.run(run())

    def test_stop_is_idempotent_and_restartable(self, served):
        events, spec = served

        async def run():
            gateway = Gateway(
                GatewayConfig(shards=1, service=service_config())
            )
            await gateway.start()
            await gateway.start()  # idempotent
            job_id = await gateway.submit(events, spec, session="only")
            await gateway.result(job_id, timeout=300.0)
            await gateway.stop()
            await gateway.stop()  # idempotent

        asyncio.run(run())
