"""Unit tests of the gateway building blocks and the metrics surface.

Covers the pieces that must be deterministic in isolation: the token
bucket on a fake clock, the latency histogram, the Prometheus
render/parse round trip, the status document, and the admission
controller's structured refusals.  The end-to-end gateway behaviour
lives in ``tests/integration/test_serve_gateway.py``.
"""

import asyncio

import pytest

from repro.serve import (
    Gateway,
    GatewayConfig,
    GatewayRefused,
    ServeError,
    Histogram,
    ServiceStats,
    TokenBucket,
    parse_metrics,
    render_metrics,
    service_families,
    status_snapshot,
    sum_series,
)
from repro.core.results import PipelineProfile
from repro.serve.cache import CacheStats
from repro.serve.gateway import AdmissionController
from repro.serve.metrics import histogram_family, make_family


def make_stats(**overrides) -> ServiceStats:
    """A fully-populated ServiceStats with all counters zeroed."""
    base = dict(
        jobs_submitted=0, jobs_done=0, jobs_failed=0, jobs_refused=0,
        jobs_dropped=0, jobs_partial=0, streams_opened=0,
        updates_emitted=0, chunks_refused=0, chunks_dropped=0,
        segments_retried=0, segments_timed_out=0, results_corrupted=0,
        cache=CacheStats(), segments_dispatched={}, profile=PipelineProfile(),
    )
    base.update(overrides)
    return ServiceStats(**base)


class FakeClock:
    """Deterministic stand-in for the monotonic clock."""

    def __init__(self, start: float = 1000.0):
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(3)] == [None, None, None]
        wait = bucket.try_take()
        assert wait is not None and wait == pytest.approx(1.0)

    def test_refill_on_fake_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.try_take() is None
        assert bucket.try_take() is None
        assert bucket.try_take() is not None
        clock.advance(0.5)  # one token at 2/s
        assert bucket.try_take() is None
        assert bucket.try_take() is not None

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        clock.advance(100.0)
        assert bucket.try_take() is None
        assert bucket.try_take() is None
        assert bucket.try_take() is not None

    def test_zero_rate_disables(self):
        bucket = TokenBucket(rate=0.0, burst=1, clock=FakeClock())
        assert all(bucket.try_take() is None for _ in range(100))

    def test_backwards_clock_jump_is_harmless(self):
        """A clock stall or backwards jump never mints negative tokens."""
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1, clock=clock)
        assert bucket.try_take() is None
        clock.t -= 50.0
        assert bucket.try_take() is not None  # still empty, not negative
        clock.advance(51.0)  # 1 s past the (rebased) last refill
        assert bucket.try_take() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, burst=1, clock=FakeClock())
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0, clock=FakeClock())


class TestAdmissionController:
    def test_global_cap(self):
        control = AdmissionController(
            GatewayConfig(max_inflight=2), FakeClock()
        )
        control.admit("a", inflight=0)
        control.admit("a", inflight=1)
        with pytest.raises(GatewayRefused) as exc:
            control.admit("a", inflight=2)
        assert exc.value.reason == "overloaded"
        assert exc.value.status == 429

    def test_per_tenant_isolation(self):
        """One tenant exhausting its bucket never throttles another."""
        clock = FakeClock()
        control = AdmissionController(
            GatewayConfig(tenant_rate=1.0, tenant_burst=2), clock
        )
        control.admit("greedy", inflight=0)
        control.admit("greedy", inflight=0)
        with pytest.raises(GatewayRefused) as exc:
            control.admit("greedy", inflight=0)
        assert exc.value.reason == "throttled"
        assert exc.value.retry_after_s == pytest.approx(1.0)
        control.admit("polite", inflight=0)  # unaffected

    def test_refusal_payload(self):
        refusal = GatewayRefused("throttled", "slow down", retry_after_s=1.25)
        payload = refusal.to_payload()
        assert payload == {
            "error": "slow down",
            "reason": "throttled",
            "status": 429,
            "retry_after_s": 1.25,
        }


class TestHistogram:
    def test_observe_and_count(self):
        h = Histogram()
        for v in [0.001, 0.02, 0.02, 5.0]:
            h.observe(v)
        counts = dict(h.bucket_counts())
        assert counts[0.005] == 1  # cumulative: only the 1 ms sample
        assert h.count == 4
        assert h.sum == pytest.approx(5.041)

    def test_quantile_bounds(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0  # empty
        for _ in range(100):
            h.observe(0.03)
        assert h.quantile(0.5) == pytest.approx(0.05)  # bucket upper bound

    def test_render_parse_round_trip(self):
        h = Histogram(buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(10.0)
        families = [
            make_family(
                "demo_total", "counter", "Demo.", [({"kind": "x"}, 3.0)]
            ),
            histogram_family("demo_latency_seconds", "Demo latency.", [((), h)]),
        ]
        parsed = parse_metrics(render_metrics(families))
        assert parsed[("demo_total", (("kind", "x"),))] == 3.0
        assert parsed[("demo_latency_seconds_count", ())] == 3.0
        assert parsed[("demo_latency_seconds_sum", ())] == pytest.approx(10.55)
        assert parsed[("demo_latency_seconds_bucket", (("le", "0.1"),))] == 1.0
        assert parsed[("demo_latency_seconds_bucket", (("le", "1"),))] == 2.0
        assert parsed[("demo_latency_seconds_bucket", (("le", "+Inf"),))] == 3.0


class TestServiceFamilies:
    def test_families_reconcile_with_stats(self):
        """The exported text reconciles with the stats object it came from."""
        stats = make_stats(
            jobs_submitted=5, jobs_done=4, jobs_failed=1,
            segments_dispatched={"a": 3, "b": 2}, queue_depths={"a": 1},
        )
        parsed = parse_metrics(render_metrics(service_families(stats)))
        assert sum_series(parsed, "repro_serve_jobs_total", state="submitted") == 5
        assert sum_series(parsed, "repro_serve_jobs_total", state="done") == 4
        assert sum_series(parsed, "repro_serve_jobs_total", state="failed") == 1
        assert (
            sum_series(parsed, "repro_serve_segments_dispatched_total") == 5
        )
        assert parsed[("repro_serve_queue_depth", (("session", "a"),))] == 1
        # One service: no series carries a shard label.
        assert not any(
            key == "shard" for _, labels in parsed for key, _ in labels
        )

    def test_status_snapshot_record(self):
        stats = make_stats(jobs_submitted=5, jobs_done=4, jobs_partial=1,
                           segments_retried=2, queue_depths={"a": 2, "b": 1})
        snap = status_snapshot(stats)
        assert set(snap) == {"service"}
        record = snap["service"]
        assert record["jobs_submitted"] == 5
        assert record["jobs_partial"] == 1
        assert record["queue_depth"] == 3
        # retry_rate = retried / (done + partial + failed) = 2 / 5
        assert record["retry_rate"] == "40.0%"
        assert record["segment_cache_hit_rate"] == "-"


class TestGatewayConfig:
    def test_defaults_valid(self):
        config = GatewayConfig()
        assert config.shards == 1
        assert config.max_inflight == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"shards": 2},
            {"port": -1},
            {"tenant_rate": -0.1},
            {"tenant_burst": 0},
            {"max_inflight": -1},
            {"port": 70000},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GatewayConfig(**kwargs)

    def test_gateway_requires_start(self):
        gateway = Gateway(GatewayConfig())

        async def calls():
            with pytest.raises(ServeError, match="not started"):
                await gateway.submit(None, None, session="any")
            with pytest.raises(ServeError, match="not started"):
                await gateway.poll("job-1@any")

        asyncio.run(calls())
