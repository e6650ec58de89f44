"""Turn a measured phase into the named metrics ``(value, unit, samples)``."""

from __future__ import annotations

from collections import defaultdict

import tracing
from stats import median, percentile, tail_percentile

#: Engine stages of ``PipelineProfile.stage_seconds``.
STAGES = ("A", "P_Z0", "P_Zi_R", "D", "M")

_ALL = ("rig_offline", "gateway_windows", "stream_realtime")

#: The workloads that exercise each layer; the traced run of any other
#: workload reports 0 for that layer's metrics.
LAYER_WORKLOADS = {
    "events": _ALL,
    "engine": _ALL,
    "mapping": _ALL,
    "rig": ("rig_offline",),
    "cache": ("gateway_windows",),
    "service": ("gateway_windows", "stream_realtime"),
    "gateway": ("gateway_windows",),
    "stream": ("stream_realtime",),
    "trace": _ALL,
}


def end_to_end(workload, sample, setups, memory) -> dict:
    """The user-visible metrics of one untraced phase."""
    lat = sample.latencies
    p = tail_percentile(len(lat), workload.tail_cap)
    print(f"tail: latency_tail_ms is p{p} of {len(lat)} samples "
          f"(cap p{workload.tail_cap}, >= 10 samples beyond)")
    completed = len(lat)
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "latency_p50_ms": (1e3 * median(lat), "ms", completed),
        "latency_tail_ms": (1e3 * percentile(lat, p), "ms", completed),
        "ops_per_s": (completed / sample.wall, "1/s", completed),
        "events_per_s": (sample.events / sample.wall, "ev/s", completed),
        "peak_rss_mb": (memory.peak_mb, "MiB", 1),
    }


def _children(spans):
    kids = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            kids[id(span.parent)].append(span)
    return kids


def _done_poll(result, kids):
    """The ``service.poll`` inside a ``Gateway.result`` that saw the job terminal."""
    done = [c for c in kids[id(result)] if "latency" in c.attrs]
    return done[-1] if done else None


def _split_result_polls(spans, kids) -> list:
    """Spans for attribution, with each ``Gateway.result`` cut at the done poll.

    Until the poll that sees the job terminal, ``Gateway.result`` only
    waits for the shard's service to finish the job, so that part is
    attributed to the service (queue wait); the rest is the gateway's.
    """
    out = []
    for span in spans:
        done = _done_poll(span, kids) if span.name == "gateway.result" else None
        if done is None:
            out.append(span)
            continue
        cut = done.end
        waiting = tracing.Span("service.wait", "service", span.op, span.parent, span.depth,
                               span.start, cut)
        tail = tracing.Span(span.name, span.layer, span.op, span.parent, span.depth, cut, span.end)
        for child in kids[id(span)]:
            child.parent = waiting if child.end <= cut else tail
        out.extend((waiting, tail))
    return out


def _op_figures(spans) -> dict:
    """Per-op sums and derived timings of one op's spans."""
    out = defaultdict(float)
    workers = [s for s in spans if s.name == "engine.segment"]
    kids = _children(spans)
    for span in spans:
        out[span.name] += span.duration
    for worker in workers:
        for stage in STAGES:
            out[f"engine.{stage}_s"] += worker.attrs["stages"].get(stage, 0.0)
        for key in ("events", "votes", "dropped", "keyframes"):
            out[f"engine.{key}"] += worker.attrs[key]
    executed = tracing.union_length([(w.start, w.end) for w in workers])
    per_pid = defaultdict(float)
    for worker in workers:
        per_pid[worker.pid] += worker.duration
    critical = max(per_pid.values(), default=0.0)
    for run in (s for s in spans if s.name in ("mapping.run", "rig.run")):
        fusion = sum(out[n] for n in ("mapping.merge", "mapping.fuse", "mapping.cloud",
                                      "rig.fuse", "rig.cloud"))
        out["mapping.pool_overhead_s"] += run.duration - out["engine.plan"] - critical - fusion
    for submit in (s for s in spans if s.name == "gateway.submit"):
        inside = [(c.start, c.end) for c in kids[id(submit)]]
        out["gateway.submit_s"] += submit.duration - tracing.union_length(inside)
    for result in (s for s in spans if s.name == "gateway.result"):
        done = _done_poll(result, kids)
        if done is not None:
            out["gateway.result_s"] += result.end - done.end
            out["service.queue_wait_s"] += done.attrs["latency"] - executed
    spans = _split_result_polls(spans, kids)
    for layer, seconds in tracing.self_times(spans).items():
        out[f"{layer}.self_s"] += seconds
    for layer, seconds in tracing.shares(spans).items():
        out[f"share.{layer}"] += seconds
    return out


def per_layer(tracer, sample, untraced, bound: float) -> dict:
    """The per-layer metrics of a traced phase, plus the reconciliation printout."""
    by_op = tracer.by_op()
    ops = list(sample.op_walls)
    figures = [_op_figures(by_op.get(op, [])) for op in ops]

    def per_op(name: str) -> float:
        return sum(f.get(name, 0.0) for f in figures) / len(figures)

    spans = tracer.spans
    segments = [s.duration for s in spans if s.name == "engine.segment"]
    polls = [s.duration for s in spans if s.name == "stream.poll_updates"]
    extra = sample.extra
    n = len(ops)
    hits, misses = extra.get("cache.segment_hits", 0.0), extra.get("cache.segment_misses", 0.0)

    values = {
        "events.construct_s": (per_op("events.construct"), "s", n),
        "events.digest_s": (per_op("events.digest"), "s", n),
        "engine.plan_s": (per_op("engine.plan"), "s", n),
        "engine.segment_s": (median(segments) if segments else 0.0, "s", len(segments)),
    }
    for stage in STAGES:
        values[f"engine.{stage}_s"] = (per_op(f"engine.{stage}_s"), "s", n)
    for key in ("events", "votes", "dropped", "keyframes"):
        values[f"engine.{key}"] = (per_op(f"engine.{key}"), "count", n)
    values.update({
        "mapping.merge_s": (per_op("mapping.merge"), "s", n),
        "mapping.fuse_s": (per_op("mapping.fuse"), "s", n),
        "mapping.cloud_s": (per_op("mapping.cloud"), "s", n),
        "mapping.task_bytes": (extra.get("mapping.task_bytes", 0.0), "bytes", 1),
        "mapping.pickle_s": (extra.get("mapping.pickle_s", 0.0), "s", 1),
        "mapping.pool_overhead_s": (per_op("mapping.pool_overhead_s"), "s", n),
        "rig.fuse_s": (per_op("rig.fuse"), "s", n),
        "rig.cloud_s": (per_op("rig.cloud"), "s", n),
        "cache.key_s": (per_op("cache.key"), "s", n),
        "cache.probe_s": (per_op("cache.get") + per_op("cache.put"), "s", n),
        "cache.segment_hits": (hits / n, "count", n),
        "cache.segment_misses": (misses / n, "count", n),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio", n),
        "service.submit_s": (per_op("service.submit") + per_op("service.open_stream"), "s", n),
        "service.queue_wait_s": (
            extra["service.queue_wait_s"] if "service.queue_wait_s" in extra
            else per_op("service.queue_wait_s"), "s", n),
    })
    for key in ("segments_dispatched", "segments_retried", "jobs_refused", "jobs_coalesced"):
        values[f"service.{key}"] = (extra.get(f"service.{key}", 0.0) / n, "count", n)
    values.update({
        "gateway.submit_s": (per_op("gateway.submit_s"), "s", n),
        "gateway.result_s": (per_op("gateway.result_s"), "s", n),
        "gateway.refusals": (float(extra.get("gateway.refusals", 0)), "count", n),
        "gateway.http_submit_s": (extra.get("gateway.http_submit_s", 0.0), "s", 5),
        "stream.feed_s_p50": (extra.get("stream.feed_s_p50", 0.0), "s", n),
        "stream.feed_s_tail": (extra.get("stream.feed_s_tail", 0.0), "s", n),
        "stream.poll_s": (median(polls) if polls else 0.0, "s", len(polls)),
        "stream.updates": (extra.get("stream.updates", 0.0), "count", n),
        "stream.chunks_dropped": (extra.get("stream.chunks_dropped", 0.0) / n, "count", n),
        "stream.generator_late_ms_tail": (extra.get("stream.generator_late_ms_tail", 0.0), "ms", n),
    })
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = (per_op(f"{layer}.self_s"), "s", n)

    untraced_wall, traced_wall = _matched_walls(untraced, sample)
    overhead = traced_wall - untraced_wall
    unexplained = per_op(f"share.{tracing.UNEXPLAINED}")
    values["trace.overhead_s"] = (overhead, "s", n)
    values["trace.unexplained_s"] = (unexplained, "s", n)
    _reconcile(figures, per_op, untraced_wall, traced_wall, overhead, bound)
    return values


def _matched_walls(untraced, traced) -> tuple[float, float]:
    """Mean op wall of both phases over the op kinds both ran, weighted alike.

    The traced phase's mix of op kinds (gateway windows, cache modes)
    weights both means, so the difference is tracing overhead rather
    than a different mix of work.
    """

    def by_kind(sample):
        kinds = defaultdict(list)
        for op, wall in sample.op_walls.items():
            kinds[sample.op_kinds.get(op)].append(wall)
        return kinds

    u, t = by_kind(untraced), by_kind(traced)
    common = [kind for kind in t if kind in u]
    weight = sum(len(t[kind]) for kind in common)
    return tuple(
        sum(len(t[kind]) * sum(side[kind]) / len(side[kind]) for kind in common) / weight
        for side in (u, t)
    )


def _reconcile(figures, per_op, untraced_wall, traced_wall, overhead, bound) -> None:
    """Print each layer's share and check shares + overhead against the untraced wall."""
    layers = sorted({k[len("share."):] for f in figures for k in f if k.startswith("share.")})
    shares = {layer: per_op(f"share.{layer}") for layer in layers}
    explained = sum(v for k, v in shares.items() if k != tracing.UNEXPLAINED)
    print(f"reconcile: untraced {untraced_wall:.6f} s/op, traced {traced_wall:.6f} s/op, "
          f"tracing overhead {overhead:.6f} s/op")
    for layer in tracing.LAYERS + ("client", tracing.UNEXPLAINED):
        if layer in shares:
            self_s = per_op(f"{layer}.self_s")
            print(f"  layer {layer:<12} share {shares[layer]:.6f} s/op "
                  f"({shares[layer] / traced_wall:6.1%})  self {self_s:.6f} s/op")
    residual = (explained + overhead - untraced_wall) / untraced_wall
    verdict = "ok" if abs(residual) <= bound else "FAILED"
    print(f"reconcile: shares {explained:.6f} + overhead {overhead:.6f} vs untraced "
          f"{untraced_wall:.6f} s/op: residual {residual:+.2%} (bound {bound:.0%}) {verdict}")
    if verdict != "ok":
        print(f"reconcile: unexplained share {shares.get(tracing.UNEXPLAINED, 0.0):.6f} s/op "
              "is not covered by any layer span")
