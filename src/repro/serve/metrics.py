"""Prometheus-style observability surface of the serving layer.

One module owns the whole metrics story so every exporter agrees on
names and shapes:

* :class:`Histogram` — fixed-bucket latency histogram (cumulative
  bucket counts, ``sum``/``count``), the classic Prometheus shape.
* :class:`MetricFamily` — one named metric with typed samples; built
  from a :class:`~repro.serve.service.ServiceStats` snapshot by
  :func:`service_families` and rendered to the
  text exposition format by :func:`render_metrics`.
* :func:`parse_metrics` — the inverse of :func:`render_metrics`, so
  tests (and the reconcile invariant in ``docs/OBSERVABILITY.md``) can
  assert scraped counters against ``ServiceStats`` totals without a
  Prometheus client library.
* :func:`status_snapshot` / :func:`format_status` — the JSON
  (``GET /status``) and human (``repro serve --status``) views of the
  same numbers.

Everything here is observability only: none of these numbers feed the
deterministic :meth:`~repro.core.results.PipelineProfile.counters`
equality the bit-exactness tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.service import ServiceStats

#: Default latency buckets in seconds — reconstruction jobs run from
#: tens of milliseconds (cache hits) to minutes (cold full-quality
#: sequences), so the ladder spans five decades.
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


class Histogram:
    """Fixed-bucket histogram with Prometheus cumulative semantics.

    ``observe`` files a value into every bucket whose upper bound it
    does not exceed (cumulative counts), plus the ``+Inf`` implicit
    bucket tracked by ``count``; ``sum`` accumulates the raw values.
    Bucket bounds are fixed at construction — scrapes never resize.
    """

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """File one observation."""
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[i] += 1

    def bucket_counts(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` excluded."""
        return list(zip(self.buckets, self._counts))

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (bucket upper bound that covers it).

        The standard scrape-side estimate: the smallest bucket bound
        whose cumulative count reaches ``q * count``.  Returns the top
        bound for observations beyond the ladder, ``0.0`` when empty.
        """
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        for bound, cumulative in zip(self.buckets, self._counts):
            if cumulative >= target:
                return bound
        return self.buckets[-1]


@dataclass(frozen=True)
class MetricFamily:
    """One named metric: type, help text, and labeled samples.

    ``samples`` pairs a label dict with a value.  For ``histogram``
    families the samples are pre-expanded ``_bucket``/``_sum``/
    ``_count`` series (see :func:`histogram_family`), so rendering is
    uniform across kinds.
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    samples: tuple[tuple[tuple[tuple[str, str], ...], float], ...] = field(
        default_factory=tuple
    )


def _labels(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    """Normalize a label mapping to the hashable tuple form."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def make_family(
    name: str,
    kind: str,
    help_text: str,
    samples: Iterable[tuple[Mapping[str, str], float]],
) -> MetricFamily:
    """Build a :class:`MetricFamily` from ``(labels, value)`` pairs."""
    return MetricFamily(
        name=name,
        kind=kind,
        help=help_text,
        samples=tuple((_labels(labels), float(value)) for labels, value in samples),
    )


def histogram_family(
    name: str,
    help_text: str,
    histograms: Mapping[Mapping[str, str] | tuple, Histogram] | Iterable,
) -> MetricFamily:
    """Expand labeled :class:`Histogram` objects into one family.

    ``histograms`` maps a label set (mapping or label-tuple) to a
    histogram; the family carries the conventional
    ``<name>_bucket{le=...}`` / ``<name>_sum`` / ``<name>_count``
    series for each.
    """
    samples: list[tuple[tuple[tuple[str, str], ...], float]] = []
    items = histograms.items() if isinstance(histograms, Mapping) else histograms
    for labels, hist in items:
        base = _labels(dict(labels) if not isinstance(labels, Mapping) else labels)
        cumulative = 0
        for bound, cumulative in hist.bucket_counts():
            samples.append((base + (("le", _format_value(bound)),), cumulative))
        samples.append((base + (("le", "+Inf"),), hist.count))
        samples.append(((("__series__", "sum"),) + base, hist.sum))
        samples.append(((("__series__", "count"),) + base, hist.count))
    return MetricFamily(name=name, kind="histogram", help=help_text, samples=tuple(samples))


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (no float noise)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_metrics(families: Iterable[MetricFamily]) -> str:
    """Render families to the Prometheus text exposition format."""
    lines: list[str] = []
    for fam in families:
        lines.append(f"# HELP {fam.name} {fam.help}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        for labels, value in fam.samples:
            series = fam.name
            plain = []
            for key, val in labels:
                if key == "__series__":
                    series = f"{fam.name}_{val}"
                else:
                    plain.append((key, val))
            if fam.kind == "histogram" and any(k == "le" for k, _ in plain):
                series = f"{fam.name}_bucket"
            if plain:
                rendered = ",".join(
                    f'{k}="{_escape(v)}"' for k, v in plain
                )
                lines.append(f"{series}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{series} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def _escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def parse_metrics(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition text back to ``{(series, labels): value}``.

    The test-side inverse of :func:`render_metrics` — enough of the
    format to assert scraped counters against ``ServiceStats`` totals
    (full label sets, ``_bucket``/``_sum``/``_count`` series, comment
    lines skipped).  Not a general Prometheus parser.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            series, _, label_blob = name_part.partition("{")
            label_blob = label_blob.rstrip("}")
            labels = []
            for chunk in _split_labels(label_blob):
                key, _, raw = chunk.partition("=")
                labels.append((key, raw.strip('"')))
            out[(series, tuple(sorted(labels)))] = float(value_part)
        else:
            out[(name_part, ())] = float(value_part)
    return out


def _split_labels(blob: str) -> list[str]:
    """Split a label blob on commas outside quoted values."""
    parts, current, quoted = [], "", False
    for ch in blob:
        if ch == '"':
            quoted = not quoted
        if ch == "," and not quoted:
            parts.append(current)
            current = ""
        else:
            current += ch
    if current:
        parts.append(current)
    return parts


def sum_series(
    parsed: Mapping[tuple[str, tuple[tuple[str, str], ...]], float],
    series: str,
    **match: str,
) -> float:
    """Sum every sample of ``series`` whose labels include ``match``.

    The reconcile helper: ``sum_series(parsed, "repro_serve_jobs_total",
    state="done")`` reads the done-job counter; series that split a
    family by another label (``session``, ``tier``) sum across it.
    """
    wanted = set((k, str(v)) for k, v in match.items())
    return sum(
        value
        for (name, labels), value in parsed.items()
        if name == series and wanted <= set(labels)
    )


# ----------------------------------------------------------------------
# ServiceStats -> families
# ----------------------------------------------------------------------
def service_families(stats: "ServiceStats") -> list[MetricFamily]:
    """Metric families of one service's :class:`ServiceStats` snapshot.

    The catalog (documented in ``docs/OBSERVABILITY.md``): job outcome
    counters, stream/chunk counters, reliability counters, cache events
    and entry gauges per tier, queue-depth gauges per session, and the
    deterministic ``PipelineProfile`` counters — every value read off
    the one snapshot, so the scrape reconciles with it exactly.
    """
    cache = stats.cache
    return [
        make_family(
            "repro_serve_jobs_total", "counter",
            "Job admission/outcome counters by state.",
            [
                ({"state": state}, getattr(stats, f"jobs_{state}"))
                for state in (
                    "submitted", "done", "failed", "refused",
                    "dropped", "partial",
                )
            ],
        ),
        make_family(
            "repro_serve_stream_events_total", "counter",
            "Streams opened and stream updates emitted.",
            [
                ({"event": "opened"}, stats.streams_opened),
                ({"event": "update"}, stats.updates_emitted),
            ],
        ),
        make_family(
            "repro_serve_chunks_total", "counter",
            "Stream chunks shed by the overflow policy, by outcome.",
            [
                ({"outcome": "refused"}, stats.chunks_refused),
                ({"outcome": "dropped"}, stats.chunks_dropped),
            ],
        ),
        make_family(
            "repro_serve_segment_events_total", "counter",
            "Reliability events: retries, watchdog timeouts, integrity "
            "rejections.",
            [
                ({"event": "retried"}, stats.segments_retried),
                ({"event": "timed_out"}, stats.segments_timed_out),
                ({"event": "corrupted"}, stats.results_corrupted),
            ],
        ),
        make_family(
            "repro_serve_cache_events_total", "counter",
            "Segment-cache probes (segment: either tier; segment_disk: disk hits).",
            [
                ({"tier": "segment", "event": "hit"}, cache.segment_hits),
                ({"tier": "segment", "event": "miss"}, cache.segment_misses),
                ({"tier": "segment_disk", "event": "hit"}, cache.segment_disk_hits),
            ],
        ),
        make_family(
            "repro_serve_cache_entries", "gauge",
            "Live cache entries by tier.",
            [
                ({"tier": "segment"}, cache.segment_entries),
                ({"tier": "segment_disk"}, cache.segment_disk_entries),
            ],
        ),
        make_family(
            "repro_serve_queue_depth", "gauge",
            "Pending (planned-but-unlanded) segments per session.",
            [
                ({"session": session}, depth)
                for session, depth in sorted(stats.queue_depths.items())
            ],
        ),
        make_family(
            "repro_serve_segments_dispatched_total", "counter",
            "Segments dispatched onto the pool per session.",
            [
                ({"session": session}, count)
                for session, count in sorted(stats.segments_dispatched.items())
            ],
        ),
        make_family(
            "repro_serve_inflight_segments", "gauge",
            "Segment attempts on the pool right now.",
            [({}, stats.inflight_segments)],
        ),
        make_family(
            "repro_serve_active_jobs", "gauge",
            "Admitted, non-terminal jobs right now.",
            [({}, stats.active_jobs)],
        ),
        make_family(
            "repro_pipeline_counters_total", "counter",
            "Deterministic PipelineProfile counters (events, frames, "
            "keyframes, votes, drops).",
            [
                ({"counter": counter}, value)
                for counter, value in stats.profile.counters().items()
            ],
        ),
    ]


def _rate(numerator: float, denominator: float) -> str:
    """A percentage string, dash when the denominator is zero."""
    if denominator <= 0:
        return "-"
    return f"{100.0 * numerator / denominator:.1f}%"


def status_snapshot(stats: "ServiceStats") -> dict:
    """JSON-ready status document (the ``GET /status`` body).

    One ``service`` record: the counters, gauges and deterministic
    profile counters of the snapshot plus derived rates.  Every number
    also appears in ``/metrics``; this is the same data grouped for
    humans and dashboards.
    """
    cache = stats.cache
    record = {
        "jobs_submitted": stats.jobs_submitted,
        "jobs_done": stats.jobs_done,
        "jobs_failed": stats.jobs_failed,
        "jobs_refused": stats.jobs_refused,
        "jobs_dropped": stats.jobs_dropped,
        "jobs_partial": stats.jobs_partial,
        "segments_retried": stats.segments_retried,
        "segments_timed_out": stats.segments_timed_out,
        "active_jobs": stats.active_jobs,
        "inflight_segments": stats.inflight_segments,
        "queue_depth": sum(stats.queue_depths.values()),
        "queue_depths": dict(sorted(stats.queue_depths.items())),
        "segment_cache_hits": cache.segment_hits,
        "segment_cache_misses": cache.segment_misses,
        "segment_disk_hits": cache.segment_disk_hits,
        "updates_emitted": stats.updates_emitted,
        "profile": stats.profile.counters(),
    }
    finished = stats.jobs_done + stats.jobs_partial + stats.jobs_failed
    record["retry_rate"] = _rate(stats.segments_retried, finished)
    record["partial_rate"] = _rate(stats.jobs_partial, finished)
    record["segment_cache_hit_rate"] = _rate(
        cache.segment_hits, cache.segment_hits + cache.segment_misses
    )
    return {"service": record}


def format_status(stats: "ServiceStats") -> str:
    """Human-readable status block (``repro serve --status``)."""
    record = status_snapshot(stats)["service"]
    return "\n".join([
        "jobs: {jobs_submitted} submitted, {jobs_done} done, "
        "{jobs_partial} partial, {jobs_failed} failed, "
        "{jobs_refused} refused, {jobs_dropped} dropped".format(**record),
        f"in flight: {record['active_jobs']} jobs, "
        f"{record['inflight_segments']} segments "
        f"(queue depth {record['queue_depth']})",
        f"reliability: {record['segments_retried']} retries "
        f"(rate {record['retry_rate']}), "
        f"{record['segments_timed_out']} timeouts, "
        f"partial rate {record['partial_rate']}",
        f"cache: segment hit rate {record['segment_cache_hit_rate']} "
        f"({record['segment_disk_hits']} from disk)",
        f"streams: {record['updates_emitted']} updates emitted",
    ])
