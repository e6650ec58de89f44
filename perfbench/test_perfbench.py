"""Self-tests of the benchmark's helpers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from stats import percentile, quartile_spread, tail_percentile  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("rig_offline", "gateway_windows", "stream_realtime")


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, cap, expected",
    [
        (1, 90, 50),  # too few samples: the median stands in for the tail
        (12, 90, 50),
        (19, 90, 50),
        (20, 90, 50),
        (30, 90, 66),  # floor(100 * (1 - 10/30))
        (40, 75, 75),
        (60, 90, 83),
        (100, 90, 90),
        (1000, 90, 90),  # capped: the percentile stops drifting with n
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, cap, expected):
    p = tail_percentile(n, cap)
    assert p == expected
    if p > 50:
        assert n * (1 - p / 100) >= 10 - 1e-9


def test_tail_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        tail_percentile(0, 90)


def test_percentile_interpolates_and_spread_is_relative():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([0, 10], 25) == 2.5
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([9, 10, 10, 10, 11]) == pytest.approx(0.1)


# ----------------------------------------------------------------------
# Plan-aligned windows
# ----------------------------------------------------------------------
def _plans(bounds, frame_size=10):
    from repro.core.engine import SegmentPlan

    return [
        SegmentPlan(k, a, b, frame_size, float(k))
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def test_plan_windows_cover_two_segments_with_half_overlap():
    plans = _plans([0, 3, 5, 9, 12])
    assert inputs.plan_windows(plans) == [(0, 50), (30, 90), (50, 120)]
    with pytest.raises(ValueError):
        inputs.plan_windows(plans[:1])


def test_round_jobs_prime_one_segment_then_slide_by_one():
    import workloads

    plans = _plans([0, 3, 5, 9])
    assert workloads.round_jobs(plans, 7) == [(7, 37), (7, 57), (37, 97)]


def test_consecutive_windows_share_segment_cache_keys():
    from repro.core import EMVSConfig, EngineSpec
    from repro.events.datasets import load_sequence
    from repro.serve import segment_key

    seq = load_sequence("simulation_3planes", quality="fast")
    spec = EngineSpec(seq.camera, seq.trajectory,
                      EMVSConfig(n_depth_planes=48, keyframe_distance=0.12),
                      depth_range=seq.depth_range, backend="numpy-batch")
    plans, _ = spec.plan(seq.events)
    global_keys = [
        segment_key(spec, seq.events.content_digest(p.start_event, p.end_event)) for p in plans
    ]
    window_keys = []
    for a, b in inputs.plan_windows(plans):
        window = seq.events[a:b]
        window_plans, dropped = spec.plan(window)
        assert dropped == 0 and len(window_plans) == 2
        window_keys.append([
            segment_key(spec, window.content_digest(p.start_event, p.end_event))
            for p in window_plans
        ])
    for k, keys in enumerate(window_keys):
        assert keys == global_keys[k:k + 2]
    for left, right in zip(window_keys, window_keys[1:]):
        assert left[1] == right[0]
    # A round cut from the recording shifted by a few frames shares no segment.
    shifted = seq.events[3 * 1024:]
    shifted_keys = {
        segment_key(spec, shifted.content_digest(p.start_event, p.end_event))
        for p in spec.plan(shifted)[0]
    }
    assert not shifted_keys & set(global_keys)


# ----------------------------------------------------------------------
# Open-loop pacing arithmetic
# ----------------------------------------------------------------------
def test_chunk_schedule_partitions_events_on_the_recording_clock():
    t = 1.0 + np.linspace(0.0, 0.1, 101)  # one event per millisecond
    schedule = inputs.chunk_schedule(t, chunk_s=0.02, phase_s=0.005)
    starts = [a for a, _, _ in schedule]
    ends = [b for _, b, _ in schedule]
    assert starts[0] == 0 and ends[-1] == len(t)
    assert starts[1:] == ends[:-1]  # contiguous, in order, nothing lost
    dues = [due for _, _, due in schedule]
    assert dues[:3] == pytest.approx([0.005, 0.025, 0.045])
    assert dues[-1] == pytest.approx(0.1)
    for a, b, due in schedule:
        assert t[b - 1] - t[0] <= due + 1e-12  # a chunk is due once its events exist


def test_chunk_schedule_rejects_phase_outside_chunk():
    with pytest.raises(ValueError):
        inputs.chunk_schedule(np.arange(5.0), 1.0, 1.0)


def test_due_time_and_lateness():
    t = np.array([2.0, 2.5, 3.25])
    assert inputs.event_due_s(t, 2) == pytest.approx(1.25)
    # Stream started at wall 100.0; the event was due at 101.25.
    assert inputs.lateness_s(100.0, 1.25, 101.30) == pytest.approx(0.05)
    assert inputs.lateness_s(100.0, 1.25, 101.00) == pytest.approx(-0.25)


# ----------------------------------------------------------------------
# Span attribution
# ----------------------------------------------------------------------
def _span(name, layer, start, end, parent=None, depth=0, **attrs):
    return tracing.Span(name, layer, 0, parent, depth, start, end, attrs=attrs)


def test_shares_sum_to_the_op_wall_and_workers_take_precedence():
    root = _span("op", tracing.UNEXPLAINED, 0.0, 10.0)
    run = _span("mapping.run", "mapping", 1.0, 9.0, root, 1)
    plan = _span("engine.plan", "engine", 1.0, 2.0, run, 2)
    fuse = _span("mapping.fuse", "mapping", 7.0, 8.0, run, 2)
    workers = [_span("engine.segment", "engine", 2.5, 6.0),
               _span("engine.segment", "engine", 3.0, 7.0)]
    shares = tracing.shares([root, run, plan, fuse, *workers])
    assert sum(shares.values()) == pytest.approx(10.0)
    assert shares["engine"] == pytest.approx(1.0 + 4.5)  # plan + worker union
    assert shares["mapping"] == pytest.approx(0.5 + 1.0 + 1.0)  # gap, fuse, tail
    assert shares[tracing.UNEXPLAINED] == pytest.approx(2.0)


def test_self_times_subtract_children_and_count_parallel_workers_fully():
    root = _span("op", tracing.UNEXPLAINED, 0.0, 10.0)
    run = _span("mapping.run", "mapping", 1.0, 9.0, root, 1)
    workers = [_span("engine.segment", "engine", 2.0, 6.0),
               _span("engine.segment", "engine", 3.0, 7.0)]
    selfs = tracing.self_times([root, run, *workers])
    assert selfs[tracing.UNEXPLAINED] == pytest.approx(2.0)
    assert selfs["mapping"] == pytest.approx(8.0 - 5.0)  # minus the worker union
    assert selfs["engine"] == pytest.approx(8.0)  # two workers in parallel


def test_tracer_nests_spans_per_op_and_ignores_calls_outside_ops():
    tracer = tracing.Tracer()
    with tracer.span("events.construct", "events"):
        pass
    with tracer.op("a"):
        with tracer.span("mapping.run", "mapping"):
            with tracer.span("engine.plan", "engine"):
                pass
    spans = tracer.by_op()["a"]
    by_name = {s.name: s for s in spans}
    assert set(by_name) == {"op", "mapping.run", "engine.plan"}
    assert by_name["engine.plan"].parent is by_name["mapping.run"]
    assert by_name["mapping.run"].parent is by_name["op"]
    assert None not in tracer.by_op()


# ----------------------------------------------------------------------
# BENCHMARK.json schema and the runner's contract
# ----------------------------------------------------------------------
def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_schema():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"] and bench["command"][1] == "perfbench/run.py"
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_metric_has_a_workload_list():
    bench = _bench()
    for metric in bench["per_layer"]:
        layer = metric["name"].split(".")[0]
        assert set(metrics.LAYER_WORKLOADS[layer]) <= set(WORKLOADS), metric["name"]
    assert set(metrics.LAYER_WORKLOADS) >= {m["name"].split(".")[0] for m in bench["per_layer"]}


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rig_offline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
