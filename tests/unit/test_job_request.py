"""Unit tests for :class:`repro.serve.request.JobRequest`, the one job
request behind ``repro serve``/``gateway``/``submit``/``stream`` and
``POST /jobs``: its defaults, validation, JSON form, generated CLI flags,
and the job it builds.
"""

import asyncio
import json
import types

import numpy as np
import pytest

import repro.events.datasets as datasets
from repro.cli import build_parser, main
from repro.core.engine import BACKENDS, default_backend
from repro.serve import Gateway, GatewayConfig, GatewayServer, ReconstructionService, http_request
from repro.serve.options import CacheConfig, ServiceConfig
from repro.serve.request import SEQUENCE_DEFAULT, JobRequest


@pytest.fixture
def stub_loader(monkeypatch, make_stream, davis_camera, simple_trajectory):
    """Patch the registry loader with a stub carrying only the attributes
    a request reads (the shape of perfbench's ``gateway_windows`` probe)."""
    stub = types.SimpleNamespace(
        events=make_stream(4000),
        camera=davis_camera,
        trajectory=simple_trajectory,
        depth_range=(0.6, 3.6),
        keyframe_distance=0.25,
    )
    monkeypatch.setattr(datasets, "load_sequence", lambda name, quality: stub)
    return stub


class TestDefaults:
    def test_one_set_of_defaults(self):
        request = JobRequest("slider_long")
        assert request.session == "slider_long"
        assert request.quality == "fast"
        assert (request.t_start, request.t_end) == (None, None)
        assert (request.planes, request.frame_size) == (48, 1024)
        assert request.keyframe_distance is SEQUENCE_DEFAULT
        assert request.policy == "reformulated"
        assert request.backend == default_backend()

    def test_default_backend_is_the_fastest_registered(self, monkeypatch):
        if "native-batch" in BACKENDS:
            assert default_backend() == "native-batch"
        monkeypatch.delitem(BACKENDS, "native-batch", raising=False)
        assert default_backend() == "numpy-batch"
        assert JobRequest("x").backend == "numpy-batch"

    @pytest.mark.parametrize("command", ["serve", "gateway", "submit", "stream"])
    def test_cli_flags_default_as_the_fields_do(self, command):
        argv = [command] + (["-s", "slider_long"] if command in ("submit", "stream") else [])
        args = build_parser().parse_args(argv)
        assert JobRequest.from_flags(args, "slider_long", None) == JobRequest("slider_long")

    def test_cli_flags_reach_every_field(self):
        args = build_parser().parse_args(
            ["submit", "-s", "slider_long", "--quality", "full", "--t-start", "0.5",
             "--t-end", "1.5", "--planes", "64", "--frame-size", "512",
             "--keyframe-distance", "0.2", "--policy", "original",
             "--backend", "numpy-reference"]
        )
        assert JobRequest.from_flags(args, "slider_long", "s") == JobRequest(
            "slider_long", "s", quality="full", t_start=0.5, t_end=1.5, planes=64,
            frame_size=512, keyframe_distance=0.2, policy="original",
            backend="numpy-reference",
        )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            (dict(sequence=3), TypeError, "'sequence' must be str"),
            (dict(session=["a"]), TypeError, "'session' must be str"),
            (dict(quality="bogus"), ValueError, "quality must be"),
            (dict(t_start="soon"), TypeError, "'t_start' must be float"),
            (dict(t_start=float("nan")), ValueError, "must be finite"),
            (dict(t_end=float("inf")), ValueError, "must be finite"),
            (dict(t_start=0.7, t_end=0.5), ValueError, "is reversed"),
            (dict(planes=True), TypeError, "'planes' must be int"),
            (dict(planes=48.0), TypeError, "'planes' must be int"),
            (dict(planes=1), ValueError, "at least 2 depth planes"),
            (dict(frame_size=0), ValueError, "frame_size must be positive"),
            (dict(keyframe_distance=float("nan")), ValueError, "keyframe_distance"),
            (dict(keyframe_distance=10**400), ValueError, "out of range"),
            (dict(policy="magic"), ValueError, "unknown policy 'magic'"),
            (dict(backend="cuda"), ValueError, "unknown backend 'cuda'"),
            (dict(backend="hardware-model", policy="original"), ValueError, "hardware-model"),
        ],
    )
    def test_refused_without_loading(self, monkeypatch, kwargs, error, match):
        monkeypatch.setattr(datasets, "load_sequence", None)  # never called
        kwargs = {"sequence": "slider_long", **kwargs}
        with pytest.raises(error, match=match):
            JobRequest(**kwargs)

    def test_numbers_are_normalized(self):
        request = JobRequest("x", t_start=1, t_end=2, keyframe_distance=1)
        assert (request.t_start, request.t_end, request.keyframe_distance) == (1.0, 2.0, 1.0)
        assert all(type(v) is float for v in (request.t_start, request.t_end))

    def test_open_ended_windows_are_accepted(self):
        assert JobRequest("x", t_start=0.5).t_end is None
        assert JobRequest("x", t_end=0.5).t_start is None


class TestJson:
    @pytest.mark.parametrize(
        "body, match",
        [
            (b"", "Expecting value"),
            (b"\xff", "codec"),
            ("[1, 2]", "must be a JSON object"),
            ('{"quality": "fast"}', "missing required field 'sequence'"),
            ('{"sequence": "x", "plane": 24}', r"unknown field\(s\) \['plane'\]"),
        ],
    )
    def test_malformed_bodies_are_refused(self, body, match):
        with pytest.raises((ValueError, TypeError), match=match):
            JobRequest.from_json(body)

    def test_every_field_parses(self):
        body = {"sequence": "x", "session": "tenant", "quality": "full", "t_start": 0.5,
                "t_end": 1.5, "planes": 64, "frame_size": 512, "keyframe_distance": 0.2,
                "policy": "original", "backend": "numpy-batch"}
        assert JobRequest.from_json(json.dumps(body)) == JobRequest(**body)

    def test_keyframe_distance_has_three_states(self):
        absent = JobRequest.from_json('{"sequence": "x"}')
        assert absent.keyframe_distance is SEQUENCE_DEFAULT
        assert JobRequest.from_json('{"sequence": "x", "keyframe_distance": null}') \
            .keyframe_distance is None
        assert JobRequest.from_json('{"sequence": "x", "keyframe_distance": 0.2}') \
            .keyframe_distance == 0.2


class TestBuild:
    @pytest.mark.parametrize(
        "distance, expected", [(SEQUENCE_DEFAULT, 0.25), (None, None), (0.1, 0.1)]
    )
    def test_keyframe_distance_states(self, stub_loader, distance, expected):
        _, spec = JobRequest("any", keyframe_distance=distance).build()
        assert spec.config.keyframe_distance == expected

    def test_builds_the_spec_and_window(self, stub_loader):
        request = JobRequest("any", t_start=1.0, t_end=2.0, planes=24, frame_size=512)
        events, spec = request.build()
        assert (spec.camera, spec.trajectory) == (stub_loader.camera, stub_loader.trajectory)
        assert spec.depth_range == (0.6, 3.6)
        assert (spec.config.n_depth_planes, spec.config.frame_size) == (24, 512)
        assert (spec.policy.name, spec.backend) == ("reformulated", default_backend())
        np.testing.assert_array_equal(
            events.t, stub_loader.events.time_slice(1.0, 2.0).t
        )

    def test_window_past_the_stream_end_is_reversed(self, stub_loader):
        # t_end defaults to the stream's last event, 3.999 s.
        with pytest.raises(ValueError, match="reversed"):
            JobRequest("any", t_start=5.0).build()

    def test_unknown_sequence_is_a_value_error_listing_the_registry(self):
        with pytest.raises(ValueError, match="unknown sequence 'nope'.*slider_long"):
            JobRequest("nope").build()


class TestFrontDoors:
    def test_submit_and_post_jobs_build_the_same_job(self, monkeypatch, tmp_path):
        """The same fields through ``repro submit`` and ``POST /jobs``:
        equal specs, equal events and bit-identical fused clouds."""
        seen = {"submit": [], "result": []}
        submit, result = ReconstructionService.submit, ReconstructionService.result

        def recording_submit(self, events, spec, **kwargs):
            seen["submit"].append((events, spec))
            return submit(self, events, spec, **kwargs)

        def recording_result(self, job_id, timeout=None):
            seen["result"].append(result(self, job_id, timeout))
            return seen["result"][-1]

        monkeypatch.setattr(ReconstructionService, "submit", recording_submit)
        monkeypatch.setattr(ReconstructionService, "result", recording_result)
        window = {"t_start": 0.95, "t_end": 1.1}
        code = main(
            ["submit", "-s", "simulation_3planes", "--workers", "1", "--cache-mem-mb", "0",
             "--t-start", "0.95", "--t-end", "1.1"]
        )
        assert code == 0

        async def post():
            config = GatewayConfig(
                service=ServiceConfig(workers=1, cache=CacheConfig(mem_mb=0, cache_dir=""))
            )
            async with Gateway(config) as gateway:
                async with GatewayServer(gateway) as server:
                    body = {"sequence": "simulation_3planes", "session": "cli", **window}
                    code, data = await http_request(
                        server.host, server.port, "POST", "/jobs", body=body
                    )
                    assert code == 202, data
                    await gateway.result(json.loads(data)["job_id"], timeout=300.0)

        asyncio.run(post())
        (cli_events, cli_spec), (http_events, http_spec) = seen["submit"]
        assert cli_spec == http_spec
        assert cli_events.content_digest() == http_events.content_digest()
        cli_result, http_result = seen["result"]
        assert cli_result.profile.counters() == http_result.profile.counters()
        np.testing.assert_array_equal(cli_result.cloud.points, http_result.cloud.points)
        assert cli_result.n_points > 100
