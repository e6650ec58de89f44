"""Unit tests for the command-line interface."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.engine import default_backend


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_reconstruct_defaults(self):
        args = build_parser().parse_args(["reconstruct", "-s", "slider_far"])
        assert args.planes == 100
        assert args.frame_size == 1024
        assert args.backend == default_backend()
        assert args.policy == "reformulated"

    def test_backend_and_policy_flags_parse(self):
        args = build_parser().parse_args(
            ["reconstruct", "-s", "slider_far",
             "--backend", "numpy-batch", "--policy", "original"]
        )
        assert args.backend == "numpy-batch"
        assert args.policy == "original"

    def test_parallel_mapping_flags_parse(self):
        args = build_parser().parse_args(
            ["reconstruct", "-s", "slider_long",
             "--workers", "4", "--fuse", "--fuse-voxel", "0.02"]
        )
        assert args.workers == 4
        assert args.fuse is True
        assert args.fuse_voxel == pytest.approx(0.02)

    def test_parallel_mapping_flag_defaults(self):
        args = build_parser().parse_args(["reconstruct", "-s", "slider_far"])
        assert args.workers == 1
        assert args.fuse is False
        assert args.fuse_voxel is None

    def test_unknown_backend_rejected_with_registry_listing(self, capsys):
        # Runtime validation against the live registry (not argparse
        # choices): the error must name what *is* registered.
        with pytest.raises(SystemExit, match="unknown backend 'cuda'") as exc:
            main(["reconstruct", "-s", "slider_far", "--backend", "cuda"])
        message = str(exc.value)
        for name in ("numpy-reference", "numpy-batch", "hardware-model"):
            assert name in message

    def test_unknown_policy_rejected_with_registry_listing(self):
        with pytest.raises(SystemExit, match="unknown policy 'magic'") as exc:
            main(["reconstruct", "-s", "slider_far", "--policy", "magic"])
        message = str(exc.value)
        assert "original" in message
        assert "reformulated" in message

    def test_bad_worker_count_rejected(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["reconstruct", "-s", "slider_far", "--workers", "0"])

    def test_unknown_sequence_rejected_with_listing(self):
        # Same clean-error contract as --backend/--policy: no raw KeyError.
        with pytest.raises(SystemExit, match="unknown sequence") as exc:
            main(["reconstruct", "-s", "slider_lnog"])
        assert "slider_long" in str(exc.value)

    def test_bad_fuse_voxel_rejected(self):
        with pytest.raises(SystemExit, match="--fuse-voxel"):
            main(["reconstruct", "-s", "slider_far", "--fuse-voxel", "0"])


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.job is None
        assert args.workers is None
        assert args.queue_limit == 8
        assert args.cache_mem_mb is None  # CacheConfig's default applies
        assert args.overflow == "refuse"
        assert args.backend == default_backend()

    def test_service_config_cache_tiers(self):
        from repro.cli import _service_config
        from repro.serve import CacheConfig

        config = _service_config(build_parser().parse_args(["serve"]))
        assert config.cache.mem_mb == CacheConfig().mem_mb
        args = build_parser().parse_args(["serve", "--cache-mem-mb", "0"])
        assert _service_config(args).cache.mem_mb == 0.0

    def test_job_cache_size_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--cache-size", "4"])

    def test_submit_requires_sequence(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_serve_jobs_accumulate(self):
        args = build_parser().parse_args(
            ["serve", "--job", "slider_long:alpha", "--job", "corridor_sweep"]
        )
        assert args.job == ["slider_long:alpha", "corridor_sweep"]

    def test_serve_unknown_backend_rejected_with_registry_listing(self):
        # Same live-registry error contract as `reconstruct`.
        with pytest.raises(SystemExit, match="unknown backend 'tpu'") as exc:
            main(["serve", "--backend", "tpu"])
        assert "numpy-batch" in str(exc.value)

    def test_serve_unknown_policy_rejected_with_registry_listing(self):
        with pytest.raises(SystemExit, match="unknown policy 'magic'") as exc:
            main(["serve", "--policy", "magic"])
        assert "reformulated" in str(exc.value)

    def test_serve_unknown_overflow_rejected_with_listing(self):
        with pytest.raises(SystemExit, match="unknown overflow") as exc:
            main(["serve", "--overflow", "shed"])
        message = str(exc.value)
        assert "refuse" in message
        assert "drop-oldest" in message

    def test_serve_bad_limits_rejected(self):
        # The bounds are the config objects' own; the exit names the field.
        with pytest.raises(SystemExit, match="workers must be >= 1"):
            main(["serve", "--workers", "0"])
        with pytest.raises(SystemExit, match="queue_limit must be >= 1"):
            main(["serve", "--queue-limit", "0"])
        with pytest.raises(SystemExit, match="mem_mb must be >= 0"):
            main(["serve", "--cache-mem-mb", "-1"])
        with pytest.raises(SystemExit, match="--repeat"):
            main(["serve", "--repeat", "0"])

    def test_submit_unknown_sequence_rejected_with_listing(self):
        with pytest.raises(SystemExit, match="unknown sequence") as exc:
            main(["submit", "-s", "slider_lnog"])
        assert "slider_long" in str(exc.value)

    def test_serve_unknown_job_sequence_rejected(self):
        with pytest.raises(SystemExit, match="unknown sequence"):
            main(["serve", "--job", "no_such_sequence"])


class TestStreamParser:
    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream", "-s", "corridor_sweep"])
        assert args.command == "stream"
        assert args.session == "stream"
        assert args.chunk_ms == 20.0
        assert args.max_pending_chunks == 64
        assert args.overflow == "refuse"
        assert args.backend == default_backend()

    def test_stream_requires_sequence(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream"])

    def test_stream_bad_limits_rejected(self):
        with pytest.raises(SystemExit, match="--chunk-ms"):
            main(["stream", "-s", "corridor_sweep", "--chunk-ms", "0"])
        with pytest.raises(SystemExit, match="--max-pending-chunks"):
            main(["stream", "-s", "corridor_sweep", "--max-pending-chunks", "0"])
        with pytest.raises(SystemExit, match="workers must be >= 1"):
            main(["stream", "-s", "corridor_sweep", "--workers", "0"])

    def test_stream_unknown_names_rejected_with_listing(self):
        with pytest.raises(SystemExit, match="unknown backend 'tpu'") as exc:
            main(["stream", "-s", "corridor_sweep", "--backend", "tpu"])
        assert "numpy-batch" in str(exc.value)
        with pytest.raises(SystemExit, match="unknown sequence") as exc:
            main(["stream", "-s", "corridor_swep"])
        assert "corridor_sweep" in str(exc.value)
        with pytest.raises(SystemExit, match="unknown overflow") as exc:
            main(["stream", "-s", "corridor_sweep", "--overflow", "shed"])
        assert "drop-oldest" in str(exc.value)


class TestServeCommands:
    SERVE_WINDOW = [
        "--quality", "fast", "--planes", "48",
        "--t-start", "0.4", "--t-end", "1.6",
        "--keyframe-distance", "0.12",
    ]

    def test_serve_runs_demo_jobs(self, capsys):
        code = main(
            ["serve", "--job", "simulation_3planes:alpha",
             "--job", "simulation_3planes:beta", "--workers", "1"]
            + self.SERVE_WINDOW
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 2 job(s)" in out
        assert "alpha" in out and "beta" in out
        assert "segments dispatched per session" in out

    def test_submit_repeats_hit_cache(self, tmp_path, capsys):
        ply = os.path.join(tmp_path, "served.ply")
        code = main(
            ["submit", "-s", "simulation_3planes", "--repeat", "3",
             "--workers", "1", "-o", ply]
            + self.SERVE_WINDOW
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "done" in out
        # With one worker each repeat's segments dispatch after the first
        # job's landed, so the segment cache serves every one of them.
        rows = [line.split() for line in out.splitlines() if line.startswith("job-")]
        assert [row[-1] for row in rows] == ["-", "hit", "hit"]
        assert "segment cache:" in out
        from repro.io.ply import load_ply

        points, _ = load_ply(ply)
        assert points.shape[0] > 100

    def test_stream_prints_per_keyframe_updates(self, tmp_path, capsys):
        xyz = os.path.join(tmp_path, "streamed.xyz")
        code = main(
            ["stream", "-s", "simulation_3planes", "--chunk-ms", "100",
             "--workers", "1", "-o", xyz]
            + self.SERVE_WINDOW
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streamed in 100 ms chunks" in out
        assert "key frame #0" in out
        assert "stream closed after" in out
        assert "updates emitted:" in out
        assert os.path.exists(xyz)

    def test_info_lists_serve_overflow_policies(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "serve overflow policies" in out
        assert "refuse" in out and "drop-oldest" in out
        assert "scenario registry" in out


class TestCommands:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "simulation_3planes" in out
        assert "slider_far" in out

    def test_info_lists_scenarios_and_registries(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "slider_long" in out
        assert "corridor_sweep" in out
        assert "numpy-batch" in out
        assert "reformulated" in out

    def test_fuse_voxel_alone_implies_fusion(self, capsys):
        code = main(
            [
                "reconstruct", "-s", "simulation_3planes",
                "--quality", "fast",
                "--planes", "48",
                "--t-start", "0.95", "--t-end", "1.1",
                "--fuse-voxel", "0.02",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fused global map" in out
        assert "voxel 20.0 mm" in out

    def test_reconstruct_fused_parallel(self, tmp_path, capsys):
        ply = os.path.join(tmp_path, "fused.ply")
        code = main(
            [
                "reconstruct", "-s", "simulation_3planes",
                "--quality", "fast",
                "--planes", "48",
                "--t-start", "0.4", "--t-end", "1.6",
                "--keyframe-distance", "0.12",
                "--backend", "numpy-batch",
                "--workers", "2",
                "-o", ply,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "segment(s)" in out
        assert "fused global map" in out
        assert "fused-map accuracy" in out
        from repro.io.ply import load_ply

        points, _ = load_ply(ply)
        assert points.shape[0] > 100

    def test_models_runs(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "17538" in out
        assert "24.2x" in out

    def test_simulate_writes_dataset(self, tmp_path, capsys):
        out_dir = os.path.join(tmp_path, "seq")
        code = main(
            ["simulate", "-s", "simulation_3planes", "-o", out_dir,
             "--quality", "fast"]
        )
        assert code == 0
        assert sorted(os.listdir(out_dir)) == [
            "calib.txt", "events.txt", "groundtruth.txt",
        ]

    def test_reconstruct_sequence_with_outputs(self, tmp_path, capsys):
        ply = os.path.join(tmp_path, "cloud.ply")
        pgm = os.path.join(tmp_path, "depth.pgm")
        code = main(
            [
                "reconstruct", "-s", "simulation_3planes",
                "--quality", "fast",
                "--planes", "48",
                "--t-start", "0.95", "--t-end", "1.1",
                "-o", ply, "--depth-map", pgm,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reconstructed" in out
        assert "AbsRel" in out
        from repro.io.ply import load_ply

        points, _ = load_ply(ply)
        assert points.shape[0] > 100
        assert os.path.getsize(pgm) > 100

    def test_reconstruct_from_dataset_dir(self, tmp_path, capsys):
        # First write a dataset, then reconstruct from it.
        seq_dir = os.path.join(tmp_path, "seq")
        main(["simulate", "-s", "simulation_3planes", "-o", seq_dir,
              "--quality", "fast"])
        xyz = os.path.join(tmp_path, "cloud.xyz")
        code = main(
            [
                "reconstruct", "-d", seq_dir,
                "--planes", "48",
                "--z-min", "0.6", "--z-max", "3.6",
                "--t-start", "0.95", "--t-end", "1.1",
                "-o", xyz,
            ]
        )
        assert code == 0
        data = np.loadtxt(xyz)
        assert data.shape[1] == 3

    def test_reconstruct_with_fast_backend(self, tmp_path, capsys):
        code = main(
            [
                "reconstruct", "-s", "simulation_3planes",
                "--quality", "fast",
                "--planes", "48",
                "--t-start", "0.95", "--t-end", "1.1",
                "--backend", "numpy-batch",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend=numpy-batch" in out
        assert "reconstructed" in out

    def test_hardware_backend_rejects_float_policy(self):
        with pytest.raises(SystemExit):
            main(
                ["reconstruct", "-s", "simulation_3planes",
                 "--quality", "fast",
                 "--policy", "original", "--backend", "hardware-model"]
            )

    def test_reconstruct_requires_an_input(self):
        with pytest.raises(SystemExit):
            main(["reconstruct"])

    def test_reconstruct_rejects_both_inputs(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["reconstruct", "-s", "x", "-d", str(tmp_path)])


class TestJobWindows:
    """The CLI front doors refuse the windows ``POST /jobs`` refuses."""

    @pytest.mark.parametrize("command", ["submit", "reconstruct"])
    @pytest.mark.parametrize(
        "window",
        [["--t-start", "nan", "--t-end", "1.0"], ["--t-start", "0.7", "--t-end", "0.5"]],
        ids=["t_start-nan", "reversed"],
    )
    def test_bad_window_exits_1(self, command, window):
        # A string exit code is printed and exits with status 1.
        with pytest.raises(SystemExit, match="time window") as exc:
            main([command, "-s", "simulation_3planes", "--quality", "fast", *window])
        assert isinstance(exc.value.code, str)

    def test_retry_flags_are_checked_by_the_retry_policy(self):
        with pytest.raises(SystemExit, match="max_attempts must be >= 1"):
            main(["submit", "-s", "simulation_3planes", "--retries", "-1"])
        with pytest.raises(SystemExit, match="backoff_s must be >= 0"):
            main(["submit", "-s", "simulation_3planes", "--retry-backoff-ms", "-1"])
