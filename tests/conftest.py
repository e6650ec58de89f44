"""Shared fixtures.

Unit tests use small synthetic inputs; integration tests share the
session-scoped "fast" replicas of the paper's sequences (generation takes
a couple of seconds each, and :func:`repro.events.datasets.load_sequence`
caches them in-process).
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.events.datasets import load_sequence
from repro.geometry.camera import PinholeCamera
from repro.geometry.se3 import SE3, Quaternion
from repro.geometry.trajectory import Trajectory, linear_trajectory


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_camera() -> PinholeCamera:
    """A small ideal camera for cheap unit tests."""
    return PinholeCamera.ideal(64, 48, fov_deg=60.0)


@pytest.fixture
def davis_camera() -> PinholeCamera:
    return PinholeCamera.davis240c()


@pytest.fixture
def davis_camera_distorted() -> PinholeCamera:
    return PinholeCamera.davis240c(distorted=True)


@pytest.fixture
def simple_trajectory() -> Trajectory:
    """0.4 m lateral translation over 2 s, identity orientation."""
    return linear_trajectory(
        start=[-0.2, 0.0, 0.0], end=[0.2, 0.0, 0.0], duration=2.0, n_poses=41
    )


@pytest.fixture
def random_pose(rng) -> SE3:
    q = Quaternion.from_axis_angle(rng.standard_normal(3), rng.uniform(0, 0.5))
    return SE3.from_quaternion_translation(q, rng.uniform(-1, 1, 3))


@pytest.fixture(scope="session")
def seq_3planes_fast():
    return load_sequence("simulation_3planes", quality="fast")


@pytest.fixture(scope="session")
def seq_slider_close_fast():
    return load_sequence("slider_close", quality="fast")


# ----------------------------------------------------------------------
# Shared workload builders (hoisted from per-module fixtures so the
# engine, mapping, serving and fuzz suites slice the session-cached
# sequences once instead of rebuilding their own copies).
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def engine_config():
    """Single-segment-friendly engine configuration (3planes slices)."""
    from repro.core import EMVSConfig

    return EMVSConfig(n_depth_planes=48, frame_size=1024, keyframe_distance=0.15)


@pytest.fixture(scope="session")
def engine_scene(seq_3planes_fast):
    """``(sequence, events)``: a short, parallax-rich 3planes slice."""
    return seq_3planes_fast, seq_3planes_fast.events.time_slice(0.8, 1.2)


@pytest.fixture(scope="session")
def mapping_workload(seq_3planes_fast):
    """``(sequence, events, config)``: a 5-segment multi-keyframe slice.

    The canonical parallel-mapping / serving workload: long enough to
    shard into several key-frame segments, small enough for tier-1.
    """
    from repro.core import EMVSConfig

    seq = seq_3planes_fast
    events = seq.events.time_slice(0.4, 1.6)
    config = EMVSConfig(n_depth_planes=48, frame_size=1024, keyframe_distance=0.06)
    return seq, events, config


@pytest.fixture
def make_stream():
    """Factory for synthetic constant-rate event streams at pixel (0, 0)."""

    def build(n: int, rate: float = 1000.0, t0: float = 0.0) -> "EventArray":
        from repro.events.containers import EventArray

        t = t0 + np.arange(n) / rate
        return EventArray.from_arrays(
            t, np.zeros(n), np.zeros(n), np.ones(n, dtype=int)
        )

    return build


# ----------------------------------------------------------------------
# Native kernel code shapes
# ----------------------------------------------------------------------
#: CPU flags that x86-64-v4 code needs (cpuinfo names).
_V4_FLAGS = {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"}


def _code_shape_skip_reason(march: str, compiler: str | None) -> str | None:
    """Why ``march`` code cannot be built and run here, or ``None``."""
    if os.environ.get("REPRO_NATIVE_BUILD", "1") == "0":
        return "native builds disabled (REPRO_NATIVE_BUILD=0)"
    if compiler is None:
        return "no C compiler on PATH"
    if platform.machine().lower() not in {"x86_64", "amd64"}:
        return f"{march} code needs an x86-64 host"
    if march == "x86-64-v4":
        try:
            cpuinfo = Path("/proc/cpuinfo").read_text()
        except OSError:
            return "cannot read the host's CPU flags"
        flags = next(
            (set(line.split(":", 1)[1].split()) for line in cpuinfo.splitlines()
             if line.startswith("flags")),
            set(),
        )
        if not _V4_FLAGS <= flags:
            return "host lacks AVX-512 (x86-64-v4)"
    return None


@pytest.fixture(scope="session", params=("host", "x86-64", "x86-64-v4"))
def native_kernels(request, tmp_path_factory):
    """Every code shape of the kernel library this host can run.

    ``host`` is the library the package loads (its ISA clones resolved
    for this CPU).  ``x86-64`` and ``x86-64-v4`` are fresh builds of the
    same source at that ``-march`` with the clone macro empty: the
    baseline and AVX-512 bodies, the two ends of the clone set, loaded
    through the same bindings whichever clone this host's loader picks.
    """
    from repro.native import cext, get_kernels

    march = request.param
    if march == "host":
        kernels = get_kernels()
        if kernels is None:
            pytest.skip("no native kernel provider on this host")
        return kernels
    compiler = cext._find_compiler()
    reason = _code_shape_skip_reason(march, compiler)
    if reason is not None:
        pytest.skip(reason)
    out = tmp_path_factory.mktemp("kernels") / f"kernels_{march}.so"
    proc = subprocess.run(
        [compiler, *cext.BUILD_FLAGS, f"-march={march}", "-DVECTOR_CLONES=",
         "-o", str(out), str(cext.SOURCE), "-lm"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"{march} build failed: {proc.stderr[-500:]}"
    return cext.CExtensionKernels(out)
