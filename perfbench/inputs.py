"""Workload inputs: cached registry recordings, plan-aligned windows, paced chunks.

Recordings come from the repository's sequence registry at its fixed
seeds.  Generating one takes seconds, so the event columns plus the
camera, trajectory and depth range are pickled once per source tree
into the benchmark's cache directory (next to the checkout, ignored by
git) and every later run loads them in milliseconds.  The benchmark's
``--seed`` never reaches the registry: it drives only the choices made
here (window start, tenant assignment, chunk phase).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Registry quality preset every workload uses.
QUALITY = "fast"


@dataclass(frozen=True)
class Recording:
    """One camera's events plus everything an ``EngineSpec`` needs."""

    name: str
    data: np.ndarray  # EventArray records (structured dtype)
    camera: object
    trajectory: object
    depth_range: tuple[float, float]
    keyframe_distance: float | None


@dataclass(frozen=True)
class RigRecording:
    """A multi-camera registry scenario: per-camera events plus the rig body."""

    name: str
    data: dict[str, np.ndarray]
    camera: object
    trajectory: object
    extrinsics: tuple
    depth_range: tuple[float, float]
    keyframe_distance: float


def source_tag(src_root: Path) -> str:
    """Hash of every Python source file under ``src_root`` (cache key)."""
    digest = hashlib.sha256()
    for path in sorted(src_root.rglob("*.py")):
        digest.update(str(path.relative_to(src_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cached(cache_dir: Path, key: str, build):
    """``build()``, pickled under ``cache_dir/key.pkl`` after the first call."""
    path = cache_dir / f"{key}.pkl"
    if path.exists():
        with open(path, "rb") as f:  # written by this benchmark only
            return pickle.load(f)
    value = build()
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as f:
        pickle.dump(value, f, protocol=5)
    tmp.replace(path)
    return value


def load_recording(name: str, cache_dir: Path, tag: str) -> Recording:
    """A monocular registry sequence, generated once per source tree."""

    def build() -> Recording:
        from repro.events.datasets import load_sequence

        seq = load_sequence(name, quality=QUALITY)
        return Recording(
            name,
            np.array(seq.events.data),
            seq.camera,
            seq.trajectory,
            tuple(seq.depth_range),
            seq.keyframe_distance,
        )

    return cached(cache_dir, f"{name}-{QUALITY}-{tag}", build)


def load_rig_recording(name: str, cache_dir: Path, tag: str) -> RigRecording:
    """A rig registry scenario, generated once per source tree."""

    def build() -> RigRecording:
        from repro.events.datasets import load_rig_sequence

        seq = load_rig_sequence(name, quality=QUALITY)
        return RigRecording(
            name,
            {cam: np.array(ev.data) for cam, ev in seq.events.items()},
            seq.camera,
            seq.trajectory,
            tuple(seq.extrinsics),
            tuple(seq.depth_range),
            seq.keyframe_distance,
        )

    return cached(cache_dir, f"{name}-{QUALITY}-{tag}", build)


def event_array(data: np.ndarray):
    """Build the job input the way a client would: from raw columns."""
    from repro.events.containers import EventArray

    return EventArray.from_arrays(data["t"], data["x"], data["y"], data["p"])


# ----------------------------------------------------------------------
# Plan-aligned sliding windows
# ----------------------------------------------------------------------
def plan_windows(plans, span: int = 2) -> list[tuple[int, int]]:
    """50 %-overlap windows of ``span`` consecutive planned segments.

    Window ``k`` covers segments ``k .. k + span - 1`` as the event range
    ``[plans[k].start_event, plans[k + span - 1].end_event)``.  Both ends
    sit on frame and key-frame boundaries, so the window re-plans into
    exactly those segments and consecutive windows share the segment
    cache keys of their common segments.
    """
    if span < 1 or len(plans) < span:
        raise ValueError(f"need at least {span} planned segments, got {len(plans)}")
    return [
        (plans[k].start_event, plans[k + span - 1].end_event)
        for k in range(len(plans) - span + 1)
    ]


# ----------------------------------------------------------------------
# Open-loop pacing
# ----------------------------------------------------------------------
def chunk_schedule(
    t: np.ndarray, chunk_s: float, phase_s: float
) -> list[tuple[int, int, float]]:
    """Fixed-duration chunks on the recording's own clock.

    Chunk boundaries sit at ``t[0] + phase_s + k * chunk_s``; each chunk
    is ``(start_index, end_index, due_s)`` where ``due_s`` is when, on a
    1x sensor-paced clock started at ``t[0]``, the chunk's interval has
    ended and it is handed to the system.  Empty chunks are skipped; the
    last chunk is due at the last event.
    """
    if not 0 <= phase_s < chunk_s:
        raise ValueError("phase_s must lie in [0, chunk_s)")
    t0, t_last = float(t[0]), float(t[-1])
    first = phase_s if phase_s > 0 else chunk_s
    bounds = np.arange(t0 + first, t_last, chunk_s)
    cuts = np.concatenate([[0], np.searchsorted(t, bounds, side="left"), [len(t)]])
    dues = np.concatenate([bounds - t0, [t_last - t0]])
    return [
        (int(a), int(b), float(due))
        for a, b, due in zip(cuts[:-1], cuts[1:], dues)
        if b > a
    ]


def event_due_s(t: np.ndarray, index: int) -> float:
    """When event ``index`` occurs on the 1x clock started at ``t[0]``."""
    return float(t[index] - t[0])


def lateness_s(started_at: float, due_s: float, acted_at: float) -> float:
    """How far past its due time an action ran (negative: early)."""
    return acted_at - (started_at + due_s)
