"""The tiered segment-outcome cache (memory LRU over a disk store).

Everything here runs on synthetic payloads — ``(keyframes, profile)``
with placeholder key frames — because the cache is content-agnostic;
the integration suite (``test_cache_persistence``) exercises it with
real reconstructions.
"""

import os
import pickle

import pytest

from repro.core.results import PipelineProfile
from repro.serve import (
    SEGMENT_CACHE_SCHEMA,
    SegmentCache,
    payload_digest,
    segment_key,
)


def make_payload(tag: str, pad: int = 0):
    """A distinguishable picklable payload (optionally padded to size)."""
    profile = PipelineProfile()
    profile.n_events = len(tag)
    return ([tag, "x" * pad], profile)


def key_of(n: int) -> str:
    """A deterministic 64-hex key (the shape segment_key produces)."""
    return f"{n:064x}"


class TestMemoryTier:
    def test_disabled_by_default(self):
        cache = SegmentCache()
        assert not cache.enabled
        assert cache.get(key_of(1)) is None
        cache.put(key_of(1), make_payload("a"))
        assert len(cache) == 0 and cache.hits == cache.misses == 0

    def test_put_get_roundtrip(self):
        cache = SegmentCache(mem_mb=1.0)
        payload = make_payload("a")
        cache.put(key_of(1), payload)
        assert cache.get(key_of(1)) is payload  # no copy, no deserialization
        assert (cache.hits, cache.misses) == (1, 0)
        assert cache.get(key_of(2)) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_count_miss_false_does_not_charge(self):
        cache = SegmentCache(mem_mb=1.0)
        assert cache.get(key_of(1), count_miss=False) is None
        assert cache.misses == 0

    def test_byte_bound_evicts_least_recently_used(self):
        pad = 64 * 1024
        cache = SegmentCache(mem_mb=3.5 * pad / 2**20)  # ~3 entries + overhead
        for n in range(3):
            cache.put(key_of(n), make_payload(str(n), pad=pad))
        assert len(cache) == 3
        cache.get(key_of(0))  # touch 0 so 1 is the LRU victim
        cache.put(key_of(3), make_payload("3", pad=pad))
        assert cache.get(key_of(1), count_miss=False) is None
        assert cache.get(key_of(0), count_miss=False) is not None
        assert cache.evictions >= 1

    def test_put_of_a_present_key_keeps_one_entry_and_refreshes_it(self):
        pad = 64 * 1024
        cache = SegmentCache(mem_mb=3.5 * pad / 2**20)  # ~3 entries + overhead
        first = make_payload("0", pad=pad)
        cache.put(key_of(0), first)
        for n in (1, 2):
            cache.put(key_of(n), make_payload(str(n), pad=pad))
        cache.put(key_of(0), make_payload("0-again", pad=pad))
        assert len(cache) == 3  # idempotent: no second entry
        cache.put(key_of(3), make_payload("3", pad=pad))
        # The re-put made 0 most recent, so 1 is the victim.
        assert cache.get(key_of(1), count_miss=False) is None
        assert cache.get(key_of(0), count_miss=False) is first

    def test_entry_larger_than_the_bound_is_kept_alone(self):
        pad = 64 * 1024
        cache = SegmentCache(mem_mb=2.5 * pad / 2**20)
        cache.put(key_of(0), make_payload("0", pad=pad))
        cache.put(key_of(1), make_payload("1", pad=pad))
        cache.put(key_of(2), make_payload("big", pad=4 * pad))
        # Everything older goes, but the newest entry itself stays.
        assert len(cache) == 1
        assert cache.get(key_of(2)) is not None
        assert cache.evictions == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="mem_mb"):
            SegmentCache(mem_mb=-1.0)
        with pytest.raises(ValueError, match="disk_mb"):
            SegmentCache(disk_mb=-1.0)


class TestDiskTier:
    def test_write_then_read_and_promotion(self, tmp_path):
        cache = SegmentCache(mem_mb=1.0, cache_dir=str(tmp_path))
        cache.put(key_of(7), make_payload("seven"))
        assert cache.disk_entries == 1
        # evict from memory only; the disk copy must answer
        cache._mem.clear()
        got = cache.get(key_of(7))
        assert got is not None and got[0][0] == "seven"
        assert cache.disk_hits == 1
        assert len(cache) == 1  # promoted back into the memory tier

    def test_disk_only_cache_serves_without_a_memory_tier(self, tmp_path):
        cache = SegmentCache(mem_mb=0.0, cache_dir=str(tmp_path))
        assert cache.enabled
        cache.put(key_of(5), make_payload("five"))
        assert len(cache) == 0 and cache.disk_entries == 1
        got = cache.get(key_of(5))
        assert got is not None and got[0][0] == "five"
        assert (cache.hits, cache.disk_hits) == (1, 1)
        assert len(cache) == 0  # nothing to promote into

    def test_entries_survive_restart(self, tmp_path):
        first = SegmentCache(mem_mb=1.0, cache_dir=str(tmp_path))
        first.put(key_of(1), make_payload("persisted"))
        second = SegmentCache(mem_mb=1.0, cache_dir=str(tmp_path))
        assert second.disk_entries == 1
        got = second.get(key_of(1))
        assert got is not None and got[0][0] == "persisted"
        assert second.disk_hits == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = SegmentCache(cache_dir=str(tmp_path))
        for n in range(4):
            cache.put(key_of(n), make_payload(str(n)))
        leftovers = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if not name.endswith(".pkl")
        ]
        assert leftovers == []

    def test_entries_live_under_versioned_root(self, tmp_path):
        cache = SegmentCache(cache_dir=str(tmp_path))
        cache.put(key_of(1), make_payload("a"))
        assert (tmp_path / f"seg-v{SEGMENT_CACHE_SCHEMA}").is_dir()

    def test_truncated_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = SegmentCache(cache_dir=str(tmp_path))
        cache.put(key_of(1), make_payload("a"))
        path = cache._disk[key_of(1)][0]
        with open(path, "wb") as f:
            f.write(b"\x80\x05damaged")
        assert cache.get(key_of(1)) is None
        assert not os.path.exists(path)
        assert cache.disk_entries == 0

    def test_wrong_schema_version_is_a_miss(self, tmp_path):
        cache = SegmentCache(cache_dir=str(tmp_path))
        cache.put(key_of(1), make_payload("a"))
        path = cache._disk[key_of(1)][0]
        with open(path, "rb") as f:
            record = pickle.load(f)
        record["version"] = SEGMENT_CACHE_SCHEMA + 1
        with open(path, "wb") as f:
            pickle.dump(record, f)
        assert cache.get(key_of(1)) is None

    def test_verify_rejects_digest_mismatch(self, tmp_path):
        cache = SegmentCache(cache_dir=str(tmp_path))
        cache.put(key_of(1), make_payload("a"))
        path = cache._disk[key_of(1)][0]
        with open(path, "rb") as f:
            record = pickle.load(f)
        record["payload"] = make_payload("tampered")
        with open(path, "wb") as f:
            pickle.dump(record, f)
        # an unverified load serves the tampered payload...
        assert cache.get(key_of(1))[0][0] == "tampered"
        # ...a verified one detects and evicts it
        cache._mem.clear()
        assert cache.get(key_of(1), verify=True) is None
        assert not os.path.exists(path)

    def test_disk_bound_evicts_oldest(self, tmp_path):
        pad = 32 * 1024
        cache = SegmentCache(disk_mb=3 * pad / 2**20, cache_dir=str(tmp_path))
        for n in range(5):
            cache.put(key_of(n), make_payload(str(n), pad=pad))
        assert cache.disk_entries < 5
        # the newest entry always survives
        assert key_of(4) in cache._disk

    def test_disk_mb_zero_disables_the_tier(self, tmp_path):
        cache = SegmentCache(mem_mb=1.0, disk_mb=0.0, cache_dir=str(tmp_path))
        cache.put(key_of(1), make_payload("a"))
        assert cache.disk_entries == 0
        assert list(tmp_path.iterdir()) == []


class TestKeys:
    def test_payload_digest_ignores_timings(self):
        a = make_payload("same")
        b = make_payload("same")
        b[1].add_time("backprojection", 123.0)
        assert payload_digest(a) == payload_digest(b)

    def test_payload_digest_covers_content(self):
        assert payload_digest(make_payload("a")) != payload_digest(
            make_payload("b")
        )

    def test_segment_key_covers_spec_and_slice(self, mapping_workload):
        """Every input of a segment's computation splits the key."""
        import dataclasses

        from repro.core import EMVSConfig, EngineSpec

        seq, events, config = mapping_workload
        spec = EngineSpec(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            backend="numpy-batch",
        )
        digest = events.content_digest(0, 1024)
        base = segment_key(spec, digest)
        assert segment_key(spec, digest) == base
        assert segment_key(spec, events.content_digest(1024, 2048)) != base
        variants = {
            "camera": dataclasses.replace(
                spec, camera=dataclasses.replace(seq.camera, fx=seq.camera.fx + 1.0)
            ),
            "config": dataclasses.replace(spec, config=EMVSConfig(n_depth_planes=32)),
            "depth_range": dataclasses.replace(spec, depth_range=(0.5, 9.0)),
            "policy": dataclasses.replace(spec, policy="original"),
            "backend": dataclasses.replace(spec, backend="numpy-reference"),
        }
        for name, other in variants.items():
            assert segment_key(other, digest) != base, name

    def test_segment_key_follows_event_content_not_identity(
        self, davis_camera, simple_trajectory, make_stream
    ):
        """Two separately built but identical streams key identically."""
        from repro.core import EMVSConfig, EngineSpec

        spec = EngineSpec(davis_camera, simple_trajectory, EMVSConfig())
        assert segment_key(spec, make_stream(500).content_digest()) == segment_key(
            spec, make_stream(500).content_digest()
        )
        assert segment_key(spec, make_stream(501).content_digest()) != segment_key(
            spec, make_stream(500).content_digest()
        )

    def test_sliced_digest_equals_digest_of_slice(self, mapping_workload):
        _, events, _ = mapping_workload
        assert (
            events.content_digest(1024, 4096)
            == events[1024:4096].content_digest()
        )

    def test_sliced_digest_property_over_random_windows(self, mapping_workload):
        """Slice composition holds for arbitrary windows, not one corner.

        ``events.content_digest(a, b) == events[a:b].content_digest()``
        is the identity that lets admission-time cache probes hash event
        windows without materializing the slice; fuzz it over seeded
        random windows including empty and full-span ones.
        """
        import numpy as np

        _, events, _ = mapping_workload
        n = len(events)
        rng = np.random.default_rng(4242)
        windows = [(0, n), (0, 0), (n, n), (n // 2, n // 2)]
        windows += [
            tuple(sorted(rng.integers(0, n + 1, size=2))) for _ in range(12)
        ]
        for a, b in windows:
            a, b = int(a), int(b)
            assert (
                events.content_digest(a, b) == events[a:b].content_digest()
            ), (a, b)


class TestTrajectoryDigestKeys:
    """Schema 3: the trajectory enters keys as its once-computed digest."""

    @staticmethod
    def spec_on(seq, config, timestamps, poses):
        """A spec on a freshly constructed trajectory."""
        from repro.core import EngineSpec
        from repro.geometry.trajectory import Trajectory

        return EngineSpec(
            seq.camera,
            Trajectory(timestamps, poses),
            config,
            depth_range=seq.depth_range,
            backend="numpy-batch",
        )

    @staticmethod
    def pose_arrays(seq):
        """Copies of every pose's rotation and translation."""
        return [
            (pose.rotation.copy(), pose.translation.copy())
            for pose in seq.trajectory.poses
        ]

    def test_equal_specs_built_separately_share_keys(self, mapping_workload):
        from repro.geometry.se3 import SE3

        seq, events, config = mapping_workload
        digest = events.content_digest(0, 1024)
        specs = [
            self.spec_on(
                seq,
                config,
                seq.trajectory.timestamps.copy(),
                [SE3(R, t) for R, t in self.pose_arrays(seq)],
            )
            for _ in range(2)
        ]
        assert specs[0].trajectory is not specs[1].trajectory
        assert segment_key(specs[0], digest) == segment_key(specs[1], digest)
        assert segment_key(specs[0], digest) == segment_key(
            self.spec_on(seq, config, seq.trajectory.timestamps, seq.trajectory.poses),
            digest,
        )

    @pytest.mark.parametrize("part", ["translation", "rotation"])
    def test_one_ulp_pose_change_changes_the_key(self, mapping_workload, part):
        import numpy as np

        from repro.geometry.se3 import SE3

        seq, events, config = mapping_workload
        digest = events.content_digest(0, 1024)
        base = self.spec_on(seq, config, seq.trajectory.timestamps, seq.trajectory.poses)
        arrays = self.pose_arrays(seq)
        R, t = arrays[len(arrays) // 2]
        target = t if part == "translation" else R
        flat = target.reshape(-1)
        flat[1] = np.nextafter(flat[1], np.inf)
        nudged = self.spec_on(
            seq, config, seq.trajectory.timestamps, [SE3(R, t) for R, t in arrays]
        )
        assert segment_key(nudged, digest) != segment_key(base, digest)

    def test_schema_2_disk_entries_are_never_read(
        self, mapping_workload, tmp_path, monkeypatch
    ):
        """An entry written under schema 2 is invisible to a schema-3 cache."""
        from repro.core import EngineSpec
        from repro.serve import cache as cache_module

        seq, events, config = mapping_workload
        spec = EngineSpec(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            backend="numpy-batch",
        )
        digest = events.content_digest(0, 1024)
        key = segment_key(spec, digest)
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "SEGMENT_CACHE_SCHEMA", 2)
            old_key = segment_key(spec, digest)
            old = SegmentCache(cache_dir=str(tmp_path))
            old.put(old_key, make_payload("v2"))
            old.put(key, make_payload("v2 under the v3 key"))
        assert SEGMENT_CACHE_SCHEMA == 3
        assert old_key != key
        assert (tmp_path / "seg-v2").is_dir()
        cache = SegmentCache(cache_dir=str(tmp_path))
        assert cache.disk_entries == 0
        assert cache.get(key) is None
        assert cache.get(old_key) is None
        assert cache.disk_hits == 0


class TestRigCacheKeys:
    """Rig workloads must share segment-cache entries with monocular runs."""

    @pytest.fixture()
    def rig_and_spec(self, mapping_workload):
        import numpy as np

        from repro.core import CameraRig, EngineSpec
        from repro.geometry.se3 import SE3

        seq, events, config = mapping_workload
        spec = EngineSpec(
            seq.camera,
            seq.trajectory,
            config,
            depth_range=seq.depth_range,
            backend="numpy-batch",
        )
        rig = CameraRig.from_trajectory(
            seq.camera,
            seq.trajectory,
            config,
            extrinsics=[
                SE3.identity(),
                SE3(np.eye(3), np.array([0.08, 0.0, 0.0])),
            ],
            depth_range=seq.depth_range,
            backend="numpy-batch",
        )
        return rig, spec, events

    def test_identity_camera_shares_keys_with_monocular_spec(self, rig_and_spec):
        """The identity-mounted rig camera IS the monocular engine.

        Composing ``SE3.identity()`` is bit-exact, so its spec tokenizes
        identically and every planned segment of a rig job hits the very
        cache entries a monocular job of the same stream wrote.
        """
        rig, spec, events = rig_and_spec
        cam0 = rig.camera("cam0").spec
        mono_plans, _ = spec.plan(events)
        rig_plans, _ = cam0.plan(events)
        assert [p.index for p in mono_plans] == [p.index for p in rig_plans]
        assert len(mono_plans) > 1
        for mono_plan, rig_plan in zip(mono_plans, rig_plans):
            mono_key = segment_key(
                spec, events.content_digest(mono_plan.start_event, mono_plan.end_event)
            )
            rig_key = segment_key(
                cam0, events.content_digest(rig_plan.start_event, rig_plan.end_event)
            )
            assert mono_key == rig_key

    def test_offset_camera_gets_distinct_keys(self, rig_and_spec):
        """A camera on a real baseline computes different segments."""
        rig, spec, events = rig_and_spec
        cam1 = rig.camera("cam1").spec
        digest = events.content_digest(0, 2048)
        assert segment_key(cam1, digest) != segment_key(spec, digest)

    def test_overlapping_rigs_share_per_camera_entries(self, rig_and_spec):
        """Two rigs sharing a camera share that camera's cache entries."""
        import numpy as np

        from repro.core import CameraRig
        from repro.geometry.se3 import SE3

        rig, spec, events = rig_and_spec
        offset = SE3(np.eye(3), np.array([0.08, 0.0, 0.0]))
        wider = CameraRig.from_trajectory(
            spec.camera,
            spec.trajectory,
            spec.config,
            extrinsics=[
                SE3.identity(),
                offset,
                SE3(np.eye(3), np.array([-0.08, 0.0, 0.0])),
            ],
            depth_range=spec.depth_range,
            backend="numpy-batch",
        )
        digest = events.content_digest(0, 2048)
        # Same mounting point, different rigs: identical keys.
        assert segment_key(rig.camera("cam1").spec, digest) == segment_key(
            wider.camera("cam1").spec, digest
        )
        # The rig's third camera is genuinely new work.
        assert segment_key(wider.camera("cam2").spec, digest) != segment_key(
            wider.camera("cam1").spec, digest
        )
