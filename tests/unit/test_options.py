"""The consolidated JobOptions / CacheConfig / ServiceConfig surface.

Covers the three value objects' validation, the single ``merged`` rule,
``options=`` as the only spelling of the per-job knobs on
``ReconstructionService`` (the removed loose kwargs raise ``TypeError``),
and ``from_config`` equivalence.
"""

import dataclasses
import warnings

import pytest

from repro.serve import (
    CACHE_MODES,
    CacheConfig,
    FaultKind,
    FaultPlan,
    JobOptions,
    ReconstructionService,
    RetryPolicy,
    ServiceConfig,
)


class TestJobOptions:
    def test_all_fields_default_to_inherit(self):
        options = JobOptions()
        for field in dataclasses.fields(options):
            assert getattr(options, field.name) is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            JobOptions().retry = RetryPolicy(max_attempts=2)

    @pytest.mark.parametrize(
        "kwargs, exc, match",
        [
            (dict(retry=3), TypeError, "RetryPolicy"),
            (dict(deadline_s=0.0), ValueError, "deadline_s must be positive"),
            (
                dict(segment_deadline_s=-1.0),
                ValueError,
                "segment_deadline_s must be positive",
            ),
            (dict(faults="nope"), TypeError, "FaultPlan"),
            (dict(voxel_size=0.0), ValueError, "voxel_size must be positive"),
            (dict(min_observations=0), ValueError, "min_observations must be >= 1"),
            (dict(cache="sometimes"), ValueError, "cache mode"),
            (dict(faults=3), TypeError, "^faults must be a FaultPlan"),
        ],
    )
    def test_validation(self, kwargs, exc, match):
        with pytest.raises(exc, match=match):
            JobOptions(**kwargs)

    def test_cache_modes_accepted(self):
        for mode in CACHE_MODES:
            assert JobOptions(cache=mode).cache == mode

    def test_merged_none_inherits_set_overrides(self):
        defaults = JobOptions(
            deadline_s=10.0, allow_partial=False, cache="on", min_observations=1
        )
        override = JobOptions(deadline_s=2.0, allow_partial=True)
        merged = override.merged(defaults)
        assert merged.deadline_s == 2.0
        assert merged.allow_partial is True
        assert merged.cache == "on"  # inherited
        assert merged.min_observations == 1  # inherited
        # merging never mutates either side
        assert defaults.deadline_s == 10.0 and override.cache is None

    def test_merged_is_layered(self):
        """per_call.merged(options).merged(defaults) — strongest wins."""
        defaults = JobOptions(deadline_s=10.0, segment_deadline_s=5.0, cache="on")
        options = JobOptions(deadline_s=4.0, integrity=True)
        per_call = JobOptions(deadline_s=1.0)
        resolved = per_call.merged(options).merged(defaults)
        assert resolved.deadline_s == 1.0  # per-call beats options
        assert resolved.integrity is True  # options beats defaults
        assert resolved.segment_deadline_s == 5.0  # defaults fill the rest
        assert resolved.cache == "on"


class TestCacheConfig:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(job_entries=-1), "cache capacity must be >= 0"),
            (dict(mem_mb=-0.5), "mem_mb must be >= 0"),
            (dict(disk_mb=-1.0), "disk_mb must be >= 0"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            CacheConfig(**kwargs)

    def test_segment_tiers_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        config = CacheConfig()
        assert config.job_entries == 32
        assert config.mem_mb == 0.0
        assert config.resolved_dir() is None  # no dir, no env

    def test_resolved_dir_explicit(self, tmp_path):
        assert CacheConfig(cache_dir=str(tmp_path)).resolved_dir() == str(tmp_path)

    def test_resolved_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert CacheConfig().resolved_dir() == str(tmp_path)
        # an explicit empty string suppresses the fallback
        assert CacheConfig(cache_dir="").resolved_dir() is None
        # a disabled disk tier never resolves a directory
        assert CacheConfig(disk_mb=0.0).resolved_dir() is None


class TestServiceShims:
    def test_options_spelling_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = ReconstructionService(
                workers=1,
                options=JobOptions(deadline_s=9.0, allow_partial=True),
            )
        assert service.defaults.deadline_s == 9.0
        assert service.defaults.allow_partial is True
        service.close()

    def test_loose_reliability_kwargs_are_gone(self):
        retry = RetryPolicy(max_attempts=2)
        with pytest.raises(TypeError):
            ReconstructionService(workers=1, retry=retry)
        with pytest.raises(TypeError):
            ReconstructionService(workers=1, cache_size=4)
        with ReconstructionService(workers=1) as service:
            with pytest.raises(TypeError):
                service.submit(None, None, retry=retry)
            with pytest.raises(TypeError):
                service.open_stream(None, faults=None)

    def test_hang_faults_rejected_on_inline_executor(self):
        plan = FaultPlan(FaultKind.HANG, seed=0, rate=1.0)
        with pytest.raises(ValueError, match="inline"):
            ReconstructionService(
                workers=1, executor="inline", options=JobOptions(faults=plan)
            )


class TestServiceConfig:
    def test_from_config_equivalent_to_kwargs(self):
        config = ServiceConfig(
            workers=1,
            executor="inline",
            queue_limit=3,
            overflow="drop-oldest",
            retain_jobs=5,
            cache=CacheConfig(job_entries=2),
            defaults=JobOptions(deadline_s=7.0),
        )
        built = ReconstructionService.from_config(config)
        spelled = ReconstructionService(
            workers=1,
            executor="inline",
            queue_limit=3,
            overflow="drop-oldest",
            retain_jobs=5,
            cache=CacheConfig(job_entries=2),
            options=JobOptions(deadline_s=7.0),
        )
        assert built.defaults == spelled.defaults
        assert built.cache_config == spelled.cache_config
        assert built.overflow == spelled.overflow
        assert built.retain_jobs == spelled.retain_jobs
        assert built.executor == spelled.executor
        built.close()
        spelled.close()

    def test_config_defaults_are_value_objects(self):
        config = ServiceConfig()
        assert config.cache == CacheConfig()
        assert config.defaults == JobOptions()
