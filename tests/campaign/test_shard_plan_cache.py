"""Warm campaign reruns: the shard-plan cache.

A cold ``run_property_campaign`` with a cache pays, per job, one FT
generation + one compile (parent-side) and stores both the per-task
results *and* the shard plan.  The warm rerun must rebuild its task list
from the cached plan — zero FT generations, zero compiles — and replay
every task result from disk, at any group size.
"""

import pytest

import repro.campaign.sharding as sharding
from repro.api.compile import COMPILE_CACHE
from repro.campaign import ArtifactCache, expand_jobs, run_property_campaign
from repro.campaign.sharding import shard_jobs
from repro.formal import EngineConfig


@pytest.fixture()
def jobs():
    return expand_jobs(case_ids=["A2"],
                       config=EngineConfig(max_bound=6, max_frames=20))


def _count_ft_calls(monkeypatch):
    import repro.core as core

    calls = {"n": 0}
    real = core.generate_ft

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    # shard_jobs imports generate_ft from repro.core at call time.
    monkeypatch.setattr(core, "generate_ft", counting)
    return calls


class TestShardPlanCache:
    def test_warm_rerun_skips_ft_and_compile(self, jobs, tmp_path,
                                             monkeypatch):
        cache = ArtifactCache(tmp_path / "cache")
        calls = _count_ft_calls(monkeypatch)

        cold = run_property_campaign(jobs, workers=2, cache=cache)
        assert all(r.ok for r in cold)
        assert calls["n"] == len(jobs)          # one FT gen per job
        assert not any(r.from_cache for r in cold)

        calls["n"] = 0
        compiles_before = COMPILE_CACHE.compiles
        hits_before = COMPILE_CACHE.hits
        warm = run_property_campaign(jobs, workers=2, cache=cache)
        assert all(r.from_cache for r in warm)
        assert calls["n"] == 0                  # plan cache: no FT gen
        # No parent-side compile either — not even a compile-cache lookup.
        assert COMPILE_CACHE.compiles == compiles_before
        assert COMPILE_CACHE.hits == hits_before

        def strip(results):
            return [(r.job_id, r.status, r.payload) for r in results]
        assert strip(cold) == strip(warm)

    def test_partial_warm_compiles_once_from_cached_plan(self, jobs,
                                                         tmp_path,
                                                         monkeypatch):
        """Plan hit + missing task results: FT gen still skipped, exactly
        one compile per design, served from the stored merged source."""
        cache = ArtifactCache(tmp_path / "cache")
        calls = _count_ft_calls(monkeypatch)
        cold = run_property_campaign(jobs, workers=1, cache=cache)
        assert all(r.ok for r in cold)

        # Drop the task-result entries, keep the plans.
        plan = shard_jobs(jobs, cache=cache)
        removed = 0
        for task in plan.tasks:
            path = cache._path(cache.key(task))
            if path.exists():
                path.unlink()
                removed += 1
        assert removed > 0

        calls["n"] = 0
        warm = run_property_campaign(jobs, workers=1, cache=cache)
        assert all(r.ok for r in warm)
        assert calls["n"] == 0                  # plan hit: no FT gen
        assert not any(r.from_cache for r in warm)

    def test_plan_key_covers_config_and_group_size(self, jobs):
        job = jobs[0]
        base = sharding._plan_key(job, group_size=1)
        assert sharding._plan_key(job, group_size=2) != base
        # Whole-design groups (group_size=None) plan under their own key.
        assert sharding._plan_key(job, group_size=None) != base
        import dataclasses
        other = dataclasses.replace(job, engine_config=EngineConfig(
            max_bound=7, max_frames=20))
        assert sharding._plan_key(other, group_size=1) != base

    def test_warm_default_cli_rerun_compiles_nothing(self, tmp_path,
                                                    monkeypatch, capsys):
        """The CLI default (one task per design) replays a warm
        ``--cache-dir`` rerun without any FT generation or compile."""
        from repro.core.cli import main as cli_main

        argv = ["campaign", "--cases", "A2", "--workers", "1",
                "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(argv) == 0
        calls = _count_ft_calls(monkeypatch)
        COMPILE_CACHE.clear()
        compiles_before = COMPILE_CACHE.compiles
        capsys.readouterr()
        assert cli_main(argv) == 0
        assert calls["n"] == 0
        assert COMPILE_CACHE.compiles == compiles_before
        out = capsys.readouterr().out
        assert "(plan cached)" in out
        assert "A2.fixed/p0 (cached" in out
        assert "A2.fixed/p1" not in out     # one task per design

    def test_corrupt_plan_entry_falls_back(self, jobs, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run_property_campaign(jobs, workers=1, cache=cache)
        key = sharding._plan_key(jobs[0], group_size=1)
        cache._path(key).write_text('{"merged": "gone"}')  # malformed
        results = run_property_campaign(jobs, workers=1, cache=cache)
        assert all(r.ok for r in results)
