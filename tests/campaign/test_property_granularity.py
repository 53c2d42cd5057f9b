"""Property-task campaign tests: sharding a design across >=2 workers,
exactly one compile per design × variant (via the compile-cache
counter), verdict-identical reports at every group size."""

import dataclasses

import pytest

from repro.api import COMPILE_CACHE
from repro.campaign import (ArtifactCache, expand_jobs, merge_shard_results,
                            run_property_campaign, shard_jobs,
                            verdict_contract)
from repro.core.cli import main as cli_main
from repro.formal import EngineConfig

FAST = EngineConfig(max_bound=6, max_frames=25)


class TestShardPlan:
    def test_one_compile_per_design_variant(self):
        jobs = expand_jobs(case_ids=["A3"], config=FAST)  # fixed + buggy
        COMPILE_CACHE.clear()
        before = COMPILE_CACHE.compiles
        plan = shard_jobs(jobs)
        assert COMPILE_CACHE.compiles - before == 2
        assert len(plan.tasks) > len(jobs)  # genuinely sharded
        # Re-sharding the same jobs is compile-free.
        shard_jobs(jobs)
        assert COMPILE_CACHE.compiles - before == 2

    def test_group_size_reduces_task_count(self):
        jobs = expand_jobs(case_ids=["A2"], config=FAST)
        singles = shard_jobs(jobs, group_size=1)
        pairs = shard_jobs(jobs, group_size=2)
        whole = shard_jobs(jobs, group_size=None)  # one task per design
        assert len(jobs) == len(whole.tasks) < len(pairs.tasks) \
            < len(singles.tasks)
        singles_props = [p for t in singles.tasks for p in t.properties]
        pairs_props = [p for t in pairs.tasks for p in t.properties]
        whole_props = [p for t in whole.tasks for p in t.properties]
        # Same inventory, same order.
        assert singles_props == pairs_props == whole_props

    def test_broken_job_isolated_in_plan(self):
        jobs = expand_jobs(case_ids=["A2"], config=FAST)
        broken = dataclasses.replace(jobs[0], job_id="broken",
                                     dut_file="ariane/missing.sv")
        plan = shard_jobs([broken] + jobs)
        assert plan.shards[0].expand_error is not None
        assert plan.shards[0].task_ids == []
        results = merge_shard_results(plan, [])
        assert results[0].status == "error"
        assert "missing" in results[0].error


class TestAcceptanceCriterion:
    def test_sharded_run_matches_design_granularity(self):
        """One design's property set across 2 workers: one compile per
        design x variant, verdicts identical to one task per design."""
        jobs = expand_jobs(case_ids=["A2"], config=FAST)
        COMPILE_CACHE.clear()
        before = COMPILE_CACHE.compiles
        sharded = run_property_campaign(jobs, workers=2)
        assert COMPILE_CACHE.compiles - before == len(jobs)
        whole = run_property_campaign(jobs, workers=2, group_size=None)
        assert verdict_contract(sharded) == verdict_contract(whole)

    def test_worker_count_does_not_change_results(self):
        jobs = expand_jobs(case_ids=["A2", "E10"], config=FAST)
        serial = run_property_campaign(jobs, workers=1)
        parallel = run_property_campaign(jobs, workers=4)
        assert verdict_contract(serial) == verdict_contract(parallel)
        assert [r.job_id for r in serial] == [j.job_id for j in jobs]

    def test_cli_property_granularity_smoke(self, tmp_path, capsys):
        json_out = tmp_path / "prop.json"
        rc = cli_main(["campaign", "--cases", "A2", "--workers", "2",
                       "--group-size", "1",
                       "--json", str(json_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "property tasks" in out
        assert "A2.fixed/p" in out        # per-property progress lines
        assert "100% liveness/safety properties proof" in out
        assert json_out.exists()

    def test_cli_bad_group_size_exits_1(self, capsys):
        assert cli_main(["campaign", "--cases", "A2",
                         "--group-size", "0"]) == 1
        capsys.readouterr()


class TestPropertyTaskCaching:
    def test_second_sharded_run_is_cached(self, tmp_path):
        jobs = expand_jobs(case_ids=["A2"], config=FAST)
        cache = ArtifactCache(tmp_path)
        first = run_property_campaign(jobs, workers=2, cache=cache)
        assert not any(r.from_cache for r in first)
        second = run_property_campaign(jobs, workers=2, cache=cache)
        assert all(r.from_cache for r in second)
        assert verdict_contract(first) == verdict_contract(second)

    def test_task_and_job_cache_entries_do_not_collide(self, tmp_path):
        jobs = expand_jobs(case_ids=["A2"], config=FAST)
        cache = ArtifactCache(tmp_path)
        run_property_campaign(jobs, workers=1, group_size=None, cache=cache)
        design_entries = cache.stats()["entries"]
        run_property_campaign(jobs, workers=1, cache=cache)
        # Single-property tasks key differently from the whole-design
        # task (keys include the group names), and so do their plans.
        assert cache.stats()["entries"] > design_entries
