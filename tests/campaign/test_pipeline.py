"""Streaming cost-aware pipeline tests — this PR's acceptance criteria.

Covers the four layers of the pipeline refactor:

* **work-stealing determinism** — re-splitting pending property groups
  changes wall time and grouping, never merged verdicts (identical
  result lists for 1/2/4 workers, and vs the inventory schedule);
* **pipeline overlap** — proven by *event order*, not wall clock: with
  ≥2 workers, design B's ``compile_started`` event lands strictly
  between design A's first and last check events, on any host (the
  scheduler refills — i.e. runs the next design's frontend — between
  consecutive result yields, deterministically);
* **LPT bin balance** — cost-priced corpus properties pack into bins
  within 1.5× max/mean;
* **cost model** — pricing ordering (liveness ≫ assert ≫ cover),
  deterministic packing, calibration from history timing records;
* **cached replays** — report the original check time, not the replay
  time, steal-transparently.
"""

import pytest

from repro.campaign import (ArtifactCache, CampaignHistory, CostModel,
                            expand_jobs, pack_lpt, run_property_campaign,
                            shard_jobs, verdict_contract)
from repro.formal import EngineConfig

FAST = EngineConfig(max_bound=6, max_frames=25)


class TestCostModel:
    def test_kind_ordering(self):
        model = CostModel()
        live = model.property_cost("live", 10, 8, 30)
        asrt = model.property_cost("assert", 10, 8, 30)
        cover = model.property_cost("cover", 10, 8, 30)
        assert live > asrt > cover > 0

    def test_coi_and_bounds_scale_cost(self):
        model = CostModel()
        assert model.property_cost("assert", 100, 8, 30) > \
            model.property_cost("assert", 5, 8, 30)
        assert model.property_cost("cover", 5, 30, 0) > \
            model.property_cost("cover", 5, 5, 0)

    def test_pack_lpt_balances_and_is_deterministic(self):
        costs = [10.0, 1.0, 1.0, 1.0, 9.0, 1.0, 1.0, 8.0]
        first = pack_lpt(costs, 3)
        assert first == pack_lpt(costs, 3)
        loads = [sum(costs[i] for i in b) for b in first]
        assert max(loads) / (sum(loads) / len(loads)) <= 1.5
        # Every item lands in exactly one bin.
        assert sorted(i for b in first for i in b) == list(range(len(costs)))
        # Issue order: costliest bin first.
        assert loads == sorted(loads, reverse=True)
        with pytest.raises(ValueError):
            pack_lpt(costs, 0)

    def test_calibration_reshapes_weights(self):
        samples = ([{"kinds": {"live": 1}, "wall_time_s": 2.0}] * 5
                   + [{"kinds": {"cover": 1}, "wall_time_s": 0.1}] * 5)
        model = CostModel().calibrated(samples)
        assert model.kind_weights["live"] > model.kind_weights["cover"]
        assert model.fingerprint() != CostModel().fingerprint()
        # Mixed-kind and empty samples are ignored, not fatal.
        assert CostModel().calibrated(
            [{"kinds": {"live": 1, "cover": 2}, "wall_time_s": 1.0}]
        ).fingerprint() == CostModel().fingerprint()
        assert CostModel().calibrated([]).fingerprint() == \
            CostModel().fingerprint()

    def test_calibration_needs_two_kinds_for_a_ratio(self):
        """A single measured kind carries no cross-kind ratio information
        — mixing its raw seconds into the other kinds' abstract units
        would distort the very ratios LPT balances on, so it's a no-op."""
        samples = [{"kinds": {"assert": 1}, "wall_time_s": 0.3}] * 10
        assert CostModel().calibrated(samples).fingerprint() == \
            CostModel().fingerprint()

    def test_calibration_is_noise_stable(self):
        """Run-to-run timing noise must not churn the fingerprint (it
        keys the shard-plan cache): weights quantize to ~19% buckets."""
        def samples(scale):
            return ([{"kinds": {"live": 1}, "wall_time_s": 2.0 * scale}] * 5
                    + [{"kinds": {"cover": 1}, "wall_time_s": 0.1}] * 5)
        base = CostModel().calibrated(samples(1.0))
        noisy = CostModel().calibrated(samples(1.03))
        assert base.fingerprint() == noisy.fingerprint()

    def test_history_timing_roundtrip(self, tmp_path):
        history = CampaignHistory(tmp_path / "runs.jsonl")
        assert history.timing_samples() == []
        history.append_timings(
            [{"kinds": {"assert": 1}, "wall_time_s": 0.5}])
        samples = history.timing_samples()
        assert samples == [{"kinds": {"assert": 1}, "wall_time_s": 0.5}]
        # Timing records are invisible to the regression baseline.
        assert history.last() is None


class TestLptBalanceOnCorpus:
    def test_corpus_inventory_packs_within_bound(self):
        """Cost-priced corpus properties pack into 4 bins within 1.5×
        max/mean — the balance inventory-order chunking cannot give."""
        jobs = expand_jobs(config=FAST)  # the full registry
        plan = shard_jobs(jobs, schedule="cost")
        model = CostModel()
        costs = [model.task_cost(task) for task in plan.tasks]
        assert len(costs) > 20
        assert all(cost > 0 for cost in costs)
        bins = pack_lpt(costs, 4)
        loads = [sum(costs[i] for i in b) for b in bins]
        assert max(loads) / (sum(loads) / len(loads)) <= 1.5, loads

    def test_cost_metadata_attached_by_sharding(self):
        jobs = expand_jobs(case_ids=["A2"], config=FAST)
        plan = shard_jobs(jobs, schedule="cost")
        for task in plan.tasks:
            assert len(task.kinds) == len(task.properties)
            assert len(task.coi_sizes) == len(task.properties)
            assert len(task.order) == len(task.properties)
        # COI sizes are real (some property sees at least one latch).
        assert any(size > 0 for task in plan.tasks
                   for size in task.coi_sizes)
        # Canonical positions cover the inventory exactly once.
        positions = sorted(p for task in plan.tasks for p in task.order)
        assert positions == list(range(len(positions)))


class TestStealingDeterminism:
    def test_results_identical_across_worker_counts(self):
        jobs = expand_jobs(case_ids=["A2", "E10"], config=FAST)
        runs = {workers: run_property_campaign(jobs, workers=workers,
                                               schedule="cost")
                for workers in (1, 2, 4)}
        assert verdict_contract(runs[1]) == verdict_contract(runs[2]) \
            == verdict_contract(runs[4])
        assert [r.job_id for r in runs[1]] == [j.job_id for j in jobs]

    def test_cost_schedule_matches_inventory_and_design(self):
        jobs = expand_jobs(case_ids=["A3"], config=FAST)  # fixed + buggy
        cost = run_property_campaign(jobs, workers=2, schedule="cost")
        inventory = run_property_campaign(jobs, workers=2,
                                          schedule="inventory")
        whole = run_property_campaign(jobs, workers=2, group_size=None)
        assert verdict_contract(cost) == verdict_contract(inventory) \
            == verdict_contract(whole)

    def test_forced_steal_preserves_verdicts(self):
        """One giant group + 4 workers forces tail re-splits; merged
        verdicts must not notice."""
        jobs = expand_jobs(case_ids=["A2"], config=FAST)
        stolen = run_property_campaign(jobs, workers=4, group_size=100,
                                       schedule="cost")
        whole = run_property_campaign(jobs, workers=1, group_size=None)
        assert verdict_contract(stolen) == verdict_contract(whole)
        assert sum(r.steals for r in stolen) >= 1

    def test_inventory_schedule_never_steals(self):
        jobs = expand_jobs(case_ids=["A2"], config=FAST)
        results = run_property_campaign(jobs, workers=4, group_size=100,
                                        schedule="inventory")
        assert sum(r.steals for r in results) == 0
        assert all(r.ok for r in results)


class TestPipelineOverlap:
    def test_design_b_compiles_during_design_a_checking(self):
        """Event-order proof of frontend/check overlap (no wall clock).

        With 2 workers, after design A's first result the scheduler
        refills — pulling the stream runs design B's frontend — before
        processing A's next result.  So B's compile events land strictly
        between A's first and last check events, deterministically,
        single-core hosts included.
        """
        jobs = expand_jobs(case_ids=["A2", "E10"], config=FAST)
        events = []
        run_property_campaign(jobs, workers=2, schedule="cost",
                              progress=events.append)
        a_label, b_label = jobs[0].job_id, jobs[1].job_id
        a_checks = [i for i, e in enumerate(events)
                    if e.kind == "result" and e.design == a_label]
        b_compile = [i for i, e in enumerate(events)
                     if e.kind == "compile_started" and e.design == b_label]
        b_done = [i for i, e in enumerate(events)
                  if e.kind == "compile_done" and e.design == b_label]
        assert len(a_checks) >= 2 and len(b_compile) == 1
        assert a_checks[0] < b_compile[0] < a_checks[-1]
        assert a_checks[0] < b_done[0] < a_checks[-1]

    def test_stream_does_not_precompile_later_designs(self):
        """shard_jobs-era behavior is gone: with one worker, design B's
        compile must happen after ALL of design A's checks (the stream
        is pulled lazily), not before the first one."""
        jobs = expand_jobs(case_ids=["A2", "E10"], config=FAST)
        events = []
        run_property_campaign(jobs, workers=1, schedule="cost",
                              progress=events.append)
        a_label, b_label = jobs[0].job_id, jobs[1].job_id
        a_checks = [i for i, e in enumerate(events)
                    if e.kind == "result" and e.design == a_label]
        b_compile = [i for i, e in enumerate(events)
                     if e.kind == "compile_started" and e.design == b_label]
        assert b_compile[0] > a_checks[0]

    def test_one_compile_per_design_variant_streaming(self):
        from repro.api import COMPILE_CACHE

        jobs = expand_jobs(case_ids=["A3"], config=FAST)  # fixed + buggy
        COMPILE_CACHE.clear()
        before = COMPILE_CACHE.compiles
        results = run_property_campaign(jobs, workers=2, schedule="cost")
        assert all(r.ok for r in results)
        assert COMPILE_CACHE.compiles - before == len(jobs)


class TestCachedReplayTimes:
    def test_replay_reports_original_wall_time(self, tmp_path):
        jobs = expand_jobs(case_ids=["A2"], config=FAST)
        cache = ArtifactCache(tmp_path)
        cold = run_property_campaign(jobs, workers=2, schedule="cost",
                                     cache=cache)
        warm = run_property_campaign(jobs, workers=2, schedule="cost",
                                     cache=cache)
        assert verdict_contract(cold) == verdict_contract(warm)
        for cold_result, warm_result in zip(cold, warm):
            assert not cold_result.from_cache and warm_result.from_cache
            assert warm_result.original_wall_time_s is not None
            assert warm_result.original_wall_time_s > 0
            # The replay itself is near-instant; the original time is the
            # real check time (same order of magnitude as the cold run).
            assert warm_result.wall_time_s < 1.0
            assert warm_result.original_wall_time_s == pytest.approx(
                cold_result.wall_time_s, rel=0.5, abs=0.5)

    def test_design_granularity_replay_reports_original_time(self,
                                                             tmp_path):
        jobs = expand_jobs(case_ids=["A2"], config=FAST)
        cache = ArtifactCache(tmp_path)
        cold = run_property_campaign(jobs, workers=1, group_size=None,
                                     cache=cache)
        warm = run_property_campaign(jobs, workers=1, group_size=None,
                                     cache=cache)
        assert warm[0].from_cache
        assert warm[0].original_wall_time_s == pytest.approx(
            cold[0].wall_time_s, rel=0.5, abs=0.5)

    def test_report_surfaces_both_times(self, tmp_path):
        from repro.campaign import CampaignReport

        jobs = expand_jobs(case_ids=["A2"], config=FAST)
        cache = ArtifactCache(tmp_path)
        run_property_campaign(jobs, workers=1, group_size=None,
                              cache=cache)
        warm = run_property_campaign(jobs, workers=1, group_size=None,
                                     cache=cache)
        report = CampaignReport(jobs, warm, schedule="cost", steals=2)
        exported = report.as_dict()["results"][0]
        assert exported["from_cache"] is True
        assert exported["original_wall_time_s"] is not None
        assert report.rows()[0].original_time_s > 0
        assert "originally" in report.summary()
        assert "Scheduling: cost" in report.summary()
