"""E13 — campaign scaling: serial vs parallel wall-clock, cache-hit reruns.

Not a paper table: the paper ran its Table III campaign by hand, one
JasperGold invocation per module.  This reproduction ships a campaign
scheduler (:mod:`repro.campaign`), so the quantities of interest are the
orchestration ones:

1. **pool concurrency** — on a wait-bound workload, N workers cut
   wall-clock by ~N regardless of core count (this is the scheduler
   contract, measurable even on a single-core CI box);
2. **engine scaling** — the real corpus jobs (one task per design) on
   1/2/4 workers.  Model checking is CPU-bound pure Python, so the
   speedup tracks the number of *cores* and is bounded by the longest
   single design; on a single core the scaling assertion is skipped;
3. **incremental reruns** — a second campaign over an unchanged corpus is
   served entirely from the content-hash artifact cache and runs in
   milliseconds, beating any worker count;
4. **determinism** — every configuration returns identical result lists,
   which is what makes the wall-clock comparison meaningful;
5. **group size** — single-property groups spread each design's
   property set across the pool, removing the longest-design floor of
   whole-design groups, while compiling every design exactly once;
6. **schedule makespan** (the streaming pipeline) — ``cost`` scheduling
   (LPT-balanced property groups, costliest-first issue, work stealing,
   compile/check overlap) vs the ``inventory`` baseline on the same
   corpus slice.  Verdict equality is asserted everywhere; the wall-clock
   comparison is printed always and asserted only on multi-core hosts.
"""

import os
import time

import pytest

from repro.api import COMPILE_CACHE
from repro.campaign import (ArtifactCache, CampaignJob, expand_jobs,
                            run_campaign, run_property_campaign,
                            verdict_contract)
from repro.formal import EngineConfig

#: Small/medium designs: enough work to measure, quick enough for CI.
CASE_IDS = ["A1", "A2", "A5", "E10", "O1"]

_SLEEP_S = 0.4


def _cores() -> int:
    try:
        return min(len(os.sched_getaffinity(0)), os.cpu_count() or 1)
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _skip_scaling_if_single_core() -> None:
    """CPU-bound scaling assertions are meaningless on a 1-core host.

    Workers time-slice one core, so parallel wall-clock tracks serial plus
    scheduling overhead — previously the "parallelism comes (almost) free"
    fallback assertion flaked on loaded single-core CI boxes.  The
    determinism/contract assertions above the skip still run everywhere.
    """
    if _cores() == 1:
        pytest.skip("single-core host: engine-scaling wall-clock "
                    "assertions need >= 2 cores (results already "
                    "verified identical)")


def _jobs():
    return expand_jobs(case_ids=CASE_IDS,
                       config=EngineConfig(max_bound=8, max_frames=30))


def _sleeping_runner(job):
    """A wait-bound stand-in job (an external tool invocation's shape)."""
    time.sleep(_SLEEP_S)
    return {"job_id": job.job_id}


def _synthetic_jobs(count=8):
    return [CampaignJob(job_id=f"sleep{i}", case_id="S", case_name="sleep",
                        dut_module="m", variant="fixed", dut_file="x.sv",
                        extra_files=(), engine_config=EngineConfig())
            for i in range(count)]


def test_pool_concurrency_on_wait_bound_jobs(benchmark):
    jobs = _synthetic_jobs(8)

    def run_all():
        walls = {}
        for workers in (1, 4):
            begin = time.monotonic()
            results = run_campaign(jobs, workers=workers,
                                   runner=_sleeping_runner)
            walls[workers] = time.monotonic() - begin
            assert all(r.ok for r in results)
        return walls

    walls = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print(f"\nE13 pool concurrency (8 x {_SLEEP_S}s wait-bound jobs): "
          f"1 worker {walls[1]:.1f}s, 4 workers {walls[4]:.1f}s")
    # 8 jobs x 0.4s: serial >= 3.2s, 4 workers ~2 batches ~0.8s + overhead.
    assert walls[4] < walls[1] * 0.6, walls


def test_campaign_worker_scaling(benchmark):
    jobs = _jobs()

    def run_all():
        walls = {}
        outcomes = {}
        for workers in (1, 2, 4):
            begin = time.monotonic()
            outcomes[workers] = run_property_campaign(
                jobs, workers=workers, group_size=None)
            walls[workers] = time.monotonic() - begin
        return walls, outcomes

    walls, outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    cores = _cores()
    print(f"\nE13 campaign wall-clock ({len(jobs)} jobs, {cores} core(s)): "
          + ", ".join(f"{w} worker(s) {walls[w]:.1f}s"
                      for w in sorted(walls)))
    # Identical results at every worker count.
    assert verdict_contract(outcomes[1]) == verdict_contract(outcomes[2]) \
        == verdict_contract(outcomes[4])
    assert all(r.ok for r in outcomes[1])
    _skip_scaling_if_single_core()
    # With real cores the 4-worker run must beat serial outright.
    assert walls[4] < walls[1] * 0.8, walls


def test_cached_rerun_is_fastest(benchmark, tmp_path):
    jobs = _jobs()
    cache = ArtifactCache(tmp_path / "cache")

    def run_both():
        begin = time.monotonic()
        cold = run_property_campaign(jobs, workers=4, group_size=None,
                                     cache=cache)
        cold_wall = time.monotonic() - begin
        begin = time.monotonic()
        warm = run_property_campaign(jobs, workers=4, group_size=None,
                                     cache=cache)
        warm_wall = time.monotonic() - begin
        return cold, cold_wall, warm, warm_wall

    cold, cold_wall, warm, warm_wall = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    print(f"\nE13 cache: cold {cold_wall:.1f}s, "
          f"warm {warm_wall * 1000:.0f}ms "
          f"({cache.stats()['entries']} entries)")
    assert not any(r.from_cache for r in cold)
    assert all(r.from_cache for r in warm)
    assert verdict_contract(cold) == verdict_contract(warm)
    # The cached rerun beats any solver-running configuration outright.
    assert warm_wall < cold_wall / 10
    assert warm_wall < 2.0


def test_group_size_scaling(benchmark):
    """Single-property groups vs whole-design groups on one corpus slice.

    A whole-design group's wall-clock floor is the slowest single design;
    single-property groups split that design across the pool.  On a
    single-core box the interesting assertions are the contract ones:
    identical verdict payloads and at most one compile per design ×
    variant."""
    jobs = _jobs()

    def run_both():
        begin = time.monotonic()
        design_results = run_property_campaign(jobs, workers=4,
                                               group_size=None)
        design_wall = time.monotonic() - begin
        compiles_before = COMPILE_CACHE.compiles
        begin = time.monotonic()
        property_results = run_property_campaign(jobs, workers=4,
                                                 group_size=1)
        property_wall = time.monotonic() - begin
        compiles = COMPILE_CACHE.compiles - compiles_before
        return design_results, design_wall, property_results, \
            property_wall, compiles

    design_results, design_wall, property_results, property_wall, \
        compiles = benchmark.pedantic(run_both, rounds=1, iterations=1)
    cores = _cores()
    print(f"\nE13 group size ({len(jobs)} designs, {cores} core(s)): "
          f"whole-design {design_wall:.1f}s, single-property "
          f"{property_wall:.1f}s, {compiles} compiles")
    assert verdict_contract(design_results) == \
        verdict_contract(property_results)
    # At most one parent-side frontend run per design x variant (the
    # worker-side no-recompile guarantee is asserted via
    # TaskEvent.compiled_in_worker in tests/api/test_session.py).
    assert compiles <= len(jobs)


def test_schedule_makespan(benchmark):
    """Cost schedule vs inventory baseline on the same property campaign.

    The cost schedule changes three things at once: groups are
    LPT-balanced instead of inventory chunks, the queue issues costliest
    work first, and the tail is work-stolen when workers would idle.
    Verdicts must be identical; the makespan win is asserted only with
    real cores (on one core the schedules merely tie), and loosely —
    these jobs are short, so overhead noise is a large fraction."""
    jobs = _jobs()

    def run_both():
        walls = {}
        outcomes = {}
        steals = {}
        for schedule in ("inventory", "cost"):
            begin = time.monotonic()
            outcomes[schedule] = run_property_campaign(
                jobs, workers=4, schedule=schedule)
            walls[schedule] = time.monotonic() - begin
            steals[schedule] = sum(r.steals for r in outcomes[schedule])
        return walls, outcomes, steals

    walls, outcomes, steals = benchmark.pedantic(run_both, rounds=1,
                                                 iterations=1)
    cores = _cores()
    print(f"\nE13 schedule makespan ({len(jobs)} designs, {cores} "
          f"core(s), 4 workers): inventory {walls['inventory']:.1f}s, "
          f"cost {walls['cost']:.1f}s ({steals['cost']} steal(s))")
    assert verdict_contract(outcomes["inventory"]) == \
        verdict_contract(outcomes["cost"])
    assert all(r.ok for r in outcomes["cost"])
    _skip_scaling_if_single_core()
    # With real cores, cost-balanced scheduling must not *lose* to
    # inventory order beyond noise.
    assert walls["cost"] < walls["inventory"] * 1.25, walls
