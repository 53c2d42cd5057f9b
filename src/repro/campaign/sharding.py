"""Campaign execution: every design job runs as property tasks.

A :class:`~repro.campaign.jobs.CampaignJob` names one design × variant ×
engine configuration.  This module runs it on top of :mod:`repro.api`
as :class:`~repro.api.task.PropertyTask` groups and folds their verdicts
back into one result per job:

* :func:`stream_tasks` — the **streaming frontend**: a generator that,
  per design, runs FT generation + one compile (through the shared
  compile cache) and yields that design's
  :class:`~repro.api.task.PropertyTask` groups, bracketed by
  ``compile_started``/``compile_done``
  :class:`~repro.campaign.scheduler.SourceNotice` markers.  Fed straight
  into the scheduler, design B's frontend runs while design A's tasks
  are still being checked — no all-designs-compile-first phase;
* :func:`shard_jobs` — the batch wrapper that drains the stream into a
  :class:`ShardPlan` up front (kept for plan inspection and tests);
* :func:`merge_shard_results` — fold the per-task results back into one
  :class:`~repro.campaign.scheduler.JobResult` per original job, with a
  payload shaped by :func:`~repro.campaign.jobs.summarize_report`.  The
  merge keys on the design label and the property-name union, so it
  tolerates *any* grouping: whole designs, inventory chunks, LPT cost
  bins, work-stolen halves;
* :func:`run_property_campaign` — the one campaign driver (CLI,
  examples, benchmarks), wiring stream → session → merge.

Grouping (``group_size=``): ``None`` puts every property of a design into
one task — a whole-design job, the CLI default; ``N`` puts at most ``N``
properties in each task (``1`` = one task per property), which spreads
one design's property set across the pool.

Scheduling (``schedule=``):

* ``"inventory"`` — groups are contiguous ``group_size`` chunks of the
  property inventory, issued in declaration order (the pre-cost-model
  behavior, kept as the equivalence baseline);
* ``"cost"`` (the default) — properties are priced by the
  :class:`~repro.campaign.costmodel.CostModel` (kind × COI size × engine
  bounds) and packed into balanced bins with LPT, issued costliest
  first; the scheduler may additionally re-split pending groups when
  workers idle (work stealing).  Verdicts are identical either way —
  only wall time and task grouping change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import ceil
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple)

# NOTE: repro.api.session imports this package's scheduler; to keep both
# import orders working (api first or campaign first), the session-layer
# imports below happen inside the functions that need them.
from ..api.task import PropertyTask, TaskEvent, build_tasks
from ..designs import CorpusError
from ..formal.engine import CheckReport
from ..obs import TRACER
from .cache import ArtifactCache
from .costmodel import CostModel, pack_lpt
from .jobs import CampaignJob, summarize_report
from .scheduler import JobResult, SourceNotice

__all__ = ["ShardPlan", "shard_jobs", "stream_tasks", "merge_shard_results",
           "run_property_campaign"]

_SCHEDULES = ("inventory", "cost")


@dataclass
class _JobShard:
    """Book-keeping for one sharded design job."""

    job: CampaignJob
    task_ids: List[str] = field(default_factory=list)
    tasks: List[PropertyTask] = field(default_factory=list)
    annotation_loc: int = 0
    property_count: int = 0
    expand_error: Optional[str] = None   # FT/compile failed parent-side
    #: True when the shard was restored from a cached plan — FT generation
    #: and the parent-side compile were both skipped.
    from_plan_cache: bool = False
    #: Parent-side frontend wall time (FT generation + compile + grouping).
    compile_time_s: float = 0.0

    @property
    def all_properties(self) -> Set[str]:
        return {name for task in self.tasks for name in task.properties}


@dataclass
class ShardPlan:
    """The task list of a campaign run."""

    shards: List[_JobShard] = field(default_factory=list)
    tasks: List[PropertyTask] = field(default_factory=list)

    @property
    def jobs(self) -> List[CampaignJob]:
        return [shard.job for shard in self.shards]


#: Bump to invalidate every cached shard plan (schema/semantics change).
#: (2: entries grew per-property scheduling metadata and schedule-aware
#: keys.)
_PLAN_SCHEMA = 2


def _plan_key(job: CampaignJob, group_size: Optional[int],
              schedule: str = "inventory",
              model: Optional[CostModel] = None) -> str:
    """Content hash of everything that determines a job's shard plan.

    Deliberately its own key space (the ``shard-plan`` tag) next to job-
    and task-result entries in the same artifact cache directory.  The
    schedule — and, for cost scheduling, the model weights — are part of
    the key because they determine the *grouping*; a recalibrated model
    must re-plan, not replay a stale grouping.
    """
    from ..api.compile import config_fingerprint, hash_chunks

    pairs = [("shard-plan", str(_PLAN_SCHEMA)),
             ("group-size", str(group_size)),
             ("schedule", schedule)]
    if schedule == "cost":
        pairs.append(("cost-model", (model or CostModel()).fingerprint()))
    pairs.extend(job.cache_chunks())
    pairs.append(("config", config_fingerprint(job.engine_config)))
    return hash_chunks(pairs)


def _property_meta(compiled) -> Dict[str, Tuple[str, int, int]]:
    """name → (kind, COI latch count, inventory position) for a design.

    COI sizes come from the exact closure the engine itself prunes with,
    so the cost model prices the solver work a property will actually
    cause, not the design's total state.
    """
    from ..formal.coi import coi_latches

    base = compiled.base
    by_name = {prop.name: prop
               for group in (base.asserts, base.covers, base.liveness)
               for prop in group}
    meta: Dict[str, Tuple[str, int, int]] = {}
    for position, (name, kind) in enumerate(compiled.inventory):
        prop = by_name.get(name)
        size = 0
        if prop is not None:
            try:
                size = len(coi_latches(base, [prop.lit],
                                       include_fairness=(kind == "live")))
            except Exception:
                size = 0
        meta[name] = (kind, size, position)
    return meta


def _grouped(names: Sequence[str], meta: Dict[str, Tuple[str, int, int]],
             group_size: Optional[int], schedule: str, model: CostModel,
             config) -> List[Tuple[str, ...]]:
    """Split a design's inventory into task-sized property groups
    (``group_size=None``: one group holding the whole inventory)."""
    if group_size is None:
        return [tuple(names)] if names else []
    if schedule == "inventory":
        from ..api.task import group_properties
        return group_properties(names, group_size)
    bins = max(1, ceil(len(names) / group_size))
    costs = [model.property_cost(meta[name][0], meta[name][1],
                                 config.max_bound, config.max_frames)
             for name in names]
    return [tuple(names[index] for index in indices)
            for indices in pack_lpt(costs, bins)]


def _restore_shard(shard: _JobShard, entry: dict) -> List[PropertyTask]:
    """Rebuild a shard's task list from a cached plan entry.

    Reconstructs exactly what the fresh expansion would have produced —
    same task ids, same groups, same merged source, same scheduling
    metadata — but without running the RTL frontend or the compiler
    (both paths go through the shared
    :func:`~repro.api.task.build_tasks`, so the schemes cannot drift).
    """
    job = shard.job
    merged = entry["merged"]
    meta = {name: (str(kind), int(coi), int(order))
            for name, (kind, coi, order) in entry["meta"].items()}
    tasks = build_tasks(job.job_id, job.dut_module, (merged,),
                        job.engine_config,
                        [tuple(group) for group in entry["groups"]],
                        variant=job.variant,
                        defines=tuple(entry.get("defines", ())),
                        meta=meta)
    shard.annotation_loc = int(entry["annotation_loc"])
    shard.property_count = int(entry["property_count"])
    shard.task_ids = [task.task_id for task in tasks]
    shard.tasks = tasks
    shard.from_plan_cache = True
    return tasks


def _expand_shard(job: CampaignJob, group_size: Optional[int],
                  cache: Optional[ArtifactCache], schedule: str,
                  model: CostModel) -> _JobShard:
    """Produce one design's shard: plan-cache restore or fresh frontend.

    A job whose sources fail to load, annotate or compile is recorded
    with ``expand_error`` and produces no tasks — the merge step turns it
    into a per-job ``error`` result, preserving the campaign's
    failure-isolation contract.

    A restored shard skipped its parent-side compile; if any of its task
    results is missing from the artifact cache, a worker would otherwise
    recompile per task — so those (and only those) designs are compiled
    here, from the cached merged source, preserving the one-compile
    guarantee.
    """
    from ..api.compile import compile_design
    from ..core import generate_ft

    begin = time.perf_counter()
    shard = _JobShard(job=job)
    plan_key = None
    if cache is not None:
        try:
            plan_key = _plan_key(job, group_size, schedule, model)
        except CorpusError:
            pass  # missing sources: the fresh expansion records the error
    if plan_key is not None:
        entry = cache.get(plan_key)
        if entry is not None:
            try:
                _restore_shard(shard, entry)
            except (KeyError, TypeError, ValueError):
                # Malformed/stale entry: fall through to a fresh plan.
                shard.from_plan_cache = False
                shard.tasks = []
                shard.task_ids = []
        if shard.from_plan_cache:
            if shard.tasks and not all(
                    cache.contains(cache.key(task))
                    for task in shard.tasks):
                try:
                    compile_design(list(shard.tasks[0].sources),
                                   job.dut_module,
                                   shard.tasks[0].defines)
                except Exception:
                    # Workers will fail the same way, per task, preserving
                    # the failure-isolation contract.
                    pass
            shard.compile_time_s = time.perf_counter() - begin
            return shard
    try:
        sources = job.sources()
        ft = generate_ft(sources[0], module_name=job.dut_module)
        merged = "\n".join(sources + ft.testbench_sources())
        compiled = compile_design((merged,), job.dut_module)
        meta = _property_meta(compiled)
        names = compiled.property_names()
        groups = _grouped(names, meta, group_size, schedule, model,
                          job.engine_config)
        tasks = build_tasks(job.job_id, job.dut_module, (merged,),
                            job.engine_config, groups,
                            variant=job.variant, meta=meta)
    except Exception as exc:
        shard.expand_error = f"{type(exc).__name__}: {exc}"
        shard.compile_time_s = time.perf_counter() - begin
        return shard
    shard.annotation_loc = ft.annotation_loc
    shard.property_count = ft.property_count
    shard.task_ids = [task.task_id for task in tasks]
    shard.tasks = tasks
    shard.compile_time_s = time.perf_counter() - begin
    if plan_key is not None:
        cache.put(plan_key, {
            "merged": merged,
            "groups": [list(task.properties) for task in tasks],
            "defines": (list(tasks[0].defines) if tasks else []),
            "meta": {name: list(value) for name, value in meta.items()},
            "annotation_loc": ft.annotation_loc,
            "property_count": ft.property_count,
        })
    return shard


def stream_tasks(jobs: Sequence[CampaignJob],
                 group_size: Optional[int] = 1,
                 cache: Optional[ArtifactCache] = None,
                 schedule: str = "cost",
                 model: Optional[CostModel] = None,
                 plan: Optional[ShardPlan] = None
                 ) -> Iterator[object]:
    """The streaming frontend: yield each design's tasks as they land.

    Yields, per design: a ``compile_started`` notice, then (after FT
    generation + the one parent-side compile) a ``compile_done`` notice
    and the design's tasks.  Because the scheduler pulls this generator
    only when worker slots free up, design *B*'s frontend work happens
    while design *A*'s tasks are still being checked — the
    plan-everything-then-run phase is gone.

    ``plan`` (optional) is filled in as shards land, so the caller holds
    the complete :class:`ShardPlan` once the stream (and the session
    consuming it) is drained.
    """
    if schedule not in _SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}; "
                         f"expected one of {_SCHEDULES}")
    model = model or CostModel()
    for job in jobs:
        yield SourceNotice(kind="compile_started", design=job.job_id)
        with TRACER.span("frontend", cat="frontend",
                         args={"design": job.job_id}):
            shard = _expand_shard(job, group_size, cache, schedule, model)
        if plan is not None:
            plan.shards.append(shard)
            plan.tasks.extend(shard.tasks)
        yield SourceNotice(kind="compile_done", design=job.job_id,
                           wall_time_s=shard.compile_time_s,
                           from_cache=shard.from_plan_cache)
        for task in shard.tasks:
            yield task


def shard_jobs(jobs: Sequence[CampaignJob],
               group_size: Optional[int] = 1,
               cache: Optional[ArtifactCache] = None,
               schedule: str = "inventory",
               model: Optional[CostModel] = None) -> ShardPlan:
    """Unfold design jobs into per-property tasks (one compile per job).

    The batch wrapper over :func:`stream_tasks`: every design's frontend
    runs up front and the whole plan is returned.  Campaign execution
    goes through the stream instead (see :func:`run_property_campaign`);
    this shape remains for plan inspection, callers that need the task
    list before scheduling, and the pre-pipeline tests.

    With a ``cache``, each job's *shard plan* (testbench-merged source +
    property grouping + scheduling metadata) is itself content-cached: a
    warm rerun rebuilds its task list from disk and skips FT generation
    and the parent-side compile entirely, so a fully-warm ``--cache-dir``
    rerun compiles nothing.
    """
    plan = ShardPlan()
    for _ in stream_tasks(jobs, group_size=group_size, cache=cache,
                          schedule=schedule, model=model, plan=plan):
        pass
    return plan


def _merge_one(shard: _JobShard,
               events: Sequence[TaskEvent],
               report: Optional[CheckReport],
               steals: int = 0) -> JobResult:
    job = shard.job
    if shard.expand_error is not None:
        return JobResult(job_id=job.job_id, status="error",
                         error=f"testbench generation/compile failed: "
                               f"{shard.expand_error}")
    own = [event for event in events if event.is_result]
    bad = [event for event in own if not event.ok]
    wall = sum(event.wall_time_s for event in own)
    # A job that ran as one task (a whole-design group) ran on one worker.
    worker = own[0].worker if len(own) == 1 else None
    covered = {item["name"] for event in own if event.ok
               for item in event.results}
    if bad or covered != shard.all_properties:
        status = bad[0].status if bad else "error"
        details = "; ".join(
            f"{event.task_id} [{event.status}] "
            f"{(event.error or '').strip().splitlines()[-1] if event.error else ''}"
            for event in bad) or "missing task results"
        expected = len(shard.all_properties)
        return JobResult(job_id=job.job_id, status=status,
                         error=f"{len(bad)}/{len(own)} property task(s) "
                               f"failed ({len(covered)}/{expected} "
                               f"properties decided): {details}",
                         wall_time_s=wall, steals=steals, worker=worker)
    if report is None:  # degenerate: a design with zero properties
        report = CheckReport(design=job.dut_module)
    payload = summarize_report(report)
    payload["annotation_loc"] = shard.annotation_loc
    payload["property_count"] = shard.property_count
    payload["engine_time_s"] = sum(event.engine_time_s for event in own)
    payload["solve_time_s"] = sum(event.solve_time_s for event in own)
    solver: Dict[str, float] = {}
    for event in own:
        for key, value in event.solver.items():
            solver[key] = solver.get(key, 0) + value
    payload["solver"] = solver
    from_cache = bool(own) and all(event.from_cache for event in own)
    original = None
    if from_cache:
        stored = [event.original_wall_time_s for event in own
                  if event.original_wall_time_s is not None]
        original = sum(stored) if stored else None
    return JobResult(job_id=job.job_id, status="ok", payload=payload,
                     wall_time_s=wall, from_cache=from_cache,
                     original_wall_time_s=original, steals=steals,
                     worker=worker)


def merge_shard_results(plan: ShardPlan,
                        events: Sequence[TaskEvent],
                        steal_counts: Optional[Dict[str, int]] = None
                        ) -> List[JobResult]:
    """One :class:`JobResult` per original job, in job order.

    Payloads are shaped by :func:`~repro.campaign.jobs.summarize_report`;
    a job with any failed shard — or any property left undecided —
    degrades to a per-job error result (never a silently partial
    report).  Events are matched to jobs by *design label* and verdicts
    reassembled in canonical property order, so the merge is indifferent
    to how the scheduler grouped, reordered or work-stole the tasks.
    """
    from ..api.session import aggregate_reports

    steal_counts = steal_counts or {}
    by_design: Dict[str, List[TaskEvent]] = {}
    for event in events:
        if event.is_result:
            by_design.setdefault(event.design, []).append(event)
    reports = aggregate_reports(plan.tasks, events)
    return [_merge_one(shard, by_design.get(shard.job.job_id, []),
                       reports.get(shard.job.job_id),
                       steals=steal_counts.get(shard.job.job_id, 0))
            for shard in plan.shards]


def run_property_campaign(jobs: Sequence[CampaignJob],
                          workers: int = 1,
                          group_size: Optional[int] = 1,
                          cache: Optional[ArtifactCache] = None,
                          timeout_s: Optional[float] = None,
                          memory_limit_mb: Optional[int] = None,
                          progress: Optional[Callable[[TaskEvent], None]]
                          = None,
                          schedule: str = "cost",
                          model: Optional[CostModel] = None,
                          transport=None
                          ) -> List[JobResult]:
    """Run a campaign as property tasks; results stay job-shaped.

    The streaming pipeline: :func:`stream_tasks` feeds the session's
    scheduler directly, so each design's FT generation + compile overlaps
    the checking of earlier designs' tasks.  ``group_size`` and
    ``schedule`` pick the grouping and issue policy (see the module
    docstring); the ``cost`` schedule also work-steals, ``inventory``
    never does.  ``transport`` runs the tasks on a remote worker fabric
    (:class:`~repro.dist.coordinator.TcpTransport`) instead of local
    forks; verdicts are identical by contract (CI-gated).

    The compile counter contract: every design × variant is compiled
    *at most* once, in this (parent) process, as its shard plan lands —
    check ``repro.api.COMPILE_CACHE.stats()`` before/after to assert it.
    Workers forked by the session inherit those compiles and report
    ``compiled_in_worker=False``.  With a warm cache the count drops
    further: a job restored from a cached shard plan whose task results
    are all cached compiles *zero* times (and skips FT generation too).
    """
    from ..api.session import VerificationSession

    model = model or CostModel()
    plan = ShardPlan()
    source = stream_tasks(jobs, group_size=group_size, cache=cache,
                          schedule=schedule, model=model, plan=plan)
    session = VerificationSession(
        source, workers=workers, cache=cache, timeout_s=timeout_s,
        memory_limit_mb=memory_limit_mb,
        precompile=False,  # the stream compiles each design as it lands
        steal=schedule == "cost", cost_model=model, transport=transport)
    for event in session.run():
        if progress:
            progress(event)
    return merge_shard_results(plan, session.events,
                               steal_counts=session.steal_counts)
