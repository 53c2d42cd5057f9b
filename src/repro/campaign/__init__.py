"""Verification campaigns: the paper's Table III evaluation, at scale.

The per-property engine (:mod:`repro.formal.engine`) and the FT generator
(:mod:`repro.core.flow`) verify *one* design at a time.  This package is
the layer that runs *many* — every corpus design × fixed/buggy variant ×
engine configuration — the way the paper's evaluation campaign ran
AutoSVA across the Ariane and OpenPiton modules.

API tour
--------

* :func:`~repro.campaign.jobs.expand_jobs` unfolds the corpus registry
  (:data:`repro.designs.CORPUS`) into :class:`~repro.campaign.jobs.CampaignJob`
  records — one per design × variant (× config when sweeping)::

      from repro.campaign import (expand_jobs, run_property_campaign,
                                  CampaignReport)
      jobs = expand_jobs(case_ids=["A1", "A2", "O1"])

* :func:`~repro.campaign.sharding.run_property_campaign` is how every
  campaign runs, as a streaming pipeline on :mod:`repro.api`: each
  design is compiled once (parent-side, shared compile cache) *as the
  scheduler pulls its shard plan* — so design B's frontend overlaps
  design A's checking — and its property set is checked as
  :class:`~repro.api.task.PropertyTask` groups on a pool of worker
  processes with per-task wall-clock/memory bounds.  Results are merged
  back into one result per job, in job order no matter how many workers
  ran, and a failing or hanging task degrades to a per-job
  ``error``/``timeout`` result instead of killing the campaign.
  ``group_size=None`` checks each design as one task; ``group_size=1``
  gives every property its own task, which removes the slowest-design
  wall-clock floor.  Under ``schedule="cost"`` (the default) the
  :class:`~repro.campaign.costmodel.CostModel` prices every property
  (liveness ≫ assert ≫ cover, scaled by COI size and engine bounds),
  groups are LPT-packed into balanced bins issued costliest-first, and
  the scheduler *work-steals* (re-splits pending groups) when workers
  would idle at the tail::

      results = run_property_campaign(jobs, workers=4, group_size=1,
                                      timeout_s=120)

* :class:`~repro.campaign.cache.ArtifactCache` makes reruns incremental:
  task results and shard plans are cached under a content hash of the
  RTL sources (the AutoSVA annotations live in those sources), the DUT
  module name and the engine configuration, so only edited designs
  re-verify::

      cache = ArtifactCache(".repro-cache")
      results = run_property_campaign(jobs, workers=4, cache=cache)

* :class:`~repro.campaign.report.CampaignReport` aggregates results into
  the Table-III-style matrix (per-design outcome text, proof rates, CEX
  properties and depths, runtimes) with ``summary()`` /
  ``to_markdown()`` / ``to_json()`` exports, plus a per-config comparison
  section under engine-config sweeps::

      report = CampaignReport(jobs, results, workers=4)
      print(report.summary())

* :class:`~repro.campaign.history.CampaignHistory` appends run summaries
  to a JSONL file and reports regressions (proof-rate drops, lost CEXs,
  CEX-depth drift, new failures) against the previous run.

* :class:`~repro.campaign.scheduler.Scheduler` is the unit-agnostic
  worker pool underneath; :func:`~repro.campaign.scheduler.run_campaign`
  is its list-shaped shim, run with a caller-supplied ``runner``.

* **Transports** decide *where* tasks execute: the default
  :class:`~repro.campaign.scheduler.LocalTransport` forks worker
  processes on this host; :class:`repro.dist.TcpTransport` dispatches
  the same tasks to remote ``autosva worker`` agents over TCP
  (``autosva campaign --transport tcp``), verdict-identical by CI-gated
  contract — see :mod:`repro.dist` and ``docs/distributed.md``::

      from repro.dist import TcpTransport
      transport = TcpTransport(min_workers=4)   # agents attach to
      print(transport.address)                  # this host:port
      results = run_property_campaign(jobs, transport=transport)

Corpus layout
-------------

The workload lives under ``repro/designs/verilog/``: ``ariane/`` holds
``ptw.sv``, ``tlb.sv``, ``mmu_fixed/buggy.sv``, ``lsu_fixed/buggy.sv``,
``icache_fixed/buggy.sv`` and ``mmu_shared{,_fair}.sv``; ``openpiton/``
holds ``noc_buffer_fixed/buggy.sv``, ``l15.sv`` and ``mem_engine.sv``.
``repro.designs.validate()`` health-checks the registry against the files
on disk before a campaign schedules anything.

CLI
---

The ``autosva`` CLI grows a ``campaign`` subcommand wired to this
package::

    autosva campaign                         # full corpus, Table III out
    autosva campaign --cases A1,A2 --workers 2
    autosva campaign --workers 4 --cache-dir .repro-cache --json out.json
    autosva campaign --workers 4 --group-size 2
    autosva campaign --sweep proof_engine=pdr,kind
    autosva campaign --history runs.jsonl

``examples/table3_outcomes.py`` is the scripted equivalent.
"""

from .cache import ArtifactCache, CacheEntry
from .costmodel import CostModel, pack_lpt
from .history import CampaignHistory
from .jobs import (CampaignJob, default_engine_config, expand_jobs,
                   summarize_report)
from .report import CampaignReport, DesignRow, verdict_contract
from .scheduler import (JobResult, LocalTransport, Scheduler, SourceNotice,
                        resolve_worker_count, run_campaign)
from .sharding import (ShardPlan, merge_shard_results, run_property_campaign,
                       shard_jobs, stream_tasks)

__all__ = [
    "ArtifactCache", "CacheEntry",
    "CampaignHistory",
    "CampaignJob", "default_engine_config", "expand_jobs",
    "summarize_report",
    "CampaignReport", "DesignRow", "verdict_contract",
    "CostModel", "pack_lpt",
    "JobResult", "LocalTransport", "Scheduler", "SourceNotice",
    "resolve_worker_count", "run_campaign",
    "ShardPlan", "merge_shard_results", "run_property_campaign",
    "shard_jobs", "stream_tasks",
]
