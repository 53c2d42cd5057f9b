#!/usr/bin/env python3
"""Regenerate the paper's Table III across the whole corpus — as a campaign.

This drives :mod:`repro.campaign`: the corpus registry is expanded into
design × variant jobs, checked as property tasks on a worker pool
(``--workers N``, with optional ``--cache-dir`` for incremental reruns),
and aggregated into a table in the shape of the paper's Table III, plus
the aggregate property/annotation counts of Section IV.

Run:  python examples/table3_outcomes.py [--workers 4] [--cache-dir DIR]
      [--group-size 1]
      (~1-2 minutes serial; scales with workers.  By default each design
      is one task; --group-size 1 gives every property its own task —
      same verdicts, shorter critical path on multi-core boxes.)
"""

import argparse
import sys
import time

from repro.campaign import (ArtifactCache, CampaignReport, expand_jobs,
                            run_property_campaign)
from repro.designs import CORPUS, validate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--group-size", type=int, default=None,
                        help="properties per task (default: one task per "
                             "design)")
    args = parser.parse_args()

    # E10 is an in-text experiment, not a Table III row.
    cases = [case for case in CORPUS if case.case_id != "E10"]
    validate(tuple(cases), raise_on_issue=True)
    jobs = expand_jobs(cases=cases)
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None

    def on_event(e):
        if e.kind == "compile_started":
            print(f"[{e.design}] compiling...", flush=True)
        elif e.kind == "compile_done":
            print(f"[{e.design}] compiled in {e.wall_time_s:.1f}s",
                  flush=True)
        elif e.kind == "steal":
            print(f"[{e.task_id}] re-split (work stealing)", flush=True)
        else:
            print(f"[{e.task_id}] {e.status}"
                  + (" (cached)" if e.from_cache
                     else f" in {e.wall_time_s:.1f}s"), flush=True)

    begin = time.monotonic()
    results = run_property_campaign(
        jobs, workers=args.workers, group_size=args.group_size,
        cache=cache, progress=on_event)
    report = CampaignReport(jobs, results, workers=args.workers,
                            wall_time_s=time.monotonic() - begin,
                            cache_stats=cache.stats() if cache else None)

    print("\n=== Table III (reproduced) ===")
    print(report.summary())
    print("\n(paper: 236 properties / 110 LoC on the full-size RTL; the "
          "reduced models have fewer interfaces, the leverage shape is "
          "what reproduces)")
    if report.num_failed:
        sys.exit(2)


if __name__ == "__main__":
    main()
