#!/usr/bin/env python
"""Pipeline smoke gate: ``--schedule cost`` verdicts == inventory order.

The CI-facing equivalence check of the streaming cost-aware pipeline: run
a small one-task-per-property campaign twice — once with the cost schedule
(LPT-balanced groups, costliest-first issue, work stealing) and once with
the inventory baseline — and fail (exit 1) unless every per-job status,
error and payload verdict is bit-identical.  Prints both makespans for
the record; wall-clock is *reported*, never asserted (CI boxes vary, and
on a single core the schedules can only tie).

Usage::

    python benchmarks/pipeline_smoke.py            # A2,A3 on 2 workers
    python benchmarks/pipeline_smoke.py --cases A1,A2,A5 --workers 4

The full-corpus version of this gate runs in tier-1
(``tests/integration/test_campaign_corpus.py``).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import (expand_jobs, run_property_campaign,  # noqa: E402
                            verdict_contract)
from repro.formal import EngineConfig  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", default="A2,A3")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--depth", type=int, default=8)
    parser.add_argument("--frames", type=int, default=30)
    args = parser.parse_args(argv)

    config = EngineConfig(max_bound=args.depth, max_frames=args.frames)
    jobs = expand_jobs(case_ids=[c.strip() for c in args.cases.split(",")
                                 if c.strip()],
                       config=config)
    print(f"pipeline-smoke: {len(jobs)} jobs ({args.cases}) on "
          f"{args.workers} worker(s), bound {args.depth}/{args.frames}")

    runs = {}
    for schedule in ("inventory", "cost"):
        begin = time.monotonic()
        results = run_property_campaign(jobs, workers=args.workers,
                                        schedule=schedule)
        wall = time.monotonic() - begin
        steals = sum(r.steals for r in results)
        failed = sum(1 for r in results if not r.ok)
        runs[schedule] = results
        print(f"  {schedule:>9}: {wall:6.1f}s  "
              f"({failed} failed, {steals} steal(s))")

    if verdict_contract(runs["inventory"]) != verdict_contract(runs["cost"]):
        for inv, cost in zip(runs["inventory"], runs["cost"]):
            if (inv.status, inv.error, inv.payload) != \
                    (cost.status, cost.error, cost.payload):
                print(f"MISMATCH on {inv.job_id}: "
                      f"inventory={inv.status} cost={cost.status}",
                      file=sys.stderr)
        print("pipeline-smoke: FAIL — cost schedule diverged from "
              "inventory order", file=sys.stderr)
        return 1
    print("pipeline-smoke: OK — verdicts bit-identical across schedules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
