"""One corpus campaign in a fresh process: the CLI workload's unit.

Run by ``run.py`` as ``campaign_proc.py ORDER [--setup-only] [--trace
FILE]``.  ORDER is the comma-separated design submission order; the
engine runs the default PDR settings at bound 8 and 30 frames.  Every
streamed ``TaskEvent`` is stamped with ``time.monotonic()`` (one clock
for all processes on the host) as the progress callback receives it.
Prints one JSON document on stdout.  With ``--setup-only`` the campaign
is abandoned at its first streamed event and only that time is printed.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time

from common import WORKERS

#: Per-task wall-clock bound; a task that hits it is a failed operation.
TASK_TIMEOUT_S = 150.0
MAX_BOUND = 8
MAX_FRAMES = 30


class _FirstEvent(Exception):
    """Raised from the progress callback to stop a setup-only launch."""


def main(argv) -> int:
    order = argv[0].split(",")
    setup_only = "--setup-only" in argv
    trace_out = argv[argv.index("--trace") + 1] if "--trace" in argv \
        else None
    if trace_out:
        import tracer
        tracer.install()
    from repro.campaign import expand_jobs, run_property_campaign
    from repro.formal.engine import EngineConfig

    config = EngineConfig(max_bound=MAX_BOUND, max_frames=MAX_FRAMES)
    by_id = {job.job_id: job for job in expand_jobs(config=config)}
    jobs = [by_id[job_id] for job_id in order]
    first = []
    events = []

    def progress(event) -> None:
        now = time.monotonic()
        if not first:
            first.append(now)
            if setup_only:
                raise _FirstEvent()
        if event.is_result:
            events.append([now, event.task_id, event.status,
                           [[r["name"], r["status"], r["depth"]]
                            for r in event.results],
                           event.solve_time_s])

    start = time.monotonic()
    try:
        results = run_property_campaign(
            jobs, workers=WORKERS, group_size=1, timeout_s=TASK_TIMEOUT_S,
            progress=progress)
    except _FirstEvent:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        print(json.dumps({"first_event": first[0]}))
        return 0
    if trace_out:
        tracer.dump(trace_out)
    print(json.dumps({
        "start": start, "first_event": first[0], "events": events,
        "jobs": {result.job_id: {
            "status": result.status,
            "properties": [[p["name"], p["kind"], p["status"], p["depth"]]
                           for p in (result.payload or {})
                           .get("properties", [])],
        } for result in results},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
