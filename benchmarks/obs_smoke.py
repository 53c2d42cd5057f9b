#!/usr/bin/env python
"""Observability smoke gate: valid telemetry artifacts, bounded overhead.

The CI-facing check of the `repro.obs` subsystem, in three parts:

1. **Artifact validity** — a traced 2-design property campaign must
   produce (a) a Chrome trace-event JSON file that parses, contains
   `M`/`X` events with µs timestamps rebased to 0, and shows the span
   taxonomy (`frontend`/`task`/`compile`/`check`); (b) an
   ExecutionRecord that round-trips through disk and passes
   ``validate_record`` (schema, inventory digest, task outcomes).
2. **Phase sanity** — the record's phase breakdown fields are present,
   numeric and non-negative.
3. **Overhead gate** — tracing must cost <= 5% (+0.25 s timer slack).
   Runs are separate CLI subprocesses (so the in-process compile cache
   cannot warm one side), interleaved disabled/enabled twice, min-of-2
   per side: ``min(traced) <= min(untraced) * 1.05 + 0.25``.

Usage::

    python benchmarks/obs_smoke.py               # A1,A2 on 2 workers
    python benchmarks/obs_smoke.py --cases A2 --workers 1
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.record import validate_record  # noqa: E402

SPAN_NAMES = {"frontend", "task", "compile", "check"}


def _campaign_cmd(cases, workers, extra):
    return [sys.executable, "-m", "repro.core.cli", "campaign",
            "--cases", cases, "--group-size", "1",
            "--workers", str(workers), "--timeout", "300"] + extra


def _run(cmd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    begin = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    wall = time.monotonic() - begin
    if proc.returncode != 0:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"obs-smoke: campaign exited "
                         f"{proc.returncode}: {' '.join(cmd)}")
    return wall


def _check_trace(path):
    document = json.loads(path.read_text())
    events = document["traceEvents"]
    assert document.get("displayTimeUnit") == "ms", "bad displayTimeUnit"
    phases = {event["ph"] for event in events}
    assert "M" in phases and "X" in phases, f"missing event kinds: {phases}"
    complete = [event for event in events if event["ph"] == "X"]
    assert min(event["ts"] for event in complete) == 0.0, \
        "timestamps not rebased to 0"
    assert all(event["dur"] >= 0 for event in complete)
    names = {event["name"] for event in complete}
    missing = SPAN_NAMES - names
    assert not missing, f"span taxonomy incomplete, missing {missing}"
    pids = {event["pid"] for event in complete}
    assert len(pids) >= 2, "no worker-process spans merged in"
    print(f"  trace ok: {len(complete)} spans, {len(pids)} process(es), "
          f"names {sorted(names)}")


def _check_record(path):
    data = json.loads(path.read_text())
    validate_record(data)           # raises ValueError on any violation
    phases = data["phases"]
    for name in ("frontend_s", "solve_s", "engine_other_s",
                 "overhead_s", "wall_s"):
        value = phases.get(name)
        assert isinstance(value, (int, float)) and value >= 0, \
            f"phase {name} invalid: {value!r}"
    assert data["span_count"] > 0, "traced run recorded no spans"
    assert data["tasks"], "record has no task outcomes"
    assert all(task["status"] == "ok" for task in data["tasks"])
    print(f"  record ok: {len(data['tasks'])} tasks, "
          f"digest {data['inventory_digest'][:12]}..., "
          f"phases {phases}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", default="A1,A2")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--overhead-pct", type=float, default=5.0,
                        help="max tracing overhead in percent (default 5)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
        trace = Path(tmp) / "trace.json"
        record = Path(tmp) / "record.json"
        traced_extra = ["--trace", str(trace),
                        "--execution-record", str(record)]
        print(f"obs-smoke: {args.cases} on {args.workers} worker(s)")

        # Interleave disabled/enabled runs so drift (thermal, page
        # cache) hits both sides evenly; min-of-2 drops outliers.
        untraced, traced = [], []
        for round_index in range(2):
            untraced.append(_run(_campaign_cmd(args.cases, args.workers,
                                               [])))
            traced.append(_run(_campaign_cmd(args.cases, args.workers,
                                             traced_extra)))
            print(f"  round {round_index}: untraced "
                  f"{untraced[-1]:.2f}s, traced {traced[-1]:.2f}s")

        _check_trace(trace)
        _check_record(record)

        bound = min(untraced) * (1.0 + args.overhead_pct / 100.0) + 0.25
        if min(traced) > bound:
            print(f"obs-smoke: FAIL — traced {min(traced):.2f}s exceeds "
                  f"{min(untraced):.2f}s * {1 + args.overhead_pct / 100.0}"
                  f" + 0.25s = {bound:.2f}s", file=sys.stderr)
            return 1
        print(f"obs-smoke: OK — tracing overhead "
              f"{min(traced) - min(untraced):+.2f}s "
              f"(bound {bound:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
