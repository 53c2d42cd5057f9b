"""Command-line interface: the ``autosva`` tool.

Mirrors the published tool's invocation style: point it at an annotated RTL
file, pick a target tool, get a formal testbench directory — and optionally
run the built-in engine immediately.

Examples::

    autosva lsu.sv --out ft_lsu            # generate property/bind/tool files
    autosva lsu.sv --tool native --run     # generate and model-check offline
    autosva mmu.sv --submodule ptw.sv:as   # link a submodule FT, -AS mode

The ``campaign`` subcommand runs the whole evaluation corpus (the paper's
Table III) through :mod:`repro.campaign`::

    autosva campaign                       # full corpus, one task per
                                           # design, one worker per core
    autosva campaign --cases A1,A2 --workers 2
    autosva campaign --workers 4 --cache-dir .repro-cache --json t3.json
    autosva campaign --group-size 1 --workers 4
                                           # one task per property, one
                                           # compile per design (repro.api)
    autosva campaign --group-size 2 --schedule inventory
                                           # declaration-order groups, no
                                           # work stealing
    autosva campaign --sweep proof_engine=pdr,kind --json sweep.json
    autosva campaign --history runs.jsonl  # regression check vs last run
                                           # + cost-model calibration

Distributed campaigns (see ``docs/distributed.md``) run the same jobs on
remote worker agents over TCP, verdict-identical to the local pool::

    autosva campaign --transport tcp --listen 127.0.0.1:0 --min-workers 2
    autosva worker --connect 127.0.0.1:PORT --slots auto   # on each host
    autosva campaign --transport tcp --spawn-workers 2     # loopback demo

The ``serve`` subcommand runs the long-lived campaign service — an HTTP
front door multiplexing many tenants' campaigns onto one shared worker
fabric with per-tenant quotas and fair sharing (see ``docs/service.md``)::

    autosva serve --listen 127.0.0.1:8420 --workers 2
    autosva serve --transport tcp --spawn-workers 2 --quotas quotas.json

The ``top`` subcommand is the matching operator dashboard — a live
ANSI view over a running service's /status and /metrics/history::

    autosva top --connect 127.0.0.1:8420
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from ..formal.engine import EngineConfig
from .flow import SubmoduleLink, generate_ft, run_fv
from .language import AutoSVAError
from .toolcfg import ToolConfig

__all__ = ["main", "build_arg_parser", "build_campaign_parser",
           "campaign_main"]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autosva",
        description="Generate formal verification testbenches from "
                    "transaction annotations in RTL interfaces (AutoSVA, "
                    "DAC'21 reproduction).")
    parser.add_argument("rtl", type=Path,
                        help="annotated RTL file containing the DUT")
    parser.add_argument("--module", default=None,
                        help="DUT module name (default: sole module in file)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: ft_<module>)")
    parser.add_argument("--tool", choices=("native", "sby", "jasper"),
                        default="native",
                        help="FV tool to target (native = built-in engine)")
    parser.add_argument("--depth", type=int, default=20,
                        help="proof/bug-hunt depth bound")
    parser.add_argument("--assert-inputs", action="store_true",
                        help="render flippable assumptions as assertions "
                             "(the paper's ASSERT_INPUTS parameter)")
    parser.add_argument("--submodule", action="append", default=[],
                        metavar="FILE[:MODE]",
                        help="link a previously annotated submodule FT; "
                             "MODE is am (default) or as (-AM/-AS flags)")
    parser.add_argument("--run", action="store_true",
                        help="run the built-in formal engine after "
                             "generation and print the report")
    parser.add_argument("--sources", nargs="*", type=Path, default=[],
                        help="extra RTL files needed to elaborate the DUT")
    return parser


def build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autosva campaign",
        description="Run a verification campaign over the evaluation "
                    "corpus: every selected design x variant is generated, "
                    "model-checked on a worker pool, and aggregated into a "
                    "Table-III-style report.  The default selection is the "
                    "whole registry, i.e. the seven Table III rows plus "
                    "the in-text E10 experiment (examples/"
                    "table3_outcomes.py reproduces the table proper, "
                    "without E10).")
    parser.add_argument("--cases", default=None,
                        help="comma-separated case ids (default: whole "
                             "corpus), e.g. A1,A3,O1")
    parser.add_argument("--variants", default="fixed,buggy",
                        help="comma-separated subset of fixed,buggy")
    parser.add_argument("--workers", default="auto", metavar="N|auto",
                        help="worker processes; 'auto' (the default) "
                             "resolves to the host's CPU count")
    parser.add_argument("--group-size", type=int, default=None,
                        metavar="N",
                        help="properties per check task (default: one task "
                             "per design holding all its properties; 1 "
                             "shards each design's property set across "
                             "the worker pool, one compile per design)")
    parser.add_argument("--schedule", choices=("inventory", "cost"),
                        default="cost",
                        help="task scheduling policy: "
                             "'cost' (default) prices properties by kind/"
                             "COI/bounds, packs them into LPT-balanced "
                             "groups issued costliest-first and lets the "
                             "scheduler steal (re-split) pending groups "
                             "when workers idle; 'inventory' keeps "
                             "declaration-order chunks (the equivalence "
                             "baseline).  Verdicts are identical either "
                             "way")
    parser.add_argument("--sweep", action="append", default=[],
                        metavar="FIELD=V1,V2",
                        help="sweep an EngineConfig field over several "
                             "values (e.g. --sweep proof_engine=pdr,kind "
                             "or --sweep max_bound=4,8); repeatable, "
                             "repeated flags form the cartesian product; "
                             "the report gains a per-config comparison")
    parser.add_argument("--history", type=Path, default=None, metavar="FILE",
                        help="append this run to a JSONL history file and "
                             "report regressions against the previous run")
    parser.add_argument("--transport", choices=("local", "tcp"),
                        default="local",
                        help="where jobs execute: 'local' (default) forks "
                             "worker processes on this host; 'tcp' "
                             "dispatches to remote worker agents "
                             "(autosva worker) over the wire — verdicts "
                             "are identical by contract")
    parser.add_argument("--listen", default="127.0.0.1:0",
                        metavar="HOST:PORT",
                        help="coordinator listen address for --transport "
                             "tcp (port 0 = ephemeral, printed at start; "
                             "default 127.0.0.1:0).  Trusted networks "
                             "only — the v1 protocol has no auth")
    parser.add_argument("--min-workers", type=int, default=None,
                        metavar="N",
                        help="hold dispatch until N worker agents joined "
                             "(default: --spawn-workers count, else 1)")
    parser.add_argument("--spawn-workers", type=int, default=0,
                        metavar="N",
                        help="convenience for loopback runs: spawn N "
                             "local worker agents connected to --listen")
    parser.add_argument("--worker-timeout", type=float, default=None,
                        metavar="S",
                        help="fail if no worker agent connects within S "
                             "seconds (default: 120 with --spawn-workers, "
                             "else wait forever)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job wall-clock bound in seconds")
    parser.add_argument("--memory-limit", type=int, default=None,
                        metavar="MB", help="per-job address-space bound")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="artifact cache directory (reruns become "
                             "incremental)")
    parser.add_argument("--depth", type=int, default=8,
                        help="engine BMC bound (default 8)")
    parser.add_argument("--frames", type=int, default=30,
                        help="engine PDR frame bound (default 30)")
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="write the full report as JSON")
    parser.add_argument("--markdown", type=Path, default=None,
                        metavar="FILE", help="write the report as markdown")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="record execution spans and write a Chrome "
                             "trace-event JSON file (open in Perfetto / "
                             "chrome://tracing; see docs/observability.md)")
    parser.add_argument("--trace-jsonl", type=Path, default=None,
                        metavar="FILE",
                        help="also write the recorded spans as a flat "
                             "JSONL event log (implies tracing)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the campaign's metric counters "
                             "(solver, scheduler, fabric) after the "
                             "summary")
    parser.add_argument("--execution-record", type=Path, default=None,
                        metavar="FILE",
                        help="write the auditable per-campaign "
                             "ExecutionRecord JSON (job inventory + "
                             "digest, per-task outcomes, phase breakdown, "
                             "solver counters, fabric stats)")
    return parser


def _expand_sweep(specs: List[str], base: EngineConfig) -> List[EngineConfig]:
    """Turn ``--sweep FIELD=V1,V2`` flags into an EngineConfig list.

    Each flag sweeps one field; repeated flags form the cartesian product.
    Values are coerced to the field's type (int/bool/str); unknown fields
    or unsweepable ones (tuples — their values would need the ','
    separator) raise :class:`AutoSVAError`.
    """
    import dataclasses
    from itertools import product

    axes = []
    for spec in specs:
        name, sep, values_text = spec.partition("=")
        name = name.strip()
        if not sep or not values_text.strip():
            raise AutoSVAError(
                f"--sweep expects FIELD=V1,V2,..., got {spec!r}")
        if name not in {f.name for f in dataclasses.fields(EngineConfig)}:
            raise AutoSVAError(
                f"--sweep: unknown EngineConfig field {name!r}")
        if any(axis_name == name for axis_name, _ in axes):
            raise AutoSVAError(
                f"--sweep: field {name!r} given twice; put all its values "
                f"in one flag (--sweep {name}=V1,V2)")
        current = getattr(base, name)
        if isinstance(current, tuple):
            raise AutoSVAError(f"--sweep: field {name!r} is not sweepable")
        values = []
        for raw in values_text.split(","):
            raw = raw.strip()
            if not raw:
                continue
            if isinstance(current, bool):
                if raw.lower() not in ("0", "1", "true", "false"):
                    raise AutoSVAError(
                        f"--sweep: {name} expects true/false, got {raw!r}")
                values.append(raw.lower() in ("1", "true"))
            elif isinstance(current, int):
                try:
                    values.append(int(raw))
                except ValueError:
                    raise AutoSVAError(
                        f"--sweep: {name} expects an integer, got {raw!r}")
            else:
                values.append(raw)
        if not values:
            raise AutoSVAError(f"--sweep: no values in {spec!r}")
        axes.append((name, values))

    configs = []
    for combo in product(*(values for _, values in axes)):
        overrides = {name: value
                     for (name, _), value in zip(axes, combo)}
        # dataclasses.replace re-runs validation, so a bad engine name in
        # a sweep value fails here, before any job is scheduled.
        configs.append(dataclasses.replace(base, **overrides))
    return configs


def _kind_counts(results: List[dict]) -> dict:
    """Property-kind histogram of one task's verdicts (timing samples)."""
    counts: dict = {}
    for item in results:
        kind = item.get("kind", "assert")
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def campaign_main(argv: List[str]) -> int:
    import time

    from ..campaign import (ArtifactCache, CampaignHistory, expand_jobs,
                            resolve_worker_count)
    from ..designs import CorpusError, validate

    try:
        args = build_campaign_parser().parse_args(argv)
    except SystemExit as exc:
        # Keep the documented contract: 1 = bad usage, 2 = failed jobs.
        # argparse would exit 2 on usage errors (and 0 on --help).
        return 0 if exc.code in (0, None) else 1
    try:
        args.workers = resolve_worker_count(args.workers)
    except ValueError as exc:
        print(f"autosva campaign: error: {exc}", file=sys.stderr)
        return 1
    if args.spawn_workers < 0:
        print("autosva campaign: error: --spawn-workers must be >= 0",
              file=sys.stderr)
        return 1
    if args.min_workers is not None and args.min_workers < 1:
        print("autosva campaign: error: --min-workers must be >= 1",
              file=sys.stderr)
        return 1
    if args.timeout is not None and args.timeout <= 0:
        print("autosva campaign: error: --timeout must be positive",
              file=sys.stderr)
        return 1
    if args.memory_limit is not None and args.memory_limit <= 0:
        print("autosva campaign: error: --memory-limit must be positive",
              file=sys.stderr)
        return 1
    if args.group_size is not None and args.group_size < 1:
        print("autosva campaign: error: --group-size must be >= 1",
              file=sys.stderr)
        return 1
    case_ids = ([cid.strip() for cid in args.cases.split(",") if cid.strip()]
                if args.cases else None)
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    try:
        if case_ids is not None:
            from ..designs import case_by_id
            cases = [case_by_id(cid) for cid in case_ids]
        else:
            from ..designs import CORPUS
            cases = list(CORPUS)
        validate(tuple(cases), raise_on_issue=True)
        base_config = EngineConfig(max_bound=args.depth,
                                   max_frames=args.frames)
        configs = _expand_sweep(args.sweep, base_config) if args.sweep \
            else None
        jobs = expand_jobs(cases=cases, variants=variants,
                           config=base_config, configs=configs)
    except (CorpusError, KeyError, ValueError) as exc:
        print(f"autosva campaign: error: {exc}", file=sys.stderr)
        return 1
    if not jobs:
        print("autosva campaign: error: no jobs selected", file=sys.stderr)
        return 1

    from ..obs import METRICS, TRACER

    # One registry/tracer view per campaign run: whatever a previous
    # in-process run (tests drive campaign_main repeatedly) left behind
    # must not leak into this run's --metrics/--trace output.
    METRICS.reset()
    TRACER.reset()
    if args.trace or args.trace_jsonl:
        TRACER.enable()
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    history = CampaignHistory(args.history) if args.history else None
    transport = None
    if args.transport == "tcp":
        from ..dist import TcpTransport, parse_address

        try:
            listen = parse_address(args.listen)
        except ValueError as exc:
            print(f"autosva campaign: error: --listen: {exc}",
                  file=sys.stderr)
            return 1
        min_workers = args.min_workers or max(1, args.spawn_workers)
        worker_timeout = args.worker_timeout
        if worker_timeout is None and args.spawn_workers:
            worker_timeout = 120.0
        try:
            transport = TcpTransport(listen=listen,
                                     min_workers=min_workers,
                                     worker_timeout_s=worker_timeout)
        except OSError as exc:
            # Privileged/occupied port and friends: the documented
            # clean-error contract, not a traceback.
            print(f"autosva campaign: error: cannot listen on "
                  f"{args.listen}: {exc}", file=sys.stderr)
            return 1
        host, port = transport.address
        print(f"Coordinator listening on {host}:{port} — attach workers "
              f"with: autosva worker --connect {host}:{port}", flush=True)
        if args.spawn_workers:
            transport.spawn_local(args.spawn_workers)
            print(f"Spawned {args.spawn_workers} loopback worker "
                  f"agent(s)", flush=True)
        print(f"Running {len(jobs)} jobs (property tasks) on the TCP "
              f"fabric (>= {min_workers} worker agent(s))...", flush=True)
    else:
        print(f"Running {len(jobs)} jobs (property tasks) on "
              f"{args.workers} worker(s)...", flush=True)
    begin = time.monotonic()
    try:
        return _campaign_run(args, jobs, cache, history, transport, begin)
    except AutoSVAError as exc:
        # e.g. the fabric's worker-starvation timeout, or a future-schema
        # cache entry: deliberately user-facing messages, exit code 1.
        print(f"autosva campaign: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if transport is not None:
            transport.close()   # idempotent; reaps spawned worker agents
        if args.trace or args.trace_jsonl:
            from ..obs import TRACER
            TRACER.disable()    # don't leak tracing into later runs


def _campaign_run(args, jobs, cache, history, transport, begin) -> int:
    import time

    from ..campaign import CampaignReport, CostModel, run_property_campaign

    model = CostModel()
    if history is not None and args.schedule == "cost":
        # Fold measured per-task wall times from previous runs back into
        # the kind weights (no-op on an empty history).
        model = model.calibrated(history.timing_samples())
    events = []

    def on_event(event):
        events.append(event)
        if event.kind == "compile_started":
            print(f"  [compile] {event.design} ...", flush=True)
        elif event.kind == "compile_done":
            note = (" (plan cached)" if event.from_cache
                    else f" {event.wall_time_s:.1f}s")
            print(f"  [compile] {event.design} done{note}", flush=True)
        elif event.kind == "steal":
            print(f"  [  steal] {event.task_id} re-split for idle "
                  f"workers", flush=True)
        elif event.kind == "requeue":
            print(f"  [requeue] {event.task_id} — worker "
                  f"{event.worker} died; reassigned", flush=True)
        else:
            note = (f" (cached, originally "
                    f"{event.original_wall_time_s:.1f}s)"
                    if event.from_cache
                    and event.original_wall_time_s is not None
                    else " (cached)" if event.from_cache
                    else f" {event.wall_time_s:.1f}s")
            print(f"  [{event.status:>7}] {event.task_id}{note}",
                  flush=True)

    results = run_property_campaign(
        jobs, workers=args.workers, group_size=args.group_size,
        cache=cache, timeout_s=args.timeout,
        memory_limit_mb=args.memory_limit,
        schedule=args.schedule, model=model, progress=on_event,
        transport=transport)
    steals = sum(r.steals for r in results)
    # Frontend phase = the scheduler-side compiles (plan generation +
    # parse/elaborate); cached plans cost ~0 and report ~0.
    frontend = sum(event.wall_time_s for event in events
                   if event.kind == "compile_done"
                   and not event.from_cache)
    # Calibration samples: only single-kind tasks identify a kind's cost
    # (the rule CostModel.calibrated applies).  Whole-design runs record
    # none: their tasks mix kinds, and the few single-kind stolen halves
    # would push --group-size samples out of the calibration window.
    counted = ((event, _kind_counts(event.results)) for event in events
               if args.group_size is not None
               and event.kind == "result" and event.ok
               and not event.from_cache and event.results)
    timing_samples = [
        {"kinds": kinds, "wall_time_s": event.wall_time_s,
         "worker": event.worker}
        for event, kinds in counted if len(kinds) == 1
    ]
    worker_stats = transport.worker_stats() if transport is not None \
        else None
    # On the TCP fabric "workers" means agents that survived to the end
    # (still connected, or released by the final shutdown) — dead agents
    # and their replacements must not inflate the count.
    workers = (len([s for s in worker_stats
                    if s.get("slots")
                    and s.get("departed") in (None, "shutdown")])
               if worker_stats is not None else args.workers)
    report = CampaignReport(jobs, results, workers=workers,
                            wall_time_s=time.monotonic() - begin,
                            cache_stats=cache.stats() if cache else None,
                            schedule=args.schedule, steals=steals,
                            transport=args.transport,
                            worker_stats=worker_stats,
                            frontend_time_s=frontend)

    print()
    print(report.summary())
    if history is not None:
        regressions = history.regressions(report)
        history.append(report)
        if timing_samples:
            history.append_timings(timing_samples)
        print()
        if regressions:
            print(f"Regressions vs previous run ({len(regressions)}):")
            for finding in regressions:
                print(f"  !! {finding}")
        else:
            print("No regressions vs previous run.")
        print(f"History appended -> {args.history}")
    if args.json:
        args.json.write_text(report.to_json())
        print(f"\nJSON report -> {args.json}")
    if args.markdown:
        args.markdown.write_text(report.to_markdown())
        print(f"Markdown report -> {args.markdown}")

    from ..obs import METRICS, TRACER
    if args.metrics:
        print()
        print(METRICS.format_table())
    spans = TRACER.drain() if (args.trace or args.trace_jsonl) else []
    if args.trace:
        import os

        from ..obs.export import write_chrome_trace
        write_chrome_trace(args.trace, spans,
                           process_names={os.getpid(): "scheduler"})
        print(f"Chrome trace ({len(spans)} spans) -> {args.trace}")
    if args.trace_jsonl:
        from ..obs.export import write_jsonl
        write_jsonl(args.trace_jsonl, spans)
        print(f"Span JSONL -> {args.trace_jsonl}")
    if args.execution_record:
        from ..obs.record import build_record
        record = build_record(
            report,
            config={"transport": args.transport, "workers": report.workers,
                    "schedule": args.schedule,
                    "group_size": args.group_size,
                    "depth": args.depth, "frames": args.frames,
                    "variants": args.variants, "cases": args.cases},
            metrics=METRICS.snapshot(), span_count=len(spans))
        record.write(args.execution_record)
        print(f"Execution record -> {args.execution_record}")
    return 0 if report.num_failed == 0 else 2


def main(argv: List[str] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])
    if argv and argv[0] == "worker":
        from ..dist.worker import worker_main
        return worker_main(argv[1:])
    if argv and argv[0] == "serve":
        from ..service.server import serve_main
        return serve_main(argv[1:])
    if argv and argv[0] == "top":
        from ..service.top import top_main
        return top_main(argv[1:])
    args = build_arg_parser().parse_args(argv)
    try:
        source = args.rtl.read_text()
        links = []
        for spec in args.submodule:
            path_text, _, mode = spec.partition(":")
            sub_source = Path(path_text).read_text()
            sub_ft = generate_ft(sub_source)
            links.append(SubmoduleLink(ft=sub_ft, mode=mode or "am"))
        tool_config = ToolConfig(depth=args.depth)
        ft = generate_ft(source, module_name=args.module,
                         assert_inputs=args.assert_inputs,
                         submodules=links, tool_config=tool_config)
    except (AutoSVAError, OSError) as exc:
        print(f"autosva: error: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out or Path(f"ft_{ft.dut_name}")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in ft.files().items():
        (out_dir / name).write_text(text)
    print(f"Generated FT for {ft.dut_name}: {ft.property_count} properties "
          f"from {ft.annotation_loc} annotation lines "
          f"in {ft.generation_time_s * 1000:.1f} ms -> {out_dir}/")

    if args.run:
        extra = [p.read_text() for p in args.sources]
        config = EngineConfig(max_bound=args.depth, max_k=args.depth)
        report = run_fv(ft, [source] + extra, config)
        print(report.summary())
        for result in report.cex_results:
            print()
            print(result.trace.render())
        return 0 if report.proof_rate == 1.0 else 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
