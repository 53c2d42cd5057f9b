"""Campaign reports: aggregate per-job results into a Table-III matrix.

A :class:`CampaignReport` pairs the job list with the scheduler's results
and derives, per design, the row the paper's Table III prints: outcome
text, proof rates for the fixed and buggy variants, the failing
properties with their CEX depths, and runtimes.  Exports to JSON (for
tooling and the benchmark harness) and markdown (for humans).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .jobs import CampaignJob
from .scheduler import JobResult

__all__ = ["CampaignReport", "DesignRow", "verdict_contract"]


def verdict_contract(results: Sequence[JobResult]) -> List[tuple]:
    """The ONE normalization behind every verdict-equivalence gate.

    Everything the campaign's equivalence contract covers — per-job id,
    status, error and the full deterministic payload — with measurements
    (``engine_time_s``, ``solve_time_s``, the ``solver`` counter deltas)
    stripped: wall time is the only thing a schedule, worker count or
    transport is *allowed* to change, and solver counters legitimately
    vary with property grouping and steal schedules.  The
    pipeline/dist smoke gates and the tier-1 corpus-equivalence tests
    all compare this view; keeping one implementation means they cannot
    silently disagree about what "bit-identical verdicts" includes.
    """
    view: List[tuple] = []
    for result in results:
        payload = dict(result.payload or {})
        payload.pop("engine_time_s", None)
        payload.pop("solve_time_s", None)
        payload.pop("solver", None)
        view.append((result.job_id, result.status, result.error, payload))
    return view


@dataclass
class DesignRow:
    """One design's aggregated campaign outcome (one Table III row)."""

    case_id: str
    name: str
    outcome: str
    fixed_proof_rate: Optional[float] = None
    buggy_proof_rate: Optional[float] = None
    cex_properties: List[str] = field(default_factory=list)
    cex_depths: List[int] = field(default_factory=list)
    time_s: float = 0.0
    #: Seconds the row's jobs spent inside SAT ``solve()`` calls — the
    #: solver share of the engine time (measurement, not verdict).
    solve_time_s: float = 0.0
    #: Wall time of the original (cache-writing) runs behind any cached
    #: replays in this row — the "what it would have cost" number.
    original_time_s: float = 0.0
    #: Work-stealing re-splits that hit this design's tasks.
    steals: int = 0
    errors: List[str] = field(default_factory=list)
    #: Registry expectations (DesignCase.expect_*) the run contradicted.
    mismatches: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "case_id": self.case_id, "name": self.name,
            "outcome": self.outcome,
            "fixed_proof_rate": self.fixed_proof_rate,
            "buggy_proof_rate": self.buggy_proof_rate,
            "cex_properties": self.cex_properties,
            "cex_depths": self.cex_depths,
            "time_s": self.time_s,
            "solve_time_s": self.solve_time_s,
            "original_time_s": self.original_time_s,
            "steals": self.steals,
            "errors": self.errors,
            "mismatches": self.mismatches,
        }


def _short(name: str) -> str:
    """Property label without the bind-path/directive noise."""
    return name.split("__")[-1]


def _rtt_text(rtt: Optional[Dict[str, object]]) -> str:
    """Render a worker's heartbeat RTT stats (min/mean/max ms)."""
    if not rtt:
        return "—"
    return (f"{rtt.get('min', 0):.1f}/{rtt.get('mean', 0):.1f}/"
            f"{rtt.get('max', 0):.1f}ms")


@dataclass
class CampaignReport:
    """Everything one campaign run produced."""

    jobs: List[CampaignJob]
    results: List[JobResult]
    workers: int = 1
    wall_time_s: float = 0.0
    cache_stats: Optional[Dict[str, int]] = None
    #: Task scheduling policy of the run: "cost" or "inventory".
    schedule: str = "cost"
    #: Total work-stealing re-splits across the run.
    steals: int = 0
    #: Execution transport of the run ("local" forked pool, "tcp" remote
    #: fabric); None when the caller didn't say.
    transport: Optional[str] = None
    #: Per-worker-agent fabric stats (remote transports): worker id,
    #: slots, tasks run, busy seconds, utilization, steal grants,
    #: first-sight compiles, heartbeat RTT, departure reason.
    #: Empty/None locally.
    worker_stats: Optional[List[Dict[str, object]]] = None
    #: Parent-side frontend seconds (FT generation + compile), summed
    #: from the stream's ``compile_done`` notices; feeds the phase
    #: breakdown.
    frontend_time_s: float = 0.0

    def __post_init__(self) -> None:
        if len(self.jobs) != len(self.results):
            raise ValueError(
                f"job/result length mismatch: {len(self.jobs)} jobs, "
                f"{len(self.results)} results")

    # -- per-job access ----------------------------------------------------
    def result(self, job_id: str) -> JobResult:
        for result in self.results:
            if result.job_id == job_id:
                return result
        raise KeyError(f"no job {job_id!r} in this campaign")

    @property
    def num_ok(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def num_failed(self) -> int:
        return len(self.results) - self.num_ok

    @property
    def num_cached(self) -> int:
        return sum(1 for r in self.results if r.from_cache)

    # -- the Table III matrix ----------------------------------------------
    def rows(self) -> List[DesignRow]:
        by_case: Dict[str, List[int]] = {}
        order: List[str] = []
        for index, job in enumerate(self.jobs):
            if job.case_id not in by_case:
                by_case[job.case_id] = []
                order.append(job.case_id)
            by_case[job.case_id].append(index)

        rows: List[DesignRow] = []
        for case_id in order:
            indices = by_case[case_id]
            row = DesignRow(case_id=case_id,
                            name=self.jobs[indices[0]].case_name,
                            outcome="")
            fixed_payload = buggy_payload = None
            for index in indices:
                job, result = self.jobs[index], self.results[index]
                row.time_s += result.wall_time_s
                if result.ok and result.payload:
                    row.solve_time_s += result.payload.get(
                        "solve_time_s", 0.0)
                row.steals += result.steals
                if result.from_cache and \
                        result.original_wall_time_s is not None:
                    row.original_time_s += result.original_wall_time_s
                if not result.ok:
                    row.errors.append(
                        f"{job.job_id}: {result.status}"
                        + (f" ({result.error.strip().splitlines()[-1]})"
                           if result.error else ""))
                    continue
                payload = result.payload
                # Under a config sweep the first config is the primary one
                # for the row's headline numbers; later configs still
                # contribute CEX labels and expectation checks below.
                if job.variant == "fixed":
                    if fixed_payload is None:
                        fixed_payload = payload
                        row.fixed_proof_rate = payload["proof_rate"]
                else:
                    if buggy_payload is None:
                        buggy_payload = payload
                        row.buggy_proof_rate = payload["proof_rate"]
                for cex in payload["cex"]:
                    label = f"{job.variant}:{_short(cex['name'])}"
                    if label not in row.cex_properties:
                        row.cex_properties.append(label)
                        row.cex_depths.append(cex["depth"])
                # Check the run against the registry's expectations.
                if job.expect_proof and payload["proof_rate"] != 1.0:
                    row.mismatches.append(
                        f"{job.job_id}: expected 100% proof, got "
                        f"{payload['proof_rate']:.0%}")
                if job.expect_cex and not any(
                        job.expect_cex in c["name"]
                        for c in payload["cex"]):
                    row.mismatches.append(
                        f"{job.job_id}: expected a CEX on "
                        f"'{job.expect_cex}', none found")
            row.outcome = self._outcome_text(row, fixed_payload,
                                             buggy_payload)
            rows.append(row)
        return rows

    @staticmethod
    def _outcome_text(row: DesignRow, fixed, buggy) -> str:
        if row.errors and fixed is None and buggy is None:
            return "campaign error"
        if buggy is not None:
            failing = sorted({_short(c["name"]) for c in buggy["cex"]})
            if not failing:
                # The buggy variant came back clean: never claim a bug the
                # engine did not find (shallow bounds do this).
                return "bug NOT reproduced (buggy variant clean at bound)"
            if fixed is not None and fixed["proof_rate"] == 1.0:
                return (f"Bug found ({', '.join(failing)}) and fixed "
                        f"-> 100% proof")
            return f"Hit known bug ({', '.join(failing)})"
        if fixed is not None:
            if fixed["proof_rate"] == 1.0:
                return "100% liveness/safety properties proof"
            partial = sorted({_short(c["name"]) for c in fixed["cex"]})
            return f"partial proof, CEXs: {', '.join(partial)}"
        return "no results"

    # -- sweep comparison --------------------------------------------------
    @property
    def swept_configs(self) -> List[int]:
        """Distinct sweep config indices present (empty outside a sweep)."""
        return sorted({job.config_index for job in self.jobs
                       if getattr(job, "config_index", None) is not None})

    def config_comparison(self) -> List[Dict[str, object]]:
        """Per-config aggregates for engine-config sweeps.

        One entry per sweep config, summarizing how that configuration did
        across every design it ran: mean proof rate over fixed-variant
        jobs, distinct CEXs found on buggy variants, failures, engine
        time.  This is the campaign-scale ablation view (which bounds are
        worth their runtime).
        """
        comparison: List[Dict[str, object]] = []
        for config_index in self.swept_configs:
            picked = [(job, result)
                      for job, result in zip(self.jobs, self.results)
                      if getattr(job, "config_index", None) == config_index]
            fixed_rates = [result.payload["proof_rate"]
                           for job, result in picked
                           if result.ok and job.variant == "fixed"]
            cex_names = {cex["name"]
                         for job, result in picked
                         if result.ok and job.variant == "buggy"
                         for cex in result.payload["cex"]}
            entry = {
                "config": config_index,
                "jobs": len(picked),
                "failed": sum(1 for _, r in picked if not r.ok),
                "fixed_proof_rate": (sum(fixed_rates) / len(fixed_rates)
                                     if fixed_rates else None),
                "buggy_cex_found": len(cex_names),
                "engine_time_s": sum(
                    r.payload.get("engine_time_s", 0.0)
                    for _, r in picked if r.ok and r.payload),
            }
            sample = next((job.engine_config for job, _ in picked), None)
            if sample is not None:
                entry["engine"] = sample.proof_engine
                entry["max_bound"] = sample.max_bound
                entry["max_frames"] = sample.max_frames
            comparison.append(entry)
        return comparison

    def _comparison_lines(self) -> List[str]:
        lines = []
        for entry in self.config_comparison():
            rate = ("—" if entry["fixed_proof_rate"] is None
                    else f"{entry['fixed_proof_rate']:.0%}")
            lines.append(
                f"cfg{entry['config']} ({entry.get('engine', '?')}, "
                f"bound={entry.get('max_bound', '?')}, "
                f"frames={entry.get('max_frames', '?')}): "
                f"fixed proof {rate}, {entry['buggy_cex_found']} buggy "
                f"CEX(s), {entry['failed']} failed, "
                f"{entry['engine_time_s']:.1f}s engine time")
        return lines

    # -- aggregate metrics -------------------------------------------------
    def totals(self) -> Dict[str, object]:
        total_props = 0
        total_loc = 0
        engine_time = 0.0
        solve_time = 0.0
        counted_cases = set()
        for job, result in zip(self.jobs, self.results):
            if result.ok and job.variant == "fixed" and \
                    job.case_id not in counted_cases:
                # One FT per design: config sweeps re-run the same FT, so
                # count each case once.
                counted_cases.add(job.case_id)
                total_props += result.payload.get("property_count", 0)
                total_loc += result.payload.get("annotation_loc", 0)
            if result.ok and result.payload:
                engine_time += result.payload.get("engine_time_s", 0.0)
                solve_time += result.payload.get("solve_time_s", 0.0)
        return {
            "jobs": len(self.jobs), "ok": self.num_ok,
            "failed": self.num_failed, "cached": self.num_cached,
            "workers": self.workers,
            "properties": total_props, "annotation_loc": total_loc,
            "wall_time_s": self.wall_time_s,
            "engine_time_s": engine_time,
            "solve_time_s": solve_time,
            "schedule": self.schedule,
            "steals": self.steals,
            "transport": self.transport,
        }

    def phase_breakdown(self) -> Dict[str, float]:
        """Where the campaign's time went, by pipeline phase.

        * ``frontend_s`` — parent-side FT generation + compile (summed
          from ``compile_done`` notices);
        * ``solve_s`` — seconds inside SAT ``solve()`` calls, across all
          workers;
        * ``engine_other_s`` — engine time that was *not* solving:
          encoding, unrolling, orchestration;
        * ``overhead_s`` — wall time not accounted to any phase:
          scheduling, fork/wire latency, result plumbing.  Clamped at 0:
        on multi-worker runs phase seconds accrue in parallel and can
        legitimately exceed wall time, so the breakdown reads cleanly
        only against 1-worker (or busy-seconds) baselines.
        """
        totals = self.totals()
        engine = float(totals["engine_time_s"])
        solve = float(totals["solve_time_s"])
        frontend = self.frontend_time_s
        return {
            "frontend_s": round(frontend, 3),
            "solve_s": round(solve, 3),
            "engine_other_s": round(max(0.0, engine - solve), 3),
            "overhead_s": round(
                max(0.0, self.wall_time_s - frontend - engine), 3),
            "wall_s": round(self.wall_time_s, 3),
        }

    # -- exports -----------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "totals": self.totals(),
            "phases": self.phase_breakdown(),
            "rows": [row.as_dict() for row in self.rows()],
            "config_comparison": self.config_comparison(),
            "results": [
                {"job_id": r.job_id, "status": r.status,
                 "from_cache": r.from_cache, "wall_time_s": r.wall_time_s,
                 "original_wall_time_s": r.original_wall_time_s,
                 "steals": r.steals,
                 "error": r.error, "payload": r.payload}
                for r in self.results
            ],
            "cache": self.cache_stats,
            "workers": self.worker_stats,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_markdown(self) -> str:
        lines = ["| Module | Result | proof (fixed) | proof (buggy) | "
                 "time |",
                 "|---|---|---|---|---|"]
        for row in self.rows():
            fixed = ("—" if row.fixed_proof_rate is None
                     else f"{row.fixed_proof_rate:.0%}")
            buggy = ("—" if row.buggy_proof_rate is None
                     else f"{row.buggy_proof_rate:.0%}")
            lines.append(f"| {row.case_id}. {row.name} | {row.outcome} | "
                         f"{fixed} | {buggy} | {row.time_s:.1f}s |")
        totals = self.totals()
        lines.append("")
        lines.append(
            f"{totals['jobs']} jobs ({totals['cached']} cached, "
            f"{totals['failed']} failed) on {totals['workers']} worker(s) "
            f"in {totals['wall_time_s']:.1f}s; {totals['properties']} "
            f"properties from {totals['annotation_loc']} annotation LoC.")
        phases = self.phase_breakdown()
        lines.append("")
        lines.append(
            f"Phases: frontend {phases['frontend_s']:.1f}s, solve "
            f"{phases['solve_s']:.1f}s, engine-other "
            f"{phases['engine_other_s']:.1f}s, overhead "
            f"{phases['overhead_s']:.1f}s (wall {phases['wall_s']:.1f}s).")
        if self.worker_stats:
            lines.append("")
            lines.append("### Workers")
            lines.append("| Worker | slots | tasks | busy | util | "
                         "steals granted | heartbeat RTT |")
            lines.append("|---|---|---|---|---|---|---|")
            for entry in self.worker_stats:
                lines.append(
                    f"| {entry.get('worker')} | {entry.get('slots')} | "
                    f"{entry.get('tasks')} | "
                    f"{entry.get('busy_s', 0.0):.1f}s | "
                    f"{entry.get('utilization', 0.0):.0%} | "
                    f"{entry.get('steals_granted', 0)} | "
                    f"{_rtt_text(entry.get('heartbeat_rtt_ms'))} |")
        if len(self.swept_configs) > 1:
            lines.append("")
            lines.append("### Config sweep")
            for text in self._comparison_lines():
                lines.append(f"- {text}")
        return "\n".join(lines)

    def summary(self) -> str:
        """Fixed-width table for terminals (the Table III shape)."""
        lines = [f"{'RTL Module':<36} {'Result':<55} {'time':>7}"]
        for row in self.rows():
            label = f"{row.case_id}. {row.name}"
            note = ""
            if row.original_time_s:
                note = f"  (cached; originally {row.original_time_s:.1f}s)"
            if row.steals:
                note += f"  [{row.steals} steal(s)]"
            lines.append(f"{label:<36} {row.outcome:<55} "
                         f"{row.time_s:6.1f}s{note}")
            for error in row.errors:
                lines.append(f"  !! {error}")
            for mismatch in row.mismatches:
                lines.append(f"  ?? expectation: {mismatch}")
        totals = self.totals()
        lines.append(
            f"\nTotals: {totals['properties']} generated properties from "
            f"{totals['annotation_loc']} annotation LoC; {totals['jobs']} "
            f"jobs ({totals['cached']} cached) on {totals['workers']} "
            f"worker(s) in {totals['wall_time_s']:.1f}s "
            f"(engine time {totals['engine_time_s']:.1f}s)")
        phases = self.phase_breakdown()
        lines.append(
            f"Phases: frontend {phases['frontend_s']:.1f}s | solve "
            f"{phases['solve_s']:.1f}s | engine-other "
            f"{phases['engine_other_s']:.1f}s | overhead "
            f"{phases['overhead_s']:.1f}s")
        lines.append(
            f"Scheduling: {self.schedule}"
            + (f", {self.steals} work-stealing re-split(s)"
               if self.steals else ", no steals")
            + (f", transport {self.transport}"
               if self.transport else ""))
        if self.worker_stats:
            lines.append("\nWorker fabric:")
            lines.append(f"  {'worker':<28} {'slots':>5} {'tasks':>5} "
                         f"{'busy':>8} {'util':>5} {'steals':>6} "
                         f"{'rtt':>16}")
            for entry in self.worker_stats:
                label = str(entry.get("worker"))
                if entry.get("departed") not in (None, "shutdown"):
                    label += " (died)"
                lines.append(
                    f"  {label:<28} {entry.get('slots', 0):>5} "
                    f"{entry.get('tasks', 0):>5} "
                    f"{entry.get('busy_s', 0.0):>7.1f}s "
                    f"{entry.get('utilization', 0.0):>5.0%} "
                    f"{entry.get('steals_granted', 0):>6} "
                    f"{_rtt_text(entry.get('heartbeat_rtt_ms')):>16}")
        if len(self.swept_configs) > 1:
            lines.append("\nConfig sweep comparison:")
            for text in self._comparison_lines():
                lines.append(f"  {text}")
        return "\n".join(lines)
