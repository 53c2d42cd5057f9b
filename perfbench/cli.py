"""The CLI workload: ``corpus-prove``.

Each campaign goes through the public ``run_property_campaign`` (cost
schedule, group size 1, 2 local fork workers, no artifact cache) in a
fresh process (``campaign_proc.py``) and runs the default PDR engine at
bound 8 and 30 frames over the Table III corpus without its three heavy
fixed designs.  A run takes the median of four to six campaigns (at
least three): on a 2-vCPU host whose speed swung by up to a factor of
two from one second to the next, ten identical campaigns of 7-9 s in a
row spread by a sixth in wall and CPU time.
"""

from __future__ import annotations

import random
import statistics
import time

import common
import layers

#: Designs above 5 CPU-seconds of checking; they fix the critical path.
#: Together they take about three quarters of a full-corpus PDR
#: campaign's CPU, so ``corpus-prove`` leaves them out.
HEAVY = ("A4.fixed", "O1.fixed", "O2.fixed")
#: A run takes the median of at least this many campaigns.
MIN_CAMPAIGNS = 3
#: Extra launches per run that stop at the first streamed event, so the
#: set-up median never rests on a few launches.
SETUP_LAUNCHES = 4
#: A run, including its traced pass, must end well inside 180 seconds.
RUN_LIMIT_S = 170.0


def corpus_order():
    """Every design x variant of the corpus, in the corpus's own order."""
    from repro.designs import CORPUS

    return [f"{case.case_id}.{variant}" for case in CORPUS
            for variant in ("fixed", "buggy")
            if variant == "fixed" or case.buggy_file]


def designs():
    """The workload's design x variants, in the corpus's order."""
    return [job_id for job_id in corpus_order() if job_id not in HEAVY]


def seeded_order(rng: random.Random):
    """One submission order drawn from ``rng``.

    Fixed variants trade places with each other.  The first design (the
    set-up anchor) and every buggy variant keep their places, so an
    order moves neither the set-up path nor the slots from which CEXs
    stream.
    """
    order = designs()
    slots = [index for index, job_id in enumerate(order)
             if index and job_id.endswith(".fixed")]
    picked = [order[index] for index in slots]
    rng.shuffle(picked)
    for index, job_id in zip(slots, picked):
        order[index] = job_id
    return order


class Campaign:
    """One finished campaign process, timed from outside."""

    def __init__(self, order, child: common.ChildResult, doc: dict) -> None:
        self.order = order
        self.cpu_s = child.cpu_s
        self.setup_s = doc["first_event"] - child.spawned
        start = doc["start"]
        events = doc["events"]
        self.wall_s = max(t for t, *_ in events) - start
        self.verdict_s = [t - start for t, _, _, results, _ in events
                          for _ in results]
        self.cex = {(task_id, name): t - start
                    for t, task_id, _, results, _ in events
                    for name, status, _ in results if status == "cex"}
        self.reported_solve_s = sum(event[4] for event in events)
        self.jobs = doc["jobs"]


def _campaign(order, deadline, trace=None):
    args = ["perfbench/campaign_proc.py", ",".join(order)]
    if trace:
        args += ["--trace", trace]
    child = common.run_child(args, common.deadline_left(deadline))
    doc = child.document()
    if doc is None:
        raise RuntimeError(f"campaign process failed "
                           f"(exit {child.returncode})")
    return Campaign(order, child, doc)


def _check(campaign: Campaign, expected: dict):
    attempted = sum(len(expected[job_id]) for job_id in campaign.order)
    failed = []
    for job_id in campaign.order:
        job = campaign.jobs.get(job_id, {"status": "missing",
                                         "properties": []})
        bad = common.verdict_failures(expected, job_id, job["status"],
                                      job["properties"])
        failed += [f"{job_id}:{name}" for name in bad]
    return attempted, failed


def run(workload: str, seed: int, seconds: float, trace: bool, out):
    """Run one workload; returns (attempted, failed, metrics).

    Each campaign of a run submits its own order drawn from the seed;
    the traced run's two campaigns share the first.
    """
    expected = common.load_expected()[workload]
    rng = random.Random(seed)
    first = seeded_order(rng)
    deadline = time.monotonic() + RUN_LIMIT_S

    campaigns = []
    setup = []
    if trace:
        plain = _campaign(first, deadline)
        trace_file = common.WORK / f"trace-{workload}.json"
        traced = _campaign(first, deadline, str(trace_file))
        campaigns = [plain, traced]
    else:
        for _ in range(SETUP_LAUNCHES):
            child = common.run_child(["perfbench/campaign_proc.py",
                                      ",".join(first), "--setup-only"],
                                     common.deadline_left(deadline))
            doc = child.document()
            if doc is None:
                raise RuntimeError("set-up launch failed")
            setup.append(doc["first_event"] - child.spawned)
        begin = time.monotonic()
        order = first
        while True:
            campaigns.append(_campaign(order, deadline))
            elapsed = time.monotonic() - begin
            # Measure for about ``seconds``, and never fewer than
            # MIN_CAMPAIGNS: start another campaign only if it should end
            # less than half a campaign past the mark.
            if len(campaigns) >= MIN_CAMPAIGNS and \
                    elapsed + campaigns[-1].wall_s / 2 > seconds:
                break
            order = seeded_order(rng)
        setup += [c.setup_s for c in campaigns]

    attempted, failed = 0, []
    labels = ["untraced", "traced"] if trace else range(1, len(campaigns) + 1)
    for label, campaign in zip(labels, campaigns):
        done, bad = _check(campaign, expected)
        attempted += done
        failed += bad
        out(f"campaign {label}: wall {campaign.wall_s:.3f} s, "
            f"cpu {campaign.cpu_s:.2f} s, {len(campaign.verdict_s)} "
            f"verdicts ({len(campaign.cex)} cex), program-reported "
            f"solve_time_s {campaign.reported_solve_s:.3f} s; order "
            f"{','.join(campaign.order)}")
    for name in failed[:20]:
        out(f"FAILED {name}")

    if trace:
        return attempted, failed, _traced_metrics(plain, traced,
                                                  trace_file, out)

    # Each CEX verdict's median over the run's campaigns, averaged over
    # the verdicts.  The verdicts stream at 7 distinct points of a
    # campaign, and one median over all of them jumped between
    # neighbouring points from run to run.
    by_cex = {}
    for campaign in campaigns:
        for key, latency in campaign.cex.items():
            by_cex.setdefault(key, []).append(latency)
    cex = [statistics.median(v) for v in by_cex.values()]
    walls = [c.wall_s for c in campaigns]
    cpus = [c.cpu_s for c in campaigns]
    metrics = {
        "settle_fresh_s": statistics.median(walls),
        "settle_early_s": statistics.mean(cex),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": common.peak_rss_mb(),
        "setup_s": statistics.median(setup),
    }
    out(f"campaign_wall_s (settle_fresh_s) {metrics['settle_fresh_s']:.3f} s"
        f" [median of {len(walls)} campaigns]")
    out(f"cex_latency_s (settle_early_s) {metrics['settle_early_s']:.3f} s"
        f" [mean of {len(cex)} CEX verdicts' medians over "
        f"{len(campaigns)} campaigns]")
    out("settle_tail_s (a note) " + common.tail_note(
        [t for c in campaigns for t in c.verdict_s], "verdict latencies"))
    out(f"cpu_s {metrics['cpu_s']:.3f} s [median of {len(cpus)}]; "
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB; setup_s "
        f"{metrics['setup_s']:.3f} s [median of {len(setup)} launches]")
    return attempted, failed, metrics


def _traced_metrics(plain, traced, trace_file, out):
    dump = layers.load(trace_file)
    values = layers.metrics(dump, campaigns=1, window_s=traced.wall_s,
                            workers=common.WORKERS)
    values.update({
        "sat.reported_solve_s": traced.reported_solve_s,
        "http.submit_s": 0.0,
        "loadgen.late_max_s": 0.0,
        "loadgen.open_at_end": 0,
        "trace.overhead_cpu_s": traced.cpu_s - plain.cpu_s,
        "trace.overhead_share": (traced.cpu_s - plain.cpu_s) / plain.cpu_s,
    })
    out(f"tracing overhead: cpu {plain.cpu_s:.2f} -> {traced.cpu_s:.2f} s, "
        f"wall {plain.wall_s:.2f} -> {traced.wall_s:.2f} s")
    out(f"SAT time: program-reported solve_time_s "
        f"{values['sat.reported_solve_s']:.3f} s vs traced sat.solve_s "
        f"{values['sat.solve_s']:.3f} s")
    out(f"unaccounted share of traced task time: "
        f"{values['trace.unaccounted_share']:.4f}")
    out("layers (per campaign):")
    for line in layers.layer_table(dump, 1):
        out(line)
    out("designs:")
    for design, row in sorted(layers.design_rows(dump).items(),
                              key=lambda item: -item[1]["busy_s"]):
        out(f"  {design:<10} tasks {row['tasks']:>2}  "
            f"busy {row['busy_s']:7.3f} s  "
            f"api.task {row['api.task_s']:7.3f} s  "
            f"sat.solve {row['sat.solve_s']:7.3f} s  "
            f"pdr {row['pdr.prove_s']:7.3f} s  "
            f"bmc {row['bmc.sweep_s']:7.3f} s  "
            f"solves {row['sat.solve_calls']}")
    return values
