"""Per-layer numbers from a traced run's dump (see ``tracer.py``).

A layer's self time is its spans' time minus the part covered by nested
traced spans; its inclusive time counts only outermost spans, so a layer
calling itself (``bmc_safety`` -> ``bmc_sweep``) is not counted twice.
Totals add the parent process and every forked task.
"""

from __future__ import annotations

import json


def load(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def totals(dump: dict):
    """(layers, counters) summed over the parent and all shipped tasks.

    ``layers`` maps a span name to ``[calls, inclusive_s, self_s]``.
    """
    layers, counters = {}, {}
    for part in [dump] + dump.get("tasks", []):
        for name, (calls, incl, own) in part["layers"].items():
            total = layers.setdefault(name, [0, 0.0, 0.0])
            total[0] += calls
            total[1] += incl
            total[2] += own
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return layers, counters


def design_rows(dump: dict):
    """Per design: tasks, busy seconds and the heavy layers' times."""
    rows = {}
    for task in dump.get("tasks", []):
        design = task["owner"].split("/")[0]
        row = rows.setdefault(design, {"tasks": 0, "busy_s": 0.0,
                                       "api.task_s": 0.0, "sat.solve_s": 0.0,
                                       "pdr.prove_s": 0.0, "bmc.sweep_s": 0.0,
                                       "sat.solve_calls": 0})
        layers = task["layers"]
        row["tasks"] += 1
        row["busy_s"] += task.get("busy_s", 0.0)
        row["api.task_s"] += layers.get("api.task", [0, 0.0, 0.0])[1]
        row["sat.solve_s"] += layers.get("sat.solve", [0, 0.0, 0.0])[2]
        row["pdr.prove_s"] += layers.get("pdr.prove", [0, 0.0, 0.0])[1]
        row["bmc.sweep_s"] += layers.get("bmc.sweep", [0, 0.0, 0.0])[1]
        row["sat.solve_calls"] += task["counters"].get("sat.solve_calls", 0)
    return rows


def metrics(dump: dict, campaigns: int, window_s: float,
            workers: int) -> dict:
    """The traced run's per-layer metrics, per campaign where summed.

    ``window_s`` is the wall time the fleet was measured over, for the
    scheduler's utilization (busy slot-seconds / (slots x window)).
    """
    layers, counters = totals(dump)

    def incl(name):
        return layers.get(name, [0, 0.0, 0.0])[1] / campaigns

    def own(name):
        return layers.get(name, [0, 0.0, 0.0])[2] / campaigns

    def calls(name):
        return layers.get(name, [0, 0.0, 0.0])[0] / campaigns

    def count(name):
        return counters.get(name, 0) / campaigns

    def ratio(part, whole):
        return part / whole if whole else 0.0

    busy = counters.get("scheduler.busy_s", 0.0)
    task_total = layers.get("api.task", [0, 0.0, 0.0])[1]
    return {
        "sat.solve_s": own("sat.solve"),
        "sat.solve_calls": count("sat.solve_calls"),
        "sat.propagations": count("sat.propagations"),
        "sat.conflicts": count("sat.conflicts"),
        "sat.decisions": count("sat.decisions"),
        "sat.add_clause_s": own("sat.add_clause"),
        "pdr.prove_s": incl("pdr.prove"),
        "pdr.self_s": own("pdr.prove"),
        "pdr.calls": calls("pdr.prove"),
        "pdr.proof_ratio": ratio(counters.get("pdr.proven", 0),
                                 layers.get("pdr.prove", [0])[0]),
        "bmc.sweep_s": incl("bmc.sweep"),
        "bmc.sweep_calls": calls("bmc.sweep"),
        "cnf.frame_s": own("cnf.frame"),
        "cnf.frames": count("cnf.frames"),
        "engine.check_s": incl("engine.check"),
        "engine.other_s": own("engine.check"),
        "api.task_s": incl("api.task"),
        "api.compiles": count("api.compiles"),
        "api.compile_hits": count("api.compile_hits"),
        "core.generate_ft_s": incl("core.generate_ft"),
        "rtl.synthesize_s": incl("rtl.synthesize"),
        "scheduler.queue_wait_s": count("scheduler.queue_wait_s"),
        "scheduler.dispatch_s": incl("scheduler.dispatch"),
        "scheduler.task_overhead_s": (busy - task_total) / campaigns,
        "scheduler.utilization": ratio(busy, workers * window_s),
        "scheduler.tasks": count("scheduler.tasks"),
        "sharding.frontend_s": incl("sharding.frontend"),
        "cache.get_s": incl("cache.get"),
        "cache.put_s": incl("cache.put"),
        "cache.hit_ratio": ratio(counters.get("cache.hits", 0),
                                 counters.get("cache.lookups", 0)),
        "broker.submit_s": incl("broker.submit"),
        "broker.source_wait_s": incl("broker.source_wait"),
        "journal.append_s": incl("journal.append"),
        "journal.appends": calls("journal.append"),
        "report.build_s": incl("report.build"),
        "trace.unaccounted_share": ratio(
            layers.get("api.task", [0, 0.0, 0.0])[2], task_total),
    }


def layer_table(dump: dict, campaigns: int):
    """Printable rows: every traced layer's calls, inclusive and self
    seconds per campaign, costliest self time first."""
    layers, _ = totals(dump)
    rows = sorted(layers.items(), key=lambda item: -item[1][2])
    return [f"  {name:<22} calls {calls / campaigns:>10.0f}  "
            f"incl {incl / campaigns:>9.3f} s  self {own / campaigns:>9.3f} s"
            for name, (calls, incl, own) in rows]
