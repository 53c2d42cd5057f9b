"""Paths, child processes, statistics and the verdict oracle.

Shared by the workload modules.  Imports nothing from ``repro`` at
module level: ``run.py`` must be able to refuse a tree without sources
before touching them.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run-time state (server state dirs, traces), inside the checkout.
WORK = ROOT / ".perfbench"
#: Local fork workers for every workload: the host has two cores.
WORKERS = 2


def child_env() -> dict:
    """Environment for every process under test.

    A fixed hash seed keeps set iteration, and so the solver's exact
    counters, identical from run to run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildResult:
    def __init__(self, returncode, stdout, cpu_s, spawned):
        self.returncode = returncode
        self.stdout = stdout
        self.cpu_s = cpu_s
        self.spawned = spawned

    def document(self):
        """The child's last stdout line as JSON, or None."""
        lines = self.stdout.strip().splitlines()
        if self.returncode != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            return None


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_child(args, timeout_s: float) -> ChildResult:
    """Run a Python script from this directory to completion.

    CPU seconds are this process's reaped-children usage before and
    after, so they cover the child and every worker it forked and
    reaped.  On timeout the child's whole session is killed.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable] + [str(a) for a in args],
                            cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        kill_session(proc)
        out, _ = proc.communicate()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ChildResult(proc.returncode, out, _cpu(after) - _cpu(before),
                       spawned)


def kill_session(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def peak_rss_mb() -> float:
    """Largest resident set of any process this one has reaped."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def tail_note(values, what: str) -> str:
    """The highest percentile with at least ten samples beyond it, with
    its sample count, as text.

    Printed, not reported as a bounded metric: a service run affords 32
    submissions, where that percentile is p68.8, no tail.
    """
    ordered = sorted(values)
    index = len(ordered) - 11
    if index < 0:
        return f"n/a [{len(ordered)} {what}, ten or fewer]"
    return (f"p{100.0 * (index + 1) / len(ordered):.1f} "
            f"{ordered[index]:.4f} s [of {len(ordered)} {what}]")


def deadline_left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


# -- the verdict oracle ----------------------------------------------------

_EXPECTED = HERE / "expected" / "verdicts.json"


def load_expected() -> dict:
    with _EXPECTED.open() as handle:
        return json.load(handle)


def frozen_form(status: str, depth: int):
    """A verdict as the frozen list holds it: the status, plus the depth
    for ``cex``/``covered``."""
    return [status, depth] if status in ("cex", "covered") else status


def verdict_failures(expected: dict, job_id: str, status: str,
                     properties):
    """Names of the properties of one design × variant that fail.

    Checked two ways: against the frozen per-property list (status, plus
    depth for ``cex``/``covered``) and against the hand-written Table III
    expectations in ``repro.designs.CORPUS``.  ``properties`` holds
    ``[name, kind, status, depth]`` rows; a job that errored or timed
    out fails every property.
    """
    from repro.designs import case_by_id

    frozen = expected[job_id]
    if status != "ok":
        return sorted(frozen)
    got = {name: frozen_form(verdict, depth)
           for name, _, verdict, depth in properties}
    failed = {name for name in set(got) | set(frozen)
              if got.get(name) != frozen.get(name)}
    case_id, variant = job_id.split(".")
    case = case_by_id(case_id)
    cex = [name for name, _, verdict, _ in properties if verdict == "cex"]
    if variant == "buggy":
        meets = any(case.expect_buggy_cex in name for name in cex)
    elif not case.expect_fixed_proof:
        meets = bool(cex)
    else:
        meets = not cex and all(
            verdict == "proven" for _, kind, verdict, _ in properties
            if kind in ("assert", "live"))
    if not meets:
        failed.update(got)
    return sorted(failed)
