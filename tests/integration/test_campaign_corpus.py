"""Corpus-wide verdicts: the frozen answers, and every way a campaign
can run.

The local 2-worker ``--schedule cost`` baseline must reproduce, property
by property, the frozen answers in ``perfbench/expected/verdicts.json``
(the benchmark's verdict oracle): each status, plus the depth of each
CEX and cover.  Then the acceptance contract of the streaming pipeline
and the distributed fabric (CI-gated; ``make pipeline-smoke`` and ``make
dist-smoke`` are the fast per-push variants): on the full Table III
corpus, every schedule, worker count, group size and transport produces
**bit-identical statuses, errors and payloads** (``verdict_contract``) to
that baseline.  Only wall time and task grouping may change.

Runs at the standard corpus config (bound 8 / 30 frames), the config the
answers were frozen at: smaller bounds are a trap, not a speedup (a CEX
pushed beyond the hunt bound costs a full proof-engine run instead).
"""

import json
from pathlib import Path

import pytest

from repro.campaign import (expand_jobs, run_property_campaign,
                            verdict_contract)
from repro.dist import TcpTransport
from repro.formal import EngineConfig

CONFIG = EngineConfig(max_bound=8, max_frames=30)

#: Every corpus design x variant's frozen answers at CONFIG.
FROZEN_VERDICTS = (Path(__file__).resolve().parents[2] / "perfbench"
                   / "expected" / "verdicts.json")


@pytest.fixture(scope="module")
def jobs():
    jobs = expand_jobs(config=CONFIG)  # whole registry, fixed + buggy
    assert len(jobs) >= 12
    return jobs


@pytest.fixture(scope="module")
def baseline(jobs):
    return verdict_contract(
        run_property_campaign(jobs, workers=2, schedule="cost"))


def _frozen_form(row):
    """A property row as the frozen list holds it: the status, plus the
    depth for ``cex``/``covered`` (as ``perfbench/common.py`` freezes it)."""
    if row["status"] in ("cex", "covered"):
        return [row["status"], row["depth"]]
    return row["status"]


def test_baseline_matches_frozen_verdicts(baseline):
    frozen = json.loads(FROZEN_VERDICTS.read_text())["corpus-prove"]
    ran = {}
    for job_id, status, error, payload in baseline:
        assert status == "ok", f"{job_id}: {status} ({error})"
        ran[job_id] = {row["name"]: _frozen_form(row)
                       for row in payload["properties"]}
    assert sorted(ran) == sorted(frozen)
    mismatches = [f"{job_id} {name}: ran {ran[job_id].get(name)!r}, "
                  f"frozen {answers.get(name)!r}"
                  for job_id, answers in sorted(frozen.items())
                  for name in sorted(set(answers) | set(ran[job_id]))
                  if ran[job_id].get(name) != answers.get(name)]
    assert not mismatches, "\n".join(mismatches)


def _fabric(workers):
    transport = TcpTransport(min_workers=workers, worker_timeout_s=120.0)
    transport.spawn_local(workers)
    return transport


#: name -> (run_property_campaign kwargs, whether it runs on the TCP fabric)
VARIANTS = {
    "local-inventory": ({"workers": 2, "schedule": "inventory"}, False),
    "local-cost-1-worker": ({"workers": 1, "schedule": "cost"}, False),
    "whole-design-groups": ({"workers": 2, "group_size": None}, False),
    "tcp-cost": ({"schedule": "cost"}, True),
    "tcp-inventory": ({"schedule": "inventory"}, True),
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_verdict_identical_on_full_corpus(jobs, baseline, variant):
    kwargs, remote = VARIANTS[variant]
    transport = _fabric(2) if remote else None
    results = run_property_campaign(jobs, transport=transport, **kwargs)
    assert verdict_contract(results) == baseline
    assert [r.job_id for r in results] == [j.job_id for j in jobs]
    if remote:
        # Every property task executed on a remote agent, none locally.
        stats = transport.worker_stats()
        assert sum(entry["tasks"] for entry in stats) > 0
        assert all(entry["departed"] == "shutdown" for entry in stats)
