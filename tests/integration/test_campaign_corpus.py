"""Corpus-wide verdict equivalence of every way a campaign can run.

The acceptance contract of the streaming pipeline and the distributed
fabric (CI-gated; ``make pipeline-smoke`` and ``make dist-smoke`` are the
fast per-push variants): on the full Table III corpus, every schedule,
worker count, group size and transport produces **bit-identical
statuses, errors and payloads** (``verdict_contract``) to one local
2-worker ``--schedule cost`` run.  Only wall time and task grouping may
change.

Runs at the standard corpus config (bound 8 / 30 frames), like the
sweep-equivalence suite: smaller bounds are a trap, not a speedup (a CEX
pushed beyond the hunt bound costs a full proof-engine run instead).
"""

import pytest

from repro.campaign import (expand_jobs, run_property_campaign,
                            verdict_contract)
from repro.dist import TcpTransport
from repro.formal import EngineConfig

CONFIG = EngineConfig(max_bound=8, max_frames=30)


@pytest.fixture(scope="module")
def jobs():
    jobs = expand_jobs(config=CONFIG)  # whole registry, fixed + buggy
    assert len(jobs) >= 12
    return jobs


@pytest.fixture(scope="module")
def baseline(jobs):
    return verdict_contract(
        run_property_campaign(jobs, workers=2, schedule="cost"))


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
