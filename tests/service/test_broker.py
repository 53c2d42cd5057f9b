"""Broker tests: concurrent campaigns multiplexed onto ONE shared fabric.

The acceptance contract of the service tentpole, asserted broker-level
(the HTTP layer adds nothing verdict-relevant):

* concurrent campaigns' verdicts are bit-identical to serial one-shot
  ``run_property_campaign`` runs of the same jobs;
* a design needed by several concurrent campaigns compiles at most once
  (the shared process-global compile cache);
* each campaign's event feed is isolated — no cross-campaign leakage;
* every completed campaign yields a digest-validated ExecutionRecord;
* quota rejections happen before any allocation and consume zero fabric
  slots; a tenant over wall budget has its open campaigns cancelled;
* the broker never polls: a cache-served campaign settles as soon as its
  replays are in, and no submission's wake-up is lost.
"""

import statistics
import sys
import threading
import time

import pytest

from repro.campaign import (ArtifactCache, expand_jobs,
                            run_property_campaign, verdict_contract)
from repro.formal.engine import EngineConfig
from repro.service import (CampaignBroker, CampaignSpec, QuotaError,
                           TenantQuota, TenantRegistry)

_CONFIG = EngineConfig(max_bound=8, max_frames=30)
_VARIANTS = ["fixed", "buggy"]


def _spec(tenant, cases, **overrides):
    return CampaignSpec(tenant=tenant, case_ids=cases,
                        variants=list(_VARIANTS), depth=8, frames=30,
                        **overrides)


def _settle(broker, campaigns, timeout_s=180.0):
    deadline = time.monotonic() + timeout_s
    while any(not campaign.settled for campaign in campaigns):
        assert broker.running, f"broker died: {broker._fatal}"
        assert time.monotonic() < deadline, "campaigns never settled"
        time.sleep(0.02)


class TestConcurrentCampaigns:
    def test_three_campaigns_one_fabric_match_serial_runs(self):
        """Three overlapping campaigns from two tenants — two wanting
        the same design — on one 2-worker pool."""
        from repro.api.compile import COMPILE_CACHE

        before = COMPILE_CACHE.stats()
        broker = CampaignBroker(workers=2).start()
        try:
            alice_a1 = broker.submit(_spec("alice", ["A1"]))
            bob_a1 = broker.submit(_spec("bob", ["A1"]))
            alice_a2 = broker.submit(_spec("alice", ["A2"]))
            campaigns = [alice_a1, bob_a1, alice_a2]
            _settle(broker, campaigns)
        finally:
            broker.close()
        after = COMPILE_CACHE.stats()

        assert [c.status for c in campaigns] == ["completed"] * 3

        # Verdict equivalence: each service campaign is bit-identical
        # (under the verdict contract) to a one-shot serial run.
        for campaign, case_id in ((alice_a1, "A1"), (bob_a1, "A1"),
                                  (alice_a2, "A2")):
            serial = run_property_campaign(
                expand_jobs(case_ids=[case_id], config=_CONFIG), workers=2)
            assert verdict_contract(campaign.results) == \
                verdict_contract(serial), f"{campaign.id} diverged"

        # One compile per design ACROSS campaigns: the three campaigns
        # expanded 2*|A1| + |A2| designs, but the process-global compile
        # cache ran the frontend at most once per distinct design — the
        # duplicate A1 expansions were cache hits.
        distinct = len(alice_a1.jobs) + len(alice_a2.jobs)
        assert after["compiles"] - before["compiles"] <= distinct
        assert after["hits"] - before["hits"] >= len(bob_a1.jobs)

        # Event isolation: a campaign's feed never names another
        # campaign's designs, and its result set is complete.
        a1_designs = {event.get("design") for event in alice_a1.feed}
        a2_designs = {event.get("design")
                      for event in alice_a2.feed if event.get("design")}
        assert not (a1_designs & a2_designs)
        assert len(alice_a1.events) == len(bob_a1.events)
        assert {e.task_id for e in alice_a1.events} == \
            {e.task_id for e in bob_a1.events}

        # Every completed campaign carries a validated ExecutionRecord
        # stamped with its identity (validate_record already ran in the
        # broker; a None here would mean it failed).
        for campaign in campaigns:
            assert campaign.record_dict is not None
            assert campaign.record_dict["config"]["campaign"] == campaign.id
            assert campaign.record_dict["config"]["tenant"] == \
                campaign.tenant
            assert campaign.report_dict["campaign"] == campaign.id
            assert "phases" in campaign.report_dict
            assert "wall_spent_s" in campaign.report_dict["tenant_usage"]

    def test_cancellation_settles_without_report(self):
        broker = CampaignBroker(workers=2).start()
        try:
            campaign = broker.submit(_spec("alice", ["A1"]))
            broker.cancel(campaign.id, reason="client hung up")
            _settle(broker, [campaign])
        finally:
            broker.close()
        assert campaign.status == "cancelled"
        assert campaign.cancel_reason == "client hung up"
        assert campaign.report_dict is None
        terminal = campaign.feed[-1]
        assert terminal["kind"] == "campaign_done"
        assert terminal["status"] == "cancelled"


class TestQuotaEnforcement:
    def test_over_quota_rejection_consumes_nothing(self):
        registry = TenantRegistry(
            overrides={"carol": TenantQuota(max_open_campaigns=1)})
        broker = CampaignBroker(workers=2, tenants=registry).start()
        try:
            first = broker.submit(_spec("carol", ["A1"]))
            with pytest.raises(QuotaError) as info:
                broker.submit(_spec("carol", ["A2"]))
            assert info.value.code == "too_many_campaigns"
            assert info.value.http_status == 429
            # The rejection allocated nothing: one campaign exists, the
            # rejected one was counted, and the fabric only ever saw the
            # admitted campaign's tasks.
            assert len(broker.list_campaigns()) == 1
            assert registry.usage("carol").campaigns_rejected == 1
            _settle(broker, [first])
            assert first.status == "completed"
            assert registry.usage("carol").tasks_total == \
                len(first.events)
        finally:
            broker.close()

    def test_wall_budget_exhaustion_cancels_and_blocks(self):
        registry = TenantRegistry(
            overrides={"dave": TenantQuota(wall_budget_s=1e-6)})
        broker = CampaignBroker(workers=2, tenants=registry).start()
        try:
            campaign = broker.submit(_spec("dave", ["A1"]))
            _settle(broker, [campaign])
            assert campaign.status == "cancelled"
            assert campaign.cancel_reason == "wall budget exhausted"
            # Follow-up submissions are refused at admission.
            with pytest.raises(QuotaError) as info:
                broker.submit(_spec("dave", ["A1"]))
            assert info.value.code == "wall_budget_exhausted"
            assert info.value.http_status == 403
        finally:
            broker.close()

    def test_closed_broker_refuses_admission(self):
        broker = CampaignBroker(workers=1).start()
        broker.close()
        with pytest.raises(QuotaError) as info:
            broker.submit(_spec("alice", ["A1"]))
        assert info.value.code == "service_shutting_down"
        assert info.value.http_status == 503


class TestWakeups:
    """Submissions wake the broker thread; nothing waits on a timer."""

    def test_cache_served_resubmission_settles_at_once(self, tmp_path):
        broker = CampaignBroker(
            workers=2, cache=ArtifactCache(tmp_path / "cache")).start()
        try:
            first = broker.submit(_spec("alice", ["A2"]))
            _settle(broker, [first])
            assert first.status == "completed"
            walls = []
            for _ in range(5):
                again = broker.submit(_spec("alice", ["A2"]))
                _settle(broker, [again], timeout_s=30.0)
                assert again.status == "completed"
                assert verdict_contract(again.results) == \
                    verdict_contract(first.results)
                walls.append(again.wall_time_s)
        finally:
            broker.close()
        # Admission to settle, as the broker measures it: the replays,
        # merge, report and record, with no poll period in between.
        assert statistics.median(walls) < 0.05, walls

    def test_capped_tenant_replays_without_waiting(self, tmp_path,
                                                   monkeypatch):
        """A tenant capped at one task in flight gets its next task only
        once the previous one settles.  A replay settles inside the
        broker thread, so no wake comes: the scheduler must probe the
        source again after handing over the events, not wait 30 s."""
        from repro.campaign import scheduler as scheduler_mod

        monkeypatch.setattr(scheduler_mod, "_IDLE_WAIT_S", 30.0)
        registry = TenantRegistry(
            overrides={"erin": TenantQuota(max_in_flight=1)})
        broker = CampaignBroker(
            workers=2, cache=ArtifactCache(tmp_path / "cache"),
            tenants=registry).start()
        try:
            first = broker.submit(_spec("erin", ["A2"]))
            _settle(broker, [first])
            again = broker.submit(_spec("erin", ["A2"]))
            _settle(broker, [again], timeout_s=10.0)
        finally:
            broker.close()
        assert again.status == "completed"
        assert len(again.events) > 1
        assert all(event.from_cache for event in again.events)
        assert again.wall_time_s < 5.0, again.wall_time_s

    def test_concurrent_submissions_lose_no_wakeup(self, tmp_path,
                                                    monkeypatch):
        """More threads than cores submit cache-served and fresh
        campaigns at once, with a short thread switch interval.  The idle
        wait is 30 s, so a lost wake-up would strand a campaign."""
        from repro.campaign import scheduler as scheduler_mod

        monkeypatch.setattr(scheduler_mod, "_IDLE_WAIT_S", 30.0)
        broker = CampaignBroker(
            workers=2, cache=ArtifactCache(tmp_path / "cache")).start()
        interval = sys.getswitchinterval()
        try:
            warm = broker.submit(_spec("alice", ["A2"]))
            _settle(broker, [warm])
            for depth in (5, 6):
                # Two replays of the warm campaign, two fresh checks.
                specs = [_spec("alice", ["A2"]), _spec("bob", ["A2"]),
                         CampaignSpec(tenant="carol", case_ids=["A2"],
                                      variants=["fixed"], depth=depth),
                         CampaignSpec(tenant="dave", case_ids=["E10"],
                                      variants=list(_VARIANTS),
                                      depth=depth)]
                barrier = threading.Barrier(len(specs))
                submitted = []

                def submit(spec):
                    barrier.wait(timeout=10.0)
                    submitted.append(broker.submit(spec))

                threads = [threading.Thread(target=submit, args=(spec,))
                           for spec in specs]
                sys.setswitchinterval(1e-5)
                begin = time.monotonic()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                    assert not thread.is_alive()
                sys.setswitchinterval(interval)
                assert len(submitted) == len(specs)
                _settle(broker, submitted, timeout_s=10.0)
                assert time.monotonic() - begin < 10.0
                assert [c.status for c in submitted] == \
                    ["completed"] * len(specs)
        finally:
            sys.setswitchinterval(interval)
            broker.close()
