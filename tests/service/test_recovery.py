"""Restart recovery: a rebooted broker converges on the same verdicts.

The durability contract of ``--state-dir``:

* a settled campaign survives restart queryable — same status, same
  report, same digest-validated record — without re-running anything;
* an open campaign (journal cut mid-flight, exactly what a ``kill -9``
  leaves) is re-admitted: journaled verdicts replay, only unfinished
  tasks hit the fabric again, and the merged verdicts are identical to
  the uninterrupted run;
* retention GC bounds the settled-campaign map, is journaled, and an
  evicted campaign stays gone across restart.

The full out-of-process kill -9 rehearsal (server *and* workers) lives
in ``benchmarks/chaos_smoke.py``; these tests pin the broker-level
mechanics deterministically.
"""

import json
import time

from repro.campaign.cache import ArtifactCache
from repro.campaign.report import verdict_contract
from repro.service.broker import CampaignBroker, CampaignSpec
from repro.service.journal import CampaignJournal

_SPEC = {"tenant": "t1", "cases": ["E10"], "variants": ["fixed", "buggy"],
         "depth": 4, "frames": 10}


def _settle(broker, campaign, timeout_s=180.0):
    deadline = time.monotonic() + timeout_s
    while not campaign.settled:
        assert broker.running, f"broker died: {broker._fatal}"
        assert time.monotonic() < deadline, "campaign never settled"
        time.sleep(0.02)


def _verdicts(campaign):
    return json.dumps(verdict_contract(campaign.results), sort_keys=True)


def _run_one(tmp_path, state="state"):
    cache = ArtifactCache(tmp_path / "cache")
    journal = CampaignJournal(tmp_path / state, fsync=False)
    broker = CampaignBroker(workers=2, cache=cache,
                            journal=journal).start()
    try:
        campaign = broker.submit(CampaignSpec.from_json(dict(_SPEC)))
        _settle(broker, campaign)
    finally:
        broker.close()
    return cache, campaign


class TestSettledRestore:
    def test_settled_campaign_survives_restart(self, tmp_path):
        cache, campaign = _run_one(tmp_path)
        assert campaign.status == "completed"

        broker = CampaignBroker(
            workers=2, cache=cache,
            journal=CampaignJournal(tmp_path / "state",
                                    fsync=False)).start()
        try:
            restored = broker.get(campaign.id)
            assert restored.settled
            assert restored.status == "completed"
            assert restored.report_dict == campaign.report_dict
            assert restored.record_dict == campaign.record_dict
            # The feed replays to its terminal frame for late SSE clients.
            assert restored.feed[-1]["kind"] == "campaign_done"
            # And it is terminal: nothing re-runs.
            assert restored.stream_done and restored.outstanding == 0
        finally:
            broker.close()


class TestOpenCampaignResume:
    def test_truncated_journal_converges_to_same_verdicts(self, tmp_path):
        """Cut the journal after the first verdict — the shape a kill -9
        mid-campaign leaves — and restart against the same cache."""
        cache, campaign = _run_one(tmp_path)
        truth = _verdicts(campaign)

        lines = (tmp_path / "state" / "journal.jsonl") \
            .read_text().splitlines()
        kept = [line for line in lines
                if json.loads(line)["kind"] in ("admitted", "event")][:2]
        crash_dir = tmp_path / "crashed"
        crash_dir.mkdir()
        # One whole verdict survives, plus a torn half-record tail.
        (crash_dir / "journal.jsonl").write_text(
            "\n".join(kept) + "\n" + '{"kind": "event", "campa')

        broker = CampaignBroker(
            workers=2, cache=cache,
            journal=CampaignJournal(crash_dir, fsync=False)).start()
        try:
            resumed = broker.get(campaign.id)
            assert len(resumed.events) >= 1  # the journaled verdict
            _settle(broker, resumed)
            assert resumed.status == "completed"
            # No task lost, none double-reported.
            ids = [e.task_id for e in resumed.events if e.is_result]
            assert sorted(ids) \
                == sorted(e.task_id for e in campaign.events if e.is_result)
            assert len(ids) == len(set(ids))
            assert _verdicts(resumed) == truth
        finally:
            broker.close()


class TestRetention:
    def test_settled_campaigns_evicted_beyond_cap(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        journal = CampaignJournal(tmp_path / "state", fsync=False)
        broker = CampaignBroker(workers=2, cache=cache, journal=journal,
                                retain_settled=1).start()
        try:
            first = broker.submit(CampaignSpec.from_json(dict(_SPEC)))
            _settle(broker, first)
            spec = dict(_SPEC, variants=["fixed"])
            second = broker.submit(CampaignSpec.from_json(spec))
            _settle(broker, second)
            # Submitting anything after two settles prunes the oldest.
            third = broker.submit(CampaignSpec.from_json(spec))
            assert first.id not in broker._campaigns
            assert second.id in broker._campaigns
            _settle(broker, third)
            status = broker.status()
            assert status["retention"]["retain_settled"] == 1
            assert status["retention"]["evicted"] >= 1
        finally:
            broker.close()

        # The evicted campaign stays gone across restart; survivors stay.
        broker = CampaignBroker(
            workers=2, cache=cache, retain_settled=None,
            journal=CampaignJournal(tmp_path / "state",
                                    fsync=False)).start()
        try:
            assert first.id not in broker._campaigns
            assert broker.get(third.id).settled
        finally:
            broker.close()

    def test_default_retention_is_bounded(self):
        broker = CampaignBroker(workers=1)
        assert broker.retain_settled is not None
