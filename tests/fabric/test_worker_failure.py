"""Worker-failure semantics: kill -9 an agent mid-group, converge anyway.

Two layers of assurance:

* a deterministic synthetic campaign (sleep units, pinned dispatch) that
  pins the exact requeue contract — the dead worker's in-flight group is
  requeued exactly once, excluded from the dead worker, and finishes on
  a survivor;
* a real property campaign where an agent is SIGKILLed mid-run and the
  final merged results must still be bit-identical to an uninterrupted
  local run.
"""

import os
import signal
import time

import slowunit  # registers the sleep-task codec in this process
from repro.campaign import (expand_jobs, run_property_campaign,
                            verdict_contract)
from repro.campaign.scheduler import Scheduler
from repro.dist import TcpTransport
from repro.formal.engine import EngineConfig


def _spawn_preloaded(transport, count, monkeypatch):
    """Spawn agents that also know the sleep-task unit."""
    here = os.path.dirname(os.path.abspath(__file__))
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv("PYTHONPATH",
                       here + os.pathsep + existing if existing else here)
    for _ in range(count):
        transport.spawn_local(1, preload=["slowunit"])


class TestSyntheticKill:
    def test_group_requeued_exactly_once_excluded_and_finished(
            self, monkeypatch):
        transport = TcpTransport(min_workers=2, worker_timeout_s=60.0,
                                 heartbeat_s=0.5)
        # Pin connection order so dispatch is predictable: worker 0
        # first, then worker 1.
        _spawn_preloaded(transport, 1, monkeypatch)
        transport.wait_for_workers(1, timeout_s=30.0)
        _spawn_preloaded(transport, 1, monkeypatch)
        transport.wait_for_workers(2, timeout_s=30.0)

        # Dispatch (1 slot + 1 prefetch each, cost 1 apiece, ties by
        # connection order): "a"->w0, "b"->w1, "c"->w0, "d"->w1.  "a" is
        # long; everything else is quick, so by the first quick
        # completion "a" is still running on w0.
        jobs = [slowunit.SleepTask("a", 8.0, "A"),
                slowunit.SleepTask("b", 0.2, "B"),
                slowunit.SleepTask("c", 0.2, "C"),
                slowunit.SleepTask("d", 0.2, "D")]
        scheduler = Scheduler(jobs, runner=slowunit.run_sleep,
                              transport=transport)
        results = {}
        requeue_events = []
        killed = None
        for event in scheduler.run():
            if event[0] == "requeue":
                requeue_events.append(event)
            if event[0] != "done":
                continue
            _, _, job, result = event
            results[job.job_id] = result
            if killed is None:
                # First completion: find the agent grinding "a", SIGKILL
                # it mid-task.
                owner = next(
                    (worker for worker in transport._workers
                     if any(j.job_id == "a"
                            for j in worker.assigned.values())),
                    None)
                assert owner is not None, "'a' finished implausibly fast"
                killed = owner.worker_id
                pid = int(killed.rsplit(":", 1)[1])
                os.kill(pid, signal.SIGKILL)

        # Every job converged, including the dead worker's group.
        assert set(results) == {"a", "b", "c", "d"}
        assert all(result.ok for result in results.values())
        assert results["a"].payload["value"] == "A"
        # The group was requeued exactly once...
        assert scheduler.requeue_counts.get("a") == 1
        # ...excluded from (and therefore finished off) the dead worker.
        assert results["a"].worker != killed
        assert any(event[2] == killed for event in requeue_events)
        # The fabric records the departure.
        departed = [entry for entry in transport.worker_stats()
                    if entry["worker"] == killed]
        assert departed and departed[0]["departed"] not in (None,
                                                            "shutdown")

    def test_sigkill_of_idle_agent_leaves_pool_healthy(
            self, monkeypatch):
        """Killing an agent that never ran a task must not wedge the
        pool or leak assignments."""
        transport = TcpTransport(min_workers=1, worker_timeout_s=60.0)
        try:
            _spawn_preloaded(transport, 1, monkeypatch)
            transport.wait_for_workers(1, timeout_s=30.0)
            worker = transport._ready_workers()[0]
            os.kill(int(worker.worker_id.rsplit(":", 1)[1]),
                    signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while transport._ready_workers() and \
                    time.monotonic() < deadline:
                transport.step()
            assert not transport._ready_workers()
            assert transport.in_flight() == 0
        finally:
            transport.close()


class TestRealCampaignKill:
    def test_verdicts_identical_after_agent_death(self, monkeypatch):
        """SIGKILL one of two agents mid-campaign; the merged report must
        equal an uninterrupted local run bit for bit."""
        config = EngineConfig(max_bound=8, max_frames=30)
        jobs = expand_jobs(case_ids=["A1"], config=config)
        local = run_property_campaign(jobs, workers=2)

        transport = TcpTransport(min_workers=2, worker_timeout_s=60.0,
                                 heartbeat_s=0.5)
        transport.spawn_local(2)
        victim = transport._spawned[0]
        state = {"killed": False}

        def on_event(event):
            if not state["killed"] and event.kind == "result":
                state["killed"] = True
                victim.send_signal(signal.SIGKILL)

        remote = run_property_campaign(jobs, transport=transport,
                                       progress=on_event)
        assert state["killed"], "no result event ever fired"

        assert verdict_contract(remote) == verdict_contract(local)


class TestPoisonIsolation:
    def test_unknown_unit_degrades_to_task_error_not_agent_death(self):
        """A unit only the coordinator knows (agent missing the
        --preload plugin) must come back as a per-task error result —
        killing the agent would cascade the poisonous task through the
        fleet."""
        transport = TcpTransport(min_workers=1, worker_timeout_s=60.0)
        transport.spawn_local(1)          # deliberately no preload
        jobs = [slowunit.SleepTask("p1", 0.1, "P"),
                slowunit.SleepTask("p2", 0.1, "Q")]
        scheduler = Scheduler(jobs, runner=slowunit.run_sleep,
                              transport=transport)
        results = {}
        for event in scheduler.run():
            if event[0] == "done":
                results[event[2].job_id] = event[3]
        assert set(results) == {"p1", "p2"}
        for result in results.values():
            assert result.status == "error"
            assert "unknown unit type" in result.error
        # The agent survived to serve both errors and the shutdown.
        stats = transport.worker_stats()
        assert [s["departed"] for s in stats] == ["shutdown"]

    def test_remote_timeout_matches_local_contract(self, monkeypatch):
        """Per-task wall-clock enforcement is agent-side but must
        produce the same status and message shape as the local pool."""
        transport = TcpTransport(min_workers=1, worker_timeout_s=60.0)
        _spawn_preloaded(transport, 1, monkeypatch)
        scheduler = Scheduler([slowunit.SleepTask("slow", 30.0, "S")],
                              runner=slowunit.run_sleep,
                              timeout_s=0.5, transport=transport)
        results = [event[3] for event in scheduler.run()
                   if event[0] == "done"]
        assert [r.status for r in results] == ["timeout"]
        assert "wall-clock limit (0.5s) exceeded" in results[0].error


class TestTransportLifecycle:
    def test_warm_rerun_completes_with_no_workers_at_all(self, tmp_path):
        """Cache replays happen at admission, so a fully-warm rerun must
        finish with zero agents attached — capacity must not gate it."""
        from repro.campaign import ArtifactCache, verdict_contract

        config = EngineConfig(max_bound=8, max_frames=30)
        jobs = expand_jobs(case_ids=["A1"], config=config)
        cache = ArtifactCache(tmp_path / "cache")
        cold = run_property_campaign(jobs, workers=1, cache=cache)

        empty_fleet = TcpTransport(min_workers=4)   # nobody will come
        warm = run_property_campaign(jobs, cache=cache,
                                     transport=empty_fleet)
        assert verdict_contract(warm) == verdict_contract(cold)
        assert all(result.from_cache for result in warm)

    def test_consumed_transport_reuse_is_a_clear_error(self, monkeypatch):
        """Reuse needing real dispatch fails with a clear message, not a
        closed-socket traceback.  (A fully-cached rerun never touches
        the fleet, so it is allowed even on a consumed transport.)"""
        import pytest

        from repro.core.language import AutoSVAError

        transport = TcpTransport(min_workers=1, worker_timeout_s=60.0)
        _spawn_preloaded(transport, 1, monkeypatch)
        first = [event for event in Scheduler(
            [slowunit.SleepTask("t1", 0.1, "A")], runner=slowunit.run_sleep,
            transport=transport).run() if event[0] == "done"]
        assert [e[3].status for e in first] == ["ok"]
        with pytest.raises(AutoSVAError, match="already consumed"):
            for _ in Scheduler([slowunit.SleepTask("t2", 0.1, "B")],
                               runner=slowunit.run_sleep,
                               transport=transport).run():
                pass
