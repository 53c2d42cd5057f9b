"""Graceful-drain semantics: SIGTERM an agent, see a clean departure.

The counterpart to ``test_worker_failure``: where SIGKILL exercises the
death path (requeue-excluded, ``departed`` records a timeout/EOF
reason), SIGTERM must exercise the *drain* path — the agent hands back
its unstarted backlog in a worker-sent ``shutdown`` frame, finishes the
task it already started, and the coordinator records ``graceful
shutdown`` rather than a false death.
"""

import os
import signal
import time

import slowunit  # registers the sleep-task codec in this process
from repro.campaign.scheduler import Scheduler
from repro.dist import TcpTransport


def _spawn_preloaded(transport, count, monkeypatch):
    """Spawn agents that also know the sleep-task unit."""
    here = os.path.dirname(os.path.abspath(__file__))
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv("PYTHONPATH",
                       here + os.pathsep + existing if existing else here)
    for _ in range(count):
        transport.spawn_local(1, preload=["slowunit"])


class TestGracefulDrain:
    def test_sigterm_drains_backlog_and_finishes_started_task(
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
        # connection order): "a"->w0, "b"->w1, "c"->w0, "d"->w1.  "a"
        # occupies w0's slot; "c" sits unstarted in its prefetch queue —
        # the drain must give "c" back while "a" runs to completion on
        # the draining agent.  "e" and "f" keep the scheduler's own
        # queue non-empty at SIGTERM time so tail steal reclaim (which
        # only fires on an empty queue) cannot pull "c" back first, and
        # "g" keeps the survivor busy past the drained agent's EOF so
        # the coordinator observes the departure mid-campaign.
        jobs = [slowunit.SleepTask("a", 3.0, "A"),
                slowunit.SleepTask("b", 0.2, "B"),
                slowunit.SleepTask("c", 0.2, "C"),
                slowunit.SleepTask("d", 0.2, "D"),
                slowunit.SleepTask("e", 0.4, "E"),
                slowunit.SleepTask("f", 0.4, "F"),
                slowunit.SleepTask("g", 3.0, "G")]
        scheduler = Scheduler(jobs, runner=slowunit.run_sleep,
                              transport=transport)
        results = {}
        requeue_events = []
        drained = None
        for event in scheduler.run():
            if event[0] == "requeue":
                requeue_events.append(event)
            if event[0] != "done":
                continue
            _, _, job, result = event
            results[job.job_id] = result
            if drained is None:
                # First completion: find the agent grinding "a" and ask
                # it — politely, via SIGTERM — to drain.
                owner = next(
                    (worker for worker in transport._workers
                     if any(j.job_id == "a"
                            for j in worker.assigned.values())),
                    None)
                assert owner is not None, "'a' finished implausibly fast"
                drained = owner.worker_id
                os.kill(int(drained.rsplit(":", 1)[1]), signal.SIGTERM)

        # Every job converged.
        assert set(results) == {"a", "b", "c", "d", "e", "f", "g"}
        assert all(result.ok for result in results.values())
        # The started task finished ON the draining agent — drain never
        # abandons running work.
        assert results["a"].worker == drained
        # The unstarted backlog was handed back *silently* (like a steal
        # grant, not a death): no death-requeue was counted or evented
        # anywhere, and "c" finished on the survivor.
        assert scheduler.requeue_counts == {}
        assert requeue_events == []
        assert results["c"].worker != drained
        # The coordinator saw a clean departure, not a false death.
        departed = [entry for entry in transport.worker_stats()
                    if entry["worker"] == drained]
        assert departed
        assert departed[0]["departed"] == "graceful shutdown"

    def test_sigterm_of_idle_agent_departs_cleanly(self, monkeypatch):
        """An idle agent's drain is immediate: announce, EOF, clean
        departure — no requeues, no liveness kill."""
        transport = TcpTransport(min_workers=1, worker_timeout_s=60.0)
        try:
            _spawn_preloaded(transport, 1, monkeypatch)
            transport.wait_for_workers(1, timeout_s=30.0)
            worker = transport._ready_workers()[0]
            worker_id = worker.worker_id
            os.kill(int(worker_id.rsplit(":", 1)[1]), signal.SIGTERM)
            deadline = time.monotonic() + 10.0
            while transport._ready_workers() and \
                    time.monotonic() < deadline:
                transport.step()
            assert not transport._ready_workers()
            assert transport.in_flight() == 0
            departed = [entry for entry in transport.worker_stats()
                        if entry["worker"] == worker_id]
            assert departed
            assert departed[0]["departed"] == "graceful shutdown"
        finally:
            transport.close()
