"""Loopback-TCP fabric tests: verdict equivalence, cache, membership.

The contract under test is the acceptance bar of the distributed
subsystem: a campaign run over TCP worker agents produces results
bit-identical to the local multiprocessing transport — per job id,
status, error and payload (wall times excluded: they are measurements,
not verdicts) — across worker counts and schedules.  The full-corpus
version of this gate lives in
``tests/integration/test_campaign_corpus.py`` and ``make dist-smoke``.
"""

import socket
import time

import pytest

from repro.campaign import (expand_jobs, run_property_campaign,
                            verdict_contract)
from repro.dist import TcpTransport
from repro.dist.protocol import FrameDecoder, encode_frame
from repro.formal.engine import EngineConfig

CONFIG = EngineConfig(max_bound=8, max_frames=30)


def _tcp_transport(workers, **kwargs):
    transport = TcpTransport(min_workers=workers, worker_timeout_s=60.0,
                             **kwargs)
    transport.spawn_local(workers)
    return transport


@pytest.fixture(scope="module")
def a1_jobs():
    return expand_jobs(case_ids=["A1"], config=CONFIG)


@pytest.fixture(scope="module")
def a1_local_baseline(a1_jobs):
    return verdict_contract(run_property_campaign(a1_jobs, workers=2))


class TestLoopbackEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_cost_schedule_matches_local(self, a1_jobs,
                                         a1_local_baseline, workers):
        transport = _tcp_transport(workers)
        results = run_property_campaign(a1_jobs, transport=transport)
        assert verdict_contract(results) == a1_local_baseline
        stats = transport.worker_stats()
        assert len([s for s in stats if s["slots"]]) == workers
        assert sum(s["tasks"] for s in stats) > 0

    def test_inventory_schedule_matches_local(self, a1_jobs,
                                              a1_local_baseline):
        transport = _tcp_transport(2)
        results = run_property_campaign(a1_jobs, schedule="inventory",
                                        transport=transport)
        assert verdict_contract(results) == a1_local_baseline

    def test_design_granularity_matches_local(self, a1_jobs,
                                              a1_local_baseline):
        """Whole-design groups: each design ships as one task."""
        transport = _tcp_transport(2)
        results = run_property_campaign(a1_jobs, group_size=None,
                                        schedule="inventory",
                                        transport=transport)
        assert verdict_contract(results) == a1_local_baseline
        stats = transport.worker_stats()
        assert sum(s["tasks"] for s in stats) == len(a1_jobs)
        # Every job ran as one task and names the remote agent that ran it.
        assert all(r.worker and ":" in r.worker for r in results)

    def test_result_events_carry_remote_worker_ids(self, a1_jobs):
        from repro.api.session import VerificationSession
        from repro.campaign.sharding import stream_tasks

        transport = _tcp_transport(2)
        session = VerificationSession(stream_tasks(a1_jobs),
                                      precompile=False,
                                      transport=transport)
        session.run_all()
        workers = {event.worker for event in session.results}
        assert workers  # at least one result
        assert all(worker and ":" in worker for worker in workers)


class TestRemoteCaching:
    def test_warm_rerun_ships_zero_jobs(self, a1_jobs, a1_local_baseline,
                                        tmp_path):
        """Cache hits resolve at admission, coordinator-side: a fully
        warm rerun never sends a single task over the wire."""
        from repro.campaign import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        cold = run_property_campaign(a1_jobs, workers=1, cache=cache)
        assert verdict_contract(cold) == a1_local_baseline

        transport = _tcp_transport(2)
        warm = run_property_campaign(a1_jobs, cache=cache,
                                     transport=transport)
        assert verdict_contract(warm) == a1_local_baseline
        assert all(result.from_cache for result in warm)
        assert sum(s["tasks"] for s in transport.worker_stats()) == 0


class TestPoolMembership:
    def test_wait_for_workers_and_capacity(self):
        transport = TcpTransport(min_workers=2)
        try:
            assert transport.free_slots() == 0
            transport.spawn_local(1, slots=2)
            # One agent is not enough for min_workers=2.
            transport.wait_for_workers(1, timeout_s=30.0)
            assert transport.free_slots() == 0
            transport.spawn_local(1, slots=1)
            transport.wait_for_workers(2, timeout_s=30.0)
            # 2 + 1 slots, +1 prefetch each.
            assert transport.free_slots() == 5
        finally:
            transport.close()

    def test_version_mismatch_is_refused(self):
        transport = TcpTransport(min_workers=1)
        try:
            client = socket.create_connection(transport.address,
                                              timeout=5.0)
            client.sendall(encode_frame(
                {"type": "hello", "version": 99, "slots": 1,
                 "host": "x", "pid": 1}))
            decoder = FrameDecoder()
            reply = None
            deadline = time.monotonic() + 10.0
            while reply is None and time.monotonic() < deadline:
                transport.step()
                client.settimeout(0.2)
                try:
                    data = client.recv(65536)
                except socket.timeout:
                    continue
                if not data:
                    break
                messages = decoder.feed(data)
                if messages:
                    reply = messages[0]
            assert reply is not None, "coordinator never answered"
            assert reply["type"] == "shutdown"
            assert "version mismatch" in reply["reason"]
            assert transport.free_slots() == 0   # never joined the pool
            client.close()
        finally:
            transport.close()

    def test_starvation_timeout_raises(self):
        from repro.core.language import AutoSVAError

        transport = TcpTransport(min_workers=1, worker_timeout_s=0.0)
        try:
            time.sleep(0.01)
            with pytest.raises(AutoSVAError, match="no worker connected"):
                transport.step()
        finally:
            transport.close()


class TestCliTcp:
    def test_campaign_cli_over_tcp_with_spawned_agents(self, tmp_path,
                                                       capsys):
        from repro.core.cli import main as cli_main

        json_out = tmp_path / "dist.json"
        rc = cli_main(["campaign", "--cases", "A1", "--transport", "tcp",
                       "--spawn-workers", "2", "--group-size", "1",
                       "--json", str(json_out)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Coordinator listening on 127.0.0.1:" in out
        assert "Worker fabric:" in out
        assert "transport tcp" in out

        import json
        data = json.loads(json_out.read_text())
        assert data["totals"]["transport"] == "tcp"
        agents = [w for w in data["workers"] if w["slots"]]
        assert len(agents) == 2
        assert sum(w["tasks"] for w in agents) > 0
        assert data["totals"]["workers"] == 2


class TestHeartbeatLiveness:
    def test_silent_worker_is_declared_dead_and_requeued(self):
        """A worker whose socket stays open but stops answering (hung
        host, network partition) is killed by heartbeat timeout and its
        in-flight task is requeued with the dead id excluded."""
        import slowunit

        transport = TcpTransport(min_workers=1, heartbeat_s=0.2,
                                 liveness_timeout_s=1.0)
        try:
            client = socket.create_connection(transport.address,
                                              timeout=5.0)
            client.sendall(encode_frame(
                {"type": "hello", "version": 1, "slots": 1,
                 "host": "zombie", "pid": 4242}))
            deadline = time.monotonic() + 10.0
            while not transport._ready_workers() and \
                    time.monotonic() < deadline:
                transport.step()
            assert transport._ready_workers()

            job = slowunit.SleepTask("z1", 0.1, "Z")
            assert transport.dispatch(0, job)
            assert transport.in_flight() == 1

            # The client never echoes a heartbeat: within the liveness
            # window the coordinator must requeue, excluding zombie:4242.
            requeued = []
            deadline = time.monotonic() + 10.0
            while not requeued and time.monotonic() < deadline:
                _, gone = transport.step()
                requeued.extend(gone)
            assert requeued == [(0, job, "zombie:4242")]
            assert not transport._ready_workers()
            stats = transport.worker_stats()
            assert any("heartbeat timeout" in (s["departed"] or "")
                       for s in stats)
            client.close()
        finally:
            transport.close()


class TestReviewRegressions:
    """Pins for review findings on the first fabric cut."""

    def test_quorum_never_met_still_times_out(self):
        """One agent joining must not disarm --worker-timeout when the
        startup quorum needs two: the campaign fails loudly, not hangs."""
        from repro.core.language import AutoSVAError

        transport = TcpTransport(min_workers=2, worker_timeout_s=0.5)
        try:
            client = socket.create_connection(transport.address,
                                              timeout=5.0)
            client.sendall(encode_frame(
                {"type": "hello", "version": 1, "slots": 1,
                 "host": "only", "pid": 1}))
            deadline = time.monotonic() + 10.0
            with pytest.raises(AutoSVAError,
                               match="only 1 of the 2 worker"):
                while time.monotonic() < deadline:
                    transport.step()
            client.close()
        finally:
            transport.close()

    def test_fleet_death_mid_campaign_times_out(self):
        """The starvation timer re-arms when the last worker dies."""
        from repro.core.language import AutoSVAError

        transport = TcpTransport(min_workers=1, worker_timeout_s=0.5,
                                 heartbeat_s=0.1, liveness_timeout_s=0.4)
        try:
            client = socket.create_connection(transport.address,
                                              timeout=5.0)
            client.sendall(encode_frame(
                {"type": "hello", "version": 1, "slots": 1,
                 "host": "brief", "pid": 2}))
            deadline = time.monotonic() + 10.0
            while not transport._ready_workers() and \
                    time.monotonic() < deadline:
                transport.step()
            assert transport._ready_workers()
            client.close()        # the whole fleet departs
            deadline = time.monotonic() + 10.0
            with pytest.raises(AutoSVAError, match="no worker connected"):
                while time.monotonic() < deadline:
                    transport.step()
        finally:
            transport.close()

    def test_compile_grace_suspends_liveness_kill(self):
        """An agent silent inside a long first-sight compile (it sent
        compile_started) must not be declared dead; once compile_done
        arrives the normal window applies again."""
        transport = TcpTransport(min_workers=1, heartbeat_s=0.1,
                                 liveness_timeout_s=0.5,
                                 compile_grace_s=300.0)
        try:
            client = socket.create_connection(transport.address,
                                              timeout=5.0)
            client.sendall(encode_frame(
                {"type": "hello", "version": 1, "slots": 1,
                 "host": "compiler", "pid": 3}))
            deadline = time.monotonic() + 10.0
            while not transport._ready_workers() and \
                    time.monotonic() < deadline:
                transport.step()
            client.sendall(encode_frame(
                {"type": "event", "kind": "compile_started",
                 "design": "A4"}))
            # Stay silent well past the liveness window: still alive.
            until = time.monotonic() + 1.5
            while time.monotonic() < until:
                transport.step()
            assert transport._ready_workers(), \
                "killed during a declared compile"
            client.sendall(encode_frame(
                {"type": "event", "kind": "compile_done",
                 "design": "A4", "wall_time_s": 1.5}))
            # Grace cleared: silence now kills within the window.
            deadline = time.monotonic() + 10.0
            while transport._ready_workers() and \
                    time.monotonic() < deadline:
                transport.step()
            assert not transport._ready_workers()
            client.close()
        finally:
            transport.close()

    def test_explicit_local_transport_keeps_precompile(self):
        from repro.api.session import VerificationSession
        from repro.campaign.scheduler import LocalTransport

        assert VerificationSession([]).precompile
        assert VerificationSession(
            [], transport=LocalTransport(2)).precompile
        remote = TcpTransport(min_workers=1)
        try:
            assert not VerificationSession([],
                                           transport=remote).precompile
        finally:
            remote.close()

    def test_worker_cli_rejects_out_of_range_port(self, capsys):
        from repro.dist.worker import worker_main

        assert worker_main(["--connect", "host:99999"]) == 1
        assert "HOST:PORT" in capsys.readouterr().err
