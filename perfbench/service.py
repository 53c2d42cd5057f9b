"""The service workload: ``service-mixed``.

A live ``autosva serve --workers 2 --state-dir <fresh dir>`` (write-ahead
journal and an fsync'd artifact cache) fed by this process as an
open-loop load generator: one thread, one HTTP connection to submit,
and the live event stream of each open campaign.  Every campaign covers
one fast design.  Before the schedule starts, one warm-up campaign per
design settles.  A *repeat* resubmits a warm-up spec exactly, so the
artifact cache serves it.  A *fresh* submission varies only ``frames``
(31 and up), which keeps the work fixed but changes the cache key, so it
is checked, cached and journaled anew.  ``depth`` is never varied: deeper bounds made single
campaigns run for minutes.

The seed draws the arrival times (one per slot, jittered within it),
the tenant of each submission and the order of repeats and fresh work;
every run submits the same multiset of campaigns.  Two things were tried
first and dropped because their medians swung by a fifth to a third
from run to run at the ~20 arrivals of a 30 s run: a Poisson stream,
whose bursts queue fresh campaigns behind each other and cache-served
repeats behind both, and fresh A1.fixed and A3.buggy campaigns, which
outlast an arrival slot while the host runs slow and so queue the next
fresh campaign.  Both still run as repeats.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

import common
import layers

TENANTS = ("t0", "t1", "t2")
#: The fast designs (A4.fixed, O1.fixed and O2.fixed, at 7-13
#: CPU-seconds each, would hold the fleet); all of them are repeated.
REPEATED = (("A1", "fixed"), ("A2", "fixed"), ("A3", "buggy"),
            ("A5", "buggy"), ("E10", "fixed"), ("E10", "buggy"),
            ("O1", "buggy"))
#: The fast designs that finish within one arrival slot; each is checked
#: fresh FRESH_COPIES times a run.  Their settle times form one cluster
#: per design, and the clusters overlap, so the fresh metric averages
#: the designs' medians instead of taking one median over all of them,
#: which jumped between neighbouring clusters from run to run.
FRESH = (("A2", "fixed"), ("A5", "buggy"), ("E10", "fixed"),
         ("E10", "buggy"), ("O1", "buggy"))
FRESH_COPIES = 5
#: How far (in slots) an arrival may move from its slot centre.
JITTER = 0.1
WARM_FRAMES = 30
DEPTH = 8
#: Server launches per run; all give set-up samples, the last one serves.
SERVE_LAUNCHES = 7
#: A submission not settled this many arrival slots after it was due,
#: or one of more than WORKERS campaigns open when the schedule ends,
#: marks a fleet that fell behind: it counts as failed, like a refused
#: one.
LATE_SLOTS = 2
#: Longest the client sleeps between checks of its open campaigns.
WAKE_S = 0.05
RUN_LIMIT_S = 170.0


class Submission:
    """One scheduled campaign and what happened to it."""

    def __init__(self, due, tenant, design, frames, repeat) -> None:
        self.due = due
        self.tenant = tenant
        self.design = design
        self.frames = frames
        self.repeat = repeat
        self.id = None
        self.sent = None
        self.rtt = None
        self.settled = None
        self.error = None
        self.events = []

    @property
    def job_id(self) -> str:
        return f"{self.design[0]}.{self.design[1]}"

    def body(self) -> dict:
        return {"tenant": self.tenant, "cases": [self.design[0]],
                "variants": [self.design[1]], "depth": DEPTH,
                "frames": self.frames, "group_size": 1, "schedule": "cost"}


def schedule(seed: int, seconds: float):
    """The seed's 32 arrivals over ``seconds``: 25 fresh, 7 repeats."""
    rng = random.Random(seed)
    fresh = list(FRESH) * FRESH_COPIES
    repeats = list(REPEATED)
    rng.shuffle(fresh)
    rng.shuffle(repeats)
    kinds = [False] * len(fresh) + [True] * len(repeats)
    rng.shuffle(kinds)
    slot = seconds / len(kinds)
    arrivals = []
    for index, repeat in enumerate(kinds):
        due = (index + 0.5 + rng.uniform(-JITTER, JITTER)) * slot
        if repeat:
            design, frames = repeats.pop(), WARM_FRAMES
        else:
            design, frames = fresh.pop(), WARM_FRAMES + 1 + len(fresh)
        arrivals.append(Submission(due, rng.choice(TENANTS), design, frames,
                                   repeat))
    return arrivals


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``serve`` process, from spawn to its first ready probe."""

    def __init__(self, state_dir, trace=None) -> None:
        self.port = _free_port()
        args = [sys.executable, "perfbench/serve_boot.py"]
        if trace:
            args += ["--trace", str(trace)]
        args += ["--listen", f"127.0.0.1:{self.port}",
                 "--workers", str(common.WORKERS),
                 "--state-dir", str(state_dir),
                 "--retain-settled", "1000", "--log-level", "warn"]
        spawned = time.monotonic()
        self.proc = subprocess.Popen(args, cwd=common.ROOT,
                                     env=common.child_env(),
                                     stdout=subprocess.DEVNULL,
                                     start_new_session=True)
        try:
            self.setup_s = self._await_ready(spawned) - spawned
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, spawned: float) -> float:
        while time.monotonic() - spawned < 60.0:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited with {self.proc.returncode}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                status, _ = http_call(conn, "GET", "/readyz")
            except (OSError, http.client.HTTPException):
                status = None
            finally:
                conn.close()
            if status == 200:
                return time.monotonic()
            time.sleep(0.005)
        raise RuntimeError("serve never became ready")

    def cpu_s(self) -> float:
        """CPU seconds of the server and its reaped workers so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = sum(int(value) for value in fields[11:15])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM (drain), then wait; kill the session if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            common.kill_session(self.proc)
            self.proc.wait()


def http_call(conn, method, path, body=None):
    """(status, parsed JSON body or raw text)."""
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if body is not None \
        else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    text = response.read().decode("utf-8")
    try:
        return response.status, json.loads(text)
    except ValueError:
        return response.status, text


class Feed:
    """One campaign's live event stream (``/events?format=ndjson``) on
    its own non-blocking socket.  The server writes a frame within one
    loop tick of the broker publishing it and closes the stream after
    ``campaign_done``."""

    def __init__(self, port: int, item: Submission) -> None:
        self.item = item
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.sendall(f"GET /campaigns/{item.id}/events?format=ndjson "
                          f"HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
                          .encode("latin-1"))
        self.sock.setblocking(False)
        self.buffer = b""
        self.head = True
        self.done = None

    def read(self) -> None:
        """Take in what has arrived; sets ``done`` to the final frame."""
        try:
            data = self.sock.recv(1 << 16)
        except BlockingIOError:
            return
        if not data:
            raise RuntimeError("event stream closed before campaign_done")
        self.buffer += data
        if self.head:
            if b"\r\n\r\n" not in self.buffer:
                return
            head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
            if not head.startswith(b"HTTP/1.1 200"):
                raise RuntimeError(f"event stream refused: {head[:40]!r}")
            self.head = False
        *lines, self.buffer = self.buffer.split(b"\n")
        for line in lines:
            if line.strip():
                event = json.loads(line)
                self.item.events.append(event)
                if event.get("kind") == "campaign_done":
                    self.done = event

    def close(self) -> None:
        self.sock.close()


class LoadGenerator:
    """The single-threaded open-loop client.

    It submits on one connection and follows each open campaign on its
    own event stream.  Polling was dropped: at a 10 ms gap it put up to
    30 ms of detection delay on 0.12 s cache-served settles, depending
    on how many campaigns were open, and its requests loaded the server
    for as long as campaigns stayed open, so a slow stretch of the host
    raised ``cpu_s`` twice over.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.submit_conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=30)

    def _submit(self, item: Submission) -> None:
        item.sent = time.monotonic()
        status, body = http_call(self.submit_conn, "POST", "/campaigns",
                                 item.body())
        item.rtt = time.monotonic() - item.sent
        if status == 201:
            item.id = body["id"]
        else:
            item.error = f"refused with {status}"

    def close(self) -> None:
        self.submit_conn.close()

    def drive(self, items, t0: float, deadline: float, limit_s: float,
              max_open=None) -> int:
        """Send ``items`` when due (``t0`` + due) and follow each until it
        settles or ``limit_s`` after it was due; returns how many were
        open when the last one was sent.  A backlog of more than
        ``max_open`` campaigns at that moment fails each of them."""
        pending = list(items)
        feeds = []
        selector = selectors.DefaultSelector()
        backlog = 0
        try:
            while pending or feeds:
                if pending and time.monotonic() >= t0 + pending[0].due:
                    item = pending.pop(0)
                    self._submit(item)
                    if item.id is not None:
                        feed = Feed(self.port, item)
                        selector.register(feed.sock, selectors.EVENT_READ,
                                          feed)
                        feeds.append(feed)
                    if not pending:
                        backlog = len(feeds)
                        if max_open is not None and backlog > max_open:
                            for feed in feeds:
                                feed.item.error = (
                                    f"one of {backlog} campaigns open "
                                    f"when the schedule ended")
                    continue
                timeout = WAKE_S
                if pending:
                    timeout = min(timeout,
                                  t0 + pending[0].due - time.monotonic())
                ready = selector.select(max(0.0, timeout))
                now = time.monotonic()
                ended = []
                for key, _ in ready:
                    feed = key.data
                    item = feed.item
                    try:
                        feed.read()
                    except (OSError, ValueError, RuntimeError) as exc:
                        item.error = f"event stream: {exc}"
                        ended.append(feed)
                        continue
                    if feed.done is None:
                        continue
                    ended.append(feed)
                    item.settled = now
                    if feed.done["status"] != "completed":
                        item.error = f"ended {feed.done['status']}"
                    elif item.settled > t0 + item.due + limit_s:
                        item.error = (f"settled more than {limit_s:.2f} s "
                                      f"after being due")
                for feed in feeds:
                    item = feed.item
                    if feed not in ended and now > min(
                            deadline, t0 + item.due + limit_s):
                        item.error = (f"not settled within {limit_s:.2f} s "
                                      f"of being due")
                        ended.append(feed)
                for feed in ended:
                    selector.unregister(feed.sock)
                    feed.close()
                    feeds.remove(feed)
        finally:
            for feed in feeds:
                feed.close()
            selector.close()
        return backlog

    @staticmethod
    def verdicts(item: Submission):
        """(all tasks ok, [[name, kind, status, depth]], reported solve s)
        from the settled campaign's event stream."""
        ok, rows, solve = True, [], 0.0
        for event in item.events:
            if event.get("kind") != "result":
                continue
            ok = ok and event["status"] == "ok"
            solve += event.get("solve_time_s", 0.0)
            rows += [[r["name"], r["kind"], r["status"], r["depth"]]
                     for r in event["results"]]
        return ok, rows, solve


class Pass:
    """One server's life: warm-up, the seed's schedule, verification."""

    def __init__(self, server: Server, seed: int, seconds: float,
                 deadline: float) -> None:
        expected = common.load_expected()["corpus-prove"]
        client = LoadGenerator(server.port)
        self.warm = [Submission(0.0, TENANTS[index % len(TENANTS)], design,
                                WARM_FRAMES, False)
                     for index, design in enumerate(REPEATED)]
        self.begin = time.monotonic()
        # The warm-up compiles every design at once; it is not measured.
        client.drive(self.warm, self.begin, deadline, RUN_LIMIT_S)
        cpu_before = server.cpu_s()
        self.arrivals = schedule(seed, seconds)
        self.limit_s = LATE_SLOTS * seconds / len(self.arrivals)
        self.t0 = time.monotonic()
        self.backlog = client.drive(self.arrivals, self.t0, deadline,
                                    self.limit_s, max_open=common.WORKERS)
        self.end = time.monotonic()
        self.cpu_s = (server.cpu_s() - cpu_before) / len(self.arrivals)
        self.reported_solve_s = 0.0
        self.failed = []
        for item in self.warm + self.arrivals:
            if item.error is None:
                ok, rows, solve = client.verdicts(item)
                self.reported_solve_s += solve
                bad = common.verdict_failures(
                    expected, item.job_id, "ok" if ok else "error", rows)
                if bad:
                    item.error = "verdicts: " + ", ".join(bad)
            if item.error is not None:
                self.failed.append(f"{item.id or 'refused'} "
                                   f"{item.job_id}: {item.error}")
        client.close()

    def latencies(self, repeat=None):
        """Due-to-settled seconds of the measured submissions."""
        return [item.settled - (self.t0 + item.due)
                for item in self.arrivals
                if item.settled is not None
                and (repeat is None or item.repeat == repeat)]

    def fresh_medians(self):
        """Each fresh design's median due-to-settled seconds."""
        by_design = {}
        for item in self.arrivals:
            if item.settled is not None and not item.repeat:
                by_design.setdefault(item.job_id, []).append(
                    item.settled - (self.t0 + item.due))
        return [statistics.median(v) for v in by_design.values()]

    def lateness(self):
        return [item.sent - (self.t0 + item.due) for item in self.arrivals]

    def submissions(self) -> int:
        return len(self.warm) + len(self.arrivals)


def _serve_pass(seed, seconds, deadline, trace=None, launches=1):
    """Launch the server ``launches`` times (keeping the last), run one
    pass on it and stop it.  Returns (pass, set-up samples)."""
    state_root = common.WORK / f"service-{os.getpid()}"
    setup = []
    try:
        for index in range(launches):
            state = state_root / f"launch-{index}"
            server = Server(state, trace if index == launches - 1 else None)
            setup.append(server.setup_s)
            if index < launches - 1:
                server.stop()
        try:
            result = Pass(server, seed, seconds, deadline)
        finally:
            server.stop()
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
    return result, setup


def run(workload: str, seed: int, seconds: float, trace: bool, out):
    """Run ``service-mixed``; returns (attempted, failed, metrics)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        plain, _ = _serve_pass(seed, seconds, deadline)
        trace_file = common.WORK / f"trace-{workload}.json"
        traced, _ = _serve_pass(seed, seconds, deadline, trace=trace_file)
        passes = [plain, traced]
    else:
        measured, setup = _serve_pass(seed, seconds, deadline,
                                      launches=SERVE_LAUNCHES)
        passes = [measured]
    attempted = sum(p.submissions() for p in passes)
    failed = [name for p in passes for name in p.failed]
    for p in passes:
        late = p.lateness()
        out(f"schedule: {len(p.arrivals)} submissions over {seconds:g} s "
            f"({sum(i.repeat for i in p.arrivals)} repeats); generator "
            f"late by median {statistics.median(late) * 1e3:.2f} ms, max "
            f"{max(late) * 1e3:.2f} ms; {p.backlog} campaign(s) open when "
            f"the schedule ended; slowest settle "
            f"{max(p.latencies(), default=float('nan')):.3f} s "
            f"of a {p.limit_s:.3f} s limit; cpu {p.cpu_s:.3f} s per "
            f"campaign")
    for name in failed[:20]:
        out(f"FAILED {name}")
    if failed:
        out("fleet overloaded or wrong: latencies not reported")

    if trace:
        return attempted, failed, _traced_metrics(plain, traced, trace_file,
                                                  out)
    hits = measured.latencies(repeat=True)
    misses = measured.latencies(repeat=False)
    fresh = measured.fresh_medians()
    metrics = {
        "settle_fresh_s": statistics.mean(fresh) if fresh else 0.0,
        "settle_early_s": statistics.median(hits) if hits else 0.0,
        "cpu_s": measured.cpu_s,
        "peak_rss_mb": common.peak_rss_mb(),
        "setup_s": statistics.median(setup),
    }
    if not failed:
        out(f"settle_miss_s (settle_fresh_s) {metrics['settle_fresh_s']:.4f}"
            f" s [mean of {len(fresh)} designs' medians over "
            f"{len(misses)} fresh submissions]")
        out(f"settle_hit_s (settle_early_s) {metrics['settle_early_s']:.4f} s"
            f" [median of {len(hits)} repeats]")
        out("settle_tail_s (a note) " + common.tail_note(
            measured.latencies(), "submissions"))
    out(f"cpu_s {metrics['cpu_s']:.3f} s per campaign; peak_rss_mb "
        f"{metrics['peak_rss_mb']:.1f} MB; setup_s {metrics['setup_s']:.3f} "
        f"s [median of {len(setup)} serve launches]")
    return attempted, failed, metrics


def _traced_metrics(plain, traced, trace_file, out):
    dump = layers.load(trace_file)
    campaigns = traced.submissions()
    values = layers.metrics(dump, campaigns=campaigns,
                            window_s=traced.end - traced.begin,
                            workers=common.WORKERS)
    every = traced.warm + traced.arrivals
    values.update({
        "sat.reported_solve_s": traced.reported_solve_s / campaigns,
        "http.submit_s": sum(i.rtt for i in every if i.rtt) / len(every),
        "loadgen.late_max_s": max(traced.lateness()),
        "loadgen.open_at_end": traced.backlog,
        "trace.overhead_cpu_s": traced.cpu_s - plain.cpu_s,
        "trace.overhead_share": (traced.cpu_s - plain.cpu_s) / plain.cpu_s,
    })
    out(f"tracing overhead: cpu per campaign {plain.cpu_s:.3f} -> "
        f"{traced.cpu_s:.3f} s")
    out(f"SAT time per campaign: program-reported solve_time_s "
        f"{values['sat.reported_solve_s']:.4f} s vs traced sat.solve_s "
        f"{values['sat.solve_s']:.4f} s")
    out(f"unaccounted share of traced task time: "
        f"{values['trace.unaccounted_share']:.4f}")
    out(f"layers (per campaign, {campaigns} campaigns):")
    for line in layers.layer_table(dump, campaigns):
        out(line)
    return values
