"""The standalone worker agent: ``autosva worker --connect HOST:PORT``.

One agent = one process on one host, serving ``--slots N`` concurrent
tasks for a coordinator.  The agent's main loop never checks a property
itself — it multiplexes the coordinator socket and its forked children's
result pipes through one ``multiprocessing.connection.wait`` call:

* a ``task`` frame decodes into a registered unit (a
  :class:`~repro.api.task.PropertyTask`, or a ``--preload`` plugin's
  type) and joins the pending queue;
* starting a task first **compiles the design on first sight** through
  this process's own :data:`~repro.api.compile.COMPILE_CACHE`
  (bracketed by ``compile_started``/``compile_done`` events so the
  coordinator sees liveness during a long frontend run), then forks a
  child that inherits the warm cache — the same one-compile-per-design
  economics the local fork pool gets for free;
* each child runs under the campaign's **per-task bounds**, enforced
  agent-side: the memory cap via ``resource.setrlimit`` inside the child
  (shared :func:`~repro.campaign.scheduler._child_main` entry point) and
  the wall-clock deadline by the agent's wait loop, which terminates
  overdue children and reports ``timeout`` results — remote execution
  must degrade per-task exactly like local execution does;
* ``heartbeat`` frames are echoed; ``steal`` requests are answered with
  a ``steal_grant`` naming the *not-yet-started* pending tasks the agent
  gives back (never a running one — started work always completes or
  times out here);
* ``shutdown`` (or coordinator EOF) terminates remaining children and
  exits;
* ``SIGTERM``/``SIGINT`` trigger a **graceful drain**: the agent sends
  a ``shutdown`` frame naming its not-yet-started pending tasks (the
  coordinator requeues them and stops dispatching here), lets running
  children finish and report normally, then closes the connection — the
  coordinator records a clean ``graceful shutdown`` departure instead
  of a false death.

``--preload module`` imports a module before serving — the hook for
registering third-party unit codecs/runners via
:func:`~repro.dist.protocol.register_unit`.
"""

from __future__ import annotations

import argparse
import importlib
import os
import random
import socket
import sys
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional, Sequence, Set

from ..campaign.scheduler import (_IDLE_WAIT_S, _child_main, fork_context,
                                  reap_child, resolve_worker_count)
from ..obs import TRACER, absorb_obs, collect_obs
from ..obs.log import (add_log_arguments, configure_from_args, fatal,
                       get_logger)
from ..testing.faults import FAULTS
from .protocol import (PROTOCOL_VERSION, FrameDecoder, ProtocolError,
                       decode_unit, runner_for, transmit,
                       validate_message)

__all__ = ["WorkerAgent", "worker_main"]


class _Disconnect(Exception):
    """Coordinator went away (EOF, reset, shutdown frame).

    ``retry`` marks connection-level losses (reset, EOF, connect
    failure) that ``--reconnect`` may heal; deliberate endings — a
    coordinator ``shutdown`` frame, a version refusal, a completed
    drain — are final regardless.
    """

    def __init__(self, reason: str, code: int = 0,
                 retry: bool = False) -> None:
        super().__init__(reason)
        self.code = code
        self.retry = retry


def _backoff_delay(attempt: int, cap: float, rng: random.Random,
                   base: float = 0.5) -> float:
    """Reconnect delay for 1-based ``attempt``: capped exponential
    backoff with jitter.

    The ceiling doubles per attempt (``base``, ``2*base``, ...) up to
    ``cap``; the returned delay is uniformly jittered into the upper
    half of the ceiling so a fleet that lost one coordinator does not
    reconnect in lockstep.
    """
    ceiling = min(cap, base * (2 ** max(0, attempt - 1)))
    return ceiling * (0.5 + 0.5 * rng.random())


@dataclass
class _Pending:
    unit: object
    timeout_s: Optional[float]
    memory_limit_mb: Optional[int]


@dataclass
class _Child:
    unit: object
    process: object
    conn: object
    started: float
    deadline: Optional[float]
    timeout_s: Optional[float]


@dataclass
class WorkerAgent:
    """One connection's worth of remote verification service."""

    host: str
    port: int
    slots: int = 1
    label: Optional[str] = None
    #: Keep retrying the initial connect for this long — lets quickstart
    #: users (and CI) start the worker before the coordinator is up.
    connect_timeout_s: float = 10.0
    quiet: bool = False
    #: Survive connection loss: reconnect with capped exponential
    #: backoff + jitter and resume the session (same ``session`` id in
    #: the new hello, so the coordinator merges this agent's history
    #: instead of double-counting a death).  Deliberate shutdowns
    #: (coordinator ``shutdown`` frame, refusal, completed drain) still
    #: exit.
    reconnect: bool = False
    #: Backoff ceiling between reconnect attempts.
    reconnect_max_s: float = 30.0
    #: Stable per-process session id, carried in every hello.
    session: str = field(default_factory=lambda: uuid.uuid4().hex)

    _sock: Optional[socket.socket] = field(default=None, repr=False)
    _decoder: FrameDecoder = field(default_factory=FrameDecoder,
                                   repr=False)
    #: Decoded-but-unprocessed messages.  All receive paths go through
    #: here so a message is never lost to recv coalescing — the hello
    #: ack and the first task can land in one TCP segment, and the
    #: handshake must not swallow what followed it.
    _inbox: deque = field(default_factory=deque, repr=False)
    _pending: deque = field(default_factory=deque, repr=False)
    _children: List[_Child] = field(default_factory=list, repr=False)
    _compiled: Set[str] = field(default_factory=set, repr=False)
    _tasks_done: int = 0
    #: Set (from a signal handler) to begin a graceful drain; the main
    #: loop notices on its next iteration — signal handlers themselves
    #: only flip the flag, they never touch the socket.
    _draining: bool = field(default=False, repr=False)
    _drain_sent: bool = field(default=False, repr=False)
    #: True once the current connection completed its hello exchange —
    #: a session that worked resets the reconnect backoff.
    _hello_ok: bool = field(default=False, repr=False)

    # -- plumbing ---------------------------------------------------------
    def _log(self, event: str, level: str = "info",
             **fields: object) -> None:
        """Structured agent log line, stamped with pid + session id.

        ``quiet`` suppresses routine (info/debug) lines — the mode the
        one-shot CLI uses for its ephemeral loopback agents — but never
        warnings or errors.
        """
        if self.quiet and level in ("debug", "info"):
            return
        logger = get_logger("dist.worker").bind(
            pid=os.getpid(), session=self.session[:8])
        getattr(logger, level, logger.info)(event, **fields)

    def _send(self, message: Dict[str, object]) -> None:
        try:
            transmit(self._sock, message)
        except OSError as exc:
            raise _Disconnect(f"send failed: {exc}", code=1,
                              retry=True) from None

    def _connect(self) -> None:
        deadline = time.monotonic() + self.connect_timeout_s
        while True:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=5.0)
                self._sock.settimeout(None)
                return
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise _Disconnect(
                        f"could not connect to {self.host}:{self.port} "
                        f"within {self.connect_timeout_s:.0f}s: {exc}",
                        code=1, retry=True) from None
                time.sleep(0.2)

    def _hello(self, resume: bool = False) -> None:
        from .protocol import _UNIT_CODECS

        # ``session``/``resume`` are minor optional fields (no protocol
        # bump): an old coordinator ignores them and simply treats a
        # returning agent as a new one.
        self._send({
            "type": "hello", "version": PROTOCOL_VERSION,
            "slots": self.slots, "host": socket.gethostname(),
            "pid": os.getpid(), "label": self.label,
            "units": sorted(_UNIT_CODECS),
            "session": self.session, "resume": resume,
        })
        deadline = time.monotonic() + max(self.connect_timeout_s, 5.0)
        while not self._inbox:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _Disconnect("coordinator never answered hello",
                                  code=1, retry=True)
            if mp_connection.wait([self._sock], timeout=remaining):
                self._pump()
        # The ack is the first frame a coordinator ever sends; whatever
        # arrived behind it (a task, a heartbeat) stays in the inbox for
        # the main loop.
        message = self._inbox.popleft()
        validate_message(message)
        if message["type"] == "shutdown":
            raise _Disconnect(
                f"coordinator refused us: "
                f"{message.get('reason', 'no reason given')}", code=1)
        if message["type"] != "hello":
            raise _Disconnect(
                f"coordinator opened with {message['type']!r}, expected "
                f"the hello ack", code=1)
        theirs = message.get("version")
        if theirs != PROTOCOL_VERSION:
            raise _Disconnect(
                f"coordinator speaks protocol {theirs!r}, this agent "
                f"speaks {PROTOCOL_VERSION}", code=1)
        # Minor (optional) ack field: a tracing coordinator asks the
        # fleet to record spans too; old coordinators just omit it.
        if message.get("trace"):
            TRACER.enable()

    def _pump(self) -> None:
        """Read from the socket into the inbox (never dropping frames)."""
        try:
            data = self._sock.recv(65536)
        except OSError as exc:
            raise _Disconnect(f"recv failed: {exc}", code=1,
                              retry=True) from None
        if not data:
            raise _Disconnect("coordinator closed the connection",
                              retry=True)
        self._inbox.extend(self._decoder.feed(data))

    # -- execution --------------------------------------------------------
    def _ensure_compiled(self, unit) -> None:
        """First-sight parent-side compile so children inherit it.

        Units without merged sources and a DUT module (plugin units)
        have nothing to compile.  Compile failures are swallowed here:
        the child fails the same way and reports a proper per-task error.
        """
        sources = getattr(unit, "sources", None)
        module = getattr(unit, "dut_module", None)
        if not sources or not module:
            return
        from ..api.compile import compile_design, design_key

        defines = tuple(getattr(unit, "defines", ()))
        key = design_key(list(sources), module, defines)
        if key in self._compiled:
            return
        self._compiled.add(key)
        design = getattr(unit, "design", module)
        self._send({"type": "event", "kind": "compile_started",
                    "design": design})
        begin = time.perf_counter()
        with TRACER.span("compile", cat="compile",
                         args={"design": design, "agent": True}):
            try:
                compile_design(list(sources), module, defines)
            except Exception:
                pass
        self._send({"type": "event", "kind": "compile_done",
                    "design": design,
                    "wall_time_s": time.perf_counter() - begin})

    def begin_drain(self) -> None:
        """Request a graceful drain (safe to call from a signal handler)."""
        self._draining = True

    def _flush_drain(self) -> None:
        """Hand unstarted pending work back and announce the drain.

        Sent once up front, then again whenever a racing ``task`` frame
        (dispatched before the coordinator processed our announcement)
        lands in the pending queue — each frame's ``task_ids`` are
        requeued coordinator-side, so nothing is lost to the race.
        """
        returned = [item.unit.job_id for item in self._pending]
        self._pending.clear()
        if returned or not self._drain_sent:
            self._drain_sent = True
            self._send({"type": "shutdown", "reason": "draining",
                        "task_ids": returned})
            if returned:
                self._log("draining: returned unstarted tasks",
                          returned=len(returned))

    def _start_pending(self) -> None:
        if self._draining:
            return
        context = fork_context()
        while self._pending and len(self._children) < self.slots:
            item: _Pending = self._pending.popleft()
            self._ensure_compiled(item.unit)
            try:
                runner = runner_for(item.unit)
            except ProtocolError as exc:
                self._send({"type": "result",
                            "task_id": item.unit.job_id,
                            "status": "error", "payload": None,
                            "error": str(exc), "wall_time_s": 0.0})
                continue
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_child_main,
                args=(child_conn, runner, item.unit,
                      item.memory_limit_mb))
            process.start()
            child_conn.close()
            now = time.monotonic()
            self._children.append(_Child(
                unit=item.unit, process=process, conn=parent_conn,
                started=now,
                deadline=(now + item.timeout_s)
                if item.timeout_s is not None else None,
                timeout_s=item.timeout_s))
            self._send({"type": "event", "kind": "task_started",
                        "task_id": item.unit.job_id})

    def _finish_child(self, child: _Child, status: str,
                      payload, error: Optional[str], obs=None) -> None:
        self._tasks_done += 1
        message = {
            "type": "result", "task_id": child.unit.job_id,
            "status": status, "payload": payload, "error": error,
            "wall_time_s": time.monotonic() - child.started,
        }
        # Fold the child's telemetry into the agent's buffers, then drain
        # everything recorded since the last result (child spans, the
        # agent's compile spans, metric deltas) onto this frame.  "obs" is
        # a minor optional field — old coordinators ignore it.
        absorb_obs(obs)
        shipped = collect_obs()
        if shipped is not None:
            message["obs"] = shipped
        # Chaos sites: die with a computed-but-unsent result (the
        # coordinator must requeue it) or right after sending it (the
        # coordinator must not double-report it).
        FAULTS.crash("worker.crash_before_result")
        try:
            self._send(message)
        except (TypeError, ProtocolError) as exc:
            # A payload the wire cannot carry (non-JSON types from a
            # plugin runner, >frame-limit blob) must degrade to a
            # per-task error — never kill the agent and cascade the
            # poisonous task across the fleet.
            self._send({
                "type": "result", "task_id": child.unit.job_id,
                "status": "error", "payload": None,
                "error": f"result payload not wire-serializable: {exc}",
                "wall_time_s": message["wall_time_s"],
            })
        FAULTS.crash("worker.crash_after_result")

    def _reap_children(self) -> None:
        # The reap decision (result-beats-deadline, EOF = died, overdue =
        # terminate) is the shared scheduler helper, so local and remote
        # execution scopes cannot drift apart.
        now = time.monotonic()
        still: List[_Child] = []
        for child in self._children:
            outcome = reap_child(child.conn, child.process,
                                 child.deadline, now, child.timeout_s)
            if outcome is None:
                still.append(child)
                continue
            self._finish_child(child, *outcome)
        self._children = still

    # -- protocol handling ------------------------------------------------
    def _handle(self, message: Dict[str, object]) -> None:
        validate_message(message)
        kind = message["type"]
        if kind == "task":
            body = message["task"]
            try:
                unit = decode_unit(body)
            except ProtocolError as exc:
                # A unit this agent cannot decode (missing --preload
                # plugin, malformed payload) must degrade to a per-task
                # error, not kill the agent — dying would make the
                # coordinator requeue the same poisonous task onto the
                # next agent until the whole fleet is gone.  Without a
                # recoverable id the coordinator could never match an
                # error result, so only then is dying the lesser evil.
                task_id = None
                if isinstance(body, dict):
                    task_id = body.get("task_id") or body.get("job_id")
                if not isinstance(task_id, str):
                    raise
                self._send({"type": "result", "task_id": task_id,
                            "status": "error", "payload": None,
                            "error": str(exc), "wall_time_s": 0.0})
                return
            self._pending.append(_Pending(
                unit=unit, timeout_s=message.get("timeout_s"),
                memory_limit_mb=message.get("memory_limit_mb")))
        elif kind == "heartbeat":
            self._send({"type": "heartbeat", "seq": message["seq"]})
        elif kind == "steal":
            # Start anything a free slot can take *before* granting:
            # a task and the steal request for it can arrive in one recv
            # batch (the coordinator probes the tail right after
            # dispatching), and granting back work we could be running
            # would ping-pong the task between queue and wire forever.
            self._start_pending()
            granted: List[str] = []
            want = int(message["max"])
            while self._pending and len(granted) < want:
                item = self._pending.pop()     # give back the tail first
                granted.append(item.unit.job_id)
            self._send({"type": "steal_grant", "task_ids": granted})
            if granted:
                self._log("granted tasks back to the coordinator",
                          granted=len(granted))
        elif kind == "shutdown":
            raise _Disconnect(
                f"shutdown: {message.get('reason', 'campaign complete')}")
        elif kind == "hello":
            pass                               # late/duplicate ack
        else:                                  # result/event/steal_grant
            raise ProtocolError(
                f"coordinator sent a worker-only message: {kind}")

    def _wait_timeout(self) -> float:
        deadlines = [child.deadline for child in self._children
                     if child.deadline is not None]
        if not deadlines:
            return _IDLE_WAIT_S
        return min(max(0.0, min(deadlines) - time.monotonic()),
                   _IDLE_WAIT_S)

    # -- entry point ------------------------------------------------------
    def _serve_once(self, resume: bool = False) -> None:
        """One connection's lifetime: connect, hello, serve until lost.

        Only raises (:class:`_Disconnect` / :class:`ProtocolError`) —
        a normal return does not exist.  Per-connection state (decoder,
        inbox, unstarted pending tasks) resets on entry; running
        children are terminated on exit because their results can no
        longer be matched — the coordinator requeued everything this
        connection had in flight, so finishing them would only produce
        frames the next connection must not send.  The in-process
        compile cache survives, so a resumed session keeps its warm
        designs.
        """
        self._decoder = FrameDecoder()
        self._inbox.clear()
        self._pending.clear()
        self._drain_sent = False
        try:
            self._connect()
            self._hello(resume=resume)
            self._hello_ok = True
            self._log("reconnected" if resume else "connected",
                      coordinator=f"{self.host}:{self.port}",
                      slots=self.slots)
            while True:
                if self._draining:
                    self._flush_drain()
                    if not self._children:
                        raise _Disconnect(
                            "drained cleanly after signal", code=0)
                self._start_pending()
                while self._inbox:
                    self._handle(self._inbox.popleft())
                    self._start_pending()
                waitables = [self._sock] + \
                    [child.conn for child in self._children]
                ready = mp_connection.wait(waitables,
                                           timeout=self._wait_timeout())
                if self._sock in ready:
                    self._pump()
                self._reap_children()
        finally:
            for child in self._children:
                child.process.terminate()
                child.process.join()
            self._children = []
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    def run(self) -> int:
        rng = random.Random(self.session)
        attempt = 0
        while True:
            self._hello_ok = False
            try:
                self._serve_once(resume=attempt > 0)
            except _Disconnect as exc:
                if not (self.reconnect and exc.retry
                        and not self._draining):
                    self._log("exiting", reason=str(exc),
                              tasks_done=self._tasks_done)
                    return exc.code
                self._log("connection lost", level="warn",
                          reason=str(exc))
            except ProtocolError as exc:
                # A desynced stream is a connection-level failure too:
                # reconnecting resets the framing on both ends.
                if not (self.reconnect and not self._draining):
                    self._log("protocol error", level="error",
                              detail=str(exc))
                    return 1
                self._log("protocol error, resetting connection",
                          level="warn", detail=str(exc))
            if self._hello_ok:
                attempt = 0        # the session worked: back off afresh
            attempt += 1
            delay = _backoff_delay(attempt, self.reconnect_max_s, rng)
            self._log("reconnecting", delay_s=round(delay, 1),
                      attempt=attempt)
            time.sleep(delay)


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autosva worker",
        description="Serve verification tasks to a campaign coordinator "
                    "over TCP (see docs/distributed.md; trusted networks "
                    "only — the v1 protocol has no auth).")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address, e.g. 127.0.0.1:7450")
    parser.add_argument("--slots", default="1", metavar="N|auto",
                        help="concurrent task slots (auto = CPU count; "
                             "default 1)")
    parser.add_argument("--label", default=None,
                        help="free-form label shown in coordinator "
                             "reports")
    parser.add_argument("--preload", action="append", default=[],
                        metavar="MODULE",
                        help="import MODULE before serving (registers "
                             "third-party unit codecs/runners); "
                             "repeatable")
    parser.add_argument("--connect-timeout", type=float, default=10.0,
                        metavar="S",
                        help="keep retrying the initial connect for S "
                             "seconds (default 10)")
    parser.add_argument("--reconnect", action="store_true",
                        help="survive connection loss: retry with capped "
                             "exponential backoff + jitter and resume the "
                             "session (coordinator shutdowns still exit)")
    parser.add_argument("--reconnect-max-delay", type=float, default=30.0,
                        metavar="S",
                        help="backoff ceiling between reconnect attempts "
                             "(default 30)")
    add_log_arguments(parser)
    return parser


def worker_main(argv: Sequence[str]) -> int:
    try:
        import faulthandler
        import signal as signal_mod
        # Ops hook: SIGUSR1 dumps every thread's stack (the agent's and,
        # because children are forked, a stuck task child's too).
        faulthandler.register(signal_mod.SIGUSR1)
    except (ImportError, AttributeError, ValueError):
        pass       # non-POSIX platform: no dump hook
    try:
        args = build_worker_parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    configure_from_args(args)
    try:
        slots = resolve_worker_count(args.slots, flag="--slots")
    except ValueError as exc:
        return fatal("autosva worker", str(exc))
    from .coordinator import parse_address

    try:
        host, port = parse_address(args.connect)
    except ValueError as exc:
        return fatal("autosva worker", "invalid --connect",
                     detail=str(exc))
    for module in args.preload:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            return fatal("autosva worker", "cannot preload module",
                         module=module, detail=str(exc))
    agent = WorkerAgent(host=host, port=port, slots=slots,
                        label=args.label,
                        connect_timeout_s=args.connect_timeout,
                        reconnect=args.reconnect,
                        reconnect_max_s=args.reconnect_max_delay)
    try:
        import signal as signal_mod

        # Graceful drain on the usual stop signals (systemd stop,
        # Ctrl-C, orchestrator scale-down): the handler only flips a
        # flag; the main loop returns unstarted work and finishes
        # running children before exiting.
        signal_mod.signal(signal_mod.SIGTERM,
                          lambda *_: agent.begin_drain())
        signal_mod.signal(signal_mod.SIGINT,
                          lambda *_: agent.begin_drain())
    except (ImportError, AttributeError, ValueError, OSError):
        pass       # non-POSIX platform or non-main thread: hard stop only
    return agent.run()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(worker_main(sys.argv[1:]))
