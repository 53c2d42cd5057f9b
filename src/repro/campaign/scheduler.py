"""The campaign scheduler: a streaming worker pool fed by a job source.

Design points:

* **Parallelism** — each job runs in its own forked worker process; at
  most ``workers`` are alive at once.  Model checking is CPU-bound pure
  Python, so processes (not threads) are the only way to scale past the
  GIL.
* **Streaming input** — :class:`Scheduler` consumes an *iterator* of
  jobs, pulling the next one only when a worker slot frees up.  A source
  that does expensive parent-side work per job (the property-sharding
  frontend: FT generation + compile) therefore overlaps that work with
  the checking of already-issued jobs.  A plain list works too
  (:func:`run_campaign` is the list-shaped shim).
* **Pluggable transports** — *where* a job executes is a transport
  decision: the default :class:`LocalTransport` forks processes on this
  host (the behavior the pre-fabric scheduler hard-coded);
  :class:`~repro.dist.coordinator.TcpTransport` dispatches the same jobs
  to remote worker agents over the wire.  The scheduler owns everything
  verdict-relevant — source pulling, cache replay, steal bookkeeping,
  event ordering — so transports can only change *where* cycles burn,
  never what the campaign concludes.
* **Event-driven waiting** — the pool blocks in
  :func:`multiprocessing.connection.wait` on the worker pipes instead of
  polling each one on a fixed interval.  The wait timeout is bounded by
  the nearest per-job deadline, so wall-clock limits fire within
  :data:`_DEADLINE_SLACK_S` of expiry instead of a poll period later.
* **Work stealing** — when the source is exhausted and more worker slots
  are free than jobs are queued, the scheduler asks ``split`` to re-split
  the costliest queued job and issues the halves, keeping the tail of a
  campaign parallel.  ``combine`` folds the halves' payloads back into
  the parent's shape so the artifact cache still receives one entry per
  *original* job (a warm rerun replays it no matter how the cold run was
  split).  Remote transports extend the same idea across hosts: at the
  tail the coordinator reclaims not-yet-started tasks from busy workers
  (steal grants), which re-enter this queue and split like any other.
* **Per-job bounds** — a wall-clock deadline per job (the parent
  terminates overdue workers) and an address-space cap applied with
  ``resource.setrlimit`` inside the worker, mirroring the execution-scope
  resource bounding of the reference orchestrators.  Remote workers
  enforce the same bounds locally, agent-side.
* **Deterministic results** — ``run_campaign`` returns results in job
  order; worker count, schedule, stealing and transport can only change
  wall time and task *grouping*, never the per-property verdicts
  downstream consumers aggregate.
* **Failure isolation** — a job that raises, exhausts memory, dies, or
  times out yields a per-job ``error``/``timeout`` result; a *worker*
  (remote agent) that dies gets its in-flight jobs requeued — excluded
  from the dead worker — exactly once per death; the campaign always
  runs to completion.
* **Incremental reruns** — with an :class:`~repro.campaign.cache.ArtifactCache`
  attached, jobs whose content hash is cached replay instantly and never
  reach a worker.  The cache check happens at admission —
  coordinator-side — so on a remote transport a warm rerun never ships a
  job's sources over the wire at all.  Cache entries remember the
  original check wall time, which replayed results surface as
  ``original_wall_time_s``.

The scheduler is unit-agnostic: a "job" is anything picklable with a
``job_id`` attribute that the caller's ``runner`` can execute.  Every
campaign runs :class:`~repro.api.task.PropertyTask` units through
:func:`~repro.api.task.execute_task`; the scheduler tests drive it with
synthetic jobs and runners.  A source may also yield
:class:`SourceNotice` markers (compile progress from the sharding
frontend); they pass through the event stream untouched.

**Session multiplexing (the service seam).**  A long-lived source (the
campaign service's broker) may yield ``None`` to say "temporarily dry —
nothing admissible right now, but do not treat me as exhausted".  The
scheduler then stops pulling for the current round and re-probes the
source on the next one; only :class:`StopIteration` ends the run.  A
blocking source should bound its own internal wait (~0.1s) so the idle
loop stays responsive without busy-spinning.  :meth:`Scheduler.cancel_where`
is the matching retraction hook: it cancels queued (and
transport-returned) jobs without touching verdicts of work already
running.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from ..obs import METRICS, TRACER, absorb_obs, collect_obs
from .cache import ArtifactCache

__all__ = ["JobResult", "LocalTransport", "RetryPolicy", "Scheduler",
           "SourceNotice", "classify_failure",
           "resolve_worker_count", "run_campaign"]

#: Upper bound on how long a worker's deadline may overshoot: the pool
#: never sleeps past the earliest deadline, and never longer than this
#: between bookkeeping rounds even without deadlines.
_DEADLINE_SLACK_S = 0.05
_IDLE_WAIT_S = 1.0

_WARNED_SINGLE_CORE = False


def resolve_worker_count(value, flag: str = "--workers") -> int:
    """Resolve a worker/slot count argument; ``"auto"`` = CPU count.

    Accepts an int, a decimal string or the literal ``"auto"`` (case
    insensitive), which resolves to ``os.cpu_count()``.  On a single-core
    host a once-per-process note is printed to stderr — parallel workers
    can only time-slice one core there, which surprises both users and
    wall-clock assertions in benchmarks.
    """
    global _WARNED_SINGLE_CORE
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            value = os.cpu_count() or 1
            if value == 1 and not _WARNED_SINGLE_CORE:
                _WARNED_SINGLE_CORE = True
                print(f"autosva: note: {flag} auto resolved to 1 — this "
                      f"host has a single CPU core; parallel workers "
                      f"would only time-slice it", file=sys.stderr)
        else:
            try:
                value = int(text)
            except ValueError:
                raise ValueError(
                    f"{flag} expects a positive integer or 'auto', "
                    f"got {value!r}") from None
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{flag} must be >= 1 (or 'auto'), got {value!r}")
    return value


@dataclass
class JobResult:
    """Outcome of one campaign job.

    ``status`` is ``"ok"`` (payload carries the engine summary),
    ``"error"`` (the job raised / crashed / hit the memory cap; ``error``
    carries the reason) or ``"timeout"``.  ``payload`` is plain JSON-able
    data in all cases (possibly None), so results cross process and disk
    boundaries unchanged.  A cache replay sets ``from_cache`` and carries
    the *original* check wall time in ``original_wall_time_s``
    (``wall_time_s`` is then the replay time, effectively zero).
    ``worker`` identifies where the job executed (``host:pid`` — the
    forked child locally, the remote agent on a TCP fabric), so timing
    samples from heterogeneous hosts can be told apart downstream.  A
    merged per-design result names it only when the design ran as one
    task; work split across tasks has no single worker.
    """

    job_id: str
    status: str
    payload: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    wall_time_s: float = 0.0
    from_cache: bool = False
    original_wall_time_s: Optional[float] = None
    #: Number of times this job's work was re-split by work stealing
    #: (only set on merged per-design results, see the campaign layer).
    steals: int = 0
    #: ``host:pid`` of the process that executed the job (None for cache
    #: replays, which execute nothing, and for designs split into tasks).
    worker: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class SourceNotice:
    """A pass-through marker a job source may emit between jobs.

    The sharding frontend uses these to surface ``compile_started`` /
    ``compile_done`` progress into the session's event stream; the
    scheduler forwards them in-order and otherwise ignores them.
    """

    kind: str                 # "compile_started" | "compile_done"
    design: str
    wall_time_s: float = 0.0
    from_cache: bool = False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded automatic retry of *transient* job failures.

    A worker process dying mid-task (signal, OOM kill, injected chaos,
    a flaky fabric connection) says nothing about the job itself — the
    same task re-run on a healthy worker usually succeeds.  A traceback,
    a wall-clock timeout or the in-process memory cap, by contrast, is
    the *job's* deterministic verdict and retrying it just burns a slot
    reproducing it.  :func:`classify_failure` draws that line;
    ``max_retries`` bounds how often a transient failure re-enters the
    queue before its error result surfaces anyway (so a task that is
    somehow poison to every worker still terminates the campaign).
    """

    max_retries: int = 2


def classify_failure(result: JobResult) -> str:
    """``"transient"`` (retry may help) or ``"deterministic"``.

    Only worker-death errors — ``reap_child``'s "worker died with exit
    code N", produced when a child vanishes without reporting — classify
    as transient.  Timeouts, tracebacks and the enforced memory limit
    reproduce on re-run.  (A kernel OOM kill also reads as a death and
    will retry; the retry bound keeps that cheap and terminal.)
    """
    if result.status == "error" and result.error \
            and result.error.startswith("worker died with exit code"):
        return "transient"
    return "deterministic"


def _safe_collect_obs():
    """Child-side telemetry drain that never masks the job's outcome."""
    try:
        return collect_obs()
    except Exception:
        return None


def _child_main(conn, runner, job, memory_limit_mb) -> None:
    """Worker entry point: run one job, ship one
    (status, payload, error, obs) tuple.

    Shared by the local transport's forked children and the remote
    worker agent's — the execution scope (rlimit, error envelope) must
    not drift between transports or verdict equivalence drifts with it.
    ``obs`` is the child's drained telemetry (spans + metric deltas, see
    :func:`repro.obs.collect_obs`) or None; the fork-safety check inside
    the tracer/registry guarantees it holds only what *this* child
    recorded, never inherited parent state.
    """
    try:
        if memory_limit_mb:
            limit = int(memory_limit_mb) * 1024 * 1024
            try:
                import resource
                resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            except (ImportError, ValueError, OSError):
                pass  # unsupported platform: run unbounded
        payload = runner(job)
        conn.send(("ok", payload, None, _safe_collect_obs()))
    except MemoryError:
        conn.send(("error", None,
                   f"memory limit ({memory_limit_mb} MB) exceeded",
                   _safe_collect_obs()))
    except BaseException:
        try:
            conn.send(("error", None, traceback.format_exc(limit=10),
                       _safe_collect_obs()))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Running:
    index: int
    job: object
    process: multiprocessing.Process
    conn: object
    started: float
    deadline: Optional[float]


def fork_context():
    """The multiprocessing context every execution scope forks with.

    Fork is load-bearing, not just the Linux default: children must
    inherit the parent's populated COMPILE_CACHE for the one-compile-
    per-design guarantee (local pool and remote worker agents alike).
    On platforms without fork (Windows) fall back to the default
    context — correctness holds (children recompile), only the sharing
    is lost.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def reap_child(conn, process, deadline: Optional[float], now: float,
               timeout_s: Optional[float]
               ) -> Optional[Tuple[str, object, Optional[str], object]]:
    """The ONE reap decision for a forked task child, any transport.

    Returns ``None`` while the child should keep running, else a
    ``(status, payload, error, obs)`` tuple with the pipe closed and the
    process joined — ``obs`` is the child's drained telemetry (or None
    when the child died/timed out before shipping).  Shared by
    :class:`LocalTransport` and the remote worker agent so the semantics
    cannot drift between transports: a result that is already in the
    pipe wins over an expired deadline (completed work is never
    discarded), a closed pipe without a result means the child died
    (crash, hard OOM kill), and an overdue child is terminated with the
    standard timeout message.
    """
    if conn.poll(0):
        obs = None
        try:
            message = conn.recv()
            process.join()
            status, payload, error = message[:3]
            if len(message) > 3:
                obs = message[3]
        except EOFError:
            process.join()
            status, payload, error = (
                "error", None,
                f"worker died with exit code {process.exitcode}")
        conn.close()
        return status, payload, error, obs
    if deadline is not None and now > deadline:
        process.terminate()
        process.join()
        conn.close()
        return ("timeout", None,
                f"wall-clock limit ({timeout_s:.1f}s) exceeded", None)
    return None


class LocalTransport:
    """The default execution backend: forked processes on this host.

    This is the transport contract every backend implements (duck-typed;
    :class:`~repro.dist.coordinator.TcpTransport` is the remote peer):

    * :meth:`bind` — receive the scheduler's runner and per-job bounds;
    * :meth:`free_slots` / :meth:`in_flight` — capacity accounting;
    * :meth:`dispatch` — start one job, honoring a worker-exclusion set
      (returns False when no acceptable slot exists right now);
    * :meth:`step` — block (bounded) until something happens; return
      ``(finished, requeued)`` where ``finished`` is
      ``[(index, job, JobResult), ...]`` and ``requeued`` is
      ``[(index, job, dead_worker_id_or_None), ...]`` — jobs the
      transport gives back (worker death, steal grants);
    * :meth:`reclaim` — tail hook: pull back not-yet-started work from
      busy workers, if the transport holds any (no-op here: local
      dispatch is start);
    * ``wait_when_idle`` — True when :meth:`step` is meaningful with
      nothing in flight (a remote pool waits for workers to join; a
      local fork pool never needs to).

    Locally a "worker" is one forked child per job, so exclusion sets
    and requeues never trigger: a child death is a per-job ``error``
    (failure isolation), not a lost worker.
    """

    wait_when_idle = False
    #: Workers share this process's memory via fork, so parent-side
    #: precompiles reach them.  Remote transports set True — their
    #: agents hold their own compile caches and a parent-side compile
    #: would be wasted work.
    remote = False

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.runner: Optional[Callable] = None
        self.timeout_s: Optional[float] = None
        self.memory_limit_mb: Optional[int] = None
        self._host = socket.gethostname()
        self._running: List[_Running] = []
        self._context = fork_context()

    def bind(self, runner: Callable, timeout_s: Optional[float],
             memory_limit_mb: Optional[int],
             cost_of: Optional[Callable] = None) -> None:
        self.runner = runner
        self.timeout_s = timeout_s
        self.memory_limit_mb = memory_limit_mb

    # -- capacity ---------------------------------------------------------
    def capacity(self) -> int:
        """Total slots that exist, busy or not (0 = nothing can ever be
        dispatched right now — the signal that lets the scheduler replay
        cache hits without waiting for a pool that may never come)."""
        return self.workers

    def free_slots(self) -> int:
        return self.workers - len(self._running)

    def in_flight(self) -> int:
        return len(self._running)

    # -- dispatch ---------------------------------------------------------
    def dispatch(self, index: int, job,
                 excluded: frozenset = frozenset()) -> bool:
        if self.free_slots() <= 0:
            return False
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_child_main,
            args=(child_conn, self.runner, job, self.memory_limit_mb))
        process.start()
        child_conn.close()
        now = time.monotonic()
        self._running.append(_Running(
            index=index, job=job, process=process, conn=parent_conn,
            started=now,
            deadline=(now + self.timeout_s) if self.timeout_s is not None
            else None))
        return True

    # -- progress ---------------------------------------------------------
    def _wait_timeout(self) -> Optional[float]:
        """How long the pool may block without missing a deadline.

        Never longer than the time to the earliest running deadline (so
        wall-clock limits fire within ``_DEADLINE_SLACK_S`` of expiry —
        the wait wakes *at* the deadline and termination follows
        immediately), and never longer than ``_IDLE_WAIT_S``.
        """
        deadlines = [slot.deadline for slot in self._running
                     if slot.deadline is not None]
        if not deadlines:
            return _IDLE_WAIT_S
        return min(max(0.0, min(deadlines) - time.monotonic()),
                   _IDLE_WAIT_S)

    def step(self) -> Tuple[List[Tuple[int, object, JobResult]],
                            List[Tuple[int, object, Optional[str]]]]:
        """Collect every finished/expired worker (may be empty)."""
        mp_connection.wait([slot.conn for slot in self._running],
                           timeout=self._wait_timeout())
        finished: List[Tuple[int, object, JobResult]] = []
        still: List[_Running] = []
        now = time.monotonic()
        for slot in self._running:
            outcome = reap_child(slot.conn, slot.process, slot.deadline,
                                 now, self.timeout_s)
            if outcome is None:
                still.append(slot)
                continue
            status, payload, error, obs = outcome
            # Same-host fork children share the monotonic clock base, so
            # their spans need no timestamp translation.
            absorb_obs(obs)
            wall = time.monotonic() - slot.started
            METRICS.histogram("scheduler.dispatch_latency_s").observe(wall)
            finished.append((slot.index, slot.job, JobResult(
                job_id=slot.job.job_id, status=status,
                payload=payload, error=error,
                wall_time_s=wall,
                worker=f"{self._host}:{slot.process.pid}")))
        self._running = still
        return finished, []

    def reclaim(self) -> None:
        """No prefetch locally: every dispatched job is already running."""

    def worker_stats(self) -> List[Dict[str, object]]:
        """Per-agent utilization is a remote-fabric concept; locally each
        job is its own short-lived process, so there is nothing to rate."""
        return []

    def close(self) -> None:
        for slot in self._running:   # interrupted/abandoned: no orphans
            slot.process.terminate()
            slot.process.join()
        self._running = []


@dataclass
class _SplitNode:
    """Book-keeping for one work-stealing split: parent = half_0 + half_1."""

    parent_job: object
    parent_key: Optional[str]
    parts: List[Optional[Dict[str, object]]] = field(
        default_factory=lambda: [None, None])
    done: List[bool] = field(default_factory=lambda: [False, False])
    failed: bool = False
    wall_time_s: float = 0.0
    #: Set when the split parent was itself a stolen half: (node, slot).
    grandparent: Optional[Tuple["_SplitNode", int]] = None


class Scheduler:
    """Streams jobs from ``source`` onto a bounded worker pool.

    :meth:`run` yields tagged events in a deterministic interleaving:

    * ``("done", index, job, result)`` — a job finished (or replayed from
      cache); ``index`` is the job's admission order.
    * ``("notice", notice)`` — a :class:`SourceNotice` the source emitted.
    * ``("steal", parent_job, (half_a, half_b))`` — a queued job was
      re-split to feed idle workers.
    * ``("requeue", job, worker_id)`` — the transport lost a worker with
      this job in flight; the job is back in the queue, excluded from
      the dead worker (remote transports only).
    * ``("retry", job, attempt, result)`` — a :class:`RetryPolicy`
      classified this failure as transient and re-queued the job instead
      of surfacing the error (its eventual outcome still arrives as
      exactly one ``done``).

    Exactly one ``done`` event is emitted per admitted job, except jobs
    consumed by a steal — their verdicts arrive through the halves'
    ``done`` events instead.

    ``runner`` executes one job inside a worker; ``transport`` selects
    the execution backend (default: a :class:`LocalTransport` forking
    ``workers`` processes on this host).  Remote transports pick the
    runner agent-side from the unit's wire codec instead.
    """

    def __init__(self, source: Iterable, *,
                 runner: Callable,
                 workers: int = 1,
                 cache: Optional[ArtifactCache] = None,
                 timeout_s: Optional[float] = None,
                 memory_limit_mb: Optional[int] = None,
                 split: Optional[Callable] = None,
                 combine: Optional[Callable] = None,
                 cost_of: Optional[Callable] = None,
                 transport=None,
                 retry: Optional[RetryPolicy] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (None = unbounded)")
        if memory_limit_mb is not None and memory_limit_mb <= 0:
            raise ValueError(
                "memory_limit_mb must be positive (None = unbounded)")
        self._source = iter(source)
        self.workers = workers
        self.cache = cache
        self.timeout_s = timeout_s
        self.memory_limit_mb = memory_limit_mb
        self.runner = runner
        self.split = split
        self.combine = combine
        self.cost_of = cost_of
        self.retry = retry
        #: Jobs re-split by work stealing during the run.
        self.steal_count = 0
        #: job_id -> times it was requeued after losing its worker.
        self.requeue_counts: Dict[str, int] = {}
        #: job_id -> times a transient failure was retried.
        self.retry_counts: Dict[str, int] = {}
        #: admission index -> transient-failure attempts consumed.
        self._attempts: Dict[int, int] = {}

        self._transport = transport if transport is not None \
            else LocalTransport(workers)
        self._transport.bind(runner, timeout_s, memory_limit_mb, cost_of)

        self._queue: deque = deque()      # (index, job)
        self._emit: deque = deque()       # buffered out-of-band events
        self._keys: Dict[int, Optional[str]] = {}
        #: admission index -> worker ids this job must not run on (the
        #: workers that already died holding it).
        self._excluded: Dict[int, Set[str]] = {}
        self._next_index = 0
        self._exhausted = False
        #: Set when the source yielded ``None`` ("temporarily dry") this
        #: round; cleared at the top of every run-loop iteration.
        self._source_blocked = False
        #: Cancellation predicates installed by :meth:`cancel_where`;
        #: consulted whenever a job would (re-)enter the queue.
        self._cancel_predicates: List[Callable] = []
        # job admission index -> (split node, part slot) for stolen halves.
        self._half_of: Dict[int, Tuple[_SplitNode, int]] = {}

    @property
    def transport(self):
        return self._transport

    def _capacity(self) -> int:
        capacity = getattr(self._transport, "capacity", None)
        # Transports without the hook are assumed to have slots (stay
        # lazy) — only an explicit zero unlocks capacity-free replay.
        return capacity() if capacity is not None else 1

    # -- local-transport introspection (tests reach through these) --------
    @property
    def _running(self):
        return self._transport._running

    @_running.setter
    def _running(self, value) -> None:
        self._transport._running = value

    def _wait_timeout(self) -> Optional[float]:
        return self._transport._wait_timeout()

    # -- source -----------------------------------------------------------
    def _admit(self, job) -> int:
        index = self._next_index
        self._next_index += 1
        if self.cache is not None:
            try:
                self._keys[index] = self.cache.key(job)
            except Exception:
                self._keys[index] = None  # unloadable source: worker reports
        else:
            self._keys[index] = None
        return index

    def _pull_one(self) -> None:
        """Advance the source until one runnable job is queued.

        Notices pass through to the emit buffer; cache-hit jobs replay as
        immediate ``done`` events and never occupy a worker slot — on a
        remote transport they never cross the wire either, which is what
        keeps warm reruns local no matter where cold runs executed.
        A ``None`` item marks the source *temporarily dry* (the service
        broker's multiplex seam): stop pulling this round without
        treating the source as exhausted.
        """
        while not self._exhausted:
            try:
                item = next(self._source)
            except StopIteration:
                self._exhausted = True
                return
            if item is None:
                self._source_blocked = True
                return
            if isinstance(item, SourceNotice):
                self._emit.append(("notice", item))
                continue
            index = self._admit(item)
            key = self._keys[index]
            if key is not None:
                entry = self.cache.get_entry(key)
                if entry is not None:
                    self._emit.append(("done", index, item, JobResult(
                        job_id=item.job_id, status="ok",
                        payload=entry.payload, wall_time_s=0.0,
                        from_cache=True,
                        original_wall_time_s=entry.wall_time_s)))
                    continue
            self._queue.append((index, item))
            return

    # -- cancellation (the service seam) ----------------------------------
    def _cancelled_result(self, job) -> JobResult:
        return JobResult(job_id=job.job_id, status="cancelled",
                         error="cancelled before execution")

    def _is_cancelled(self, job) -> bool:
        return any(predicate(job) for predicate in self._cancel_predicates)

    def cancel_where(self, predicate: Callable[[object], bool]) -> int:
        """Cancel queued jobs matching ``predicate``; filter later requeues.

        Each matching job still in this scheduler's queue is dropped and
        emitted as a ``("done", index, job, result)`` event with status
        ``"cancelled"`` — exactly-one-event-per-admitted-job holds, so a
        multiplexing consumer (the campaign service broker) can settle its
        bookkeeping.  The predicate is retained: jobs the transport hands
        back *later* (steal grants, worker deaths) are cancelled at
        requeue time instead of being re-dispatched, which is how a
        ``DELETE``d campaign's prefetched tasks are retracted from remote
        agents through the existing reclaim/steal machinery.  Work already
        *running* is never interrupted — its result arrives normally and
        the caller discards it.  Returns the number of queued jobs
        cancelled right now.

        Must be called from the thread driving :meth:`run` (in practice:
        from inside the source, which the scheduler itself invokes).
        """
        self._cancel_predicates.append(predicate)
        kept: deque = deque()
        cancelled = 0
        for index, job in self._queue:
            if predicate(job):
                self._emit.append(("done", index, job,
                                   self._cancelled_result(job)))
                cancelled += 1
            else:
                kept.append((index, job))
        self._queue = kept
        # Pull back not-yet-started work the transport prefetched onto
        # agents; the grants come home through _requeue, where the
        # predicate cancels them.
        self._transport.reclaim()
        return cancelled

    # -- work stealing ----------------------------------------------------
    def _try_steal(self) -> None:
        """Re-split queued jobs while idle workers outnumber them.

        Splits the costliest splittable queued job first (``cost_of``
        ranks them; admission order breaks ties), so the halves that get
        reissued are the ones most likely to still dominate the tail.
        """
        if self.split is None:
            return
        while len(self._queue) < self._transport.free_slots():
            best = None
            for position, (index, job) in enumerate(self._queue):
                halves = self.split(job)
                if halves is None:
                    continue
                cost = self.cost_of(job) if self.cost_of else 0.0
                if best is None or cost > best[0]:
                    best = (cost, position, index, job, halves)
            if best is None:
                return
            _, position, index, job, (half_a, half_b) = best
            del self._queue[position]
            node = _SplitNode(parent_job=job, parent_key=self._keys[index])
            parent_link = self._half_of.pop(index, None)
            if parent_link is not None:
                # Splitting an already-split half: chain the nodes so the
                # grandparent's payload still assembles bottom-up.
                node.grandparent = parent_link
            inherited = self._excluded.get(index, set())
            for part, half in enumerate((half_a, half_b)):
                half_index = self._admit(half)
                self._half_of[half_index] = (node, part)
                if inherited:
                    self._excluded[half_index] = set(inherited)
                self._queue.append((half_index, half))
            self.steal_count += 1
            METRICS.counter("scheduler.steals").inc()
            TRACER.instant("steal", cat="scheduler",
                           args={"job_id": job.job_id})
            self._emit.append(("steal", job, (half_a, half_b)))

    def _record_half(self, index: int, result: JobResult) -> None:
        """Fold a stolen half's payload toward its parent's cache entry."""
        link = self._half_of.get(index)
        if link is None:
            return
        node, slot = link
        node.done[slot] = True
        node.wall_time_s += result.wall_time_s
        if result.ok:
            node.parts[slot] = result.payload
        else:
            node.failed = True
        if all(node.done):
            self._finish_node(node)

    def _finish_node(self, node: _SplitNode) -> None:
        """A split's halves are all in: rebuild and cache the parent.

        The combined payload is written under the *parent's* cache key, so
        a warm rerun — which shards the original grouping — replays the
        parent no matter how the cold run happened to split it.
        """
        payload = None
        if not node.failed and self.combine is not None:
            try:
                payload = self.combine(node.parent_job, node.parts[0],
                                       node.parts[1])
            except Exception:
                payload = None
        if payload is not None and self.cache is not None \
                and node.parent_key is not None:
            self.cache.put(node.parent_key, payload,
                           wall_time_s=node.wall_time_s)
        if node.grandparent is not None:
            gp_node, gp_slot = node.grandparent
            gp_node.done[gp_slot] = True
            gp_node.wall_time_s += node.wall_time_s
            if payload is not None:
                gp_node.parts[gp_slot] = payload
            else:
                gp_node.failed = True
            if all(gp_node.done):
                self._finish_node(gp_node)

    # -- pool -------------------------------------------------------------
    def _fill(self) -> None:
        """Pull, steal-split and dispatch until the pool is saturated.

        Queued work launches eagerly — a pull can block on the next
        design's parent-side frontend, and already-expanded tasks must be
        checking *during* that compile, not after it.  The one exception
        preserves tail stealing: when the last queued item is splittable
        and launching it would still leave idle slots, the source is
        probed first — if it turns out to be dry, that group is exactly
        the steal candidate the idle slots need, and committing it whole
        to one worker would have forfeited the split.  (Single-property
        tasks are never held back: unsplittable work can't be stolen, so
        probing would only delay it.)
        """
        while True:
            free = self._transport.free_slots()
            if free <= 0:
                # No free slot.  If the transport currently has no
                # capacity AT ALL (a remote pool before its quorum, or
                # after its whole fleet died) still advance the source:
                # cache-hit jobs replay at admission without touching a
                # worker, so a fully-warm rerun must complete with zero
                # agents attached.  A busy-but-nonzero pool stays lazy —
                # the deliberately-tested contract that the stream is
                # pulled only when a slot frees.
                if self._capacity() == 0 and not self._exhausted \
                        and not self._queue:
                    self._pull_one()
                return
            if self._exhausted:
                self._try_steal()
                if not self._queue:
                    # Nothing left to issue but slots are idle: ask the
                    # transport to reclaim prefetched work from busy
                    # workers (steal grants; no-op locally).
                    self._transport.reclaim()
                    return
            elif not self._queue:
                if self._source_blocked:
                    # Temporarily-dry multiplex source: nothing more to
                    # issue this round; the run loop re-probes next time.
                    return
                self._pull_one()
                continue
            elif len(self._queue) == 1 and free > 1 \
                    and self.split is not None \
                    and self.split(self._queue[0][1]) is not None \
                    and not self._source_blocked:
                self._pull_one()
                continue
            launched = False
            for position in range(len(self._queue)):
                index, job = self._queue[position]
                excluded = frozenset(self._excluded.get(index, ()))
                if self._transport.dispatch(index, job, excluded):
                    del self._queue[position]
                    launched = True
                    break
            if not launched:
                # Every queued job is excluded from every free worker
                # (or the transport is gating dispatch, e.g. waiting for
                # its minimum worker count): let step() make progress.
                return

    def _finish(self, index: int, result: JobResult) -> JobResult:
        if result.ok and self.cache is not None \
                and self._keys.get(index) is not None:
            self.cache.put(self._keys[index], result.payload,
                           wall_time_s=result.wall_time_s)
        self._record_half(index, result)
        return result

    def _requeue(self, index: int, job, worker_id: Optional[str]) -> None:
        """Put a transport-returned job back at the head of the queue.

        ``worker_id`` set means its worker died mid-flight: the job is
        excluded from that worker and the requeue is counted/evented.
        ``worker_id`` None is a steal grant — a live worker voluntarily
        relinquished a not-yet-started task at the tail — which re-enters
        the queue silently (the subsequent split emits its own event).

        A job cancelled by :meth:`cancel_where` between dispatch and
        return settles as a ``cancelled`` done event here instead of
        re-entering the queue — the retraction path for a cancelled
        campaign's prefetched tasks.
        """
        if self._is_cancelled(job):
            self._emit.append(("done", index, job,
                               self._cancelled_result(job)))
            return
        self._queue.appendleft((index, job))
        if worker_id is not None:
            self._excluded.setdefault(index, set()).add(worker_id)
            self.requeue_counts[job.job_id] = \
                self.requeue_counts.get(job.job_id, 0) + 1
            METRICS.counter("scheduler.requeues").inc()
            TRACER.instant("requeue", cat="scheduler",
                           args={"job_id": job.job_id,
                                 "worker": worker_id})
            self._emit.append(("requeue", job, worker_id))

    def _should_retry(self, index: int, job, result: JobResult) -> bool:
        """Re-queue a transient failure instead of surfacing it.

        Emits ``("retry", job, attempt, result)`` and returns True when
        the job went back to the queue — the caller must then *not*
        yield a ``done`` event (exactly-one-done is preserved: the
        retried attempt produces it later).  The worker is deliberately
        not excluded — it is alive (its *child* died), and excluding it
        would starve a one-worker fleet.
        """
        if self.retry is None or result.ok or result.from_cache:
            return False
        if self._is_cancelled(job):
            return False
        if classify_failure(result) != "transient":
            return False
        attempt = self._attempts.get(index, 0) + 1
        if attempt > self.retry.max_retries:
            return False
        self._attempts[index] = attempt
        self.retry_counts[job.job_id] = \
            self.retry_counts.get(job.job_id, 0) + 1
        METRICS.counter("scheduler.retries").inc()
        TRACER.instant("retry", cat="scheduler",
                       args={"job_id": job.job_id, "attempt": attempt,
                             "error": result.error})
        self._queue.appendleft((index, job))
        self._emit.append(("retry", job, attempt, result))
        return True

    # -- the run loop ------------------------------------------------------
    def run(self) -> Iterator[tuple]:
        """Execute the source to completion, yielding tagged events.

        The interleaving is deterministic where it matters: after every
        ``done`` event the pool refills (pulling the source — i.e. running
        the next design's frontend — and steal-splitting) *before* the
        next ``done`` is processed, which is what lets an event-order test
        prove compile/check overlap without wall-clock assertions.
        """
        try:
            while True:
                self._source_blocked = False
                self._fill()
                METRICS.gauge("scheduler.queue_depth").set(
                    len(self._queue))
                METRICS.gauge("scheduler.in_flight").set(
                    self._transport.in_flight())
                while self._emit:
                    event = self._emit.popleft()
                    yield event
                    self._fill()
                if not self._transport.in_flight():
                    if not self._queue and self._exhausted:
                        if self._emit:
                            continue
                        break
                    if not self._transport.wait_when_idle:
                        continue
                finished, requeued = self._transport.step()
                for index, job, worker_id in requeued:
                    self._requeue(index, job, worker_id)
                for index, job, result in finished:
                    if self._should_retry(index, job, result):
                        continue
                    yield ("done", index, job, self._finish(index, result))
                    self._fill()
                    while self._emit:
                        event = self._emit.popleft()
                        yield event
                        self._fill()
        finally:
            self._transport.close()


def run_campaign(jobs: Sequence, *,
                 runner: Callable[[object], Dict[str, object]],
                 workers: int = 1,
                 cache: Optional[ArtifactCache] = None,
                 timeout_s: Optional[float] = None,
                 memory_limit_mb: Optional[int] = None,
                 progress: Optional[Callable[[JobResult], None]] = None,
                 transport=None
                 ) -> List[JobResult]:
    """Run ``jobs`` through ``runner`` on a worker pool (batch wrapper).

    The list-shaped shim over :class:`Scheduler`: returns one
    :class:`JobResult` per job, **in job order**, regardless of worker
    count or completion order.  ``progress`` (if given) is called with
    each result as it lands, in completion order.  Cached jobs replay
    without occupying a worker slot.  Campaigns go through
    :func:`~repro.campaign.sharding.run_property_campaign`; this shim is
    what the scheduler tests drive with synthetic runners.
    """
    jobs = list(jobs)
    results: List[Optional[JobResult]] = [None] * len(jobs)
    scheduler = Scheduler(jobs, runner=runner, workers=workers,
                          cache=cache, timeout_s=timeout_s,
                          memory_limit_mb=memory_limit_mb,
                          transport=transport)
    for event in scheduler.run():
        if event[0] == "done":
            _, index, _, result = event
            results[index] = result
            if progress:
                progress(result)
    return [result for result in results if result is not None]
