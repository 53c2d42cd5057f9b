"""Outside-in layer tracing for the benchmark's traced runs.

Nothing here is part of ``repro``: :func:`install` replaces public entry
points of each layer with timing wrappers, in every ``repro`` module that
holds a reference to them.  Measured (untraced) runs never import this
module, so tracing costs them nothing.

Each wrapped call is a span: name, start, end, parent span and the task
(or campaign) it ran for.  Spans stay in memory; forked workers ship
theirs back inside the task payload, which :class:`TracedTransport`
strips before the scheduler sees it.  :func:`dump` writes everything out
once, at the end.  The per-call leaves ``Solver.add_clause`` and
``Unroller.frame`` run hundreds of thousands of times, so they only
update per-layer totals instead of keeping one record per call.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

from repro.api.compile import COMPILE_CACHE
from repro.campaign import scheduler

_now = time.monotonic
#: Payload key a traced worker uses to ship its spans to the parent.
SHIP_KEY = "_perfbench_trace"


class Recorder:
    """Spans and per-layer totals of one process (or one forked task)."""

    def __init__(self) -> None:
        self.reset("main")

    def reset(self, owner: str) -> None:
        # A fresh lock too: a forked worker may inherit one that another
        # thread of the parent held at fork time.
        self._lock = threading.Lock()
        self.owner = owner
        self.spans = []        # (id, parent id, name, start, end, owner)
        self.layers = {}       # name -> [calls, inclusive_s, self_s]
        self.counters = {}
        self.tasks = []        # exports shipped back by forked workers
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _frames(self):
        local = self._local
        try:
            return local.stack, local.depth
        except AttributeError:
            local.stack, local.depth = [], {}
            return local.stack, local.depth

    def call(self, name, keep, fn, args, kwargs):
        stack, depth = self._frames()
        sid = next(self._ids) if keep else 0
        parent = stack[-1][0] if stack else 0
        frame = [sid, 0.0]
        stack.append(frame)
        depth[name] = depth.get(name, 0) + 1
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            outer = depth[name] == 1
            depth[name] -= 1
            took = end - start
            if stack:
                stack[-1][1] += took
            with self._lock:
                total = self.layers.get(name)
                if total is None:
                    total = self.layers[name] = [0, 0.0, 0.0]
                if outer:
                    total[0] += 1
                    total[1] += took
                total[2] += took - frame[1]
            if keep:
                self.spans.append((sid, parent, name, start, end,
                                   self.owner))

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def export(self) -> dict:
        return {"owner": self.owner, "spans": self.spans,
                "layers": self.layers, "counters": self.counters}


REC = Recorder()


def _wrap(name, fn, keep=True, after=None):
    """A timing wrapper; ``after(args, result)`` may add counters."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = REC.call(name, keep, fn, args, kwargs)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that names ``original``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(module, attr, name, keep=True, after=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, _wrap(name, original, keep, after))


def _patch_method(cls, attr, name, keep=True, after=None) -> None:
    setattr(cls, attr, _wrap(name, getattr(cls, attr), keep, after))


# -- layer-specific wrappers ----------------------------------------------

def _patch_solver(solver_cls) -> None:
    original = solver_cls.solve

    def solve(self, *args, **kwargs):
        stats = self.stats
        before = (stats.propagations, stats.conflicts, stats.decisions)
        try:
            return REC.call("sat.solve", True, original, (self,) + args,
                            kwargs)
        finally:
            REC.count("sat.solve_calls")
            REC.count("sat.propagations", stats.propagations - before[0])
            REC.count("sat.conflicts", stats.conflicts - before[1])
            REC.count("sat.decisions", stats.decisions - before[2])

    solver_cls.solve = solve
    _patch_method(solver_cls, "add_clause", "sat.add_clause", keep=False)


def _patch_unroller(unroller_cls) -> None:
    original = unroller_cls.frame

    def frame(self, k):
        before = self.num_frames
        try:
            return REC.call("cnf.frame", False, original, (self, k), {})
        finally:
            REC.count("cnf.frames", self.num_frames - before)

    unroller_cls.frame = frame


def _count_pdr(args, result) -> None:
    REC.count("pdr.proven", 1 if result.proven else 0)


def _count_cache(args, result) -> None:
    REC.count("cache.lookups")
    if result is not None:
        REC.count("cache.hits")


def _traced_stream(original):
    """``stream_tasks`` whose pulls are timed as the sharding frontend."""
    @functools.wraps(original)
    def stream_tasks(*args, **kwargs):
        inner = original(*args, **kwargs)
        try:
            while True:
                try:
                    item = REC.call("sharding.frontend", True, next,
                                    (inner,), {})
                except StopIteration:
                    return
                if hasattr(item, "task_id"):
                    YIELDED[id(item)] = _now()
                yield item
        finally:
            inner.close()
    return stream_tasks


#: id(task) -> when the frontend handed it to the scheduler.
YIELDED = {}


class _TimedSource:
    """Times the scheduler's pulls of the broker's job source."""

    def __init__(self, source) -> None:
        self._inner = iter(source)

    def __iter__(self):
        return self

    def __next__(self):
        return REC.call("broker.source_wait", True, next, (self._inner,),
                        {})


def _traced_runner(runner):
    """Worker-side: run one task with a fresh recorder, ship its spans."""
    def traced(job):
        REC.reset(job.job_id)
        before = COMPILE_CACHE.stats()
        payload = runner(job)
        _count_compiles(before)
        payload[SHIP_KEY] = REC.export()
        return payload
    return traced


def _count_compiles(before) -> None:
    after = COMPILE_CACHE.stats()
    REC.count("api.compiles", after["compiles"] - before["compiles"])
    REC.count("api.compile_hits", after["hits"] - before["hits"])


class TracedTransport(scheduler.LocalTransport):
    """A fork pool whose dispatch and result collection are timed."""

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._sent = {}

    def bind(self, runner, timeout_s, memory_limit_mb, cost_of=None):
        super().bind(_traced_runner(runner), timeout_s, memory_limit_mb,
                     cost_of)

    def dispatch(self, index, job, excluded=frozenset()):
        start = _now()
        launched = REC.call("scheduler.dispatch", True, super().dispatch,
                            (index, job, excluded), {})
        if launched:
            self._sent[index] = _now()
            queued = YIELDED.pop(id(job), None)
            if queued is not None:
                REC.count("scheduler.queue_wait_s", start - queued)
        return launched

    def step(self):
        finished, requeued = super().step()
        now = _now()
        for index, _, result in finished:
            busy = now - self._sent.pop(index, now)
            REC.count("scheduler.busy_s", busy)
            REC.count("scheduler.tasks")
            shipped = (result.payload or {}).pop(SHIP_KEY, None)
            if shipped is not None:
                shipped["busy_s"] = busy
                REC.tasks.append(shipped)
        return finished, requeued


def install(service: bool = False) -> None:
    """Wrap every traced layer's public entry points.  Call once per
    process, before the workload starts; ``service`` adds the broker,
    the journal and the broker's job source."""
    import repro.api  # noqa: F401  (load every module that holds a ref)
    import repro.core  # noqa: F401
    from repro.api import task as api_task
    from repro.campaign import cache, sharding
    from repro.core import flow
    from repro.formal import bmc, cnf, engine, pdr, sat
    from repro.obs import record
    from repro.rtl import synth

    if service:
        import repro.service.server  # noqa: F401
        from repro.service import broker, journal
        _patch_method(broker.CampaignBroker, "submit", "broker.submit")
        _patch_method(journal.CampaignJournal, "append", "journal.append")
        original_init = scheduler.Scheduler.__init__

        def init(self, source, *args, **kwargs):
            original_init(self, _TimedSource(source), *args, **kwargs)
        scheduler.Scheduler.__init__ = init

    _patch_solver(sat.Solver)
    _patch_unroller(cnf.Unroller)
    _patch_function(pdr, "pdr_prove", "pdr.prove", after=_count_pdr)
    for attr in ("bmc_sweep", "bmc_safety", "bmc_cover"):
        _patch_function(bmc, attr, "bmc.sweep")
    _patch_method(engine.FormalEngine, "check_properties", "engine.check")
    _patch_function(api_task, "execute_task", "api.task")
    _patch_function(flow, "generate_ft", "core.generate_ft")
    _patch_function(synth, "synthesize", "rtl.synthesize")
    _replace_everywhere(sharding.stream_tasks,
                        _traced_stream(sharding.stream_tasks))
    _patch_method(cache.ArtifactCache, "get_entry", "cache.get",
                  after=_count_cache)
    _patch_method(cache.ArtifactCache, "get", "cache.get")
    _patch_method(cache.ArtifactCache, "put", "cache.put")
    _patch_function(sharding, "merge_shard_results", "report.build")
    for attr in ("build_record", "validate_record"):
        _patch_function(record, attr, "report.build")
    # Every scheduler built without a transport (the campaign process's
    # and the service's) builds its pool from this module attribute.
    scheduler.LocalTransport = TracedTransport
    _COMPILE_BASE.update(COMPILE_CACHE.stats())
    REC.owner = "service" if service else "campaign"


#: This process's compile-cache counters when tracing was installed.
_COMPILE_BASE = {}


def dump(path) -> None:
    """Write this process's spans, totals and the shipped task exports."""
    _count_compiles(_COMPILE_BASE)
    data = REC.export()
    data["tasks"] = REC.tasks
    with open(path, "w") as handle:
        json.dump(data, handle)
