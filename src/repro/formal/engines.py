"""Pluggable proof engines: a string-keyed registry behind ``EngineConfig``.

Historically :class:`~repro.formal.engine.FormalEngine` dispatched on
``EngineConfig.proof_engine`` with an if/elif chain, so adding a proof
algorithm meant editing the orchestrator.  This module turns that dispatch
into data:

* :class:`Engine` is the protocol a proof backend implements — given a
  transition system and a literal that must hold in every reachable state,
  return a uniform :class:`EngineVerdict` (proven / cex / unknown);
* :func:`register_engine` / :func:`get_engine` / :func:`available_engines`
  manage the registry.  Built-ins: ``"pdr"`` (IC3, the production default),
  ``"kind"`` (k-induction, the paper's ablation E12) and ``"bmc-only"``
  (no proof attempt — bug hunting alone, for quick sweeps);
* liveness *strategies* get the same treatment: ``"l2s"`` (the
  liveness-to-safety proof path) and ``"bounded"`` (lasso hunting only)
  live in a parallel registry consulted by the liveness orchestration.

Third-party engines plug in without touching the orchestrator::

    from repro.formal.engines import Engine, EngineVerdict, register_engine

    class MyEngine:
        name = "my-ic3"
        def prove_invariant(self, system, good_lit, config):
            ...
            return EngineVerdict(status="proven", depth=closing_frame)

    register_engine(MyEngine())
    report = run_fv(ft, sources, EngineConfig(proof_engine="my-ic3"))
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from .cnf import Unroller
from .kinduction import prove_safety
from .pdr import PdrContext, pdr_prove
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import EngineConfig
    from .transition import TransitionSystem

__all__ = [
    "Engine", "EngineVerdict", "LivenessStrategy", "ProofContext",
    "register_engine", "get_engine", "available_engines",
    "register_liveness_strategy", "get_liveness_strategy",
    "available_liveness_strategies", "prove_with",
]


@dataclass
class ProofContext:
    """Warm solver state the orchestrator shares with proof backends.

    ``hunt_unroller`` is the BMC sweep's concrete-init unrolling of the
    same system — k-induction base cases extend its frames instead of
    re-encoding.  ``cleared_depth`` is the highest depth that sweep proved
    violation-free for the property being handed over (base cases up to it
    need no re-solving).  ``pdr`` is the system's shared
    :class:`~repro.formal.pdr.PdrContext` (transition encoding + learned
    clauses amortized across every property's PDR run).

    Backends accept it as the optional ``context`` keyword; engines that
    ignore it (or third-party engines written before it existed) keep
    working — :func:`prove_with` only passes what a backend's signature
    admits.
    """

    hunt_unroller: Optional[Unroller] = None
    cleared_depth: int = -1
    pdr: Optional[PdrContext] = None


def prove_with(engine: "Engine", system: "TransitionSystem", good_lit: int,
               config: "EngineConfig",
               context: Optional[ProofContext] = None) -> "EngineVerdict":
    """Invoke a backend, passing ``context`` only if its signature takes it."""
    if context is not None and engine.accepts_context:
        return engine.prove_invariant(system, good_lit, config,
                                      context=context)
    return engine.prove_invariant(system, good_lit, config)


@dataclass
class EngineVerdict:
    """Uniform outcome of one invariant-proof attempt.

    ``status`` is ``"proven"`` (``depth`` = closing frame / induction k),
    ``"cex"`` (``cex_depth`` = violation depth; ``trace`` when the backend
    produced one — backends that only learn the depth, like PDR, leave it
    None and the orchestrator regenerates it with BMC) or ``"unknown"``
    (``depth`` = the bound that was exhausted).

    ``solver_stats`` holds the counters of the solvers this attempt ran and
    nobody else counts: a solver shared through :class:`ProofContext`
    contributes only this attempt's delta, and a context solver the
    orchestrator already tracks (the hunt unroller) contributes nothing.
    """

    status: str
    depth: int = 0
    cex_depth: int = 0
    trace: Optional[Trace] = None
    solver_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def proven(self) -> bool:
        return self.status == "proven"

    @property
    def failed(self) -> bool:
        return self.status == "cex"


class Engine:
    """Protocol for invariant-proof backends.

    Implementations provide ``name`` (the registry key) and
    :meth:`prove_invariant`.  ``liveness_ladder`` opts the engine into the
    incremental k-liveness proof ladder the orchestrator runs before full
    L2S (cheap for frame-based engines like PDR, counterproductive for
    monolithic ones like k-induction).
    """

    name: str = ""
    liveness_ladder: bool = False
    #: Whether cover targets the BMC hunt misses get an unreachability
    #: proof attempt (engines that never prove — bmc-only — opt out).
    proves_covers: bool = True

    def prove_invariant(self, system: "TransitionSystem", good_lit: int,
                        config: "EngineConfig", **kwargs) -> EngineVerdict:
        """Try to prove ``good_lit`` holds in every reachable state.

        Backends may declare an optional ``context`` keyword
        (:class:`ProofContext`) to reuse the orchestrator's warm solver
        state; :func:`prove_with` checks the signature before passing it.
        """
        raise NotImplementedError

    @property
    def accepts_context(self) -> bool:
        if not hasattr(self, "_accepts_context"):
            params = inspect.signature(self.prove_invariant).parameters
            self._accepts_context = ("context" in params or any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in params.values()))
        return self._accepts_context

    def unknown_depth(self, config: "EngineConfig") -> int:
        """The exhausted bound reported on an unknown verdict."""
        return 0


class PdrEngine(Engine):
    """IC3/PDR — the default, mirroring what production FV tools run."""

    name = "pdr"
    liveness_ladder = True

    def prove_invariant(self, system, good_lit, config,
                        context=None) -> EngineVerdict:
        pdr_context = context.pdr if context is not None else None
        outcome = pdr_prove(system, good_lit, max_frames=config.max_frames,
                            context=pdr_context)
        stats = outcome.solver_stats
        if outcome.proven:
            return EngineVerdict("proven", depth=outcome.frames,
                                 solver_stats=stats)
        if outcome.failed:
            # PDR learns the CEX depth but not the trace; the orchestrator
            # regenerates it with BMC at that depth.
            return EngineVerdict("cex", cex_depth=outcome.cex_depth,
                                 solver_stats=stats)
        return EngineVerdict("unknown", depth=config.max_frames,
                             solver_stats=stats)

    def unknown_depth(self, config) -> int:
        return config.max_frames


class KInductionEngine(Engine):
    """k-induction with optional simple-path strengthening (ablation E12)."""

    name = "kind"

    def prove_invariant(self, system, good_lit, config,
                        context=None) -> EngineVerdict:
        base_unroller = context.hunt_unroller if context is not None else None
        base_cleared = context.cleared_depth if context is not None else -1
        outcome = prove_safety(system, good_lit, max_k=config.max_k,
                               simple_path=config.simple_path,
                               base_unroller=base_unroller,
                               base_cleared=base_cleared)
        stats = outcome.solver_stats
        if outcome.failed:
            return EngineVerdict("cex", cex_depth=outcome.cex_trace.depth - 1,
                                 trace=outcome.cex_trace, solver_stats=stats)
        if outcome.proven:
            return EngineVerdict("proven", depth=outcome.k,
                                 solver_stats=stats)
        return EngineVerdict("unknown", depth=config.max_k,
                             solver_stats=stats)

    def unknown_depth(self, config) -> int:
        return config.max_k


class BmcOnlyEngine(Engine):
    """No proof attempt at all: BMC bug hunting is the whole engine.

    Useful for shallow sweep configs where the campaign only wants CEX
    discovery — every property that survives the hunt reports ``unknown``.
    """

    name = "bmc-only"
    proves_covers = False

    def prove_invariant(self, system, good_lit, config) -> EngineVerdict:
        return EngineVerdict("unknown", depth=config.max_bound)

    def unknown_depth(self, config) -> int:
        return config.max_bound


@dataclass(frozen=True)
class LivenessStrategy:
    """How the orchestrator treats liveness properties.

    ``proves``: attempt a proof after the bounded lasso hunt (``"l2s"``);
    strategies with ``proves=False`` (``"bounded"``) stop at bug hunting and
    report ``unknown`` for everything the hunt did not falsify.
    """

    name: str
    proves: bool


_ENGINES: Dict[str, Engine] = {}
_LIVENESS: Dict[str, LivenessStrategy] = {}


def register_engine(engine: Engine) -> Engine:
    """Add (or replace) a proof engine under ``engine.name``."""
    if not engine.name:
        raise ValueError("engine must carry a non-empty name")
    _ENGINES[engine.name] = engine
    return engine


def get_engine(name: str) -> Engine:
    try:
        return _ENGINES[name]
    except KeyError:
        raise KeyError(
            f"unknown proof engine {name!r} "
            f"(registered: {', '.join(available_engines())})") from None


def available_engines() -> List[str]:
    return sorted(_ENGINES)


def register_liveness_strategy(strategy: LivenessStrategy) -> LivenessStrategy:
    _LIVENESS[strategy.name] = strategy
    return strategy


def get_liveness_strategy(name: str) -> LivenessStrategy:
    try:
        return _LIVENESS[name]
    except KeyError:
        raise KeyError(
            f"unknown liveness strategy {name!r} (registered: "
            f"{', '.join(available_liveness_strategies())})") from None


def available_liveness_strategies() -> List[str]:
    return sorted(_LIVENESS)


register_engine(PdrEngine())
register_engine(KInductionEngine())
register_engine(BmcOnlyEngine())
register_liveness_strategy(LivenessStrategy("l2s", proves=True))
register_liveness_strategy(LivenessStrategy("bounded", proves=False))
