"""k-induction: the proof half of the model-checking engine.

A safety property P is proven by k-induction when

* **base case** — P holds in all states reachable within k cycles of reset
  (checked by BMC), and
* **inductive step** — any k+1 consecutive states satisfying P (and all
  invariant constraints) must satisfy P in the next state, starting from an
  *arbitrary* (symbolic) state.

The inductive step is strengthened with *simple-path* constraints (no two
states in the window are identical), which makes k-induction complete for
finite systems: every system is provable at some k bounded by its recurrence
diameter.  Simple-path states are compared on the property's cone-of-
influence latches only: the COI closure (property + constraints, see
:mod:`repro.formal.coi`) is a self-contained subsystem, so any lasso in it
projects to a lasso over exactly those latches — comparing fewer bits is
lossless and far cheaper to encode.

Two reuse hooks keep repeated proofs cheap:

* ``base_unroller`` — the engine passes its BMC hunt unroller, so base
  cases extend frames the hunt already encoded instead of re-encoding the
  design from scratch;
* ``base_cleared`` — depths the hunt already proved violation-free are
  skipped entirely (the hunt's UNSAT answers are exactly the base cases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .cnf import Unroller
from .coi import coi_latches
from .sat import Solver
from .trace import Trace, extract_trace
from .transition import TransitionSystem

__all__ = ["InductionResult", "prove_safety"]


@dataclass
class InductionResult:
    """Outcome of a k-induction proof attempt.

    ``proven`` with ``k`` the induction depth that closed the proof;
    ``cex_trace`` set instead when the base case found a real violation;
    neither set means the bound was exhausted (UNKNOWN).
    """

    proven: bool
    k: int
    cex_trace: Optional[Trace] = None
    solver_stats: Optional[dict] = None

    @property
    def failed(self) -> bool:
        return self.cex_trace is not None


def _add_simple_path(unroller: Unroller, solver: Solver,
                     latches, i: int, j: int) -> None:
    """Require state(i) != state(j): at least one COI latch differs."""
    diff_lits: List[int] = []
    for latch in latches:
        a = unroller.sat_literal(latch.node, i)
        b = unroller.sat_literal(latch.node, j)
        # fresh var d <-> (a xor b)
        d = solver.new_var()
        solver.add_clause([-d, a, b])
        solver.add_clause([-d, -a, -b])
        solver.add_clause([d, -a, b])
        solver.add_clause([d, a, -b])
        diff_lits.append(d)
    solver.add_clause(diff_lits)


def prove_safety(system: TransitionSystem, assert_lit: int, max_k: int,
                 property_name: str = "assertion",
                 simple_path: bool = True,
                 base_unroller: Optional[Unroller] = None,
                 base_cleared: int = -1) -> InductionResult:
    """Attempt to prove ``assert_lit`` invariant by k-induction up to ``max_k``.

    Interleaves base-case BMC (which may return a genuine counterexample)
    with inductive steps of increasing depth.  ``base_cleared`` marks the
    highest depth already known violation-free (e.g. by the engine's BMC
    hunt): base cases up to it are skipped, not re-solved.

    The result's ``solver_stats`` count the step solver, plus the base
    solver only when it was built here: a caller's ``base_unroller`` is
    the caller's to count.
    """
    base = base_unroller or Unroller(system)
    own_base = base_unroller is None
    # The step unrolling keeps the historical eager encoding: simple-path
    # constraints touch the COI latches in every frame anyway, and the
    # stable variable numbering keeps induction's solver trajectory stable.
    step = Unroller(system, symbolic_init=True, eager_latches=True)
    step_solver = step.solver
    sp_latches = coi_latches(system, [assert_lit]) if simple_path else []

    def counters() -> dict:
        stats = step_solver.stats.as_dict()
        if own_base:
            for key, value in base.solver.stats.as_dict().items():
                stats[key] += value
        return stats

    for k in range(max_k + 1):
        # Base case at exactly depth k (unless a hunt already cleared it).
        if k > base_cleared:
            bad = -base.sat_literal(assert_lit, k)
            if base.solver.solve(assumptions=[bad]):
                trace = extract_trace(property_name, system, base, depth=k)
                return InductionResult(proven=False, k=k, cex_trace=trace,
                                       solver_stats=counters())
        # Inductive step: P holds at frames 0..k, fails at k+1?
        # (Frames start from a symbolic state; constraints apply everywhere.)
        step.frame(k + 1)
        # P assumed on frames 0..k — added as permanent clauses (monotone:
        # deeper steps still require them).
        p_k = step.sat_literal(assert_lit, k)
        step_solver.add_clause([p_k])
        if simple_path:
            for i in range(k + 1):
                _add_simple_path(step, step_solver, sp_latches, i, k + 1)
        bad_step = -step.sat_literal(assert_lit, k + 1)
        if not step_solver.solve(assumptions=[bad_step]):
            return InductionResult(proven=True, k=k,
                                   solver_stats=counters())
    return InductionResult(proven=False, k=max_k, solver_stats=counters())
