"""Solver accounting: every SAT solve an engine runs is counted once.

``CheckReport.solver`` and ``solve_time_s`` are what the campaign phase
breakdown, the perf-smoke counter gate and ``/metrics`` read, so a solver
the engine forgets (or counts twice) skews every one of them.
"""

import pytest

from repro.api.compile import CompileCache
from repro.core import generate_ft
from repro.designs import case_by_id
from repro.formal import EngineConfig, FormalEngine
from repro.formal.aig import FALSE
from repro.formal.pdr import pdr_prove
from repro.formal.sat import Solver


@pytest.fixture(scope="module")
def tlb():
    """A2 (the TLB): asserts, a cover and liveness, checked in ~0.2s."""
    case = case_by_id("A2")
    source = case.dut_source()
    ft = generate_ft(source, module_name=case.dut_module)
    sources = [source] + case.extra_sources() + ft.testbench_sources()
    return CompileCache().get_or_compile(["\n".join(sources)],
                                         case.dut_module)


@pytest.fixture
def solve_calls(monkeypatch):
    """Count every Solver.solve call, whoever built the solver."""
    calls = []
    original = Solver.solve

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", counting)
    return calls


@pytest.mark.parametrize("proof_engine", ["pdr", "kind"])
@pytest.mark.parametrize("batched", [True, False])
def test_report_counts_every_solve(tlb, solve_calls, batched, proof_engine):
    config = EngineConfig(max_bound=8, max_frames=30, max_k=4,
                          proof_engine=proof_engine)
    engine = FormalEngine(tlb.system, config, batched=batched)
    probe = tlb.system()
    groups = [[p.name for p in probe.asserts],
              [p.name for p in probe.covers + probe.liveness]]
    assert all(groups)
    # Two checks on one engine: the second reuses its warm solvers, and
    # each report must count exactly the solves made during its own call.
    for names in groups:
        before = len(solve_calls)
        report = engine.check_properties(names)
        assert report.solver["solve_calls"] == len(solve_calls) - before
    assert {r.kind for r in report.results} >= {"cover", "live"}
    assert len({id(solver) for solver in solve_calls}) > 1


def test_trivial_pdr_run_reports_counters(tlb):
    result = pdr_prove(tlb.system(), FALSE ^ 1)
    assert result.proven
    assert result.solver_stats["solve_calls"] == 0
