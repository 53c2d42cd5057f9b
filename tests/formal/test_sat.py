"""Unit and property-based tests for the CDCL SAT solver."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.formal.sat import Solver, luby


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert Solver().solve()

    def test_single_unit(self):
        s = Solver()
        a = s.new_var()
        assert s.add_clause([a])
        assert s.solve()
        assert s.value(a) is True

    def test_contradictory_units(self):
        s = Solver()
        a = s.new_var()
        assert s.add_clause([a])
        assert not s.add_clause([-a])
        assert not s.solve()

    def test_implication_chain(self):
        s = Solver()
        vs = [s.new_var() for _ in range(10)]
        for x, y in zip(vs, vs[1:]):
            s.add_clause([-x, y])
        s.add_clause([vs[0]])
        assert s.solve()
        assert all(s.value(v) for v in vs)

    def test_simple_unsat(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([a, -b])
        s.add_clause([-a, b])
        s.add_clause([-a, -b])
        assert not s.solve()

    def test_tautology_ignored(self):
        s = Solver()
        a = s.new_var()
        assert s.add_clause([a, -a])
        assert s.solve()

    def test_duplicate_literals_collapse(self):
        s = Solver()
        a = s.new_var()
        assert s.add_clause([a, a, a])
        assert s.solve()
        assert s.value(a) is True

    def test_invalid_literal_rejected(self):
        s = Solver()
        s.new_var()
        with pytest.raises(ValueError):
            s.add_clause([0])
        with pytest.raises(ValueError):
            s.add_clause([5])

    def test_model_covers_all_vars(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a])
        s.add_clause([b])
        assert s.solve()
        assert set(s.model()) == {a, b}


class TestAssumptions:
    def test_sat_under_assumption(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([-a, b])
        assert s.solve(assumptions=[a])
        assert s.value(b) is True

    def test_unsat_under_assumption_then_sat(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([-a, b])
        assert not s.solve(assumptions=[a, -b])
        # The solver must remain usable.
        assert s.solve(assumptions=[a])
        assert s.solve(assumptions=[-b])
        assert s.value(a) is False

    def test_conflicting_assumptions(self):
        s = Solver()
        a = s.new_var()
        assert not s.solve(assumptions=[a, -a])

    def test_reused_prefix_after_failed_assumption(self):
        # The first query fails at -c before a and -b are propagated; the
        # second reuses that prefix and must still see the clause.
        s = Solver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([-a, b])
        assert not s.solve(assumptions=[a, -b, c, -c])
        assert not s.solve(assumptions=[a, -b])
        assert set(s.core) == {a, -b}

    def test_backjump_keeps_unpropagated_assumptions(self):
        # All four assumptions are established before one propagation
        # pass.  Propagating -a conflicts on [-c, a, d] and backjumps to
        # c's level, keeping b and c unpropagated; the next query reuses
        # [-a, b] and must still see [a, -b].
        s = Solver()
        a, b, c, d = (s.new_var() for _ in range(4))
        s.add_clause([-c, a, d])
        s.add_clause([a, -b])
        assert not s.solve(assumptions=[-a, b, c, -d])
        assert not s.solve(assumptions=[-a, b])
        assert set(s.core) == {-a, b}

    def test_core_is_subset_of_assumptions(self):
        s = Solver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([-a, -b])
        assert not s.solve(assumptions=[a, b, c])
        assert set(s.core) <= {a, b, c}

    def test_incremental_reuse(self):
        s = Solver()
        vs = [s.new_var() for _ in range(8)]
        for x, y in zip(vs, vs[1:]):
            s.add_clause([-x, y])
        for _ in range(5):
            assert s.solve(assumptions=[vs[0]])
            assert s.value(vs[-1]) is True
            assert not s.solve(assumptions=[vs[0], -vs[-1]])

    def test_invalid_assumption_rejected(self):
        s = Solver()
        s.new_var()
        with pytest.raises(ValueError):
            s.solve(assumptions=[7])


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def _brute_force(num_vars, clauses):
    """Reference SAT decision by enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


@st.composite
def cnf_instances(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    num_clauses = draw(st.integers(min_value=1, max_value=14))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.integers(min_value=1, max_value=num_vars))
            * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ]
        clauses.append(clause)
    return num_vars, clauses


class TestAgainstBruteForce:
    @given(cnf_instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, instance):
        num_vars, clauses = instance
        s = Solver()
        for _ in range(num_vars):
            s.new_var()
        ok = True
        for clause in clauses:
            ok = s.add_clause(clause) and ok
        result = s.solve() if ok else False
        assert result == _brute_force(num_vars, clauses)
        if result:
            # The model must actually satisfy every clause.
            for clause in clauses:
                assert any(s.value(l) for l in clause)

    @given(cnf_instances(), st.lists(st.integers(min_value=1, max_value=6),
                                     max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_assumptions_match_added_units(self, instance, assumption_vars):
        num_vars, clauses = instance
        assumptions = [v for v in assumption_vars if v <= num_vars]
        s = Solver()
        for _ in range(num_vars):
            s.new_var()
        ok = True
        for clause in clauses:
            ok = s.add_clause(clause) and ok
        under_assumptions = s.solve(assumptions=assumptions) if ok else False
        expected = _brute_force(num_vars,
                                clauses + [[a] for a in assumptions])
        assert under_assumptions == expected


class TestIncrementalAssumptionSequences:
    """Trail reuse across shifting assumption sets must never change
    answers: one incremental solver vs a fresh solver per query."""

    @given(cnf_instances(),
           st.lists(st.lists(st.integers(min_value=-6, max_value=6)
                             .filter(lambda x: x != 0),
                             max_size=4),
                    min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_matches_fresh_solver_per_query(self, instance, queries):
        num_vars, clauses = instance
        incremental = Solver()
        for _ in range(num_vars):
            incremental.new_var()
        ok = True
        for clause in clauses:
            ok = incremental.add_clause(clause) and ok
        for assumptions in queries:
            assumptions = [a for a in assumptions
                           if abs(a) <= num_vars]
            got = incremental.solve(assumptions=assumptions) if ok else False
            expected = _brute_force(
                num_vars, clauses + [[a] for a in assumptions])
            assert got == expected, (clauses, assumptions)
            if got:
                for clause in clauses:
                    assert any(incremental.value(l) for l in clause)
                for a in assumptions:
                    assert incremental.value(a) is True


class TestLearnedClauseReduction:
    def _hard_chain(self, s, n=60):
        """A random 3-SAT instance near the phase transition: enough real
        conflict-driven learning that clauses with LBD above the glue
        threshold exist when reduction triggers."""
        import random
        rng = random.Random(11)
        vs = [s.new_var() for _ in range(n)]
        clauses = []
        for _ in range(int(4.3 * n)):
            trio = rng.sample(vs, 3)
            clause = [v if rng.random() < 0.5 else -v for v in trio]
            clauses.append(clause)
        return vs, clauses

    def test_reduction_preserves_answers(self):
        eager = Solver()
        eager._max_learnts = 10          # reduce constantly
        lazy = Solver()
        lazy._max_learnts = 10 ** 9      # never reduce
        _, clauses = self._hard_chain(eager)
        self._hard_chain(lazy)
        answers = []
        for solver in (eager, lazy):
            ok = True
            for clause in clauses:
                ok = solver.add_clause(clause) and ok
            answers.append(solver.solve() if ok else False)
        assert answers[0] == answers[1]
        # The eager solver must actually have deleted something.
        assert eager.stats.clauses_deleted > 0
        assert eager.stats.reductions > 0
        assert lazy.stats.clauses_deleted == 0

    def test_stats_carry_wall_time_and_deletions(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        assert s.solve()
        stats = s.stats.as_dict()
        assert {"wall_time_s", "clauses_deleted",
                "reductions"} <= set(stats)
        assert stats["wall_time_s"] >= 0.0
        assert stats["solve_calls"] == 1


def _satisfiable(base, clauses, assumptions):
    """Enumeration reference for activation-guarded clause sets.

    Only the ``base`` variables are enumerated.  An activation literal
    occurs negatively in every clause and positively only as an
    assumption, so setting each non-assumed one false is never worse:
    fixing acts that way loses no satisfying assignment.
    """
    assumed = set(assumptions)
    for bits in itertools.product([False, True], repeat=len(base)):
        value = dict(zip(base, bits))

        def holds(lit):
            var = abs(lit)
            return value.get(var, var in assumed) == (lit > 0)

        if all(holds(a) for a in assumptions) and \
                all(any(holds(lit) for lit in clause) for clause in clauses):
            return True
    return False


class TestPdrShapedStreams:
    """The query stream PDR sends one solver, against enumeration.

    Each relative-induction query allocates an activation literal
    mid-stream, guards clauses with it (``[-act, ...]``), assumes it and
    retires it with the unit ``[-act]``.  That grows the decision queue
    between solves and leaves a growing tail of root-fixed variables the
    decision walk must skip; the plain CNF tests above reach neither.
    """

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_enumeration(self, data):
        s = Solver()
        base = [s.new_var() for _ in range(data.draw(st.integers(2, 5)))]
        acts, live = [], []
        clauses = []

        def base_lits(min_size):
            return data.draw(st.lists(
                st.sampled_from(base).flatmap(
                    lambda v: st.sampled_from([v, -v])),
                min_size=min_size, max_size=3))

        ops = data.draw(st.lists(st.sampled_from(
            ["var", "clause", "guard", "guard", "retire", "solve", "solve"]),
            min_size=4, max_size=30))
        for op in ops:
            if op == "var" and len(base) < 8:
                base.append(s.new_var())
            elif op == "clause":
                clauses.append(base_lits(1))
                s.add_clause(clauses[-1])
            elif op == "guard":
                if live and data.draw(st.booleans()):
                    act = data.draw(st.sampled_from(live))
                else:
                    act = s.new_var()
                    acts.append(act)
                    live.append(act)
                clauses.append([-act] + base_lits(0))
                s.add_clause(clauses[-1])
            elif op == "retire" and live:
                act = live.pop(data.draw(st.integers(0, len(live) - 1)))
                clauses.append([-act])
                s.add_clause([-act])
            elif op == "solve":
                assumptions = (data.draw(st.lists(st.sampled_from(acts),
                                                  unique=True))
                               if acts else []) + base_lits(0)
                got = s.solve(assumptions=assumptions)
                assert got == _satisfiable(base, clauses, assumptions)
                if got:
                    for clause in clauses:
                        assert any(s.value(lit) for lit in clause)
                    for lit in assumptions:
                        assert s.value(lit) is True
                else:
                    assert set(s.core) <= set(assumptions)
                    assert not _satisfiable(base, clauses, s.core)
