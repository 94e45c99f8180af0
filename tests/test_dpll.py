import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadnnf import (
    Clause,
    CnfFormula,
    EliminationOrder,
    beta_elimination_order,
    brute_force_count,
    check_decision,
    check_decomposable,
    compile_cnf,
    count_dpll,
    count_models,
    hypergraph_of,
    parse_dimacs,
    trace_to_circuit,
    write_nnf,
)
from betadnnf import hypergraph
from betadnnf.dpll import DpllStats, OrderStrategy, _Residuals, search
from betadnnf.errors import BudgetExceededError, NotBetaAcyclicError
from betadnnf.generators import chain_cnf, random_beta_acyclic_cnf

import dpll_reference
from conftest import FSTAR_DIMACS, fibonacci, interval3_clauses, transfer_count

STRATEGIES = [OrderStrategy.reverse_beta_elimination(), OrderStrategy.lexicographic()]


class TestCount:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.kind)
    def test_worked_example(self, fstar, strategy):
        count, stats = count_dpll(fstar, strategy)
        assert count == 13
        assert stats.cache_hits + stats.cache_misses >= stats.cache_entries

    def test_single_clause_any_strategy(self):
        formula = CnfFormula.from_ints([[1, 2]])
        for strategy in STRATEGIES:
            assert count_dpll(formula, strategy)[0] == 3

    def test_empty_clause(self):
        assert count_dpll(CnfFormula([Clause([])]))[0] == 0

    def test_empty_formula(self):
        assert count_dpll(CnfFormula([]))[0] == 1
        for strategy in STRATEGIES + [OrderStrategy.fixed(())]:
            count, stats, circuit = search(CnfFormula([]), strategy, trace=True)
            assert (count, write_nnf(circuit)) == (1, "nnf 1 0 0\nT\n")
            assert stats == DpllStats(peak_residuals=1)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(77)
        for _ in range(40):
            formula = random_beta_acyclic_cnf(rng, max_vars=10, max_clauses=12)
            expected = brute_force_count(formula, formula.variables)
            for strategy in STRATEGIES:
                assert count_dpll(formula, strategy)[0] == expected

    def test_fixed_strategy(self, fstar):
        count, stats = count_dpll(fstar, OrderStrategy.fixed((5, 4, 3, 2, 1)))
        assert count == 13
        # a repeated variable keeps the rank of its first occurrence
        assert count_dpll(fstar, OrderStrategy.fixed((5, 4, 5, 3, 2, 1)))[1] == stats
        with pytest.raises(ValueError, match="misses"):
            count_dpll(fstar, OrderStrategy.fixed((1, 2)))

    def test_reverse_beta_requires_acyclicity(self):
        triangle = CnfFormula.from_ints([[1, 2], [2, 3], [1, 3]])
        with pytest.raises(NotBetaAcyclicError, match=r"\[1, 2, 3\]") as err:
            count_dpll(triangle, OrderStrategy.reverse_beta_elimination())
        assert err.value.certificate == {1, 2, 3}

    def test_budget_abort(self, fstar):
        with pytest.raises(BudgetExceededError):
            count_dpll(fstar, OrderStrategy.lexicographic(), budget=3)


class TestTrace:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.kind)
    def test_trace_counts_like_the_run(self, fstar, strategy):
        circuit = trace_to_circuit(fstar, strategy)
        assert check_decomposable(circuit)[0]
        assert check_decision(circuit)[0]
        assert count_models(circuit, fstar.variables) == 13

    def test_unit_clause_trace_shape(self):
        circuit = trace_to_circuit(CnfFormula.from_ints([[1]]))
        tag, _, _, lo = circuit.gates[circuit.output]
        assert tag == "D"
        assert circuit.gates[lo] == ("F",)

    def test_component_split_becomes_conjunction(self):
        formula = CnfFormula.from_ints([[1, 2], [3, 4]])
        circuit = trace_to_circuit(formula)
        assert circuit.gates[circuit.output][0] == "A"
        assert count_models(circuit, {1, 2, 3, 4}) == 9

    def test_one_conjunction_per_set_of_parts(self):
        # two residuals split into parts with equal gates in opposite
        # clause order; both must reuse one conjunction
        formula = CnfFormula.from_ints([[-1, -6], [2, 4, 7, 10], [3, 11], [4, 5, 8, 9],
                                        [4, -5, -8, 9], [4, 9], [-4, -9], [5, -6], [-5, -6]])
        circuit = trace_to_circuit(formula, OrderStrategy.lexicographic())
        ands = [frozenset(g[1]) for g in circuit.gates if g[0] == "A"]
        assert len(set(ands)) == len(ands)

    def test_random_traces_agree_with_counts(self):
        rng = random.Random(31)
        for _ in range(25):
            formula = random_beta_acyclic_cnf(rng, max_vars=9, max_clauses=10)
            for strategy in STRATEGIES:
                count, _ = count_dpll(formula, strategy)
                circuit = trace_to_circuit(formula, strategy)
                over = formula.variables or {1}
                assert count_models(circuit, over) == count << (len(over) - len(formula.variables))


class TestScaling:
    def test_chain_cache_growth_is_linear_ish(self):
        entries = []
        sizes = (20, 40, 80)
        for n in sizes:
            _, stats = count_dpll(chain_cnf(n), OrderStrategy.reverse_beta_elimination())
            entries.append(stats.cache_entries)
        # growth clearly per-variable: doubling n must not quadruple entries
        assert entries[2] <= 3 * entries[1]
        assert entries[1] <= 3 * entries[0]


# DpllStats fields in to_dict order (decisions, splits, hits, misses,
# entries, peak residuals); the plain scheme's counters must not move
# when the engine changes.
PINNED_STATS = {
    ("fstar", "reverse-beta"): (7, 1, 0, 8, 8, 5),
    ("fstar", "lex"): (10, 0, 4, 10, 10, 6),
    ("chain32", "reverse-beta"): (62, 0, 29, 62, 62, 33),
    ("chain32", "lex"): (62, 0, 29, 62, 62, 33),
    ("wide50", "reverse-beta"): (50, 0, 0, 50, 50, 51),
    ("wide50", "lex"): (50, 0, 0, 50, 50, 51),
}


class TestSearch:
    @pytest.mark.parametrize("name,kind", sorted(PINNED_STATS))
    def test_pinned_stats(self, fstar, name, kind):
        formula = {
            "fstar": fstar,
            "chain32": chain_cnf(32),
            "wide50": CnfFormula.from_ints([range(1, 51)]),
        }[name]
        strategy = next(s for s in STRATEGIES if s.kind == kind)
        _, stats = count_dpll(formula, strategy)
        fields = ("decisions", "component_splits", "cache_hits",
                  "cache_misses", "cache_entries", "peak_residuals")
        assert tuple(stats.to_dict()[f] for f in fields) == PINNED_STATS[name, kind]

    def test_wide_clause_needs_no_recursion(self):
        width = 1000
        formula = CnfFormula.from_ints([range(1, width + 1)])
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            count, stats = count_dpll(formula)
            assert sys.getrecursionlimit() == 300
            circuit = trace_to_circuit(formula)
        finally:
            sys.setrecursionlimit(before)
        assert count == 2**width - 1
        assert stats.peak_residuals == width + 1
        assert count_models(circuit, formula.variables) == count

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.kind)
    def test_trace_ignores_clause_and_literal_order(self, strategy):
        # wide enough that splits are common, so part order shows
        rng = random.Random(2024)
        for _ in range(200):
            formula = random_beta_acyclic_cnf(rng, max_vars=40, max_clauses=60, max_edges=30)
            lists = [list(c.literals) for c in formula.clauses]
            expected = write_nnf(trace_to_circuit(formula, strategy))
            for _ in range(2):
                rng.shuffle(lists)
                for lits in lists:
                    rng.shuffle(lits)
                shuffled = CnfFormula.from_ints(lists)
                assert write_nnf(trace_to_circuit(shuffled, strategy)) == expected


def least_budget(run, formula, strategy) -> int:
    """The least step budget under which `run` does not refuse."""
    lo, hi = 0, 1  # refuses at lo, not at hi
    while True:
        try:
            run(formula, strategy, budget=hi)
            break
        except BudgetExceededError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            run(formula, strategy, budget=mid)
            hi = mid
        except BudgetExceededError:
            lo = mid
    return hi


def assert_matches_reference(formula, strategy):
    """Same count, statistics, trace bytes and refusal step as the engine
    that copied and re-sorted every residual."""
    count, stats, circuit = search(formula, strategy, trace=True)
    ref_count, ref_stats, ref_circuit = dpll_reference.search(formula, strategy, trace=True)
    assert (count, stats.to_dict()) == (ref_count, ref_stats.to_dict())
    assert write_nnf(circuit) == write_nnf(ref_circuit)
    steps = least_budget(dpll_reference.search, formula, strategy)
    search(formula, strategy, budget=steps)
    with pytest.raises(BudgetExceededError):
        search(formula, strategy, budget=steps - 1)


@st.composite
def cnfs(draw):
    """Random clauses over up to 10 variables, mostly not beta-acyclic,
    now and then with the empty clause."""
    n = draw(st.integers(1, 10))
    clause = st.lists(st.integers(-n, n).filter(bool), min_size=1, max_size=4, unique_by=abs)
    clauses = draw(st.lists(clause, max_size=12))
    if draw(st.integers(0, 9)) == 0:
        clauses.append([])
    return CnfFormula.from_ints(clauses)


class TestAgainstReference:
    @given(cnfs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_cnf_under_lex_and_a_fixed_order(self, formula, data):
        assert_matches_reference(formula, OrderStrategy.lexicographic())
        # a fixed order may repeat a variable or list one no clause holds
        extra = data.draw(st.lists(st.integers(1, 12), max_size=3))
        sequence = data.draw(st.permutations(sorted(formula.variables) + extra))
        assert_matches_reference(formula, OrderStrategy.fixed(sequence))

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_beta_acyclic_cnf_under_reverse_beta(self, rng):
        formula = random_beta_acyclic_cnf(rng, max_vars=rng.randint(2, 24), max_clauses=30,
                                          max_edges=20)
        assert_matches_reference(formula, OrderStrategy.reverse_beta_elimination())

    def test_advanced_clause_equal_to_a_present_one_still_seeds(self):
        # 1 = false advances [1, 4] to [4], which the residual already holds;
        # that clause still seeds the split of [-2] from [4]
        formula = CnfFormula.from_ints([[4], [1, -2], [1, 4]])
        _, stats = count_dpll(formula, OrderStrategy.lexicographic())
        assert stats.component_splits == 1
        assert_matches_reference(formula, OrderStrategy.lexicographic())


class TestRootSplit:
    """The root takes the seeded split of every branch, with every clause
    as a seed, and finds the formula's connected components."""

    @staticmethod
    def root_parts(formula):
        priority = OrderStrategy.reverse_beta_elimination().priority(formula)
        res = _Residuals(formula._store, priority)
        return res, res.parts(res.root, res.nvars, res.vars, len(res.vars))

    def test_one_part_per_component(self):
        rng = random.Random(20)
        for _ in range(60):
            clauses, shift = [], 0
            for size in rng.sample(range(2, 15), rng.randint(2, 6)):
                block = random_beta_acyclic_cnf(rng, max_vars=size, max_clauses=2 * size)
                clauses += [[l + shift if l > 0 else l - shift for l in c.literals] for c in block.clauses]
                shift += max(block.variables)
            formula = CnfFormula.from_ints(clauses)
            res, parts = self.root_parts(formula)
            blocks = hypergraph.connected_components(hypergraph_of(formula))
            assert len(parts) == len(blocks)
            assert sorted(n for _, _, n in parts) == sorted(len(b.vertices) for b in blocks)
            assert sorted(s for _, key, _ in parts for s in key) == list(res.root)

    def test_disconnected_root_scans_no_occurrence_list(self):
        """Every clause seeds the root, so no variable has a clause left to
        find: the parts come from the seeds alone."""
        class Unread(dict):
            def __getitem__(self, v):
                raise AssertionError(f"the occurrence list of {v} was scanned")

        rng = random.Random(22)
        for _ in range(40):
            clauses, shift = [], 0
            for size in rng.sample(range(2, 12), rng.randint(2, 5)):
                block = random_beta_acyclic_cnf(rng, max_vars=size, max_clauses=2 * size)
                clauses += [[l + shift if l > 0 else l - shift for l in c.literals] for c in block.clauses]
                shift += max(block.variables)
            formula = CnfFormula.from_ints(clauses)
            res, expected = self.root_parts(formula)
            res.occ = Unread(res.occ)
            assert len(expected) > 1
            assert res.parts(res.root, res.nvars, res.vars, len(res.vars)) == expected

    def test_connected_formula_is_not_split(self):
        rng = random.Random(21)
        formulas = [chain_cnf(50), CnfFormula.from_ints(interval3_clauses(40))]
        formulas += [random_beta_acyclic_cnf(rng, max_vars=12) for _ in range(100)]
        connected = [f for f in formulas
                     if len(hypergraph.connected_components(hypergraph_of(f))) == 1]
        assert len(connected) > 30
        for formula in connected:
            assert self.root_parts(formula)[1] is None


class TestMemory:
    def test_wide_clause_trace_is_linear(self):
        # each residual is one interned suffix, so no clause is ever copied
        formula = CnfFormula.from_ints([range(1, 4001)])
        tracemalloc.start()
        try:
            _, stats, _ = search(formula, trace=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.peak_residuals == 4001
        assert peak < 10_000_000


class TestPastTheEnumerationCap:
    """Counts far beyond any truth table, against references written from
    the definitions."""

    def test_chain(self):
        n = 1600
        count, _ = count_dpll(chain_cnf(n), OrderStrategy.reverse_beta_elimination())
        assert count == fibonacci(n + 2)  # no two adjacent zeros among n bits

    def test_interval3(self):
        n = 600
        clauses = interval3_clauses(n)
        count, _ = count_dpll(CnfFormula.from_ints(clauses), OrderStrategy.reverse_beta_elimination())
        assert count == transfer_count(n, clauses, 3)


def count_order_calls(monkeypatch) -> list:
    """Count the greedy order's calls through every module-level name the
    package resolves it by."""
    original, calls = hypergraph.beta_elimination_order, []

    def counted(graph):
        calls.append(graph)
        return original(graph)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("betadnnf"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    return calls


class TestOneOrderPerFormula:
    """A formula computes its elimination order once, for both engines."""

    def test_compile_then_dpll_compute_the_order_once(self, monkeypatch):
        calls = count_order_calls(monkeypatch)
        formula = parse_dimacs(FSTAR_DIMACS)
        for _ in range(2):
            circuit, report = compile_cnf(formula)
            count, _ = count_dpll(formula, OrderStrategy.reverse_beta_elimination())
            assert count == count_models(circuit, formula.variables) == 13
            assert len(calls) == 1
        assert report.elimination_order == beta_elimination_order(hypergraph_of(formula)).sequence
        assert OrderStrategy.reverse_beta_elimination().priority(formula) == tuple(
            reversed(report.elimination_order))

    def test_an_explicit_order_is_still_verified(self):
        formula = CnfFormula.from_ints([[1, 2], [2, 3]])
        compile_cnf(formula)
        with pytest.raises(ValueError, match="not a beta-elimination order"):
            compile_cnf(formula, EliminationOrder((2, 1, 3)))

    def test_both_engines_refuse_with_the_same_certificate(self, monkeypatch):
        calls = count_order_calls(monkeypatch)
        formula = CnfFormula.from_ints([[1, 2], [2, 3], [1, 3], [3, 4]])
        stuck = beta_elimination_order(hypergraph_of(formula)).stuck_vertices
        calls.clear()
        for _ in range(2):
            with pytest.raises(NotBetaAcyclicError) as compiled:
                compile_cnf(formula)
            with pytest.raises(NotBetaAcyclicError) as searched:
                count_dpll(formula, OrderStrategy.reverse_beta_elimination())
            assert compiled.value.certificate == searched.value.certificate == stuck == {1, 2, 3}
            assert str(compiled.value) == str(searched.value) == "no nest point among vertices [1, 2, 3]"
        assert len(calls) == 1
