import random

import pytest

from betadnnf import (
    Assignment,
    Clause,
    CnfFormula,
    check_decision,
    check_decomposable,
    count_models,
    equivalent_to_formula,
    hypergraph_of,
)
from betadnnf.circuit import AndGate, DecisionGate, LiteralGate
from betadnnf.compiler import TAUTOLOGY, Compiler, compile_cnf, compile_stats_sweep
from betadnnf.errors import NotBetaAcyclicError
from betadnnf.generators import chain_cnf, random_beta_acyclic_cnf
from betadnnf.hypergraph import EliminationOrder, beta_elimination_order, sub_hypergraph

from conftest import FSTAR_EDGES, linear_fit_r2

E1, E2, E3, E4, E5 = (FSTAR_EDGES[k] for k in ("e1", "e2", "e3", "e4", "e5"))
ORDER = EliminationOrder((1, 2, 3, 4, 5))


def clause_sets(formula):
    return {c.sorted_literals() for c in formula.clauses}


def compute_U(formula, order, edge, x, tau):
    """Pieces of `Compiler.compute_U` with clause ids mapped to clauses."""
    compiler = Compiler(formula, order)
    pieces = compiler.compute_U(edge, x, tau)
    if pieces is TAUTOLOGY:
        return TAUTOLOGY
    return [(g, compiler.clauses[cid]) for g, cid in pieces]


def pairwise_compute_U(compiler, edge, x, tau):
    """compute_U by its definition, from `hypergraph.sub_hypergraph`: the
    candidates that lie in no other candidate's reachable set one stage
    down."""
    graph, order = compiler.hypergraph, compiler.order
    lowest_unsat = {}
    for g in sub_hypergraph(graph, order, edge, x).edges:
        for cid in compiler.clauses_by_edge[g]:
            if not compiler.clauses[cid].satisfied_by(tau):
                lowest_unsat[g] = cid
                break
    if not lowest_unsat:
        return TAUTOLOGY
    y = order.predecessor(x)
    candidates = compiler.edge_order.sort(lowest_unsat)
    return [
        (g, lowest_unsat[g])
        for g in candidates
        if not any(f != g and g in sub_hypergraph(graph, order, f, y).edges for f in candidates)
    ]


class TestSubFormula:
    def test_everything_reachable(self, fstar):
        assert Compiler(fstar, ORDER).sub_formula(E5, 4) == fstar

    def test_cutoff_drops_clauses(self, fstar):
        got = Compiler(fstar, ORDER).sub_formula(E5, 3)
        assert clause_sets(got) == {(1, 2), (2, 5), (2, 4, 5)}

    def test_isolated_edge(self, fstar):
        got = Compiler(fstar, ORDER).sub_formula(E2, 3)
        assert clause_sets(got) == {(3, 4)}

    def test_unknown_edge_rejected(self, fstar):
        with pytest.raises(ValueError):
            Compiler(fstar, ORDER).sub_formula(frozenset({1, 5}), 3)
        with pytest.raises(ValueError):
            Compiler(fstar, ORDER).sub_formula(E1, 9)


class TestComputeU:
    def test_low_branch_keeps_the_big_edge(self, fstar):
        got = compute_U(fstar, ORDER, E5, 5, Assignment({5: 0}))
        assert [(g, c.sorted_literals()) for g, c in got] == [(E5, (2, 4, 5))]

    def test_high_branch_splits(self, fstar):
        got = compute_U(fstar, ORDER, E5, 5, Assignment({5: 1}))
        assert [(g, c.sorted_literals()) for g, c in got] == [(E1, (1, 2)), (E2, (3, 4))]

    def test_tautology(self):
        formula = CnfFormula.from_ints([[1, 2]])
        got = compute_U(formula, EliminationOrder((1, 2)), frozenset({1, 2}), 2,
                        Assignment({2: 1}))
        assert got is TAUTOLOGY

    def test_first_variable_rejected(self, fstar):
        with pytest.raises(ValueError, match="predecessor"):
            compute_U(fstar, ORDER, E1, 1, Assignment({1: 0, 2: 0}))

    def test_domain_mismatch_rejected(self, fstar):
        with pytest.raises(ValueError, match="bind exactly"):
            compute_U(fstar, ORDER, E5, 5, Assignment({4: 0, 5: 0}))

    def test_candidates_joined_only_above_them_stay_apart(self):
        """{1,2} and {3,4} share a class one stage down only through the
        larger {1,3,4}, so neither reaches the other: keeping just the
        largest candidate of each class would drop {1,2}."""
        formula = CnfFormula.from_ints([[1, 2], [3, -4], [1, 3, 4]])
        got = compute_U(formula, EliminationOrder((2, 1, 3, 4)), frozenset({1, 3, 4}), 4,
                        Assignment({4: 1}))
        assert [(g, c.sorted_literals()) for g, c in got] == [
            (frozenset({1, 2}), (1, 2)),
            (frozenset({3, 4}), (3, -4)),
        ]

    def test_matches_the_pairwise_definition(self):
        rng = random.Random(2017)
        for _ in range(150):
            formula = random_beta_acyclic_cnf(rng, max_vars=9, max_clauses=14)
            compiler = Compiler(formula)
            rank = compiler.order.rank
            for clause in compiler.clauses:
                for x in clause.variables:
                    if rank[x] == 0:
                        continue
                    above = compiler.restriction_above(clause, x)
                    for b in (0, 1):
                        tau = above.union(Assignment({x: b}))
                        assert compiler.compute_U(clause.variables, x, tau) == (
                            pairwise_compute_U(compiler, clause.variables, x, tau)
                        ), (clause, x, tau)


class TestDecisionStepStructure:
    def test_top_gate_of_worked_example(self, fstar):
        comp = Compiler(fstar)
        comp.run()
        ids = {c.sorted_literals(): i for i, c in enumerate(comp.clauses)}
        k1, k2, k5 = ids[(1, 2)], ids[(3, 4)], ids[(2, 4, 5)]
        top = comp.lookup(E5, k5, 5)
        gate = comp.builder.gate(top)
        assert isinstance(gate, DecisionGate) and gate.variable == 5
        # low branch reuses the cached gate for the big edge one stage down
        assert gate.lo == comp.lookup(E5, k5, 4)
        hi = comp.builder.gate(gate.hi)
        assert isinstance(hi, AndGate)
        assert set(hi.children) == {comp.lookup(E1, k1, 4), comp.lookup(E2, k2, 4)}

    @pytest.mark.parametrize("literal", [1, -1])
    def test_unit_clause_base_case(self, literal):
        circuit, report = compile_cnf(CnfFormula.from_ints([[literal]]))
        assert circuit.size == 1
        assert circuit.gates[0] == LiteralGate(literal)
        assert report.gates == 1


class TestCompile:
    def test_worked_example(self, fstar):
        circuit, report = compile_cnf(fstar)
        assert count_models(circuit, range(1, 6)) == 13
        assert report.gates <= 7 * 11
        assert report.and_fanin_max <= 5
        assert check_decomposable(circuit)[0]
        assert check_decision(circuit)[0]
        assert equivalent_to_formula(circuit, fstar)

    def test_single_clause(self):
        circuit, _ = compile_cnf(CnfFormula.from_ints([[1, 2]]))
        assert count_models(circuit, {1, 2}) == 3

    def test_components_join_under_one_conjunction(self):
        formula = CnfFormula.from_ints([[1, 2], [3, 4]])
        circuit, report = compile_cnf(formula)
        assert report.components == 2
        assert isinstance(circuit.gates[circuit.output], AndGate)
        assert count_models(circuit, {1, 2, 3, 4}) == 9

    def test_not_beta_acyclic(self):
        triangle = CnfFormula.from_ints([[1, 2], [2, 3], [1, 3]])
        with pytest.raises(NotBetaAcyclicError) as err:
            compile_cnf(triangle)
        assert err.value.certificate == frozenset({1, 2, 3})

    def test_empty_clause_compiles_to_false(self):
        circuit, _ = compile_cnf(CnfFormula([Clause([]), Clause([1])]))
        assert count_models(circuit, {1}) == 0

    def test_empty_formula_compiles_to_true(self):
        circuit, _ = compile_cnf(CnfFormula([]))
        assert count_models(circuit, {1, 2}) == 4

    def test_explicit_order_is_used(self, fstar):
        circuit, report = compile_cnf(fstar, ORDER)
        assert report.elimination_order == (1, 2, 3, 4, 5)
        assert equivalent_to_formula(circuit, fstar)

    def test_invalid_order_rejected(self, fstar):
        with pytest.raises(ValueError, match="elimination order"):
            compile_cnf(fstar, EliminationOrder((5, 4, 3, 2, 1)))

    def test_report_serializes(self, fstar):
        import json

        _, report = compile_cnf(fstar)
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["formula_size"] == 11
        assert parsed["components"] == 1


class TestRandomisedEquivalence:
    def test_compiled_circuits_compute_their_formulas(self):
        rng = random.Random(321)
        for _ in range(60):
            formula = random_beta_acyclic_cnf(rng, max_vars=10, max_clauses=14)
            circuit, report = compile_cnf(formula)
            graph = hypergraph_of(formula)
            assert equivalent_to_formula(circuit, formula)
            assert check_decomposable(circuit)[0]
            assert check_decision(circuit)[0]
            assert report.and_fanin_max <= len(graph)

    def test_cache_entries_compute_their_residuals(self):
        rng = random.Random(99)
        for _ in range(8):
            formula = random_beta_acyclic_cnf(rng, max_vars=8, max_clauses=10)
            comp = Compiler(formula)
            comp.run()
            edges = comp.edge_order.sort(comp.hypergraph.edges)
            for key, gate in comp.cache.items():
                edge = edges[key.edge_index]
                residual = comp.sub_formula(edge, key.cutoff).restrict(
                    Assignment(dict(key.restriction))
                )
                rooted = comp.full_circuit.root_at(gate)
                assert equivalent_to_formula(rooted, residual)

    def test_reachable_set_is_stable_between_stages(self):
        """For a cutoff outside the edge, stepping the cutoff back one stage
        never changes the reachable set; the cache lookup relies on this."""
        rng = random.Random(13)
        for _ in range(40):
            formula = random_beta_acyclic_cnf(rng, max_vars=9, max_clauses=10)
            graph = hypergraph_of(formula)
            order = beta_elimination_order(graph)
            for e in graph.edges:
                for i, x in enumerate(order.sequence):
                    if i == 0 or x in e:
                        continue
                    y = order.sequence[i - 1]
                    assert (
                        sub_hypergraph(graph, order, e, x).edges
                        == sub_hypergraph(graph, order, e, y).edges
                    )


class TestStatsSweep:
    def test_chain_family_grows_linearly(self):
        sizes = [10, 50, 100, 200]
        rows = compile_stats_sweep([chain_cnf(n) for n in sizes])
        gates = [r["gates"] for r in rows]
        assert linear_fit_r2([r["formula_size"] for r in rows], gates) >= 0.98
        for row in rows:
            assert row["gates"] <= 7 * row["formula_size"] + 4

    def test_worked_example_row(self, fstar):
        rows = compile_stats_sweep([fstar])
        assert rows[0]["gates"] <= 77

    def test_empty_sweep(self):
        assert compile_stats_sweep([]) == []
