import hashlib
import json
import os
import random
from bisect import bisect_left
from collections import Counter

import pytest

from betadnnf import (
    Clause,
    CnfFormula,
    brute_force_count,
    check_decision,
    check_decomposable,
    count_models,
    equivalent_to_formula,
    falsifying_assignment,
    hypergraph_of,
    parse_dimacs,
    write_nnf,
)
from betadnnf.cli import main
from betadnnf.compiler import Compiler, SubFormulaKey, compile_cnf
from betadnnf.dpll import OrderStrategy, count_dpll, search
from betadnnf.errors import NotBetaAcyclicError
from betadnnf.generators import chain_cnf, random_beta_acyclic_cnf
from betadnnf.hypergraph import EliminationOrder, beta_elimination_order, sub_hypergraph
from betadnnf.lowerbounds import hat

import compiler_reference
from conftest import (
    FSTAR_EDGES, fibonacci, interval3_clauses, linear_fit_r2, lits, nested_clauses, transfer_count, wide_clause,
)

E1, E2, E3, E4, E5 = (FSTAR_EDGES[k] for k in ("e1", "e2", "e3", "e4", "e5"))
ORDER = EliminationOrder((1, 2, 3, 4, 5))
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def clause_sets(formula):
    return {c.sorted_literals() for c in formula.clauses}


def listed_clauses(compiler):
    """The compiler's clauses, listed by clause id."""
    return compiler.formula.sorted_clauses()


def restriction_above(compiler, clause_id, cutoff):
    """The literals of the clause on variables after `cutoff`, by descending
    rank: those its falsifying assignment falsifies there, a prefix of its
    ranked literals found by bisecting its edge's negated ranks."""
    depth = compiler.depth[compiler.prefix[clause_id][0]]
    return compiler.ranked[clause_id][:bisect_left(depth, -compiler.rank[cutoff])]


def forest_reach(compiler, edge, cutoff):
    """Indices, ascending, of R(edge, cutoff) read off the compiler's forest
    moved to the cutoff: the edge's subtree."""
    compiler._forest_at(compiler.rank[cutoff])
    subtree = [compiler.edge_index[tuple(sorted(edge))]]
    for g in subtree:
        subtree.extend(compiler._children[g])
    return sorted(subtree)


def decoded_cache(compiler):
    """The cache with each trie node decoded to the `SubFormulaKey` it
    stands for: its root is the edge, the path down to it spells the
    restriction, and the edge's next variable is the stage."""
    step = {node: parent_literal for parent_literal, node in compiler.intern.items()}

    def key(node):
        literals = []
        while node in step:
            node, literal = step[node]
            literals.append(literal)
        stage = abs(compiler.ranked[compiler.edge_clauses[node][0]][len(literals)])
        return SubFormulaKey(node, tuple(reversed(literals)), stage)

    return {key(node): gate for node, gate in compiler.cache.items()}


def sub_formula(compiler, edge, cutoff):
    """Clauses whose variable set is an edge of `hypergraph.sub_hypergraph`
    around `edge`: the formula a cache entry restricts."""
    reach = sub_hypergraph(compiler.hypergraph, compiler.order, edge, cutoff).edges
    return CnfFormula(c for c in listed_clauses(compiler) if c.variables in reach)


def random_interval_cnf(rng, n, clauses, widths=(1, 2, 2, 3, 3, 4), planted=False):
    """Clauses over runs of consecutive positions of a shuffled line of
    the variables 1..n, with random signs and run lengths drawn from
    `widths`. Interval hypergraphs are beta-acyclic: the first position is
    a nest point. With `planted`, each clause is made true under one hidden
    assignment, so the formula has models."""
    line = rng.sample(range(1, n + 1), n)
    hidden = {v: rng.random() < 0.5 for v in line}
    out = []
    for _ in range(clauses):
        start, width = rng.randrange(n), rng.choice(widths)
        clause = [v if rng.random() < 0.5 else -v for v in line[start:start + width]]
        if planted and not any((l > 0) == hidden[abs(l)] for l in clause):
            clause[0] = -clause[0]
        out.append(clause)
    return CnfFormula.from_ints(out)


def forest_inputs():
    """Small random beta-acyclic formulas and random interval formulas."""
    rng = random.Random(1994)
    for _ in range(40):
        yield random_beta_acyclic_cnf(rng, max_vars=10, max_clauses=16, max_edges=14)
    for _ in range(40):
        yield random_interval_cnf(rng, rng.randint(3, 12), rng.randint(2, 16))


def compute_U(formula, order, edge, x, tau):
    """Pieces of the branch of `Compiler.compute_U` that `tau` takes on x,
    with clause ids mapped to clauses."""
    compiler = Compiler(formula, order)
    lit = x if x in tau else -x
    hi, lo = compiler.compute_U(edge, x, tau - {lit})
    listed = listed_clauses(compiler)
    return [(g, listed[cid]) for g, cid in (hi if lit == x else lo)]


def pairwise_compute_U(compiler, edge, x, tau):
    """compute_U by its definition, from `hypergraph.sub_hypergraph`: the
    candidates that lie in no other candidate's reachable set one stage
    down."""
    graph, order = compiler.hypergraph, compiler.order
    lowest_unsat, listed = {}, listed_clauses(compiler)
    for g in sub_hypergraph(graph, order, edge, x).edges:
        for cid, clause in enumerate(listed):
            if clause.variables == g and tau.isdisjoint(clause.literals):
                lowest_unsat[g] = cid
                break
    y = order.predecessor(x)
    candidates = sorted(lowest_unsat, key=order.edge_key)
    return [
        (g, lowest_unsat[g])
        for g in candidates
        if not any(f != g and g in sub_hypergraph(graph, order, f, y).edges for f in candidates)
    ]


class TestSubFormula:
    def test_everything_reachable(self, fstar):
        assert sub_formula(Compiler(fstar, ORDER), E5, 4) == fstar

    def test_cutoff_drops_clauses(self, fstar):
        got = sub_formula(Compiler(fstar, ORDER), E5, 3)
        assert clause_sets(got) == {(1, 2), (2, 5), (2, 4, 5)}

    def test_isolated_edge(self, fstar):
        got = sub_formula(Compiler(fstar, ORDER), E2, 3)
        assert clause_sets(got) == {(3, 4)}

    def test_unknown_edge_rejected(self, fstar):
        with pytest.raises(ValueError):
            sub_formula(Compiler(fstar, ORDER), frozenset({1, 5}), 3)
        with pytest.raises(ValueError):
            sub_formula(Compiler(fstar, ORDER), E1, 9)


class TestReachabilityForest:
    def test_reachable_sets_are_laminar(self):
        """(a) For a fixed cutoff y and f < f', R(f, y) and R(f', y) are
        disjoint or the first lies in the second."""
        for formula in forest_inputs():
            compiler = Compiler(formula)
            graph, order, edges = compiler.hypergraph, compiler.order, compiler.edges
            for y in order.sequence:
                reach = [sub_hypergraph(graph, order, f, y).edges for f in edges]
                for i, small in enumerate(reach):
                    for big in reach[i + 1:]:
                        assert small.isdisjoint(big) or small <= big, (formula, y)

    def test_reachable_set_assembles_from_stage_classes(self):
        """(b) For x in e with predecessor y, R(e, x) is the union over
        the edges g through x with g <= e of g's class among the edges at
        most e joined through vertices at most y; each class is R(t, y)
        for its largest edge t."""
        for formula in forest_inputs():
            compiler = Compiler(formula)
            graph, order, edges = compiler.hypergraph, compiler.order, compiler.edges
            rank = order.rank
            for top, e in enumerate(edges):
                for x in e:
                    y = order.predecessor(x)
                    if y is None:
                        continue
                    union = set()
                    for g in edges[:top + 1]:
                        if x not in g:
                            continue
                        joined = {g}
                        frontier = [g]
                        while frontier:
                            h = frontier.pop()
                            for f in edges[:top + 1]:
                                if f not in joined and any(rank[v] <= rank[y] for v in f & h):
                                    joined.add(f)
                                    frontier.append(f)
                        largest = max(joined, key=edges.index)
                        assert joined == sub_hypergraph(graph, order, largest, y).edges
                        union |= joined
                    assert union == sub_hypergraph(graph, order, e, x).edges, (formula, e, x)

    def test_reachable_edges_match_the_reference_in_any_query_order(self):
        """Shuffled queries move the cutoff back as well as forward, so the
        forest is rebuilt from empty as well as advanced; the public query
        gives the forest's indices."""
        rng = random.Random(7)
        for formula in forest_inputs():
            compiler = Compiler(formula)
            graph, order = compiler.hypergraph, compiler.order
            pairs = [(f, c) for f in compiler.edges for c in order.sequence]
            rng.shuffle(pairs)
            for f, c in pairs:
                indices = forest_reach(compiler, f, c)
                got = {compiler.edges[i] for i in indices}
                assert got == sub_hypergraph(graph, order, f, c).edges, (formula, f, c)
                assert compiler.reachable_edges(f, c) == indices, (formula, f, c)

    def test_reachable_edges_after_run(self, fstar):
        compiler = Compiler(fstar, ORDER)
        compiler.run()
        got = compiler.reachable_edges(E5, 3)
        assert {compiler.edges[i] for i in got} == {E1, E3, E5}
        assert got == sorted(got)

    def test_a_public_query_leaves_the_forest_alone(self, fstar):
        """After `run` the forest stands at the last stage; a query at an
        early cutoff does not move it back."""
        compiler = Compiler(fstar, ORDER)
        compiler.run()
        cutoff, parent = compiler._cutoff, list(compiler._parent)
        assert cutoff == len(ORDER) - 1
        assert {compiler.edges[i] for i in compiler.reachable_edges(E5, 2)} == {E1, E3, E5}
        assert (compiler._cutoff, compiler._parent) == (cutoff, parent)

    def test_unknown_edge_or_vertex_rejected(self, fstar):
        compiler = Compiler(fstar, ORDER)
        with pytest.raises(ValueError, match="edge"):
            compiler.reachable_edges(frozenset({1, 5}), 3)
        with pytest.raises(ValueError, match="vertex 9"):
            compiler.reachable_edges(E1, 9)


class TestComputeU:
    def test_low_branch_keeps_the_big_edge(self, fstar):
        got = compute_U(fstar, ORDER, E5, 5, frozenset({-5}))
        assert [(g, c.sorted_literals()) for g, c in got] == [(E5, (2, 4, 5))]

    def test_high_branch_splits(self, fstar):
        got = compute_U(fstar, ORDER, E5, 5, frozenset({5}))
        assert [(g, c.sorted_literals()) for g, c in got] == [(E1, (1, 2)), (E2, (3, 4))]

    def test_tautology(self):
        formula = CnfFormula.from_ints([[1, 2]])
        got = compute_U(formula, EliminationOrder((1, 2)), frozenset({1, 2}), 2,
                        frozenset({2}))
        assert got == []

    def test_first_variable_rejected(self, fstar):
        with pytest.raises(ValueError, match="predecessor"):
            compute_U(fstar, ORDER, E1, 1, frozenset({-1, -2}))

    def test_unknown_edge_or_absent_variable_rejected(self, fstar):
        with pytest.raises(ValueError, match="edge"):
            compute_U(fstar, ORDER, frozenset({1, 5}), 5, frozenset({-5}))
        with pytest.raises(ValueError, match="variable 3 does not occur"):
            compute_U(fstar, ORDER, E5, 3, frozenset({-3, -4, -5}))

    def test_domain_mismatch_rejected(self, fstar):
        with pytest.raises(ValueError, match="bind exactly"):
            compute_U(fstar, ORDER, E5, 5, frozenset({-4, -5}))
        with pytest.raises(ValueError, match="bind exactly"):
            compute_U(fstar, ORDER, E5, 5, frozenset({5, -5}))

    @pytest.mark.parametrize("edge, x, above, message", [
        ({1, 5}, 5, {-5}, "edge [1, 5] not in the hypergraph"),
        ({2, 4, 5}, 3, {-3, -4, -5}, "variable 3 does not occur in the clause"),
        ({1, 2}, 1, {-2}, "variable 1 is first in the order and has no predecessor"),
        ({2, 4, 5}, 4, {-2}, "restriction must bind exactly [5], got [-2]"),
        ({2, 4, 5}, 4, {5, -5}, "restriction must bind exactly [5], got [-5, 5]"),
        ({2, 4, 5}, 2, {-4, 6}, "restriction must bind exactly [4, 5], got [-4, 6]"),
        ({2, 4, 5}, 2, {-4, 5, -5}, "restriction must bind exactly [4, 5], got [-4, -5, 5]"),
        ({2, 4, 5}, 5, {-4, -5}, "restriction must bind exactly [], got [-4, -5]"),
    ])
    def test_refusal_messages(self, fstar, edge, x, above, message):
        with pytest.raises(ValueError) as info:
            Compiler(fstar, ORDER).compute_U(frozenset(edge), x, frozenset(above))
        assert str(info.value) == message

    def test_lookup_names_an_uncomputed_key(self, fstar):
        compiler = Compiler(fstar, ORDER)
        k5 = [c.sorted_literals() for c in listed_clauses(compiler)].index((2, 4, 5))
        with pytest.raises(AssertionError) as info:
            compiler.lookup(k5, 4)
        assert str(info.value) == (
            "uncomputed sub-circuit requested: SubFormulaKey(edge_index=4, restriction=(5,), cutoff=4)")

    def test_candidates_joined_only_above_them_stay_apart(self):
        """{1,2} and {3,4} share a class one stage down only through the
        larger {1,3,4}, so neither reaches the other: keeping just the
        largest candidate of each class would drop {1,2}."""
        formula = CnfFormula.from_ints([[1, 2], [3, -4], [1, 3, 4]])
        got = compute_U(formula, EliminationOrder((2, 1, 3, 4)), frozenset({1, 3, 4}), 4,
                        frozenset({4}))
        assert [(g, c.sorted_literals()) for g, c in got] == [
            (frozenset({1, 2}), (1, 2)),
            (frozenset({3, 4}), (3, -4)),
        ]

    def test_matches_the_pairwise_definition(self):
        rng = random.Random(2017)
        formulas = [random_beta_acyclic_cnf(rng, max_vars=9, max_clauses=14) for _ in range(150)]
        formulas += [random_interval_cnf(rng, rng.randint(3, 12), rng.randint(2, 16))
                     for _ in range(60)]
        for formula in formulas:
            compiler = Compiler(formula)
            rank = compiler.order.rank
            for cid, clause in enumerate(listed_clauses(compiler)):
                for x in clause.variables:
                    if rank[x] == 0:
                        continue
                    above = frozenset(-l for l in restriction_above(compiler, cid, x))
                    branches = compiler.compute_U(clause.variables, x, above)
                    for b in (0, 1):
                        tau = above | {x if b else -x}
                        assert branches[1 - b] == (
                            pairwise_compute_U(compiler, clause.variables, x, tau)
                        ), (clause, x, tau)

    def test_one_call_per_decision_step(self, fstar, monkeypatch):
        """Both branches of a stage gate come from one walk, one decision
        step makes each cache entry, the first stage's too, and the stage
        loop calls none of the checked public queries."""
        rng = random.Random(11)
        formulas = [fstar] + [random_beta_acyclic_cnf(rng, max_vars=10, max_clauses=16)
                              for _ in range(200)]
        calls = []
        decision_step, walk = Compiler.decision_step, Compiler._walk

        def counted_step(self, *args):
            calls.append(0)
            return decision_step(self, *args)

        def counted_walk(self, *args):
            calls[-1] += 1
            return walk(self, *args)

        def refused(name):
            def query(self, *args):
                raise AssertionError(f"the stage loop called {name}")
            return query

        monkeypatch.setattr(Compiler, "decision_step", counted_step)
        monkeypatch.setattr(Compiler, "_walk", counted_walk)
        monkeypatch.setattr(Compiler, "compute_U", refused("compute_U"))
        monkeypatch.setattr(Compiler, "reachable_edges", refused("reachable_edges"))
        for formula in formulas:
            before = len(calls)
            compiler = Compiler(formula)
            compiler.run()
            assert len(calls) - before == len(compiler.cache)
        assert len(calls) > 200 and set(calls) == {1}

    def test_clauses_of_an_edge_share_one_tops_walk(self, monkeypatch):
        """The tops of R(j, x) depend only on the edge and the stage: the
        first decision step of edge j at stage x finds them, and each later
        clause of j at x walks both branches from that list to the pieces a
        walk of its own would find."""
        rng = random.Random(12)
        formulas = [CnfFormula.from_ints([[1, 2, 3], [-1, 2, -3], [1, -2, 3], [-3, 4], [3, 4]])]
        formulas += [random_beta_acyclic_cnf(rng, max_vars=8, max_clauses=20, max_edges=6)
                     for _ in range(150)]
        walk, fills, shared = Compiler._walk, Counter(), Counter()

        def checked_walk(self, top, x, rx, k, node, falsified, tops):
            found = list(tops)
            branches = walk(self, top, x, rx, k, node, falsified, tops)
            if not found:
                fills[x, top] += 1
            else:
                assert tops == found
                assert branches == walk(self, top, x, rx, k, node, falsified, [])
                shared["walks"] += 1
                shared["both branches with pieces"] += all(branches)
            return branches

        monkeypatch.setattr(Compiler, "_walk", checked_walk)
        for formula in formulas:
            fills.clear()
            Compiler(formula).run()
            assert set(fills.values()) <= {1}
        assert shared["walks"] > 100 and shared["both branches with pieces"] > 20, shared


class TestRestrictionAbove:
    def test_cutoff(self, fstar):
        compiler = Compiler(fstar, ORDER)
        k5 = [c.sorted_literals() for c in listed_clauses(compiler)].index((2, 4, 5))
        assert falsifying_assignment(Clause(restriction_above(compiler, k5, 4))) == lits({5: 0})
        assert len(restriction_above(compiler, k5, 5)) == 0

    def test_prefix_of_the_ranked_literals(self, fstar):
        compiler = Compiler(fstar, ORDER)
        k5 = [c.sorted_literals() for c in listed_clauses(compiler)].index((2, 4, 5))
        assert compiler.ranked[k5] == (5, 4, 2)
        assert len(compiler.depth) == len(compiler.edges)  # one tuple per edge, read by the edge's index
        assert compiler.depth[compiler.prefix[k5][0]] == (-4, -3, -1)
        assert [restriction_above(compiler, k5, x) for x in (5, 4, 3, 2, 1)] == [
            (), (5,), (5, 4), (5, 4), (5, 4, 2)]


class TestCacheKeys:
    def test_one_entry_per_distinct_restriction(self):
        """The old representation is the oracle: one entry per distinct
        (edge, falsifying assignment of C on the variables after x, x)."""
        rng = random.Random(31)
        formulas = [random_beta_acyclic_cnf(rng, max_vars=10, max_clauses=16) for _ in range(100)]
        formulas += [random_interval_cnf(rng, rng.randint(3, 14), rng.randint(2, 20))
                     for _ in range(60)]
        for formula in formulas:
            comp = Compiler(formula)
            comp.run()
            rank = comp.order.rank
            distinct = {
                (c.variables,
                 frozenset(l for l in falsifying_assignment(c) if rank[abs(l)] > rank[x]),
                 x)
                for c in listed_clauses(comp)
                for x in c.variables
            }
            assert len(comp.cache) == len(distinct), formula

    def test_equal_restrictions_share_an_entry(self):
        comp = Compiler(CnfFormula.from_ints([[1, 2], [-1, 2]]), EliminationOrder((1, 2)))
        comp.run()
        assert len(comp.cache) == 2
        assert sorted(decoded_cache(comp)) == [(0, (), 2), (0, (2,), 1)]

    def test_wide_clause_is_one_trie_path(self):
        """A clause of width w has w prefix nodes, root included (the whole
        clause is none), and one cache entry per stage; all of its 2^w
        assignments but one satisfy it."""
        w = 5000
        comp = Compiler(CnfFormula.from_ints([wide_clause(w)]))
        circuit, _ = comp.run()
        assert len(comp.edges) + len(comp.intern) == w
        assert len(comp.cache) == w
        assert count_models(circuit, range(1, w + 1)) == 2 ** w - 1


def refusal_or_result(call, *args):
    try:
        return "ok", call(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)


class TestAgainstTheTupleKeyCompiler:
    """`tests/compiler_reference.py` is the compiler as it was when the cache
    was keyed by (edge, restriction tuple, stage) and every stage went
    through the checked `compute_U`."""

    @staticmethod
    def formulas():
        for name in sorted(os.listdir(GOLDEN)):
            if name.endswith(".cnf"):
                yield parse_dimacs(TestGoldenOutput.golden(name))
        rng = random.Random(7)
        for _ in range(300):
            yield random_beta_acyclic_cnf(rng)
        for n in (50, 200):
            yield chain_cnf(n)
        for n in (50, 200, 800):
            yield CnfFormula.from_ints(interval3_clauses(n))
            yield hat(chain_cnf(n))
        yield CnfFormula.from_ints([wide_clause(200)])
        for j in range(1, 21):
            yield CnfFormula.from_ints(nested_clauses(j))

    def test_same_circuit_report_and_cache(self):
        compared = 0
        for formula in self.formulas():
            try:
                old = compiler_reference.Compiler(formula)
            except (NotBetaAcyclicError, ValueError) as exc:
                with pytest.raises(type(exc)) as info:
                    Compiler(formula)
                assert str(info.value) == str(exc)
                continue
            new = Compiler(formula)
            (old_circuit, old_report), (new_circuit, new_report) = old.run(), new.run()
            assert write_nnf(new_circuit) == write_nnf(old_circuit)
            assert new.full_circuit.gates == old.full_circuit.gates
            old_report.wall_time_seconds = new_report.wall_time_seconds = 0.0
            assert new_report == old_report
            assert len(new.cache) == len(old.cache)
            assert decoded_cache(new) == old.cache
            compared += 1
        assert compared == 3 + 300 + 2 + 6 + 1 + 20  # the golden triangle is refused

    def test_compute_U_matches_on_every_stage(self):
        """Every (clause, x) of random formulas, with the clause's own
        restriction, a random one over the same variables (often no clause's
        prefix, so no clause of the edge fails it) and two that bind the
        wrong variables."""
        rng = random.Random(2006)
        off_prefix, outcomes = 0, Counter()
        for _ in range(150):
            formula = random_beta_acyclic_cnf(rng, max_vars=9, max_clauses=14)
            new, old = Compiler(formula), compiler_reference.Compiler(formula)
            listed = listed_clauses(new)
            for cid, clause in enumerate(listed):
                edge = clause.variables
                for x in sorted(edge):
                    falsified = restriction_above(new, cid, x)
                    flipped = tuple(l if rng.random() < 0.5 else -l for l in falsified)
                    off_prefix += all(restriction_above(new, c, x) != flipped
                                      for c, d in enumerate(listed) if d.variables == edge)
                    own = frozenset(-l for l in falsified)
                    wrong = own - {-falsified[0]} if falsified else own | {-x}
                    for above in (own, frozenset(-l for l in flipped), own | {x}, wrong):
                        got = refusal_or_result(new.compute_U, edge, x, above)
                        assert got == refusal_or_result(old.compute_U, edge, x, above), (edge, x, above)
                        outcomes[got[0]] += 1
        assert off_prefix > 200
        assert min(outcomes["ok"], outcomes["ValueError"]) > 1000, outcomes


class TestGoldenOutput:
    """Compiled NNF bytes are pinned: on the golden files, and by a digest
    over a seeded random pool plus chain and interval-3 formulas."""

    POOL_SHA256 = "4b8972f135c5a7ab91d4381ad42b1a1370667d6f5afd58c2126d37408857c427"

    @staticmethod
    def golden(name):
        with open(os.path.join(GOLDEN, name), encoding="ascii") as handle:
            return handle.read()

    def test_fstar_compiles_to_the_golden_file(self):
        circuit, _ = compile_cnf(parse_dimacs(self.golden("fstar.cnf")))
        assert write_nnf(circuit) == self.golden("fstar.nnf")

    def test_fstar_trace_is_the_golden_file(self):
        formula = parse_dimacs(self.golden("fstar.cnf"))
        _, _, trace = search(formula, OrderStrategy.reverse_beta_elimination(), trace=True)
        assert write_nnf(trace) == self.golden("fstar_trace.nnf")

    def test_seeded_pool_digest(self):
        rng = random.Random(8)
        pool = [random_beta_acyclic_cnf(rng) for _ in range(300)]
        for n in (50, 120):
            pool += [chain_cnf(n), CnfFormula.from_ints(interval3_clauses(n))]
        digest = hashlib.sha256()
        for formula in pool:
            digest.update(write_nnf(compile_cnf(formula)[0]).encode())
        assert digest.hexdigest() == self.POOL_SHA256


class TestDecisionStepStructure:
    def test_top_gate_of_worked_example(self, fstar):
        comp = Compiler(fstar)
        comp.run()
        ids = {c.sorted_literals(): i for i, c in enumerate(listed_clauses(comp))}
        k1, k2, k5 = ids[(1, 2)], ids[(3, 4)], ids[(2, 4, 5)]
        top = comp.lookup(k5, 5)
        tag, x, hi, lo = comp.builder.gate(top)
        assert (tag, x) == ("D", 5)
        # low branch reuses the cached gate for the big edge one stage down
        assert lo == comp.lookup(k5, 4)
        tag, children = comp.builder.gate(hi)
        assert tag == "A"
        assert set(children) == {comp.lookup(k1, 4), comp.lookup(k2, 4)}

    @pytest.mark.parametrize("literal", [1, -1])
    def test_unit_clause_base_case(self, literal):
        circuit, report = compile_cnf(CnfFormula.from_ints([[literal]]))
        assert circuit.size == 1
        assert circuit.gates[0] == ("L", literal)
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
        assert circuit.gates[circuit.output][0] == "A"
        assert count_models(circuit, {1, 2, 3, 4}) == 9

    def test_components_join_in_order_of_their_least_edges(self):
        """{3,4} is the largest edge of its component but {1,2} of the other
        is below it: the output conjunction lists the {1,2,5} component first."""
        circuit, _ = compile_cnf(CnfFormula.from_ints([[1, 2], [1, 5], [3, 4]]))
        assert write_nnf(circuit) == (
            "nnf 10 14 5\nL 2\nT\nD 1 1 0\nF\nA 2 0 3\nD 1 1 4\nD 3 1 3\nD 4 1 6\n"
            "D 5 2 5\nA 2 8 7\n"
        )

    def test_not_beta_acyclic(self):
        triangle = CnfFormula.from_ints([[1, 2], [2, 3], [1, 3]])
        with pytest.raises(NotBetaAcyclicError) as err:
            compile_cnf(triangle)
        assert err.value.certificate == frozenset({1, 2, 3})

    def test_empty_clause_compiles_to_false(self):
        circuit, _ = compile_cnf(CnfFormula([Clause([]), Clause([1])]))
        assert count_models(circuit, {1}) == 0

    def test_compiler_refuses_the_empty_clause(self):
        with pytest.raises(ValueError, match="empty clause"):
            Compiler(CnfFormula([Clause([]), Clause([1])]))

    def test_empty_formula_compiles_to_true(self):
        circuit, report = compile_cnf(CnfFormula([]))
        assert count_models(circuit, {1, 2}) == 4
        assert write_nnf(circuit) == "nnf 1 0 0\nT\n"
        assert (report.gates, report.and_fanin_max, report.clause_counts,
                report.elimination_order, report.components, report.formula_size) == (1, 0, {}, (), 0, 0)

    def test_explicit_order_is_used(self, fstar):
        circuit, report = compile_cnf(fstar, ORDER)
        assert report.elimination_order == (1, 2, 3, 4, 5)
        assert equivalent_to_formula(circuit, fstar)

    @pytest.mark.parametrize("clauses, order, expected", [
        ([[1, 2]], (1, 2, 3), "nnf 3 2 2\nL 1\nT\nD 2 1 0\n"),
        ([[1, 2]], (1, 3, 2), "nnf 3 2 2\nL 1\nT\nD 2 1 0\n"),
        ([[1, 2]], (3, 1, 2), "nnf 4 4 2\nT\nF\nD 1 0 1\nD 2 0 2\n"),
        ([[1, 2], [3, 4]], (1, 2, 3, 4, 5), "nnf 7 8 4\nL 1\nT\nD 2 1 0\nF\nD 3 1 3\nD 4 1 4\nA 2 2 5\n"),
        ([[3, 4], [1, 2]], (5, 3, 4, 1, 2), "nnf 7 10 4\nT\nF\nD 3 0 1\nD 4 0 2\nD 1 0 1\nD 2 0 4\nA 2 3 5\n"),
        ([[1, -2], [2, 3], [-1, 4], [5, 6]], (4, 3, 2, 1, 7, 6, 5, 8),
         "nnf 11 16 6\nL 4\nT\nF\nD 3 1 2\nD 2 1 3\nD 2 2 3\nA 2 4 0\nD 1 6 5\nD 6 1 2\nD 5 1 8\nA 2 7 9\n"),
    ])
    def test_order_with_vertices_in_no_clause(self, clauses, order, expected):
        """An order may list vertices no clause mentions, such as a declared
        but unused DIMACS variable, anywhere, last included. The expected
        texts are the output of the per-query reachability search that the
        forest replaced."""
        formula = CnfFormula.from_ints(clauses)
        circuit, _ = compile_cnf(formula, EliminationOrder(order))
        assert write_nnf(circuit) == expected

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
            for key, gate in decoded_cache(comp).items():
                edge = comp.edges[key.edge_index]
                residual = sub_formula(comp, edge, key.cutoff).restrict(
                    falsifying_assignment(Clause(key.restriction))
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


class TestPastTheEnumerationCap:
    """Counts of compiled circuits far beyond any truth table, checked
    against references written from the definitions."""

    N = 1000

    def test_chain(self):
        circuit, _ = compile_cnf(chain_cnf(self.N))
        # no two adjacent zeros among N bits
        assert count_models(circuit, range(1, self.N + 1)) == fibonacci(self.N + 2)

    def test_interval3(self):
        n = self.N
        clauses = interval3_clauses(n)
        circuit, _ = compile_cnf(CnfFormula.from_ints(clauses))
        assert count_models(circuit, range(1, n + 1)) == transfer_count(n, clauses, 3)

    def test_hat_chain(self):
        n = self.N
        base = [[i, i + 1] for i in range(1, n)]
        formula = CnfFormula.from_ints(c + [n + i] for i, c in enumerate(base, start=1))
        circuit, _ = compile_cnf(formula)
        expected = transfer_count(n, base, 2, private=True)
        assert count_models(circuit, range(1, 2 * n)) == expected

    def test_transfer_matrix_matches_enumeration(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 9)
            clauses = []
            for _ in range(rng.randint(0, 8)):
                start = rng.randint(1, n)
                clauses.append([v if rng.random() < 0.5 else -v
                                for v in range(start, min(n, start + 2) + 1)])
            for private in (False, True):
                extra = len(clauses) if private else 0
                widened = [c + [n + 1 + k] for k, c in enumerate(clauses)] if private else clauses
                formula = CnfFormula.from_ints(widened)
                expected = brute_force_count(formula, range(1, n + extra + 1))
                assert transfer_count(n, clauses, 3, private) == expected

    def test_random_interval_formulas_match_dpll(self):
        rng = random.Random(150)
        for _ in range(6):
            n = rng.randint(150, 300)
            formula = random_interval_cnf(rng, n, rng.randint(n, 2 * n), planted=True)
            circuit, _ = compile_cnf(formula)
            expected, _ = count_dpll(formula, OrderStrategy.reverse_beta_elimination())
            assert expected > 0
            assert count_models(circuit, formula.variables) == expected


def bench_rows(capsys, *argv):
    assert main(["--json", "bench", *argv]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


class TestStatsSweep:
    def test_chain_family_grows_linearly(self, capsys):
        sizes = [10, 50, 100, 200]
        rows = bench_rows(capsys, "--family", "chain", "--sizes", ",".join(map(str, sizes)))
        gates = [r["gates"] for r in rows]
        assert linear_fit_r2([r["formula_size"] for r in rows], gates) >= 0.98
        for row in rows:
            assert row["gates"] <= 7 * row["formula_size"] + 4

    def test_worked_example_row(self, fstar):
        _, report = compile_cnf(fstar)
        assert report.gates <= 77

    def test_empty_sweep(self, capsys):
        assert bench_rows(capsys, "--sizes", "") == []
