"""Shared fixtures: the five-clause worked example, the three-variable
example circuit, the structural-property checker used by both the
hypergraph tests and the acceptance suite, and the model-count references
(Fibonacci, a transfer matrix) that the compiler and DPLL tests check
counts against past the enumeration cap."""
from __future__ import annotations

from collections import Counter, defaultdict

import pytest

from betadnnf import CnfFormula, parse_dimacs
from betadnnf.circuit import CircuitBuilder, NnfCircuit, Vtree
from betadnnf.hypergraph import (
    EliminationOrder,
    Hypergraph,
    sub_hypergraph,
)

FSTAR_DIMACS = "p cnf 5 5\n1 2 0\n2 4 5 0\n2 5 0\n3 4 0\n4 5 0\n"

FSTAR_EDGES = {
    "e1": frozenset({1, 2}),
    "e2": frozenset({3, 4}),
    "e3": frozenset({2, 5}),
    "e4": frozenset({4, 5}),
    "e5": frozenset({2, 4, 5}),
}


@pytest.fixture(scope="session")
def fstar() -> CnfFormula:
    """Monotone five-clause formula over variables 1..5. It is shared by
    the session and keeps its elimination order once computed, so a test
    that patches or counts the order engine parses its own formula."""
    return parse_dimacs(FSTAR_DIMACS)


@pytest.fixture(scope="session")
def fstar_hypergraph(fstar) -> Hypergraph:
    from betadnnf import hypergraph_of

    return hypergraph_of(fstar)


def build_fig3() -> NnfCircuit:
    """(not-x and z) or (x and (y or z)) with x=1, y=2, z=3."""
    b = CircuitBuilder()
    y = b.literal(2)
    z = b.literal(3)
    y_or_z = b.or_([y, z])
    x = b.literal(1)
    hi = b.and_([x, y_or_z])
    nx = b.literal(-1)
    lo = b.and_([nx, z])
    return b.build(b.or_([lo, hi]))


@pytest.fixture
def fig3() -> NnfCircuit:
    return build_fig3()


@pytest.fixture
def fig3_vtree() -> Vtree:
    return Vtree.node(Vtree.node(Vtree.leaf(2), Vtree.leaf(3)), Vtree.leaf(1))


TRIANGLE = Hypergraph([{1, 2}, {2, 3}, {1, 3}])


def lits(bindings=()) -> frozenset[int]:
    """A {variable: 0 or 1} map, or its pairs, as the set of its true
    literals: lits({1: 1, 2: 0}) == frozenset({1, -2})."""
    return frozenset(v if b else -v for v, b in dict(bindings).items())


def linear_fit_r2(xs, ys) -> float:
    """Coefficient of determination of the least-squares line."""
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    if syy == 0:
        return 1.0
    return (sxy * sxy) / (sxx * syy)


def reachable_table(hypergraph: Hypergraph, order: EliminationOrder):
    """All ordered sub-hypergraphs, keyed by (edge, cutoff)."""
    return {
        (e, x): sub_hypergraph(hypergraph, order, e, x).edges
        for e in hypergraph.edges
        for x in order.sequence
    }


def structural_property_failures(hypergraph: Hypergraph, order: EliminationOrder) -> list[str]:
    """Check the ordered-sub-hypergraph laws on every (e, f, x, y) combination.

    Laws: inclusion between nested reachable sets, confinement of vertices
    at or above the cutoff to the root edge, suffix containment between
    order-comparable edges sharing a vertex, and monotonicity in the cutoff.
    """
    key = {e: order.edge_key(e) for e in hypergraph.edges}
    edges = sorted(hypergraph.edges, key=key.__getitem__)
    seq = order.sequence
    rank = order.rank
    reach = reachable_table(hypergraph, order)
    vertex_sets = {key: frozenset(v for g in val for v in g) for key, val in reach.items()}
    at_or_below = {x: frozenset(seq[: rank[x] + 1]) for x in seq}
    at_or_above = {x: frozenset(seq[rank[x]:]) for x in seq}
    failures: list[str] = []

    for e in edges:
        for x in seq:
            if e not in reach[(e, x)]:
                failures.append(f"root edge missing from its own reachable set: {sorted(e)}, {x}")
            if not vertex_sets[(e, x)] & at_or_above[x] <= e:
                failures.append(f"high vertex escapes the root edge: {sorted(e)}, {x}")
            for y in seq:
                if rank[x] <= rank[y] and not reach[(e, x)] <= reach[(e, y)]:
                    failures.append(f"not monotone in the cutoff: {sorted(e)}, {x}, {y}")

    for e in edges:
        for f in edges:
            if key[e] < key[f]:
                for x in e & f:
                    if not e & at_or_above[x] <= f:
                        failures.append(
                            f"suffix not contained: {sorted(e)} vs {sorted(f)} at {x}"
                        )

    for e in edges:
        for x in seq:
            for f in edges:
                for y in seq:
                    if rank[x] > rank[y] or not key[e] <= key[f]:
                        continue
                    shared = vertex_sets[(e, x)] & vertex_sets[(f, y)] & at_or_below[x]
                    if shared and not reach[(e, x)] <= reach[(f, y)]:
                        failures.append(
                            f"inclusion fails: ({sorted(e)},{x}) vs ({sorted(f)},{y})"
                        )
            for y in seq:
                for f in edges:
                    if e in reach[(f, y)] and not reach[(e, y)] <= reach[(f, y)]:
                        failures.append(
                            f"membership inclusion fails: ({sorted(e)},{y}) vs ({sorted(f)},{y})"
                        )

    return failures


def transfer_count(n, clauses, width, private=False):
    """Models over 1..n of clauses that each lie within `width`
    consecutive variables, by a transfer matrix over the values of the last
    width - 1 variables. With `private`, each clause also holds a variable
    of its own, free when the rest of the clause is satisfied and forced
    otherwise, so a clause weighs 2 or 1 instead of 1 or 0."""
    weight = {True: 2, False: 1} if private else {True: 1, False: 0}
    ending = defaultdict(list)
    for clause in clauses:
        ending[max(abs(l) for l in clause)].append(clause)
    states = Counter({(): 1})
    for v in range(1, n + 1):
        grown = Counter()
        for window, ways in states.items():
            for bit in (0, 1):
                values = window + (bit,)  # variable u is values[u - v - 1]
                total = ways
                for clause in ending[v]:
                    total *= weight[any(values[abs(l) - v - 1] == (l > 0) for l in clause)]
                grown[values[1 - width:]] += total
        states = grown
    return sum(states.values())


def interval3_clauses(n):
    """Every run of three and of two consecutive variables among 1..n."""
    return [[i, i + 1, i + 2] for i in range(1, n - 1)] + [[i, i + 1] for i in range(1, n)]


def wide_clause(w):
    """One clause over 1..w; every third literal is negative."""
    return [v if v % 3 else -v for v in range(1, w + 1)]


def nested_clauses(k):
    """One clause on each of the nested edges {1..j}, j <= k, with signs
    varying by variable and by clause."""
    return [[v if (v + j) % 3 else -v for v in range(1, j + 1)] for j in range(1, k + 1)]


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a
