"""Seeded random instances for the test suites and the bench command.

Random hypergraphs are made beta-acyclic by repair: sample edges, then
delete edges until greedy nest-point elimination succeeds. Formulas draw
one or two random-polarity clauses per hypergraph edge.
"""
from __future__ import annotations

import random

from .cnf import Clause, CnfFormula
from .hypergraph import EliminationOrder, Hypergraph, beta_elimination_order


def random_beta_acyclic_hypergraph(
    rng: random.Random,
    max_vertices: int = 10,
    max_edges: int = 12,
    max_edge_size: int = 4,
) -> Hypergraph:
    if max_vertices < 2:
        raise ValueError(f"a random hypergraph needs max_vertices >= 2, got {max_vertices}")
    if max_edges < 1:
        raise ValueError(f"a random hypergraph needs max_edges >= 1, got {max_edges}")
    if not 1 <= max_edge_size <= 4:
        raise ValueError(f"a random hypergraph needs 1 <= max_edge_size <= 4, got {max_edge_size}")
    n = rng.randint(2, max_vertices)
    vertices = list(range(1, n + 1))
    edges: set[frozenset[int]] = set()
    for _ in range(rng.randint(1, max_edges)):
        size = min(n, rng.choices(range(1, max_edge_size + 1), weights=(1, 6, 5, 2)[: max_edge_size])[0])
        edges.add(frozenset(rng.sample(vertices, size)))
    while True:
        candidate = Hypergraph(edges)
        if isinstance(beta_elimination_order(candidate), EliminationOrder):
            return candidate
        edges.discard(rng.choice(sorted(edges, key=sorted)))
        if not edges:
            return Hypergraph([frozenset((1,))])


def random_beta_acyclic_cnf(
    rng: random.Random,
    max_vars: int = 16,
    max_clauses: int = 30,
    max_edges: int = 12,
    max_edge_size: int = 4,
) -> CnfFormula:
    hypergraph = random_beta_acyclic_hypergraph(rng, max_vars, max_edges, max_edge_size)
    clauses: set[Clause] = set()
    for edge in hypergraph.sorted_edges():
        for _ in range(rng.randint(1, 2)):
            clauses.add(Clause(v if rng.random() < 0.5 else -v for v in edge))
    trimmed = sorted(clauses, key=lambda c: c.sorted_literals())
    rng.shuffle(trimmed)
    return CnfFormula(trimmed[:max_clauses])


def chain_cnf(n: int) -> CnfFormula:
    """Positive two-variable clauses linking consecutive variables."""
    if n < 2:
        raise ValueError("a chain needs at least two variables")
    return CnfFormula.from_ints([i, i + 1] for i in range(1, n))
