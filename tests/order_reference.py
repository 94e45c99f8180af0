"""The nest-point order engine as it was before edges were handled by
index: `_incidence` lists the edge sets themselves, residuals live in a
dict keyed by edge, and `_chain_break` always sorts. Kept verbatim as the
oracle that `tests/test_hypergraph.py` checks `betadnnf.hypergraph`
against: same orders, same stuck vertices, same violation triples.

`EdgeOrder` is the edge order as it was before edges compared by their
rank lists (`EliminationOrder.edge_key`): one integer of up to n bits per
edge. Kept verbatim as the oracle for that key, and for
`tests/compiler_reference.py`, which sorts its edges with it."""
from __future__ import annotations

import heapq
from typing import Iterable

from betadnnf.hypergraph import EliminationOrder, Hypergraph, NotBetaAcyclic


def _incidence(edges: Iterable[frozenset[int]]) -> dict[int, list[frozenset[int]]]:
    """The edges through each vertex, in the order given, in one pass."""
    incident: dict[int, list[frozenset[int]]] = {}
    for e in edges:
        for v in e:
            incident.setdefault(v, []).append(e)
    return incident


def _chain_break(through: list[frozenset[int]], residual: dict[frozenset[int], set[int]]):
    """The nest-point test on the edges through one vertex, each read as
    its residual (what deletions left of it): two with incomparable
    residuals, or None when they form a chain. A lone edge is not read."""
    if len(through) < 2:
        return None
    by_size = sorted(through, key=lambda e: len(residual[e]))
    for e, f in zip(by_size, by_size[1:]):
        if not residual[e] <= residual[f]:  # |f| >= |e|, so f ⊆ e would make e = f
            return e, f
    return None


def beta_condition_violation(
    hypergraph: Hypergraph, order: EliminationOrder
) -> tuple[int, frozenset[int], frozenset[int]] | None:
    """First (vertex, e, f) violating the elimination condition, or None.

    The condition: for each prefix ending at vertex x, any two edges through
    x must be inclusion-comparable once the prefix is deleted.
    """
    order.check_covers(hypergraph.vertices)
    incident = _incidence(hypergraph.edges)
    residual = {e: set(e) for e in hypergraph.edges}
    for x in order.sequence:
        through = incident.get(x, [])
        if pair := _chain_break(through, residual):
            return x, *pair
        for e in through:
            residual[e].discard(x)
    return None


def beta_elimination_order(hypergraph: Hypergraph) -> EliminationOrder | NotBetaAcyclic:
    """Greedy nest-point elimination, smallest vertex id first.

    Returns an order satisfying the elimination condition (re-verified
    before returning), or a NotBetaAcyclic certificate naming the vertex
    set at which every candidate fails.

    Candidates come off a heap, least first. A vertex that fails is set
    aside until a vertex sharing an edge with it is deleted, as no other
    deletion changes its residual edges. A nest point stays one when other
    vertices are deleted (A ⊆ B gives A - v ⊆ B - v), so taking the least
    one first never blocks the others. A failed vertex keeps its
    incomparable pair; while the pair stays incomparable it fails again
    without its edges being re-read.
    """
    incident = _incidence(hypergraph.edges)
    residual = {e: set(e) for e in hypergraph.edges}
    heap = sorted(incident)  # a sorted list is a heap
    failed: set[int] = set()
    pairs: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    sequence: list[int] = []
    while heap:
        x = heapq.heappop(heap)
        pair = pairs.get(x)
        if pair is None or (residual[pair[0]] <= residual[pair[1]]
                            or residual[pair[1]] <= residual[pair[0]]):
            pair = _chain_break(incident[x], residual)
        if pair is not None:
            pairs[x] = pair
            failed.add(x)
            continue
        sequence.append(x)
        for e in incident[x]:
            residual[e].discard(x)
            for y in failed & residual[e]:  # iterates the smaller set
                failed.remove(y)
                heapq.heappush(heap, y)
    if failed:
        return NotBetaAcyclic(frozenset(failed))
    order = EliminationOrder(sequence)
    if beta_condition_violation(hypergraph, order) is not None:
        raise AssertionError("greedy elimination produced an invalid order")
    return order


class EdgeOrder:
    """Total order on edges induced by an elimination order.

    Edges compare as the integers obtained by reading vertex membership as
    bits, the last vertex of the elimination order being most significant.
    Equivalently e < f iff the largest vertex where they differ lies in f.
    """

    def __init__(self, hypergraph: Hypergraph, order: EliminationOrder):
        order.check_covers(hypergraph.vertices)
        self.order = order
        self._keys: dict[frozenset[int], int] = {}
        for e in hypergraph.edges:
            self._keys[e] = self.key(e)

    def key(self, edge: frozenset[int]) -> int:
        cached = self._keys.get(edge)
        if cached is not None:
            return cached
        rank = self.order.rank
        return sum(1 << rank[v] for v in edge)

    def less(self, e: frozenset[int], f: frozenset[int]) -> bool:
        return self.key(e) < self.key(f)

    def leq(self, e: frozenset[int], f: frozenset[int]) -> bool:
        return self.key(e) <= self.key(f)

    def sort(self, edges: Iterable[frozenset[int]]) -> list[frozenset[int]]:
        return sorted(edges, key=self.key)
