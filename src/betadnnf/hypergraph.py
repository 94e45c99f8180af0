"""Hypergraphs, beta-elimination orders, and the ordered sub-hypergraphs
that drive the compiler's dynamic program: `sub_hypergraph` answers
`Compiler.reachable_edges`, and the tests check the compiler's forest by it.

A hypergraph is a finite set of non-empty finite vertex sets. It is
beta-acyclic when repeatedly deleting nest points (vertices whose incident
edges form an inclusion chain) empties it; the deletion sequence is a
beta-elimination order.

An elimination order induces the edge order the compiler runs over: e < f
iff the last-eliminated vertex where they differ lies in f. That is the
order of the edges' ranks listed largest first (`EliminationOrder.edge_key`):
where two such lists first differ, the larger rank is the largest in one
edge only, and a strict prefix lacks only smaller ranks.

The order engine and the edge searches handle edges by index: they list
the edges once, map each vertex to the indices of its edges, and keep
per-edge state (residuals, search parents) under those indices.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .errors import NotBetaAcyclicError


@dataclass(frozen=True)
class Hypergraph:
    edges: frozenset[frozenset[int]]

    def __init__(self, edges: Iterable[Iterable[int]]):
        es = frozenset(map(frozenset, edges))
        if frozenset() in es:
            raise ValueError("empty edges are not admitted")
        object.__setattr__(self, "edges", es)

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset().union(*self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge) -> bool:
        return frozenset(edge) in self.edges

    def __iter__(self):
        return iter(self.edges)

    def sorted_edges(self) -> list[frozenset[int]]:
        return sorted(self.edges, key=sorted)

    def __repr__(self) -> str:
        return f"Hypergraph({[sorted(e) for e in self.sorted_edges()]})"


@dataclass(frozen=True)
class EliminationOrder:
    """A permutation of the vertices with O(1) rank lookup."""

    sequence: tuple[int, ...]

    def __init__(self, sequence: Iterable[int]):
        seq = tuple(sequence)
        if len(set(seq)) != len(seq):
            raise ValueError("elimination order repeats a vertex")
        object.__setattr__(self, "sequence", seq)

    @cached_property
    def rank(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.sequence)}

    def check_covers(self, vertices: Iterable[int]) -> None:
        missing = set(vertices) - set(self.sequence)
        if missing:
            raise ValueError(f"order does not cover vertices {sorted(missing)}")

    def edge_key(self, edge: Iterable[int]) -> tuple[int, ...]:
        """The edge's ranks, largest first: edges in the edge order are in
        the order of these tuples (see the module docstring)."""
        return tuple(sorted(map(self.rank.__getitem__, edge), reverse=True))

    def predecessor(self, vertex: int) -> int | None:
        i = self.rank[vertex]
        return self.sequence[i - 1] if i > 0 else None

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass(frozen=True)
class NotBetaAcyclic:
    """Failure certificate: the vertex set at which no nest point exists."""

    stuck_vertices: frozenset[int]


def _incidence(edges: list[frozenset[int]]) -> dict[int, list[int]]:
    """The indices in `edges` of the edges through each vertex, in
    increasing order, in one pass."""
    incident: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, []).append(i)
    return incident


def _chain_break(through: list[int], residual: list[set[int]]):
    """The nest-point test on two or more edges (indices) through one
    vertex, each read as its residual (what deletions left of it): two with
    incomparable residuals, smaller first, or None when they form a chain.
    Callers pass no lone edge: a vertex on fewer than two edges is a nest
    point."""
    if len(through) == 2:  # the pair a stable sort by residual size gives
        e, f = through
        if len(residual[f]) < len(residual[e]):
            e, f = f, e
        return None if residual[e] <= residual[f] else (e, f)
    # sets sorted by size form a chain iff each is a subset of the next,
    # whatever the order among equal sizes; only a break needs the indices
    sets = sorted(map(residual.__getitem__, through), key=len)
    if all(map(set.issubset, sets, sets[1:])):
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
    edges = list(hypergraph.edges)
    incident = _incidence(edges)
    order.check_covers(incident)
    return _first_violation(edges, incident, order.sequence)


def _first_violation(edges: list[frozenset[int]], incident: dict[int, list[int]], sequence: Iterable[int]):
    """`beta_condition_violation` on `edges` and their `_incidence`."""
    residual = [set(e) for e in edges]
    for x in sequence:
        through = incident.get(x, ())
        if len(through) > 1 and (pair := _chain_break(through, residual)):
            return x, edges[pair[0]], edges[pair[1]]
        for e in through:
            residual[e].discard(x)
    return None


def satisfies_beta_condition(hypergraph: Hypergraph, order: EliminationOrder) -> bool:
    return beta_condition_violation(hypergraph, order) is None


def beta_elimination_order(hypergraph: Hypergraph) -> EliminationOrder | NotBetaAcyclic:
    """Greedy nest-point elimination, smallest vertex id first.

    Returns an order satisfying the elimination condition (re-verified by
    `_first_violation` on the incidence built here, not a second one), or
    a NotBetaAcyclic certificate naming the vertex set where all fail.

    Candidates come off a heap, least first. A vertex that fails is set
    aside until a vertex sharing an edge with it is deleted, as no other
    deletion changes its residual edges. A nest point stays one when other
    vertices are deleted (A ⊆ B gives A - v ⊆ B - v), so taking the least
    one first never blocks the others. A failed vertex keeps its
    incomparable pair; while the pair stays incomparable it fails again
    without its edges being re-read.
    """
    edges = list(hypergraph.edges)
    incident = _incidence(edges)
    residual = [set(e) for e in edges]
    heap = sorted(incident)  # a sorted list is a heap
    failed: set[int] = set()
    pairs: dict[int, tuple[int, int]] = {}
    sequence: list[int] = []
    while heap:
        x = heapq.heappop(heap)
        through = incident[x]
        if len(through) > 1:  # a lone edge makes x a nest point, and x never failed
            pair = pairs.get(x)
            if pair is None or (residual[pair[0]] <= residual[pair[1]]
                                or residual[pair[1]] <= residual[pair[0]]):
                pair = _chain_break(through, residual)
            if pair is not None:
                pairs[x] = pair
                failed.add(x)
                continue
        sequence.append(x)
        for e in through:
            left = residual[e]
            left.discard(x)
            if failed:
                for y in failed & left:  # iterates the smaller set
                    failed.remove(y)
                    heapq.heappush(heap, y)
    if failed:
        return NotBetaAcyclic(frozenset(failed))
    if _first_violation(edges, incident, sequence) is not None:
        raise AssertionError("greedy elimination produced an invalid order")
    return EliminationOrder(sequence)


def _order_or_refuse(found: EliminationOrder | NotBetaAcyclic) -> EliminationOrder:
    if isinstance(found, NotBetaAcyclic):
        raise NotBetaAcyclicError(
            f"no nest point among vertices {sorted(found.stuck_vertices)}",
            found.stuck_vertices,
        )
    return found


def is_beta_acyclic(hypergraph: Hypergraph) -> bool:
    return isinstance(beta_elimination_order(hypergraph), EliminationOrder)


def _search(incident: dict[int, list[int]], start: int, admitted: Callable):
    """Breadth-first search over edges, by index, from `start`: from each
    edge g it steps through the vertices `admitted(g)` lists, in that
    order, to the edges `incident` lists at each. Maps every edge reached
    to the (edge, vertex) that first reached it, and `start` to None."""
    parents: dict[int, tuple[int, int] | None] = {start: None}
    queue = [start]
    for g in queue:
        for v in admitted(g):
            for f in incident[v]:
                if f not in parents:
                    parents[f] = (g, v)
                    queue.append(f)
    return parents


def _ordered_search(hypergraph: Hypergraph, order: EliminationOrder, edge: frozenset[int], cutoff: int):
    """`_search` from `edge` over the edges at most `edge` in the edge
    order, through vertices at most `cutoff`, the latest vertex first, as
    a map from each edge reached to its (edge, vertex) parent."""
    if edge not in hypergraph.edges:
        raise ValueError(f"edge {sorted(edge)} not in the hypergraph")
    if cutoff not in order.rank or cutoff not in hypergraph.vertices:
        raise ValueError(f"vertex {cutoff} not in the hypergraph")
    order.check_covers(hypergraph.vertices)
    rank, bar, limit = order.rank, order.rank[cutoff], order.edge_key(edge)
    edges = [f for f in hypergraph.edges if order.edge_key(f) <= limit]

    def admitted(g):
        return sorted((v for v in edges[g] if rank[v] <= bar), key=rank.__getitem__, reverse=True)

    parents = _search(_incidence(edges), edges.index(edge), admitted)
    return {edges[f]: None if step is None else (edges[step[0]], step[1])
            for f, step in parents.items()}


def sub_hypergraph(
    hypergraph: Hypergraph,
    order: EliminationOrder,
    edge: Iterable[int],
    cutoff: int,
) -> Hypergraph:
    """Edges reachable from `edge` by walks using only edges at most `edge`
    (by `order.edge_key`) and connecting vertices at most `cutoff`.

    Reached edges are returned whole, including vertices above the cutoff.
    """
    return Hypergraph(_ordered_search(hypergraph, order, frozenset(edge), cutoff))


@dataclass(frozen=True)
class Walk:
    """Alternating edge/vertex sequence, each vertex joining its neighbours."""

    edges: tuple[frozenset[int], ...]
    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.vertices) + 1:
            raise ValueError("a walk has one more edge than vertices")
        for i, v in enumerate(self.vertices):
            if v not in self.edges[i] or v not in self.edges[i + 1]:
                raise ValueError(f"vertex {v} does not join steps {i} and {i + 1}")

    def is_path(self) -> bool:
        return len(set(self.edges)) == len(self.edges) and len(set(self.vertices)) == len(
            self.vertices
        )

    def is_decreasing(self, order: EliminationOrder) -> bool:
        rank, key = order.rank, order.edge_key
        edges_down = all(
            key(self.edges[i + 1]) < key(self.edges[i]) for i in range(len(self.vertices))
        )
        vertices_down = all(
            rank[self.vertices[i + 1]] < rank[self.vertices[i]]
            for i in range(len(self.vertices) - 1)
        )
        return edges_down and vertices_down

    def __len__(self) -> int:
        return len(self.vertices)


def decreasing_path(
    hypergraph: Hypergraph,
    order: EliminationOrder,
    edge: Iterable[int],
    cutoff: int,
    target: Iterable[int],
) -> Walk:
    """A path from `edge` down to `target` whose edges (by `order.edge_key`)
    and vertices (by rank) strictly decrease, through vertices at most `cutoff`.

    A shortest qualifying path has this shape on beta-acyclic inputs.
    """
    parents = _ordered_search(hypergraph, order, frozenset(edge), cutoff)
    f = frozenset(target)
    if f not in parents:
        raise ValueError(f"edge {sorted(f)} is not reachable under the cutoff")
    edges = [f]
    vertices: list[int] = []
    while (step := parents[edges[-1]]) is not None:
        g, v = step
        vertices.append(v)
        edges.append(g)
    walk = Walk(tuple(reversed(edges)), tuple(reversed(vertices)))
    if not (walk.is_path() and walk.is_decreasing(order)):
        raise AssertionError("shortest path failed to decrease; input is not beta-acyclic")
    return walk


def connected_components(hypergraph: Hypergraph) -> list[Hypergraph]:
    """Partition of the edges by shared-vertex reachability, one search from
    each edge no earlier search reached, in `sorted_edges` order."""
    edges = hypergraph.sorted_edges()
    incident = _incidence(edges)
    reached: set[int] = set()
    components = []
    for start in range(len(edges)):
        if start not in reached:
            block = _search(incident, start, edges.__getitem__)
            reached.update(block)
            components.append(Hypergraph(edges[i] for i in block))
    return components


def parse_hypergraph(text: str) -> Hypergraph:
    """One edge per line as space-separated vertex ids; `#` starts a comment."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            edges.append([int(tok) for tok in stripped.split()])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id") from None
    return Hypergraph(edges)


def write_hypergraph(hypergraph: Hypergraph) -> str:
    lines = [" ".join(str(v) for v in sorted(e)) for e in hypergraph.sorted_edges()]
    return "\n".join(lines) + ("\n" if lines else "")
