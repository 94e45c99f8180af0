"""Hypergraphs, beta-elimination orders, and the ordered sub-hypergraphs
that drive the compiler's dynamic program.

A hypergraph is a finite set of non-empty finite vertex sets. It is
beta-acyclic when repeatedly deleting nest points (vertices whose incident
edges form an inclusion chain) empties it; the deletion sequence is a
beta-elimination order.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Hypergraph:
    edges: frozenset[frozenset[int]]

    def __init__(self, edges: Iterable[Iterable[int]]):
        es = frozenset(frozenset(e) for e in edges)
        for e in es:
            if not e:
                raise ValueError("empty edges are not admitted")
        object.__setattr__(self, "edges", es)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def edges_with(self, vertex: int) -> list[frozenset[int]]:
        return [e for e in self.edges if vertex in e]

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

    @property
    def rank(self) -> dict[int, int]:
        cached = getattr(self, "_rank", None)
        if cached is None:
            cached = {v: i for i, v in enumerate(self.sequence)}
            object.__setattr__(self, "_rank", cached)
        return cached

    def covers(self, vertices: Iterable[int]) -> bool:
        return set(vertices) <= set(self.sequence)

    def predecessor(self, vertex: int) -> int | None:
        i = self.rank[vertex]
        return self.sequence[i - 1] if i > 0 else None

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass(frozen=True)
class NotBetaAcyclic:
    """Failure certificate: the vertex set at which no nest point exists."""

    stuck_vertices: frozenset[int]


def _is_chain(sets: list[frozenset[int]]) -> bool:
    sets = sorted(sets, key=len)
    return all(sets[i] <= sets[i + 1] for i in range(len(sets) - 1))


def beta_condition_violation(
    hypergraph: Hypergraph, order: EliminationOrder
) -> tuple[int, frozenset[int], frozenset[int]] | None:
    """First (vertex, e, f) violating the elimination condition, or None.

    The condition: for each prefix ending at vertex x, any two edges through
    x must be inclusion-comparable once the prefix is deleted.
    """
    if not order.covers(hypergraph.vertices):
        missing = sorted(hypergraph.vertices - set(order.sequence))
        raise ValueError(f"order does not cover vertices {missing}")
    eliminated: set[int] = set()
    for x in order.sequence:
        eliminated.add(x)
        incident = [e - eliminated for e in hypergraph.edges if x in e]
        incident.sort(key=len)
        for i in range(len(incident) - 1):
            if not incident[i] <= incident[i + 1]:
                # a longer suffix cannot contain a shorter incomparable one
                full = [e for e in hypergraph.edges if x in e]
                for a in full:
                    for b in full:
                        ra, rb = a - eliminated, b - eliminated
                        if not (ra <= rb or rb <= ra):
                            return (x, a, b)
    return None


def satisfies_beta_condition(hypergraph: Hypergraph, order: EliminationOrder) -> bool:
    return beta_condition_violation(hypergraph, order) is None


def beta_elimination_order(hypergraph: Hypergraph) -> EliminationOrder | NotBetaAcyclic:
    """Greedy nest-point elimination, smallest vertex id first.

    Returns an order satisfying the elimination condition (re-verified
    before returning), or a NotBetaAcyclic certificate naming the vertex
    set at which every candidate fails.
    """
    remaining_edges = {e for e in hypergraph.edges}
    remaining_vertices = set(hypergraph.vertices)
    sequence: list[int] = []
    while remaining_vertices:
        nest_point = None
        for x in sorted(remaining_vertices):
            if _is_chain([e for e in remaining_edges if x in e]):
                nest_point = x
                break
        if nest_point is None:
            return NotBetaAcyclic(frozenset(remaining_vertices))
        sequence.append(nest_point)
        remaining_vertices.remove(nest_point)
        remaining_edges = {e - {nest_point} for e in remaining_edges}
        remaining_edges.discard(frozenset())
    order = EliminationOrder(sequence)
    if beta_condition_violation(hypergraph, order) is not None:
        raise AssertionError("greedy elimination produced an invalid order")
    return order


def is_beta_acyclic(hypergraph: Hypergraph) -> bool:
    return isinstance(beta_elimination_order(hypergraph), EliminationOrder)


class EdgeOrder:
    """Total order on edges induced by an elimination order.

    Edges compare as the integers obtained by reading vertex membership as
    bits, the last vertex of the elimination order being most significant.
    Equivalently e < f iff the largest vertex where they differ lies in f.
    """

    def __init__(self, hypergraph: Hypergraph, order: EliminationOrder):
        if not order.covers(hypergraph.vertices):
            missing = sorted(hypergraph.vertices - set(order.sequence))
            raise ValueError(f"order does not cover vertices {missing}")
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

    def max(self, edges: Iterable[frozenset[int]]) -> frozenset[int]:
        return max(edges, key=self.key)


def sub_hypergraph(
    hypergraph: Hypergraph,
    order: EliminationOrder,
    edge: Iterable[int],
    cutoff: int,
) -> Hypergraph:
    """Edges reachable from `edge` by walks using only edges at most `edge`
    (in the induced edge order) and connecting vertices at most `cutoff`.

    Reached edges are returned whole, including vertices above the cutoff.
    """
    e = frozenset(edge)
    if e not in hypergraph.edges:
        raise ValueError(f"edge {sorted(e)} not in the hypergraph")
    if cutoff not in order.rank or cutoff not in hypergraph.vertices:
        raise ValueError(f"vertex {cutoff} not in the hypergraph")
    eo = EdgeOrder(hypergraph, order)
    bar = order.rank[cutoff]
    limit = eo.key(e)
    by_vertex: dict[int, list[frozenset[int]]] = {}
    for f in hypergraph.edges:
        if eo.key(f) <= limit:
            for v in f:
                if order.rank[v] <= bar:
                    by_vertex.setdefault(v, []).append(f)
    reached = {e}
    queue = deque([e])
    while queue:
        g = queue.popleft()
        for v in g:
            if order.rank[v] <= bar:
                for f in by_vertex.get(v, ()):
                    if f not in reached:
                        reached.add(f)
                        queue.append(f)
    return Hypergraph(reached)


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

    def is_decreasing(self, eo: EdgeOrder) -> bool:
        rank = eo.order.rank
        edges_down = all(
            eo.less(self.edges[i + 1], self.edges[i]) for i in range(len(self.vertices))
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
    """A path from `edge` down to `target` whose edge and vertex sequences
    strictly decrease, through vertices at most `cutoff`.

    A shortest qualifying path has this shape on beta-acyclic inputs.
    """
    e = frozenset(edge)
    f = frozenset(target)
    reachable = sub_hypergraph(hypergraph, order, e, cutoff)
    if f not in reachable.edges:
        raise ValueError(f"edge {sorted(f)} is not reachable under the cutoff")
    if e == f:
        return Walk((e,), ())
    eo = EdgeOrder(hypergraph, order)
    bar = order.rank[cutoff]
    limit = eo.key(e)
    # breadth-first search for a fewest-edges path; record the linking vertex
    parents: dict[frozenset[int], tuple[frozenset[int], int]] = {}
    queue = deque([e])
    seen = {e}
    while queue and f not in seen:
        g = queue.popleft()
        for v in sorted(g, key=lambda u: -order.rank[u]):
            if order.rank[v] > bar:
                continue
            for h in hypergraph.edges:
                if h in seen or v not in h or eo.key(h) > limit:
                    continue
                parents[h] = (g, v)
                seen.add(h)
                queue.append(h)
    edges = [f]
    vertices: list[int] = []
    while edges[-1] != e:
        g, v = parents[edges[-1]]
        vertices.append(v)
        edges.append(g)
    walk = Walk(tuple(reversed(edges)), tuple(reversed(vertices)))
    if not (walk.is_path() and walk.is_decreasing(eo)):
        raise AssertionError("shortest path failed to decrease; input is not beta-acyclic")
    return walk


def connected_components(hypergraph: Hypergraph) -> list[Hypergraph]:
    """Partition of the edges by shared-vertex reachability."""
    unvisited = set(hypergraph.edges)
    by_vertex: dict[int, list[frozenset[int]]] = {}
    for e in hypergraph.edges:
        for v in e:
            by_vertex.setdefault(v, []).append(e)
    components = []
    for start in hypergraph.sorted_edges():
        if start not in unvisited:
            continue
        block = {start}
        unvisited.remove(start)
        queue = deque([start])
        while queue:
            g = queue.popleft()
            for v in g:
                for f in by_vertex[v]:
                    if f in unvisited:
                        unvisited.remove(f)
                        block.add(f)
                        queue.append(f)
        components.append(Hypergraph(block))
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
