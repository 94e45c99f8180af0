"""Dynamic-programming compiler from beta-acyclic CNF into decision-DNNF.

The program works stage by stage along a beta-elimination order. For every
clause C and stage variable x in var(C), it builds a gate computing the
restriction of the reachable sub-formula around var(C) under the
falsifying assignment of C above x. With C's literals sorted by descending
rank once, that restriction is the prefix of the list before x. Each
edge's prefixes are hash-consed into a trie (Filliatre & Conchon, 2006),
so a restriction is one node id, which names its edge and stage and keys
the cache: the twin of the interned rank-order suffixes of `dpll`. A stage
gate is a decision on x whose branches are decomposable conjunctions of
gates from earlier stages. Only the stage loop moves the reachability
forest, once per stage; the public `reachable_edges` asks
`hypergraph.sub_hypergraph`. Both branches lie in one reachable set, whose
forest tops depend only on the edge and stage: one walk serves both, the
edge's clauses share the tops, and each piece's gate is a bisect and a
cache read (`lookup` inline). The first stage is the same walk with no
predecessor: a piece makes its branch false. Each component's largest
edge computes it at the last stage.
"""
from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from operator import neg
from typing import Iterable, NamedTuple

from .circuit import CircuitBuilder, NnfCircuit, prune_unreachable
from .cnf import CnfFormula, hypergraph_of
from .hypergraph import EliminationOrder, beta_condition_violation, sub_hypergraph


class SubFormulaKey(NamedTuple):
    """Names a cached gate; equal keys denote equal residual functions. The cache
    holds each key as the trie node of its restriction on its edge."""

    edge_index: int
    restriction: tuple[int, ...]  # the literals falsified above cutoff, by descending rank
    cutoff: int


@dataclass
class CompileReport:
    gates: int
    and_fanin_max: int
    clause_counts: dict[int, int]
    elimination_order: tuple[int, ...]
    wall_time_seconds: float  # from the `Compiler`'s construction to the end of its `run`
    components: int
    formula_size: int

    def to_dict(self) -> dict:
        return {
            "gates": self.gates,
            "and_fanin_max": self.and_fanin_max,
            "clause_counts": {str(k): v for k, v in sorted(self.clause_counts.items())},
            "elimination_order": list(self.elimination_order),
            "wall_time_seconds": self.wall_time_seconds,
            "components": self.components,
            "formula_size": self.formula_size,
        }


class Compiler:
    """One compilation run: the stage loop's state (the cache, the trie and the
    forest) and the checked queries `compute_U` and `reachable_edges`."""

    def __init__(self, formula: CnfFormula, order: EliminationOrder | None = None):
        self._start = time.perf_counter()
        self.formula = formula
        if order is None:
            self.hypergraph, order = formula._elimination_order()
        else:
            self.hypergraph = hypergraph_of(formula)
            violation = beta_condition_violation(self.hypergraph, order)
            if violation is not None:
                x, e, f = violation
                raise ValueError(f"not a beta-elimination order: edges {sorted(e)} and {sorted(f)} "
                                 f"conflict at vertex {x}")
        self.order = order
        self.rank = rank = order.rank
        # edges in edge order (by `EliminationOrder.edge_key`); an edge is named by its position here
        keyed = sorted([(tuple(sorted(map(rank.__getitem__, e), reverse=True)), e)
                        for e in self.hypergraph.edges])
        self.edges: list[frozenset[int]] = [e for _, e in keyed]
        self.edge_index = edge_index = {tuple(sorted(e)): i for i, e in enumerate(self.edges)}
        # per edge, found by its variables as a clause lists them: its variables by descending rank,
        # their negated ranks in `depth` and its clause ids (as in `sorted_clauses`) in `edge_clauses`;
        # per clause, its literal set in `lit_sets` and its literals in its edge's order in `ranked`. A
        # restriction, a prefix of those, is found by bisecting the edge's `depth`, and its trie node is
        # in `prefix`: the root is the edge's index, and `intern` maps (node, literal l) to the node after
        # it on l; a clause's whole list kills it (`lookup`'s constant false) and gets no node
        edge_vars = [tuple(map(order.sequence.__getitem__, ranks)) for ranks, _ in keyed]
        self.depth = [tuple(map(neg, ranks)) for ranks, _ in keyed]
        self.edge_clauses: list[list[int]] = [[] for _ in self.edges]
        self.ranked, self.prefix, self.lit_sets = ranked_of, prefix, sets = [], [], []
        self.intern = intern = {}
        m = len(self.edges)
        for cid, c in enumerate(formula._sorted):
            j = edge_index[tuple(map(abs, c))]
            sets.append(literals := frozenset(c))
            self.edge_clauses[j].append(cid)
            ranked_of.append(ranked := tuple([v if v in literals else -v for v in edge_vars[j]]))
            nodes = [node := j]
            for l in ranked[:-1]:
                nodes.append(node := intern.setdefault((node, l), len(intern) + m))
            prefix.append(tuple(nodes))
        self.edges_with: dict[int, list[int]] = (edges_with := {x: [] for x in order.sequence})
        self.clause_counts = counts = dict.fromkeys(order.sequence, 0)
        for j, (e, clauses) in enumerate(zip(self.edges, self.edge_clauses)):
            for v in e:
                edges_with[v].append(j)
                counts[v] += len(clauses)
        self.builder = CircuitBuilder()
        self.cache: dict[int, int] = {}  # trie node of a restriction -> its gate
        self._cutoff = len(order)  # past every rank: the first query builds the forest
        self.full_circuit: NnfCircuit | None = None

    def _forest_at(self, rank: int) -> None:
        """Move the reachability forest to the cutoff of this rank, from
        empty if it is earlier. The forest is heap-ordered over edge indices;
        at cutoff y the subtree of f is R(f, y) (`compute_U`). Advancing to v
        joins consecutive edges a, b through v by zipping their root paths
        into one path in index order, the merge of mergeable trees
        (Georgiadis et al., ACM TALG 2011): the edges newly reaching an edge
        g through a and b are the path nodes above g's first one."""
        if rank < self._cutoff:  # every edge alone
            m = len(self.edges)
            self._cutoff, self._parent = -1, [m] * m  # m names a virtual root over every tree
            self._children: list[set[int]] = [set() for _ in range(m + 1)]
        parent, children = self._parent, self._children
        while self._cutoff < rank:
            self._cutoff += 1
            through = self.edges_with[self.order.sequence[self._cutoff]]
            for a, b in zip(through, through[1:]):
                while a != b:
                    if a > b:
                        a, b = b, a
                    up = parent[a]
                    if up > b:
                        children[up].discard(a)
                        parent[a] = b
                        children[b].add(a)
                    a = up

    def reachable_edges(self, edge: frozenset[int], cutoff: int) -> list[int]:
        """Indices, ascending, of the edges reachable from `edge` through
        edges at most `edge` and vertices at most `cutoff`: the edges of
        `hypergraph.sub_hypergraph(..., edge, cutoff)`. A public query; it
        leaves the forest, which the stage loop reads through `_walk`, alone."""
        reach = sub_hypergraph(self.hypergraph, self.order, edge, cutoff)
        return sorted([self.edge_index[tuple(sorted(e))] for e in reach.edges])

    def compute_U(
        self, edge: Iterable[int], x: int, above: frozenset[int]
    ) -> tuple[list[tuple[frozenset[int], int]], list[tuple[frozenset[int], int]]]:
        """Decompose the sub-formula at (edge, x) under the two branches on
        x, the restrictions `above | {x}` and `above | {-x}`, where `above`
        is the literals made true on the edge's variables after x. For each
        restriction tau it returns the independent pieces rooted one stage
        earlier: in edge order, the candidates (edges of R(edge, x) with a
        clause that tau fails) in R(f, y) for no other candidate f, y being
        the predecessor of x, each with the lowest-id clause that tau fails.
        No pieces means tau satisfies every clause in scope.

        (a) For f < f', R(f, y) and R(f', y) are disjoint or nested: if they
        share an edge, R(f, y) is joined through edges below f' and so lies in
        R(f', y); they are the subtrees of the forest at y. (b) With x in e, a
        walk in R(e, x) splits at x into walks below y, and x joins the edges
        through it, so R(e, x) is the union over the g through x with g <= e of
        g's class among the edges at most e joined below y: the subtree of g's
        top, its highest ancestor at most e. Distinct tops are incomparable.
        The tops do not depend on tau, so both branches share them. In a
        subtree, g lies in R(f, y) iff f is an ancestor of g, so a walk down
        from the tops that stops at candidates and passes through edges whose
        clauses tau all satisfies finds the pieces. Ancestor walks stop where
        an earlier one passed.
        """
        e = frozenset(edge)
        top = self.edge_index.get(tuple(sorted(e)))
        if top is None:
            raise ValueError(f"edge {sorted(e)} not in the hypergraph")
        if x not in e:
            raise ValueError(f"variable {x} does not occur in the clause")
        rank = self.rank
        if rank[x] == 0:
            raise ValueError(f"variable {x} is first in the order and has no predecessor")
        ranked = tuple(map(abs, self.ranked[self.edge_clauses[top][0]]))  # the edge's variables
        expected = ranked[:ranked.index(x)]  # those after x
        if len(above) != len(expected) or not all(v in above or -v in above for v in expected):
            raise ValueError(
                f"restriction must bind exactly {sorted(expected)}, got {sorted(above, key=abs)}"
            )
        node, falsified = top, frozenset([-l for l in above])
        for v in expected:  # None once no clause on the edge is falsified so far
            node = self.intern.get((node, v if v in falsified else -v))
        self._forest_at(rank[x] - 1)
        branches = self._walk(top, x, rank[x], len(expected), node, falsified, [])
        return tuple([(self.edges[g], cid) for g, cid in pieces] for pieces in branches)

    def _walk(self, top: int, x: int, rx: int, k: int, node: int | None, falsified: frozenset, tops: list):
        """`compute_U` by indices on the forest at x's stage; `falsified` holds the restriction's literals
        after x, maybe more. A clause on the top edge fails a branch iff it reaches `node`, their k-prefix,
        and differs on x. An edge's clauses share `tops` at a stage: the first walk fills it (top is one)."""
        parent, children = self._parent, self._children
        if not tops:
            walked = set()
            for g in self.edges_with[x]:
                if g > top:
                    break
                while g not in walked:
                    walked.add(g)
                    if parent[g] > top:
                        tops.append(g)
                        break
                    g = parent[g]
        sets, prefix, ranked, depth = self.lit_sets, self.prefix, self.ranked, self.depth
        branches, nx = [], -rx
        for b in (x, -x):
            stack, pieces = list(tops), []
            while stack:
                g = stack.pop()
                for cid in self.edge_clauses[g]:
                    if (prefix[cid][k] == node and ranked[cid][k] != b if g == top else b not in sets[cid]
                            and ((d := depth[g])[0] >= nx  # no literal after x
                                 or falsified.isdisjoint(map(neg, ranked[cid][:bisect_left(d, nx)])))):
                        pieces.append((g, cid))
                        break
                else:
                    stack.extend(children[g])
            if len(pieces) > 1:
                pieces.sort()
            branches.append(pieces)
        return branches

    def lookup(self, clause_id: int, cutoff: int) -> int:
        """Gate for the sub-formula at (the clause's edge, cutoff) under the
        clause's falsifying restriction, resolved to the stage where it was built.

        Stages between the cutoff and the next clause variable below it do
        not change the sub-formula; with no clause variable at or below the
        cutoff the restriction kills the clause, giving constant false.
        """
        k, ranked = bisect_left(self.depth[self.prefix[clause_id][0]], -self.rank[cutoff]), self.ranked[clause_id]
        if k == len(ranked):
            return self.builder.false()
        gate = self.cache.get(self.prefix[clause_id][k])
        if gate is None:  # the clause's root node is its edge's index
            key = SubFormulaKey(self.prefix[clause_id][0], ranked[:k], abs(ranked[k]))
            raise AssertionError(f"uncomputed sub-circuit requested: {key}")
        return gate

    def decision_step(self, clause_id: int, x: int, k: int, tops: list[int]) -> int:
        """Emit the gate on x for the given clause, with k literals above x, on the
        forest at x's stage and with `_walk`'s `tops`. Both branches, from one walk,
        are conjunctions of gates cached at the predecessor stage, and an empty
        conjunction is constant true. The first stage has no predecessor to look
        up, and a piece there makes its branch false."""
        mine, rx, builder = self.prefix[clause_id], self.rank[x], self.builder
        hi, lo = self._walk(mine[0], x, rx, k, mine[k], self.lit_sets[clause_id], tops)
        if not rx:  # x is a nest point, so a piece lies within the edge: a unit on x
            if not all(self.edges[g] <= self.edges[mine[0]] for g, _ in hi + lo):
                raise AssertionError("first-stage residual is not a unit over the first variable")
            if hi and lo:
                return builder.false()
            return builder.literal(x if lo else -x) if hi or lo else builder.true()
        cache, depth, prefix, ny, gates = self.cache, self.depth, self.prefix, 1 - rx, []
        for pieces in (hi, lo):  # `lookup` at the predecessor, of negated rank ny, inline
            kids = []
            for g, cid in pieces:
                i = bisect_left(d := depth[g], ny)
                kids.append(builder.false() if i == len(d) else cache.get(prefix[cid][i]))
                if kids[-1] is None:  # `lookup` refuses the uncomputed key and names it
                    self.lookup(cid, self.order.sequence[rx - 1])
            gates.append(kids[0] if len(kids) == 1 else builder.and_(kids))  # one piece is the branch
        return builder.decision(x, gates[0], gates[1])

    def run(self) -> tuple[NnfCircuit, CompileReport]:
        cache, prefix, decision_step, builder = self.cache, self.prefix, self.decision_step, self.builder
        counts, edges_with, edge_clauses = self.clause_counts, self.edges_with, self.edge_clauses
        # stages run by ascending rank: an edge's t-th is t-th from the end of its ranked list
        unstaged, cumulative = [len(e) for e in self.edges], 0
        for rx, x in enumerate(self.order.sequence):
            cumulative += counts[x]
            self._forest_at(rx - 1)  # once per stage, which every walk below reads
            for j in edges_with[x]:
                unstaged[j] -= 1
                k, tops = unstaged[j], []  # the clauses' restrictions above x have k literals
                for cid in edge_clauses[j]:
                    node = prefix[cid][k]
                    if node not in cache:
                        cache[node] = decision_step(cid, x, k, tops)
            if len(builder) > 7 * cumulative:
                raise AssertionError("gate ledger exceeded: more than 7 gates per incidence")
        # the last forest's roots are the components' largest edges, taken by
        # least edge; parents are above children, so one pass carries it up
        last = self.order.sequence[-1] if self.order.sequence else None
        self._forest_at(len(self.order) - 1)
        m = len(self.edges)
        least = list(range(m + 1))
        for g, up in enumerate(self._parent):
            least[up] = min(least[up], least[g])
        tops = [g for g in sorted(range(m), key=least.__getitem__) if self._parent[g] == m]
        output = self.builder.and_(self.lookup(self.edge_clauses[g][0], last) for g in tops)
        self.full_circuit = self.builder.build(output)
        circuit = prune_unreachable(self.full_circuit)
        bound = 7 * (size := self.formula.size) + max(1, len(tops)) + 3
        if circuit.size > bound:
            raise AssertionError(f"{circuit.size} gates exceed the size bound {bound}")
        fanin = max((len(g[1]) for g in circuit.gates if g[0] == "A"), default=0)
        report = CompileReport(gates=circuit.size, and_fanin_max=fanin, clause_counts=self.clause_counts,
                               elimination_order=self.order.sequence, components=len(tops),
                               wall_time_seconds=time.perf_counter() - self._start, formula_size=size)
        return circuit, report


def compile_cnf(
    formula: CnfFormula, order: EliminationOrder | None = None
) -> tuple[NnfCircuit, CompileReport]:
    """Compile a beta-acyclic formula into an equivalent decision-DNNF.

    The result is decomposable, every or-gate is a decision gate, the gate
    count is linear in the formula size, and conjunction fanin never
    exceeds the number of hypergraph edges. Raises NotBetaAcyclicError
    (with the stuck vertex set) otherwise. A formula containing the empty
    clause compiles to the constant-false circuit.
    """
    if formula.has_empty_clause():
        start = time.perf_counter()
        builder = CircuitBuilder()
        circuit = builder.build(builder.false())
        return circuit, CompileReport(gates=1, and_fanin_max=0, clause_counts={}, elimination_order=(),
                                      wall_time_seconds=time.perf_counter() - start, components=0,
                                      formula_size=formula.size)
    return Compiler(formula, order).run()
