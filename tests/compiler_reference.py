"""The compiler as it was before restrictions became interned prefix ids:
the cache is keyed by `SubFormulaKey` tuples `(edge, restriction, x)`, and
every decision step builds the branch sets `above | {x}` and
`above | {-x}` and goes through the checked public `compute_U`. Kept
verbatim as the oracle that `tests/test_compiler.py` checks
`betadnnf.compiler` against: same NNF bytes, same report, and the same
cache entries once the new cache's keys are decoded."""
from __future__ import annotations

import time
from bisect import bisect_left
from typing import Iterable, NamedTuple

from betadnnf.circuit import CircuitBuilder, NnfCircuit, prune_unreachable
from betadnnf.cnf import Clause, CnfFormula, hypergraph_of
from betadnnf.compiler import CompileReport
from betadnnf.hypergraph import EliminationOrder, beta_condition_violation

from order_reference import EdgeOrder


class SubFormulaKey(NamedTuple):
    """Identifies a cached gate; equal keys denote equal residual functions. A plain
    tuple of the fields is equal and hashes equal, so lookups probe with one."""

    edge_index: int
    restriction: tuple[int, ...]  # the literals falsified above cutoff, by descending rank
    cutoff: int


class Compiler:
    """One compilation run; exposes the cache and intermediate queries."""

    def __init__(self, formula: CnfFormula, order: EliminationOrder | None = None):
        self.formula = formula
        if order is None:
            self.hypergraph, order = formula._elimination_order()
        else:
            self.hypergraph = hypergraph_of(formula)
            violation = beta_condition_violation(self.hypergraph, order)
            if violation is not None:
                x, e, f = violation
                raise ValueError(
                    f"not a beta-elimination order: edges {sorted(e)} and {sorted(f)} "
                    f"conflict at vertex {x}"
                )
        self.order = order
        self.edge_order = EdgeOrder(self.hypergraph, order)
        # edges in edge order; an edge is named by its position in this list
        self.edges: list[frozenset[int]] = self.edge_order.sort(self.hypergraph.edges)
        self.edge_index = edge_index = {e: i for i, e in enumerate(self.edges)}
        self.clauses: list[Clause] = formula.sorted_clauses()
        self.rank = rank = order.rank
        # per edge: its variables by descending rank, their negated ranks and its (clause id,
        # literal set) pairs; a restriction, a prefix of a clause's literals so ranked, is
        # found by bisecting its edge's negated ranks
        self.edge_ranked = [tuple(sorted(e, key=rank.__getitem__, reverse=True)) for e in self.edges]
        self.edge_clauses: list[list[tuple[int, frozenset[int]]]] = [[] for _ in self.edges]
        edge_depth = [tuple([-rank[v] for v in ranked]) for ranked in self.edge_ranked]
        self.ranked, self.depth = [], []
        for cid, c in enumerate(self.clauses):
            j, literals = edge_index[c.variables], c.literals
            self.edge_clauses[j].append((cid, literals))
            self.ranked.append(tuple([v if v in literals else -v for v in self.edge_ranked[j]]))
            self.depth.append(edge_depth[j])
        self.edges_with: dict[int, list[int]] = {x: [] for x in order.sequence}
        self.clause_counts = counts = dict.fromkeys(order.sequence, 0)
        for j, e in enumerate(self.edges):
            for v in e:
                self.edges_with[v].append(j)
                counts[v] += len(self.edge_clauses[j])
        self.builder = CircuitBuilder()
        self.cache: dict[SubFormulaKey, int] = {}
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
        `hypergraph.sub_hypergraph(..., edge, cutoff)`, read off the forest."""
        start = self.edge_index.get(edge)
        if start is None:
            raise ValueError(f"edge {sorted(edge)} not in the hypergraph")
        if not self.edges_with.get(cutoff):
            raise ValueError(f"vertex {cutoff} not in the hypergraph")
        self._forest_at(self.rank[cutoff])
        subtree = [start]
        for g in subtree:
            subtree.extend(self._children[g])
        return sorted(subtree)

    def restriction_above(self, clause_id: int, cutoff: int) -> tuple[int, ...]:
        """The literals of the clause on variables after `cutoff`, by
        descending rank: those its falsifying assignment falsifies there."""
        return self.ranked[clause_id][:bisect_left(self.depth[clause_id], -self.rank[cutoff])]

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
        top = self.edge_index.get(e)
        if top is None:
            raise ValueError(f"edge {sorted(e)} not in the hypergraph")
        if x not in e:
            raise ValueError(f"variable {x} does not occur in the clause")
        rank = self.rank
        if rank[x] == 0:
            raise ValueError(f"variable {x} is first in the order and has no predecessor")
        ranked = self.edge_ranked[top]
        expected = ranked[:ranked.index(x)]  # the edge's variables after x
        if len(above) != len(expected) or not all(v in above or -v in above for v in expected):
            raise ValueError(
                f"restriction must bind exactly {sorted(expected)}, got {sorted(above, key=abs)}"
            )
        self._forest_at(rank[x] - 1)
        parent, children = self._parent, self._children
        tops, walked = [], set()
        for g in self.edges_with[x]:
            if g > top:
                break
            while g not in walked:
                walked.add(g)
                if parent[g] > top:
                    tops.append(g)
                    break
                g = parent[g]
        edges, edge_clauses = self.edges, self.edge_clauses
        branches = []
        for tau in (above | {x}, above | {-x}):
            stack, pieces = list(tops), []
            while stack:
                g = stack.pop()
                for cid, literals in edge_clauses[g]:
                    if tau.isdisjoint(literals):
                        pieces.append((g, cid))
                        break
                else:
                    stack.extend(children[g])
            pieces.sort()
            branches.append([(edges[g], cid) for g, cid in pieces])
        return branches[0], branches[1]

    def lookup(self, edge: frozenset[int], clause_id: int, cutoff: int) -> int:
        """Gate for the sub-formula at (edge, cutoff) under the clause's
        falsifying restriction, resolved to the stage where it was built.

        Stages between the cutoff and the next clause variable below it do
        not change the sub-formula; with no clause variable at or below the
        cutoff the restriction kills the clause, giving constant false.
        """
        tau = self.restriction_above(clause_id, cutoff)
        ranked = self.ranked[clause_id]
        if len(tau) == len(ranked):
            return self.builder.false()
        key = (self.edge_index[edge], tau, abs(ranked[len(tau)]))
        gate = self.cache.get(key)
        if gate is None:
            raise AssertionError(f"uncomputed sub-circuit requested: {SubFormulaKey(*key)}")
        return gate

    def _base_gate(self, clause_id: int) -> int:
        """First stage: the restriction satisfies each reachable clause or
        leaves its literal on the first variable, which they all hold."""
        first = self.order.sequence[0]
        tau = frozenset(-l for l in self.restriction_above(clause_id, first))
        literals = set()
        for i in self.reachable_edges(self.clauses[clause_id].variables, first):
            for _, clause_literals in self.edge_clauses[i]:
                if tau.isdisjoint(clause_literals):
                    rest = [l for l in clause_literals if -l not in tau]
                    if len(rest) != 1 or abs(rest[0]) != first:
                        raise AssertionError("first-stage residual is not a unit over the first variable")
                    literals.add(rest[0])
        if not literals:
            return self.builder.true()
        if len(literals) == 2:
            return self.builder.false()
        return self.builder.literal(literals.pop())

    def decision_step(self, clause_id: int, x: int) -> int:
        """Emit the decision gate on x for the given clause; both branches,
        from one `compute_U` call, are conjunctions of gates cached at the
        predecessor stage, and an empty conjunction is constant true."""
        above = frozenset(-l for l in self.restriction_above(clause_id, x))
        y = self.order.predecessor(x)
        hi, lo = (
            self.builder.and_(self.lookup(g, cid, y) for g, cid in pieces)
            for pieces in self.compute_U(self.clauses[clause_id].variables, x, above)
        )
        return self.builder.decision(x, hi, lo)

    def run(self) -> tuple[NnfCircuit, CompileReport]:
        start = time.perf_counter()
        cache, ranked = self.cache, self.ranked
        # stages run by ascending rank: an edge's t-th is t-th from the end of its ranked list
        unstaged = [len(e) for e in self.edges]
        cumulative = 0
        for i, x in enumerate(self.order.sequence):
            cumulative += self.clause_counts[x]
            for j in self.edges_with[x]:
                unstaged[j] -= 1
                k = unstaged[j]  # the clauses' restrictions above x have k literals
                for cid, _ in self.edge_clauses[j]:
                    restriction = ranked[cid][:k]
                    if (j, restriction, x) in cache:
                        continue
                    gate = self._base_gate(cid) if i == 0 else self.decision_step(cid, x)
                    cache[SubFormulaKey(j, restriction, x)] = gate
            if len(self.builder) > 7 * cumulative:
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
        output = self.builder.and_(self.lookup(self.edges[g], self.edge_clauses[g][0][0], last) for g in tops)
        self.full_circuit = self.builder.build(output)
        circuit = prune_unreachable(self.full_circuit)
        bound = 7 * self.formula.size + max(1, len(tops)) + 3
        if circuit.size > bound:
            raise AssertionError(f"{circuit.size} gates exceed the size bound {bound}")
        report = CompileReport(
            gates=circuit.size,
            and_fanin_max=max((len(g[1]) for g in circuit.gates if g[0] == "A"), default=0),
            clause_counts=self.clause_counts,
            elimination_order=self.order.sequence,
            wall_time_seconds=time.perf_counter() - start,
            components=len(tops),
            formula_size=self.formula.size,
        )
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
        return circuit, CompileReport(
            gates=1,
            and_fanin_max=0,
            clause_counts={},
            elimination_order=(),
            wall_time_seconds=time.perf_counter() - start,
            components=0,
            formula_size=formula.size,
        )
    return Compiler(formula, order).run()
