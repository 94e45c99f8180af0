"""Dynamic-programming compiler from beta-acyclic CNF into decision-DNNF.

The program works stage by stage along a beta-elimination order. For every
clause C and stage variable x in var(C), it builds a gate computing the
restriction of the reachable sub-formula around var(C) under the
falsifying assignment of C above x. A stage gate is a decision on x whose
branches are decomposable conjunctions of gates from earlier stages; the
gate for the largest edge of each connected component at the last stage
computes that component.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .circuit import AndGate, CircuitBuilder, NnfCircuit, prune_unreachable
from .cnf import Assignment, Clause, CnfFormula, falsifying_assignment, hypergraph_of
from .hypergraph import (
    EdgeOrder,
    EliminationOrder,
    beta_condition_violation,
    beta_elimination_order_or_refuse,
    connected_components,
)


class Tautology:
    """Marker value: the restriction satisfies every clause in scope."""

    def __repr__(self) -> str:
        return "TAUTOLOGY"


TAUTOLOGY = Tautology()


class SubFormulaKey(NamedTuple):
    """Identifies a cached gate; equal keys denote equal residual functions."""

    edge_index: int
    restriction: tuple[tuple[int, int], ...]
    cutoff: int


@dataclass
class CompileReport:
    gates: int
    and_fanin_max: int
    clause_counts: dict[int, int]
    elimination_order: tuple[int, ...]
    wall_time_seconds: float
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
    """One compilation run; exposes the cache and intermediate queries."""

    def __init__(self, formula: CnfFormula, order: EliminationOrder | None = None):
        if formula.has_empty_clause():
            raise ValueError("formula contains the empty clause; compile handles this before")
        self.formula = formula
        self.hypergraph = hypergraph_of(formula)
        if order is None:
            order = beta_elimination_order_or_refuse(self.hypergraph)
        else:
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
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self.edges_with: dict[int, list[int]] = {x: [] for x in order.sequence}
        for i, e in enumerate(self.edges):
            for v in e:
                self.edges_with[v].append(i)
        self.clauses: list[Clause] = formula.sorted_clauses()
        self.clauses_by_edge: dict[frozenset[int], list[int]] = {}
        self.clause_counts = dict.fromkeys(order.sequence, 0)
        for cid, clause in enumerate(self.clauses):
            variables = clause.variables
            self.clauses_by_edge.setdefault(variables, []).append(cid)
            for v in variables:
                self.clause_counts[v] += 1
        self.builder = CircuitBuilder()
        self.cache: dict[SubFormulaKey, int] = {}
        self._reach_memo: dict[tuple[frozenset[int], int], list[int]] = {}
        self.full_circuit: NnfCircuit | None = None

    def reachable_edges(self, edge: frozenset[int], cutoff: int) -> list[int]:
        """Indices, ascending, of the edges reachable from `edge` through
        edges at most `edge` and vertices at most `cutoff`: the edges of
        `hypergraph.sub_hypergraph(..., edge, cutoff)`."""
        start = self.edge_index.get(edge)
        if start is None:
            raise ValueError(f"edge {sorted(edge)} not in the hypergraph")
        if not self.edges_with.get(cutoff):
            raise ValueError(f"vertex {cutoff} not in the hypergraph")
        rank = self.order.rank
        bar = rank[cutoff]
        edges, edges_with = self.edges, self.edges_with
        seen = {start}
        stack = [start]
        while stack:
            for v in edges[stack.pop()]:
                if rank[v] <= bar:
                    for f in edges_with[v]:
                        if f > start:
                            break
                        if f not in seen:
                            seen.add(f)
                            stack.append(f)
        return sorted(seen)

    def sub_formula(self, edge: Iterable[int], cutoff: int) -> CnfFormula:
        """Clauses whose variable set is an edge reachable around `edge`."""
        return CnfFormula(
            self.clauses[cid]
            for i in self.reachable_edges(frozenset(edge), cutoff)
            for cid in self.clauses_by_edge[self.edges[i]]
        )

    def restriction_above(self, clause: Clause, cutoff: int) -> Assignment:
        return falsifying_assignment(clause, self.order, cutoff)

    def _cache_key(self, edge: frozenset[int], tau: Assignment, cutoff: int) -> SubFormulaKey:
        return SubFormulaKey(self.edge_index[edge], tau.as_key(), cutoff)

    def compute_U(
        self, edge: Iterable[int], x: int, tau: Assignment
    ) -> Tautology | list[tuple[frozenset[int], int]]:
        """Decompose the restricted sub-formula at (edge, x) into independent
        pieces rooted one stage earlier.

        Returns TAUTOLOGY when `tau` satisfies every clause in scope, else,
        in edge order, the candidates (edges of R(edge, x) with a clause
        that `tau` fails) that lie in R(f, y) for no other candidate f,
        y being the predecessor of x; each comes with the lowest-id clause
        that `tau` fails to satisfy.

        One union-find sweep finds them. The edges of R(edge, x) are
        inserted in edge order, each joined to the earlier edges it shares
        a vertex at or below y with. Every edge of R(f, y) is at most f
        and lies in R(edge, x), so right after f is inserted its class is
        exactly R(f, y). A candidate g can only fall in R(f, y) for f
        above g, hence g is dominated iff a later candidate's insertion
        finds it in the class. Each class keeps its undominated
        candidates; inserting a candidate replaces its class's list with
        itself. The candidates left at the end are the pieces. The largest
        candidate of each final class is not enough: a class can hold two
        candidates joined only through a larger non-candidate edge.
        """
        e = frozenset(edge)
        rank = self.order.rank
        if rank[x] == 0:
            raise ValueError(f"variable {x} is first in the order and has no predecessor")
        expected = frozenset(v for v in e if rank[v] >= rank[x])
        if tau.domain() != expected:
            raise ValueError(
                f"restriction must bind exactly {sorted(expected)}, got {sorted(tau.domain())}"
            )
        reach = self._reach_memo.get((e, x))
        if reach is None:
            reach = self._reach_memo[(e, x)] = self.reachable_edges(e, x)
        bar = rank[x]
        edges, clauses = self.edges, self.clauses
        lowest_unsat: dict[int, int] = {}
        parent: dict[int, int] = {}
        live: dict[int, list[int]] = {}  # class root -> its undominated candidates
        owner: dict[int, int] = {}  # vertex below x -> first edge through it
        for i in reach:
            g = edges[i]
            cids = self.clauses_by_edge[g]
            if expected.isdisjoint(g):
                lowest_unsat[i] = cids[0]
            else:
                for cid in cids:
                    if not clauses[cid].satisfied_by(tau):
                        lowest_unsat[i] = cid
                        break
            parent[i] = i
            merged: list[int] = []
            for v in g:
                if rank[v] < bar:
                    root = owner.setdefault(v, i)
                    while parent[root] != root:
                        parent[root] = parent[parent[root]]
                        root = parent[root]
                    if root != i:
                        parent[root] = i
                        merged += live.pop(root)
            live[i] = [i] if i in lowest_unsat else merged
        if not lowest_unsat:
            return TAUTOLOGY
        pieces = sorted(j for js in live.values() for j in js)
        return [(edges[j], lowest_unsat[j]) for j in pieces]

    def lookup(self, edge: frozenset[int], clause_id: int, cutoff: int) -> int:
        """Gate for the sub-formula at (edge, cutoff) under the clause's
        falsifying restriction, resolved to the stage where it was built.

        Stages between the cutoff and the largest edge variable below it do
        not change the sub-formula; with no edge variable at or below the
        cutoff the restriction kills the clause, giving constant false.
        """
        rank = self.order.rank
        ranks_at_or_below = [rank[v] for v in edge if rank[v] <= rank[cutoff]]
        if not ranks_at_or_below:
            return self.builder.false()
        stage_var = self.order.sequence[max(ranks_at_or_below)]
        clause = self.clauses[clause_id]
        key = self._cache_key(edge, self.restriction_above(clause, stage_var), stage_var)
        gate = self.cache.get(key)
        if gate is None:
            raise AssertionError(f"uncomputed sub-circuit requested: {key}")
        return gate

    def _base_gate(self, clause_id: int) -> int:
        """First stage: the residual mentions only the first variable."""
        first = self.order.sequence[0]
        clause = self.clauses[clause_id]
        residual = self.sub_formula(clause.variables, first).restrict(
            self.restriction_above(clause, first)
        )
        if residual.has_empty_clause():
            return self.builder.false()
        if not residual.clauses:
            return self.builder.true()
        literals = set()
        for c in residual.clauses:
            if len(c) != 1 or c.variables != {first}:
                raise AssertionError("first-stage residual is not a unit over the first variable")
            literals |= c.literals
        if len(literals) == 2:
            return self.builder.false()
        return self.builder.literal(next(iter(literals)))

    def decision_step(self, clause_id: int, x: int) -> int:
        """Emit the decision gate on x for the given clause; both branches
        are conjunctions of gates cached at the predecessor stage."""
        clause = self.clauses[clause_id]
        e = clause.variables
        if x not in e:
            raise ValueError(f"variable {x} does not occur in the clause")
        tau_above = self.restriction_above(clause, x)
        y = self.order.predecessor(x)
        branches = {}
        for b in (1, 0):
            tau = tau_above.union(Assignment({x: b}))
            pieces = self.compute_U(e, x, tau)
            if pieces is TAUTOLOGY:
                branches[b] = self.builder.true()
            else:
                branches[b] = self.builder.and_(
                    self.lookup(g, cid, y) for g, cid in pieces
                )
        return self.builder.decision(x, branches[1], branches[0])

    def run(self) -> tuple[NnfCircuit, CompileReport]:
        start = time.perf_counter()
        cumulative = 0
        for i, x in enumerate(self.order.sequence):
            cumulative += self.clause_counts[x]
            for j in self.edges_with[x]:
                e = self.edges[j]
                for cid in self.clauses_by_edge[e]:
                    tau = self.restriction_above(self.clauses[cid], x)
                    key = self._cache_key(e, tau, x)
                    if key in self.cache:
                        continue
                    gate = self._base_gate(cid) if i == 0 else self.decision_step(cid, x)
                    self.cache[key] = gate
            if len(self.builder) > 7 * cumulative:
                raise AssertionError("gate ledger exceeded: more than 7 gates per incidence")
        roots = []
        components = connected_components(self.hypergraph)
        last = self.order.sequence[-1] if self.order.sequence else None
        for component in sorted(components, key=lambda h: min(self.edge_index[e] for e in h)):
            top_edge = self.edge_order.max(component.edges)
            clause_id = min(self.clauses_by_edge[top_edge])
            roots.append(self.lookup(top_edge, clause_id, last))
        output = self.builder.and_(roots)
        self.full_circuit = self.builder.build(output)
        circuit = prune_unreachable(self.full_circuit)
        bound = 7 * self.formula.size + max(1, len(components)) + 3
        if circuit.size > bound:
            raise AssertionError(f"{circuit.size} gates exceed the size bound {bound}")
        report = CompileReport(
            gates=circuit.size,
            and_fanin_max=max(
                (len(g.children) for g in circuit.gates if isinstance(g, AndGate)),
                default=0,
            ),
            clause_counts=self.clause_counts,
            elimination_order=self.order.sequence,
            wall_time_seconds=time.perf_counter() - start,
            components=len(components),
            formula_size=self.formula.size,
        )
        return circuit, report


def _degenerate(formula: CnfFormula, constant_true: bool, start: float) -> tuple[NnfCircuit, CompileReport]:
    builder = CircuitBuilder()
    circuit = builder.build(builder.true() if constant_true else builder.false())
    report = CompileReport(
        gates=1,
        and_fanin_max=0,
        clause_counts={},
        elimination_order=(),
        wall_time_seconds=time.perf_counter() - start,
        components=0,
        formula_size=formula.size,
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
    start = time.perf_counter()
    if formula.has_empty_clause():
        return _degenerate(formula, constant_true=False, start=start)
    if not formula.clauses:
        return _degenerate(formula, constant_true=True, start=start)
    return Compiler(formula, order).run()


def compile_stats_sweep(formulas: Iterable[CnfFormula]) -> list[dict]:
    """Compile each formula and tabulate size, gate count, fanin, and time."""
    rows = []
    for formula in formulas:
        circuit, report = compile_cnf(formula)
        rows.append(
            {
                "formula_size": report.formula_size,
                "gates": report.gates,
                "and_fanin_max": report.and_fanin_max,
                "wall_time_seconds": report.wall_time_seconds,
            }
        )
    return rows
