"""Desk-scale lower-bound machinery: incidence graphs, branch
decompositions and exact MIM-width, induced matchings across cuts,
combinatorial rectangles with exact minimum covers, and the clause-tag
transform that widens every clause by a fresh variable.

Everything here is exhaustive search behind small caps; the rectangle
cover also takes a step budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .circuit import Vtree as BranchDecomposition
from .cnf import CnfFormula, _literal_set, hypergraph_of, truth_table_of_formula
from .errors import BudgetExceededError, CapExceededError
from .hypergraph import EliminationOrder, is_beta_acyclic, satisfies_beta_condition

Label = Union[int, str]


def _label_key(label: Label):
    return (isinstance(label, str), label)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over integer or string labels, with the
    bipartite cut query used by width computations."""

    vertices: frozenset
    edges: frozenset[frozenset]

    def __init__(self, vertices: Iterable[Label], edges: Iterable[Iterable[Label]]):
        vs = frozenset(vertices)
        es = set()
        for e in edges:
            pair = frozenset(e)
            if len(pair) != 2:
                raise ValueError(f"not a simple edge: {sorted(pair, key=_label_key)}")
            if not pair <= vs:
                raise ValueError(f"edge endpoint outside the vertex set: {pair}")
            es.add(pair)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", frozenset(es))

    def cut(self, left: Iterable[Label], right: Iterable[Label]) -> list[frozenset]:
        """Edges with one endpoint on each side, in deterministic order."""
        ls, rs = set(left), set(right)
        out = [e for e in self.edges if len(e & ls) == 1 and len(e & rs) == 1]
        return sorted(out, key=lambda e: sorted(e, key=_label_key))

    def without_edge(self, edge: Iterable[Label]) -> "Graph":
        gone = frozenset(edge)
        return Graph(self.vertices, (e for e in self.edges if e != gone))

    def __len__(self) -> int:
        return len(self.vertices)


def incidence_graph(formula: CnfFormula) -> Graph:
    """Bipartite graph of variables versus clauses; clause vertices are
    labelled c1, c2, ... in canonical clause order."""
    variables = sorted(formula.variables)
    clause_labels = [f"c{i}" for i in range(1, len(formula) + 1)]
    edges = []
    for label, clause in zip(clause_labels, formula._sorted):
        for l in clause:
            edges.append((abs(l), label))
    return Graph(list(variables) + clause_labels, edges)


def _max_independent_set(adjacency: list[set[int]]) -> int:
    memo: dict[frozenset[int], int] = {}

    def rec(cands: frozenset[int]) -> int:
        if not cands:
            return 0
        found = memo.get(cands)
        if found is not None:
            return found
        v = max(cands, key=lambda u: (len(adjacency[u] & cands), u))
        if not adjacency[v] & cands:
            memo[cands] = len(cands)
            return len(cands)
        best = max(rec(cands - {v}), 1 + rec(cands - {v} - adjacency[v]))
        memo[cands] = best
        return best

    return rec(frozenset(range(len(adjacency))))


def max_induced_matching_in_cut(
    graph: Graph, left: Iterable[Label], right: Iterable[Label]
) -> int:
    """Largest induced matching of the bipartite cut graph.

    Two cut edges conflict when they share an endpoint or some cut edge
    joins their endpoints; the answer is a maximum independent set of the
    conflict graph, found by exhaustive branching.
    """
    cut = graph.cut(left, right)
    cut_set = set(cut)
    adjacency: list[set[int]] = [set() for _ in cut]
    for i, e in enumerate(cut):
        for j in range(i + 1, len(cut)):
            f = cut[j]
            if e & f or any(frozenset((u, v)) in cut_set for u in e for v in f):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return _max_independent_set(adjacency)


def parse_branch_decomposition(text: str) -> BranchDecomposition:
    """Nested parentheses over leaf labels, e.g. ((1 2)((3)(4))); groups of
    more than two items are left-normalized into binary nodes. The open
    groups live on an explicit stack, so any depth parses."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ValueError("unexpected end of input")
    if tokens[0] == ")":
        raise ValueError("unexpected ')'")
    groups: list[list[BranchDecomposition]] = []
    for pos, token in enumerate(tokens):
        if token == "(":
            groups.append([])
            continue
        if token == ")":
            items = groups.pop()
            if not items:
                raise ValueError("empty group")
            item = items[0]
            for nxt in items[1:]:
                item = BranchDecomposition.node(item, nxt)
        else:
            try:
                item = BranchDecomposition.leaf(int(token))
            except ValueError:
                item = BranchDecomposition.leaf(token)
        if not groups:
            if pos != len(tokens) - 1:
                raise ValueError("trailing input after the decomposition")
            return item
        groups[-1].append(item)
    raise ValueError("missing ')'")


def write_branch_decomposition(tree: BranchDecomposition) -> str:
    return repr(tree)


def mimw_of_decomposition(graph: Graph, tree: BranchDecomposition, cap: int = 16) -> int:
    """Maximum induced-matching size over all cuts of the decomposition."""
    if len(graph.vertices) > cap:
        raise CapExceededError(
            f"{len(graph.vertices)} vertices exceed the width cap of {cap}", cap
        )
    if tree.leaf_set != graph.vertices:
        raise ValueError("decomposition leaves do not match the graph vertices")
    width = 0
    for t in tree.nodes():
        width = max(
            width,
            max_induced_matching_in_cut(graph, t.leaf_set, graph.vertices - t.leaf_set),
        )
    return width


def exact_mimw(graph: Graph, cap: int = 8) -> tuple[int, BranchDecomposition | None]:
    """Minimum width over every branch decomposition shape and labelling,
    by dynamic programming over vertex subsets."""
    verts = sorted(graph.vertices, key=_label_key)
    n = len(verts)
    if n > cap:
        raise CapExceededError(f"{n} vertices exceed the exact-width cap of {cap}", cap)
    if n == 0:
        return 0, None
    full = (1 << n) - 1

    def members(mask: int) -> list:
        return [verts[i] for i in range(n) if mask >> i & 1]

    cut_width = {}
    for mask in range(1, full + 1):
        inside = members(mask)
        outside = [v for v in verts if v not in set(inside)]
        cut_width[mask] = max_induced_matching_in_cut(graph, inside, outside)

    best: dict[int, tuple[int, BranchDecomposition]] = {}
    for i, v in enumerate(verts):
        best[1 << i] = (cut_width[1 << i], BranchDecomposition.leaf(v))
    masks_by_size = sorted(range(1, full + 1), key=lambda m: m.bit_count())
    for mask in masks_by_size:
        if mask.bit_count() < 2:
            continue
        low = mask & -mask
        candidate: tuple[int, BranchDecomposition] | None = None
        sub = (mask - 1) & mask
        while sub > 0:
            if sub & low:  # fix the lowest vertex on one side to kill mirror splits
                other = mask ^ sub
                if other:
                    w_left, t_left = best[sub]
                    w_right, t_right = best[other]
                    width = max(cut_width[mask], w_left, w_right)
                    if candidate is None or width < candidate[0]:
                        candidate = (width, BranchDecomposition.node(t_left, t_right))
            sub = (sub - 1) & mask
        best[mask] = candidate
    return best[full]


@dataclass(frozen=True)
class Rectangle:
    """Boolean function over a split variable set, given by its satisfying
    assignments as sets of true literals; a rectangle must be closed under
    mixing across the split."""

    left: frozenset[int]
    right: frozenset[int]
    satisfying: frozenset[frozenset[int]]

    def __init__(self, left: Iterable[int], right: Iterable[int], satisfying):
        l, r = frozenset(left), frozenset(right)
        if l & r:
            raise ValueError(f"split sides overlap on {sorted(l & r)}")
        sats = frozenset(map(_literal_set, satisfying))
        if any({abs(lit) for lit in tau} != l | r for tau in sats):
            raise ValueError("satisfying assignments must be total over the split")
        object.__setattr__(self, "left", l)
        object.__setattr__(self, "right", r)
        object.__setattr__(self, "satisfying", sats)


def is_rectangle(rect: Rectangle) -> bool:
    """Closure check: mixing the left half of one satisfying assignment
    with the right half of another stays satisfying."""
    left = rect.left | {-v for v in rect.left}
    right = rect.right | {-v for v in rect.right}
    for a in rect.satisfying:
        a_left = a & left
        for b in rect.satisfying:
            if a_left | (b & right) not in rect.satisfying:
                return False
    return True


def min_rectangle_cover(
    function, left: Iterable[int], right: Iterable[int], cap: int = 8, budget: int | None = None
) -> int:
    """Exact minimum number of rectangles over the split (left, right)
    whose satisfying sets union to the function's satisfying set.

    `function` is a CnfFormula or an explicit collection of total
    assignments, each a set of true literals. Candidates are the maximal
    product subsets of the satisfying set; exact set cover by branch and
    bound.

    Steps count the sets read or built: column sets in the closure that
    finds the candidates, patterns and members when a candidate is built,
    candidates in the greedy bound and at each node of the branch and
    bound. Past `budget` steps, BudgetExceededError; None leaves the
    search unbounded.
    """
    steps = 0

    def spend(n: int) -> None:
        nonlocal steps
        steps += n
        if budget is not None and steps > budget:
            raise BudgetExceededError(f"exceeded {budget} steps", budget)

    ls, rs = frozenset(left), frozenset(right)
    if ls & rs:
        raise ValueError(f"split sides overlap on {sorted(ls & rs)}")
    variables = sorted(ls | rs)
    if len(variables) > cap:
        raise CapExceededError(
            f"{len(variables)} variables exceed the rectangle cap of {cap}", cap
        )
    index = {v: i for i, v in enumerate(variables)}
    if isinstance(function, CnfFormula):
        if not function.variables <= set(variables):
            extra = sorted(function.variables - set(variables))
            raise ValueError(f"formula variables {extra} outside the split")
        table = truth_table_of_formula(function, variables)
        sat = {a for a, bit in enumerate(bin(table)[:1:-1]) if bit == "1"}  # one pass over the bits
    else:
        rect = Rectangle(ls, rs, function)
        sat = {sum(1 << index[l] for l in tau if l > 0) for tau in rect.satisfying}
    if not sat:
        return 0
    left_mask = sum(1 << index[v] for v in ls)
    right_mask = sum(1 << index[v] for v in rs)

    left_patterns = sorted({a & left_mask for a in sat})
    right_patterns = sorted({a & right_mask for a in sat})
    # row bitmask per left pattern: which right patterns combine into sat
    rows = {
        y: sum(1 << j for j, z in enumerate(right_patterns) if (y | z) in sat)
        for y in left_patterns
    }
    # a maximal rectangle's columns are the intersection of its rows; adding
    # each row's meets with the sets so far, row by row, builds every one
    column_sets = set(rows.values())
    for row in rows.values():
        spend(len(column_sets))
        column_sets |= {cols & row for cols in column_sets if cols & row}
    rectangles = set()
    for cols in column_sets:
        tall = [y for y in left_patterns if rows[y] & cols == cols]
        wide = [z for j, z in enumerate(right_patterns) if cols >> j & 1]
        spend(len(left_patterns) + len(right_patterns) + len(tall) * len(wide))
        rectangles.add(frozenset(y | z for y in tall for z in wide))

    candidates = sorted(rectangles, key=lambda r: (-len(r), sorted(r)))

    # greedy cover gives the initial bound for branch and bound
    uncovered = set(sat)
    greedy = 0
    while uncovered:
        spend(len(candidates))
        pick_set = max(candidates, key=lambda r: len(r & uncovered))
        uncovered -= pick_set
        greedy += 1
    best = greedy

    spend(len(sat) * len(candidates))
    cover_of = {a: [r for r in candidates if a in r] for a in sat}

    def search(uncovered: frozenset[int], used: int) -> None:
        nonlocal best
        if not uncovered:
            best = min(best, used)
            return
        if used + 1 >= best:
            return
        spend(len(candidates))
        widest = max(len(r & uncovered) for r in candidates)
        if used + -(-len(uncovered) // widest) >= best:
            return
        pivot = min(uncovered, key=lambda a: len(cover_of[a]))
        for r in sorted(cover_of[pivot], key=lambda r: -len(r & uncovered)):
            search(uncovered - r, used + 1)

    search(frozenset(sat), 0)
    return best


def hat(formula: CnfFormula) -> CnfFormula:
    """Widen every clause with its own fresh positive variable; fresh ids
    continue after the largest variable id, in canonical clause order.
    The widened formula is kept on `formula`, as its clause order is."""
    if (widened := formula.__dict__.get("_hat")) is None:
        base = max(formula.variables, default=0)
        widened = object.__new__(CnfFormula)._fill(  # a fresh variable is larger than any, so last
            [clause + (base + i,) for i, clause in enumerate(formula._sorted, start=1)], None)
        object.__setattr__(formula, "_hat", widened)
    return widened


def hat_order(formula: CnfFormula) -> EliminationOrder:
    """Elimination order for the widened formula: all fresh clause
    variables first, then an elimination order of the original."""
    _, order = formula._elimination_order()
    base = max(formula.variables, default=0)
    fresh = tuple(range(base + 1, base + 1 + len(formula)))
    return EliminationOrder(fresh + order.sequence)


def hat_preserves_beta(formula: CnfFormula) -> bool:
    """Check that widening keeps the formula beta-acyclic, using the
    fresh-variables-first order, and independently via the greedy test."""
    order = hat_order(formula)
    widened_graph = hypergraph_of(hat(formula))
    return satisfies_beta_condition(widened_graph, order) and is_beta_acyclic(widened_graph)


def parse_graph(text: str) -> Graph:
    """Edge list, one `u v` pair per line; `#` starts a comment."""
    edges = []
    vertices = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two labels")
        pair = []
        for token in parts:
            try:
                pair.append(int(token))
            except ValueError:
                pair.append(token)
        vertices.update(pair)
        edges.append(pair)
    return Graph(vertices, edges)


def write_graph(graph: Graph) -> str:
    lines = []
    for e in sorted(graph.edges, key=lambda e: sorted(e, key=_label_key)):
        u, v = sorted(e, key=_label_key)
        lines.append(f"{u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")
