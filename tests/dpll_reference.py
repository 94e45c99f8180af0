"""The DPLL engine as it was before clause states were interned: every
node copies and re-sorts its whole residual (`_restrict`) and union-finds
every literal to split it (`_split`). Kept verbatim as the oracle that
`tests/test_dpll.py` checks `betadnnf.dpll.search` against: same count,
same statistics, same trace bytes, same budget refusals."""
from __future__ import annotations

from betadnnf.circuit import CircuitBuilder, NnfCircuit
from betadnnf.cnf import CnfFormula
from betadnnf.dpll import DpllStats, OrderStrategy
from betadnnf.errors import BudgetExceededError


Residual = tuple[tuple[int, ...], ...]


def _restrict(residual: Residual, lit: int) -> Residual:
    """The residual once `lit` is true: satisfied clauses go, and the
    others lose the opposite literal; a clause left with none stays as ()."""
    out = []
    for clause in residual:
        if lit in clause:
            continue
        if -lit in clause:
            i = clause.index(-lit)
            clause = clause[:i] + clause[i + 1:]
        out.append(clause)
    # a shortened clause may be out of place or repeated; the list is
    # nearly sorted, so the re-sort is cheap
    return tuple(sorted(dict.fromkeys(out)))


def _split(residual: Residual, rank: dict[int, int]) -> tuple[int, int, list[Residual]]:
    """(variable count, variable of least rank, variable-disjoint parts in
    order of first clause); a one-clause residual is never split."""
    if len(residual) == 1:
        variables = list(map(abs, residual[0]))
        return len(variables), min(variables, key=rank.__getitem__), [residual]
    owner: dict[int, int] = {}  # variable -> first clause containing it
    link = list(range(len(residual)))  # union-find; roots are smallest
    merges = 0
    for i, clause in enumerate(residual):
        root = i
        for lit in clause:
            j = owner.setdefault(abs(lit), i)
            if j == i:
                continue
            while link[j] != j:
                j = link[j]
            if j < root:
                link[root], root = j, j
            elif j > root:
                link[j] = root
            else:
                continue
            merges += 1
    parts = [residual]
    if merges < len(residual) - 1:
        groups: dict[int, list] = {}
        for i, clause in enumerate(residual):
            link[i] = link[link[i]]  # link[i] < i already points at a root
            groups.setdefault(link[i], []).append(clause)
        parts = [tuple(g) for g in groups.values()]
    return len(owner), min(owner, key=rank.__getitem__), parts


def _root(residual: Residual):  # the stack's bottom: it hands back the root's result
    return (yield residual)


def search(formula: CnfFormula, strategy: OrderStrategy | None = None, budget: int | None = None,
           trace: bool = False) -> tuple[int, DpllStats, NnfCircuit | None]:
    """One DPLL pass: the model count over var(formula), the statistics,
    and with `trace` the search tree as a circuit (decision gates, split
    conjunctions, cache hits shared), else None. Each cache-missed residual
    is a generator on an explicit stack: it yields its children and is sent
    their (count over the child's variables, gate, variable count)."""
    trivial = formula.has_empty_clause() or not formula.clauses
    priority = () if trivial else (strategy or OrderStrategy.lexicographic()).priority(formula)
    # a variable's first occurrence fixes its rank
    rank = {v: i for i, v in reversed(tuple(enumerate(priority)))}
    stats, cache = DpllStats(), {}
    builder = CircuitBuilder() if trace else None

    def expand(key: Residual):
        nvars, x, parts = _split(key, rank)
        if len(parts) > 1:
            stats.component_splits += 1
            total, gates = 1, []
            for part in parts:
                n, gate, _ = yield part
                total *= n
                gates.append(gate)
            gate = builder.and_(sorted(gates)) if trace else None  # one per set of parts
        else:
            stats.decisions += 1
            n1, hi, v1 = yield _restrict(key, x)
            n0, lo, v0 = yield _restrict(key, -x)
            # variables satisfied away still range freely
            total = (n1 << (nvars - 1 - v1)) + (n0 << (nvars - 1 - v0))
            gate = builder.decision(x, hi, lo) if trace else None
        cache[key] = result = (total, gate, nvars)
        return result

    stack = [_root(tuple(sorted(c.sorted_literals() for c in formula.clauses)))]
    value, steps = None, 0
    while stack:
        try:
            residual = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
            continue
        steps += 1
        if budget is not None and steps > budget:
            raise BudgetExceededError(f"exceeded {budget} steps", budget)
        stats.peak_residuals = max(stats.peak_residuals, len(stack))
        if not residual:
            value = 1, builder.true() if trace else None, 0
        elif not residual[0]:  # the empty clause sorts first
            value = 0, builder.false() if trace else None, 0
        elif (value := cache.get(residual)) is not None:
            stats.cache_hits += 1
        else:  # None primes the new generator
            stats.cache_misses += 1
            stack.append(expand(residual))
    stats.cache_entries = len(cache)
    count, gate, _ = value
    return count, stats, builder.build(gate) if trace else None
