"""Exhaustive DPLL model counting with component splitting and caching.

The plain scheme only: split into variable-disjoint parts when possible,
otherwise branch on the variable of least rank in the chosen order. No
unit propagation, no pure-literal elimination. One pass yields the count,
the statistics and, optionally, the trace, a decision-DNNF of the input.
One loop drives a stack of list frames, one per residual being expanded,
so memory, not the recursion limit, bounds the depth of the search.

Clause states. Write each input clause in rank order. Every clause the
search meets is a rank-order suffix of an input clause: the branch
variable x has the least rank in its connected residual, so x heads every
clause that holds it, and setting x either drops such a clause or cuts
off its head, while a split only regroups clauses. All suffixes are interned once as (head literal, next
state) ids, so equal literal sets get equal ids; ids are numbered by the
rank of their head, positive heads first. A residual is the sorted tuple
of its distinct state ids (0 is the empty clause), an exact cache key in
which the clauses headed by x form a prefix. A branch rewrites only that
prefix: a satisfied state goes, an advanced one moves to its next id.

Alongside the keys, each input clause keeps its position in rank order,
or a mark once satisfied, and each variable counts the live input clauses
that hold it. A branch's changes to both are undone when it returns; the
counters give the child's variable count.

Seed lemma. Every component of a branch's child holds an advanced clause
or a variable of a satisfied one: a path in the connected parent from the
component to x first meets a clause holding x; if that clause advanced,
it is in the component, else the variable the path entered it by is one
of its variables. So components are searched from those seeds only, one
search per seed, interleaved; searches that meet merge, and the split
stops once one search is left or all but one have run out; a search
whose variables' live clauses are all seeds has run out from the start.
The root seeds every clause and takes the same split, reading no
occurrence list.
"""
from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import asdict, dataclass
from operator import neg

from .circuit import CircuitBuilder, NnfCircuit
from .cnf import CnfFormula
from .errors import BudgetExceededError


@dataclass(frozen=True)
class OrderStrategy:
    """Branch-variable policy: a fixed priority list over the variables."""

    kind: str
    sequence: tuple[int, ...] = ()

    @classmethod
    def reverse_beta_elimination(cls) -> "OrderStrategy":
        """Branch on elimination-order variables from last to first; valid
        only for beta-acyclic inputs."""
        return cls("reverse-beta")

    @classmethod
    def fixed(cls, sequence) -> "OrderStrategy":
        return cls("fixed", tuple(sequence))

    @classmethod
    def lexicographic(cls) -> "OrderStrategy":
        return cls("lex")

    def priority(self, formula: CnfFormula) -> tuple[int, ...]:
        if self.kind == "lex":
            return tuple(sorted(formula.variables))
        if self.kind == "fixed":
            missing = formula.variables - set(self.sequence)
            if missing:
                raise ValueError(f"fixed order misses variables {sorted(missing)}")
            return self.sequence
        if self.kind == "reverse-beta":  # the formula keeps its order
            return tuple(reversed(formula._elimination_order()[1].sequence))
        raise ValueError(f"unknown strategy {self.kind!r}")


@dataclass
class DpllStats:
    decisions: int = 0
    component_splits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_entries: int = 0
    peak_residuals: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


_FALSIFIED = (0,)  # a residual holding the empty clause
_GONE = 1 << 62  # position of a satisfied input clause


class _Residuals:
    """The interned clause states of a formula and the undoable position of
    each input clause; see the module docstring. The id of a state headed
    by literal h is rank(|h|) * 2M, plus M if h < 0, plus a serial below M,
    so a variable's states form one block of ids, positive heads first."""

    def __init__(self, store, order: tuple[int, ...]):
        # block[l] is 2 rank(|l|), plus 1 if l < 0; the first occurrence of
        # a variable in the order fixes its rank
        n = len(order)
        self.block = block = dict(zip(reversed(order), range(2 * n - 2, -1, -2)))
        block.update(zip(map(neg, reversed(order)), range(2 * n - 1, 0, -2)))
        self.order = order
        self.lits = [sorted(c, key=block.__getitem__) for c in store]
        self.vars = [tuple(map(abs, lits)) for lits in self.lits]
        self.M = M = 1 + sum(map(len, self.lits))
        table: dict[int, int] = {}  # next id * 2n + block of the head -> id
        self.next, self.size, self.first = nxt, size, first = {0: 0}, {0: 0}, {0: 0}
        self.occ = occ = {v: [] for v in order}  # variable -> [(clause, index)]
        whole, ids, K = set(), 0, 2 * n
        for c, lits in enumerate(self.lits):
            vs, s = self.vars[c], 0
            f, least = lits[-1], vs[-1]  # first: the literal of least variable
            for i in range(len(lits) - 1, -1, -1):
                v = vs[i]
                occ[v].append((c, i))
                if v < least:
                    f, least = lits[i], v
                b = block[lits[i]]
                k = s * K + b
                t = table.get(k)
                if t is None:
                    ids += 1
                    t = table[k] = b * M + ids
                    nxt[t] = s
                    size[t] = len(lits) - i
                    first[t] = f
                s = t
            whole.add(s)
        self.count = dict(zip(occ, map(len, occ.values())))  # live clauses holding v
        self.nvars = sum(map(bool, occ.values()))
        self.pos = [0] * len(self.lits)
        self.root = tuple(sorted(whole))

    def advance(self, rest: tuple[int, ...], moved: tuple[int, ...]) -> tuple[int, ...]:
        """The key of `rest` plus the next states of `moved`, whose heads
        rank below every state of `rest`."""
        if not moved:
            return rest
        nxt, merged = self.next, list(rest)
        for s in moved:
            t = nxt[s]
            if not t:
                return _FALSIFIED
            i = bisect_left(merged, t)
            if i == len(merged) or merged[i] != t:  # a state already there is not repeated
                merged.insert(i, t)
        return tuple(merged)

    def assign(self, key: tuple[int, ...], lit: int, nvars: int):
        """Make `lit` true on the input clauses. The current residual, with
        key `key`, is the child on `lit` of a connected residual of `nvars`
        variables whose least variable is |lit|. Returns the undo record,
        the child's variable count and its parts (see `parts`)."""
        pos, lits, vs, count = self.pos, self.lits, self.vars, self.count
        satisfied, advanced = [], []
        for c, i in self.occ[abs(lit)]:
            if pos[c] == i:  # live clauses holding |lit| are headed by it
                if lits[c][i] == lit:
                    pos[c] = _GONE
                    satisfied.append((c, i))
                else:
                    pos[c] = i + 1
                    advanced.append(c)
        nvars -= 1
        for c, i in satisfied:
            for u in vs[c][i + 1:]:
                count[u] -= 1
                if not count[u]:
                    nvars -= 1
        seeds = []  # advanced clauses, and the variables left of satisfied ones
        for c in advanced:
            seeds.append(vs[c][pos[c]:])
        for c, i in satisfied:
            for u in vs[c][i + 1:]:
                if count[u]:
                    seeds.append((u,))
        parts = self.parts(key, nvars, seeds, len(advanced)) if len(seeds) > 1 else None
        return (satisfied, advanced), nvars, parts

    def undo(self, record) -> None:
        pos, vs, count = self.pos, self.vars, self.count
        satisfied, advanced = record
        for c in advanced:
            pos[c] -= 1
        for c, i in satisfied:
            pos[c] = i
            for u in vs[c][i + 1:]:
                count[u] += 1

    def parts(self, key: tuple[int, ...], nvars: int, seeds, whole: int):
        """The variable-disjoint parts of the current residual, with key
        `key` and `nvars` variables, as [(order, part key, variable count)]
        sorted by first clause; None when it is connected. `seeds` are
        sequences of variables, each within one part, and every part holds
        one of them; the first `whole` are the variables of distinct live
        clauses. A search whose variables' live clauses are all seeds holds
        a whole part and expands nothing: at the root, every search."""
        owner: dict[int, int] = {}  # variable -> the search that took it
        link, owned = [], []  # per search: the one it joined, its variables
        roots = 0
        for group in seeds:  # seeds that share a variable form one search
            k = len(link)
            link.append(k)
            owned.append([])
            roots += 1
            for u in group:
                j = owner.get(u)
                if j is None:
                    owner[u] = k
                    owned[k].append(u)
                    continue
                while link[j] != j:
                    j = link[j]
                if j != k:  # the smaller joins the larger
                    if len(owned[j]) < len(owned[k]):
                        j, k = k, j
                    link[k] = j
                    owned[j] += owned[k]
                    k = j
                    roots -= 1
        if roots == 1:
            return None
        seeded = [0] * len(link)  # per search, the variables of its clause seeds, with multiplicity
        for n in range(whole):
            j = owner[seeds[n][0]]
            while link[j] != j:
                j = link[j]
            seeded[j] += len(seeds[n])
        # one step of each running search per round: a search that runs
        # out has found a whole part, and the last one running the rest
        pos, occ, vs, seen, count = self.pos, self.occ, self.vars, set(), self.count
        todo = {k: owned[k][:] if sum(map(count.__getitem__, owned[k])) > seeded[k] else []
                for k in range(len(link)) if link[k] == k}  # variables still to expand
        live = [k for k, t in todo.items() if t]
        while len(live) > 1:
            running, met = [], roots
            for k in live:
                if link[k] != k:
                    continue
                t = todo[k]
                for c, i in occ[t.pop()]:
                    if pos[c] > i or c in seen:
                        continue
                    seen.add(c)
                    for u in vs[c][pos[c]:]:
                        j = owner.get(u)
                        if j is None:
                            owner[u] = k
                            owned[k].append(u)
                            t.append(u)
                            continue
                        while link[j] != j:
                            j = link[j]
                        if j != k:  # as above, and the searches' to-do lists join
                            if len(owned[j]) < len(owned[k]):
                                j, k = k, j
                            link[k] = j
                            owned[j] += owned[k]
                            todo[j] += todo[k]
                            k, t = j, todo[j]
                            roots -= 1
                            if roots == 1:
                                return None
                if t:
                    running.append(k)
            if met != roots:  # a search that met another may have run out since
                running = [k for k in dict.fromkeys(running) if link[k] == k and todo[k]]
            live = running
        done = [k for k in todo if link[k] == k and not todo[k]]
        rest = len(done) < roots
        # a finished part's states are the runs of the key headed by its
        # variables; the rest lies between the runs
        M, block, first, out, runs = self.M, self.block, self.first, [], []
        for k in done:
            part = []
            for u in owned[k]:
                b = block[u] * M
                lo = bisect_left(key, b)
                hi = bisect_left(key, b + 2 * M, lo)
                if lo < hi:
                    part += key[lo:hi]
                    runs.append((lo, hi))
            part.sort()
            out.append((min(map(first.__getitem__, part)), tuple(part), len(owned[k])))
            nvars -= len(owned[k])
        if rest:
            runs.sort()
            part, at = [], 0
            for lo, hi in runs:
                part += key[at:lo]
                at = hi
            part += key[at:]
            out.append((min(map(first.__getitem__, part)), tuple(part), nvars))
        out.sort()  # parts share no variable, so their orders differ
        return out


def search(formula: CnfFormula, strategy: OrderStrategy | None = None, budget: int | None = None,
           trace: bool = False) -> tuple[int, DpllStats, NnfCircuit | None]:
    """One DPLL pass: the model count over var(formula), the statistics,
    and with `trace` the search tree as a circuit (decision gates, split
    conjunctions, cache hits shared), else None. One loop resolves one
    request (key, literal, count) per step: the literal set to reach a
    child with the parent's variable count, or 0 with its own count for a
    part, or None with the formula's count for the root. A cache-missed
    residual pushes a list frame that requests its children in turn and
    takes their (count over the child's variables, gate, variable count)."""
    cache: dict[tuple[int, ...], tuple] = {}
    builder = CircuitBuilder() if trace else None
    if formula.has_empty_clause():
        key, nvars = _FALSIFIED, 0
    else:
        priority = (strategy or OrderStrategy.lexicographic()).priority(formula)
        res = _Residuals(formula._store, priority)
        key, nvars, order, M, width = res.root, res.nvars, res.order, res.M, 2 * res.M
        size, advance, assign, undo = res.size, res.advance, res.assign, res.undo
    lit, stack, steps, hits, misses, decisions, splits = None, [], 0, 0, 0, 0, 0
    depth = 1  # the root's request is one level, and each frame one more
    limit = sys.maxsize if budget is None else budget
    true = false = None  # the results of the trivial residuals, made at first use
    while True:
        steps += 1
        if steps > limit:
            raise BudgetExceededError(f"exceeded {budget} steps", budget)
        if not key:
            value = true = true or (1, builder.true() if trace else None, 0)
        elif not key[0]:  # the empty clause has the least id
            value = false = false or (0, builder.false() if trace else None, 0)
        elif (value := cache.get(key)) is not None:
            hits += 1
        else:
            misses += 1
            record = parts = None
            if len(key) == 1:  # one clause: nothing below it needs the input clauses
                nvars = size[key[0]]
            elif lit is None:  # the root: every clause seeds the split
                parts = res.parts(key, nvars, res.vars, len(res.vars))
            elif lit:
                record, nvars, parts = assign(key, lit, nvars)
            if parts:  # the frame: key, undo record, count, 0, parts, their gates, product
                splits += 1
                stack.append([key, record, nvars, 0, parts, [], 1])
                (_, key, nvars), lit = parts[0], 0
            else:
                decisions += 1
                # x heads a prefix of the key, its positive literal first
                base = key[0] // width * width
                p = bisect_left(key, base + width)
                m = bisect_left(key, base + M, 0, p)
                lit = order[base // width]
                # the frame: key, undo record, count, x, rest, end of the negative prefix, hi result
                stack.append(frame := [key, record, nvars, lit, key[p:], m, None])
                key = advance(frame[4], key[m:p])
            if len(stack) >= depth:
                depth = len(stack) + 1
            continue
        while stack:  # hand the result up until a frame asks for another child
            frame = stack[-1]
            if x := frame[3]:
                if frame[6] is None:  # the lo key is made once the hi subtree is done
                    frame[6] = value
                    key, lit, nvars = advance(frame[4], frame[0][:frame[5]]), -x, frame[2]
                    break
                (n1, hi, v1), (n0, lo, v0), nvars = frame[6], value, frame[2]
                # variables satisfied away still range freely
                total = (n1 << (nvars - 1 - v1)) + (n0 << (nvars - 1 - v0))
                gate = builder.decision(x, hi, lo) if trace else None
            else:
                gates = frame[5]
                gates.append(value[1])
                frame[6] *= value[0]
                if len(gates) < len(frame[4]):
                    (_, key, nvars), lit = frame[4][len(gates)], 0
                    break
                total, gate = frame[6], builder.and_(sorted(gates)) if trace else None  # one per set of parts
            if frame[1] is not None:
                undo(frame[1])
            stack.pop()
            cache[frame[0]] = value = (total, gate, frame[2])
        else:
            break
    stats = DpllStats(decisions=decisions, component_splits=splits, cache_hits=hits,
                      cache_misses=misses, cache_entries=len(cache), peak_residuals=depth)
    count, gate, _ = value
    circuit = builder.build(gate) if trace else None
    if trace:  # every gate made is a child of a later one or the output
        circuit._reachable = True
    return count, stats, circuit


def count_dpll(formula: CnfFormula, strategy: OrderStrategy | None = None,
               budget: int | None = None) -> tuple[int, DpllStats]:
    """Exact model count of the formula over var(formula)."""
    count, stats, _ = search(formula, strategy, budget)
    return count, stats


def trace_to_circuit(formula: CnfFormula, strategy: OrderStrategy | None = None,
                     budget: int | None = None) -> NnfCircuit:
    """The search tree as a circuit; see `search`."""
    return search(formula, strategy, budget, trace=True)[2]
