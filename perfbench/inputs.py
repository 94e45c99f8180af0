"""Seeded benchmark inputs and their reference answers.

Nothing here imports betadnnf. The formulas are generated, written as
DIMACS text and counted by this file's own code, so a change to the
program can change neither the inputs nor the answers they are checked
against.
"""
from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One generated formula: its clauses, its DIMACS text and its count."""

    name: str
    family: str
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    text: str
    count: int | None  # models over variables 1..num_vars; None when not counted

    @property
    def size(self) -> int:
        """Variable occurrences over all clauses, the program's formula size."""
        return sum(len(c) for c in self.clauses)


def dimacs_text(num_vars: int, clauses, rng: random.Random) -> str:
    """DIMACS text with clause lines and literals in a seeded order; the
    program must read every such order as the same formula."""
    lines = [" ".join(str(l) for l in rng.sample(c, len(c))) + " 0" for c in clauses]
    rng.shuffle(lines)
    return f"p cnf {num_vars} {len(lines)}\n" + "\n".join(lines) + "\n"


def read_clauses(text: str) -> list[tuple[int, ...]]:
    """Clauses of well-formed DIMACS text."""
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] in ("c", "p"):
            continue
        for token in fields:
            lit = int(token)
            if lit:
                pending.append(lit)
            else:
                clauses.append(tuple(pending))
                pending = []
    return clauses


# ---------------------------------------------------------------- families

def chain(n: int) -> list[tuple[int, ...]]:
    return [(i, i + 1) for i in range(1, n)]


def interval3(n: int) -> list[tuple[int, ...]]:
    """Clauses {i, i+1, i+2} and {i, i+1}, all positive."""
    return [(i, i + 1, i + 2) for i in range(1, n - 1)] + [(i, i + 1) for i in range(1, n)]


def hat_chain(n: int) -> list[tuple[int, ...]]:
    """The chain with each clause widened by its own fresh variable."""
    return [(i, i + 1, n + i) for i in range(1, n)]


def cycle(n: int) -> list[tuple[int, ...]]:
    """A closed cycle of two-literal clauses: not beta-acyclic."""
    return chain(n) + [(n, 1)]


def wide(w: int) -> list[tuple[int, ...]]:
    return [tuple(range(1, w + 1))]


# ------------------------------------------------------- reference counts

def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def chain_count(n: int) -> int:
    """Models of the positive chain: no two adjacent zeros, F(n+2)."""
    return fibonacci(n + 2)


def banded_count(num_base: int, clauses, width: int, private_var: bool = False) -> int:
    """Model count by a transfer matrix over variables 1..num_base.

    Every clause spans fewer than `width` consecutive base variables. With
    `private_var`, each clause also holds one fresh variable of its own:
    that variable is free when the base literals satisfy the clause and
    forced true otherwise.
    """
    ending_at = defaultdict(list)
    for clause in clauses:
        ending_at[max(abs(l) for l in clause)].append(clause)
    sat_weight, unsat_weight = (2, 1) if private_var else (1, 0)
    # state: values of the last width-1 variables, oldest first
    states = {(): 1}
    for v in range(1, num_base + 1):
        grown: dict[tuple[int, ...], int] = defaultdict(int)
        for state, ways in states.items():
            for bit in (0, 1):
                window = state + (bit,)
                first = v - len(window) + 1
                weight = ways
                for clause in ending_at[v]:
                    sat = any((window[abs(l) - first] == 1) == (l > 0) for l in clause)
                    weight *= sat_weight if sat else unsat_weight
                if weight:
                    grown[window[-(width - 1):] if width > 1 else ()] += weight
        states = grown
    return sum(states.values())


def truth_table_count(num_vars: int, clauses) -> int:
    """Model count over variables 1..num_vars, one bit per assignment."""
    rows = 1 << num_vars
    full = (1 << rows) - 1
    masks = {}
    for i in range(num_vars):
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)
        masks[i + 1] = full // ((1 << period) - 1) * block
    table = full
    for clause in clauses:
        satisfying = 0
        for l in clause:
            satisfying |= masks[l] if l > 0 else full ^ masks[-l]
        table &= satisfying
    return table.bit_count()


# ------------------------------------------------- beta-acyclicity checks

def _is_chain(sets) -> bool:
    sets = sorted(sets, key=len)
    return all(a <= b for a, b in zip(sets, sets[1:]))


def is_beta_acyclic(edges) -> bool:
    """Nest-point elimination empties the hypergraph (in any order)."""
    edges = set(edges)
    while edges:
        vertices = set().union(*edges)
        nest = next((x for x in vertices if _is_chain([e for e in edges if x in e])), None)
        if nest is None:
            return False
        edges = {e - {nest} for e in edges} - {frozenset()}
    return True


def is_elimination_order(clauses, order) -> bool:
    """`order` lists every variable once, and each variable's clause
    variable sets, minus the variables eliminated up to it, form a chain."""
    edges = {frozenset(abs(l) for l in c) for c in clauses}
    vertices = set().union(*edges) if edges else set()
    if len(order) != len(vertices) or set(order) != vertices:
        return False
    incident = defaultdict(list)
    for e in edges:
        for v in e:
            incident[v].append(e)
    gone: set[int] = set()
    for x in order:
        gone.add(x)
        if not _is_chain([e - gone for e in incident[x]]):
            return False
    return True


# ------------------------------------------------------------- generators

def ladder_instance(family: str, n: int, rng: random.Random) -> Instance:
    """A member of a fixed family; the seed only orders the DIMACS text."""
    if family == "chain":
        clauses, num_vars, count = chain(n), n, chain_count(n)
    elif family == "interval3":
        clauses, num_vars = interval3(n), n
        count = banded_count(n, clauses, 3)
    elif family == "hat-chain":
        clauses, num_vars = hat_chain(n), 2 * n - 1
        count = banded_count(n, chain(n), 2, private_var=True)
    elif family == "wide":
        clauses, num_vars, count = wide(n), n, (1 << n) - 1
    elif family == "cycle":
        clauses, num_vars, count = cycle(n), n, None
    else:
        raise ValueError(f"unknown family {family!r}")
    return Instance(f"{family}-{n}", family, num_vars, tuple(clauses),
                    dimacs_text(num_vars, clauses, rng), count)


def pool_instance(index: int, rng: random.Random) -> Instance:
    """A random beta-acyclic formula over at most 16 variables and 30
    clauses: one or two random-polarity clauses per edge of a beta-acyclic
    hypergraph, cut to 30 clauses.

    The hypergraph depends on `index` alone: random edges of one to four
    variables, pruned until beta-acyclic, over 2..16 variables with 1..12
    edges drawn, both cycling with the index. Only the clauses depend on
    `rng`, so every seed's pool has the same shapes and its slowest jobs
    do not depend on the seed's luck.
    """
    shape = random.Random(f"pool-shape/{index}")
    n = 2 + index % 15
    edges: set[frozenset[int]] = set()
    for _ in range(1 + index // 15 % 12):
        size = min(n, shape.choices((1, 2, 3, 4), weights=(1, 6, 5, 2))[0])
        edges.add(frozenset(shape.sample(range(1, n + 1), size)))
    while not is_beta_acyclic(edges):
        edges.discard(shape.choice(sorted(edges, key=sorted)))
    clauses = set()
    for edge in sorted(edges, key=sorted):
        for _ in range(rng.randint(1, 2)):
            clauses.add(tuple(v if rng.random() < 0.5 else -v for v in sorted(edge)))
    kept = sorted(clauses)
    rng.shuffle(kept)
    kept = kept[:30]
    return Instance(f"pool-{index}", "pool", n, tuple(kept),
                    dimacs_text(n, kept, rng), truth_table_count(n, kept))
