"""CNF data model: clauses, formulas, DIMACS I/O.

Literals follow the DIMACS convention: a positive integer v is the
variable v, -v is its negation. Clauses and formulas have set semantics,
duplicate literals/clauses collapse and clause order is irrelevant.

A formula keeps its clauses in one flat store, as tuples of literals
sorted by variable that the cyclic collector stops tracking; its `Clause`
objects are made only for `clauses` and `sorted_clauses()`, when asked.
"""
from __future__ import annotations

import warnings
from collections.abc import Iterable
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property

from .errors import CapExceededError, DimacsParseError
from .hypergraph import EliminationOrder, Hypergraph, NotBetaAcyclic, _order_or_refuse, beta_elimination_order

Literal = int

MAX_DIMACS_LINE_BYTES = 4096


def _checked_literals(literals: Iterable[Literal], clash: str) -> tuple[frozenset[Literal], frozenset[int]]:
    """`literals` as a frozenset, and its variables. Raises ValueError on the
    literal 0, or with `clash` naming a variable given both signs."""
    lits = frozenset(literals)
    if 0 in lits:
        raise ValueError("0 is not a literal")
    variables = frozenset(map(abs, lits))
    if len(variables) < len(lits):
        raise ValueError(clash.format(next(abs(lit) for lit in lits if -lit in lits)))
    return lits, variables


def _literal_set(tau: Iterable[Literal], total_over: Iterable[int] = ()) -> frozenset[Literal]:
    """A partial assignment as the frozenset of the literals it makes true.
    Raises ValueError as `_checked_literals` does, or on a variable of
    `total_over` that `tau` leaves unbound."""
    tau, variables = _checked_literals(tau, "variable {} is both true and false")
    for v in total_over:
        if v not in variables:
            raise ValueError(f"variable {v} is unbound")
    return tau


@dataclass(frozen=True)
class Clause:
    """A non-tautological, duplicate-free set of literals."""

    literals: frozenset[Literal]
    variables: frozenset[int] = field(compare=False, repr=False)

    def __init__(self, literals: Iterable[Literal]):
        self._fill(*_checked_literals(map(int, literals), "tautological or duplicated variable {} in clause"))

    def _fill(self, literals: frozenset[Literal], variables: frozenset[int]) -> Clause:
        object.__setattr__(self, "literals", literals)
        object.__setattr__(self, "variables", variables)
        return self

    def sorted_literals(self) -> tuple[Literal, ...]:
        return tuple(sorted(self.literals, key=abs))

    def __len__(self) -> int:
        return len(self.literals)

    def __repr__(self) -> str:
        return f"Clause({list(self.sorted_literals())})"


def _clause(stored: tuple[Literal, ...]) -> Clause:
    return object.__new__(Clause)._fill(frozenset(stored), frozenset(map(abs, stored)))


def falsifying_assignment(clause: Clause) -> frozenset[Literal]:
    """The unique assignment of var(C) that satisfies no literal of C."""
    return frozenset(-l for l in clause.literals)


@dataclass(frozen=True)
class CnfFormula:
    """A finite set of non-tautological clauses, kept as its store, which `==` and `hash` compare."""

    _store: frozenset[tuple[Literal, ...]] = field(repr=False)
    declared_variables: int | None = field(default=None, compare=False, repr=False)

    def __init__(self, clauses: Iterable[Clause], declared_variables: int | None = None):
        self._fill([c.sorted_literals() for c in clauses], declared_variables)

    def _fill(self, store: Iterable[tuple[Literal, ...]], declared_variables: int | None) -> CnfFormula:
        object.__setattr__(self, "_store", frozenset(store))
        object.__setattr__(self, "declared_variables", declared_variables)
        return self

    @classmethod
    def from_ints(cls, clause_lists: Iterable[Iterable[Literal]]) -> "CnfFormula":
        return cls(map(Clause, clause_lists))

    @cached_property
    def clauses(self) -> frozenset[Clause]:
        """The clauses as `Clause` objects, made at the first request."""
        return frozenset(map(_clause, self._store))

    @cached_property
    def variables(self) -> frozenset[int]:
        return frozenset(map(abs, frozenset().union(*self._store)))

    @cached_property
    def size(self) -> int:
        """Total number of variable occurrences over all clauses."""
        return sum(map(len, self._store))

    def has_empty_clause(self) -> bool:
        return () in self._store

    @cached_property
    def _sorted(self) -> tuple[tuple[Literal, ...], ...]:
        """The store in canonical order, by literals l as 2|l| + (l < 0), which a clause lists sorted."""
        return tuple(sorted(self._store, key=lambda c: [l + l if l > 0 else 1 - l - l for l in c]))

    @cached_property
    def _sorted_clauses(self) -> tuple[Clause, ...]:
        return tuple(map(_clause, self._sorted))

    def sorted_clauses(self) -> list[Clause]:
        """`Clause` objects in the order of `_sorted`, built at the first request; a fresh list per call."""
        return list(self._sorted_clauses)

    @cached_property
    def _order(self) -> tuple[Hypergraph, EliminationOrder | NotBetaAcyclic]:
        return (hypergraph := hypergraph_of(self)), beta_elimination_order(hypergraph)

    def _elimination_order(self) -> tuple[Hypergraph, EliminationOrder]:
        """The hypergraph and greedy order, kept; NotBetaAcyclicError on each call if stuck."""
        return self._order[0], _order_or_refuse(self._order[1])

    def restrict(self, tau: Iterable[Literal]) -> "CnfFormula":
        """The residual formula after making the literals of `tau` true.

        Satisfied clauses are dropped, falsified literals are deleted; a
        clause that loses all its literals stays as the empty clause.
        """
        tau = _literal_set(tau)
        return object.__new__(CnfFormula)._fill(
            [tuple([l for l in c if -l not in tau]) for c in self._store if tau.isdisjoint(c)], None)

    def evaluate(self, tau: Iterable[Literal]) -> int:
        """1 iff `tau` satisfies every clause; `tau` must bind every variable."""
        tau = _literal_set(tau, self.variables)
        return int(all(not tau.isdisjoint(c) for c in self._store))

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:
        return f"CnfFormula({self.sorted_clauses()!r})"


def hypergraph_of(formula: CnfFormula) -> Hypergraph:
    """The hypergraph of the distinct clause variable sets (a frozenset per clause, one kept per set)."""
    if formula.has_empty_clause():
        raise ValueError("formula contains the empty clause; handle the constant-0 case first")
    return Hypergraph(frozenset(map(abs, c)) for c in formula._store)


def variable_masks(variables: Iterable[int]) -> dict[int, int]:
    """Bit pattern of each variable over all assignments of the set.

    The k-th assignment maps variable number i (in sorted order) to bit i of k;
    the pattern of a variable has bit k set iff the variable is 1 there.
    """
    ordered = sorted(set(variables))
    n = len(ordered)
    masks = {}
    for i, v in enumerate(ordered):
        pattern = ((1 << (1 << i)) - 1) << (1 << i)
        for m in range(i + 1, n):
            pattern |= pattern << (1 << m)
        masks[v] = pattern
    return masks


def truth_table_of_formula(formula: CnfFormula, variables: Iterable[int]) -> int:
    """Satisfying set of the formula over `variables`, packed as a bitmask."""
    ordered = sorted(set(variables))
    missing = formula.variables - set(ordered)
    if missing:
        raise ValueError(f"formula variables {sorted(missing)} not in the enumeration set")
    masks = variable_masks(ordered)
    full = (1 << (1 << len(ordered))) - 1
    table = full
    for clause in formula._store:
        ct = 0
        for lit in clause:
            ct |= masks[lit] if lit > 0 else (full & ~masks[-lit])
        table &= ct
        if not table:
            break
    return table


def brute_force_count(formula: CnfFormula, variables: Iterable[int], cap: int = 24) -> int:
    """Exact model count of the formula over `variables` by enumerating
    every assignment of the set (bit-parallel, one bit per assignment)."""
    ordered = sorted(set(variables))
    if len(ordered) > cap:
        raise CapExceededError(f"{len(ordered)} variables exceed the enumeration cap of {cap}", cap)
    return truth_table_of_formula(formula, ordered).bit_count()


def _block_formula(text: str, lines: list[str]) -> CnfFormula:
    """The formula of a text that `parse_dimacs` reads as one block; ValueError for any other."""
    tokens = text.split()
    if (tokens[:2] != ["p", "cnf"] or lines[0].split() != tokens[:4]  # the header alone on line 1
            or max(map(len, lines)) > MAX_DIMACS_LINE_BYTES):
        raise ValueError
    num_vars, _, *lits = map(int, tokens[2:])  # ValueError on a token that is no integer
    if num_vars < 0 or lits and (lits[-1] != 0 or max(max(lits), -min(lits)) > num_vars):
        raise ValueError
    store, start = [], 0
    while start < len(lits):  # the last literal is a 0
        end = lits.index(0, start)
        clause = sorted(lits[start:end], key=abs)
        if len(set(map(abs, clause))) < len(clause):  # a tautology or a repeated literal
            raise ValueError
        store.append(tuple(clause))
        start = end + 1
    return object.__new__(CnfFormula)._fill(store, num_vars)


def parse_dimacs(text: str | bytes, strict: bool = False) -> CnfFormula:
    """Parse DIMACS CNF text into a formula.

    Duplicate literals within a clause collapse; duplicate clauses collapse;
    tautological clauses are dropped with a warning (they are satisfied by
    every assignment). With strict=True a tautology is an error instead.

    A `p cnf` header line followed only by well-formed clauses is cut at
    its zeros in one pass; any other text goes to the line loop, which
    alone reports errors, warnings and line numbers, as before.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = text.splitlines()
    with suppress(ValueError):  # raised when the block pass declines the text
        return _block_formula(text, lines)
    num_vars: int | None = None
    store: list[tuple[Literal, ...]] = []
    pending: list[int] = []
    last_line = 0
    for lineno, raw in enumerate(lines, start=1):
        last_line = lineno
        if len(raw) > MAX_DIMACS_LINE_BYTES:  # one byte per character, as in ASCII
            raise DimacsParseError(f"line longer than {MAX_DIMACS_LINE_BYTES} bytes", lineno)
        tokens = raw.split()
        if not tokens or tokens[0].startswith("c"):
            continue
        if tokens[0].startswith("p"):
            if num_vars is not None:
                raise DimacsParseError("duplicate header", lineno)
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise DimacsParseError(f"bad header {raw.strip()!r}", lineno)
            try:
                num_vars = int(tokens[2])
                int(tokens[3])
            except ValueError:
                raise DimacsParseError(f"bad header {raw.strip()!r}", lineno) from None
            if num_vars < 0:
                raise DimacsParseError("negative variable count", lineno)
            continue
        if num_vars is None:
            raise DimacsParseError("clause data before the 'p cnf' header", lineno)
        for token in tokens:
            try:
                lit = int(token)
            except ValueError:
                raise DimacsParseError(f"non-integer token {token!r}", lineno) from None
            if lit == 0:
                lits, pending = set(pending), []
                if len(set(map(abs, lits))) < len(lits):  # some v and -v
                    if strict:
                        raise DimacsParseError("tautological clause", lineno)
                    warnings.warn(f"dropping tautological clause at line {lineno}", stacklevel=2)
                    continue
                store.append(tuple(sorted(lits, key=abs)))
            else:
                if abs(lit) > num_vars:
                    raise DimacsParseError(f"literal {lit} out of range 1..{num_vars}", lineno)
                pending.append(lit)
    if pending:
        raise DimacsParseError("clause without terminating 0", last_line)
    if num_vars is None:
        raise DimacsParseError("missing 'p cnf' header", 0)
    return object.__new__(CnfFormula)._fill(store, num_vars)


def write_dimacs(formula: CnfFormula, num_vars: int | None = None) -> str:
    """Serialize to DIMACS with canonical clause order."""
    if num_vars is None:
        num_vars = formula.declared_variables
    max_var = max(formula.variables, default=0)
    if num_vars is None or num_vars < max_var:
        num_vars = max_var
    lines = [f"p cnf {num_vars} {len(formula)}"] + [" ".join(map(str, c)) + " 0" for c in formula._sorted]
    return "\n".join(lines) + "\n"


def write_dimacs_file(formula: CnfFormula, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write_dimacs(formula))
