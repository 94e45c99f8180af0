"""CNF data model: clauses, formulas, partial assignments, DIMACS I/O.

Literals follow the DIMACS convention: a positive integer v is the
variable v, -v is its negation. Clauses and formulas have set semantics,
duplicate literals/clauses collapse and clause order is irrelevant.
"""
from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from .errors import CapExceededError, DimacsParseError
from .hypergraph import EliminationOrder, Hypergraph, _order_or_refuse, beta_elimination_order

Literal = int

MAX_DIMACS_LINE_BYTES = 4096


class Assignment:
    """Immutable partial map from variable ids to {0, 1}."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = bindings.items() if isinstance(bindings, Mapping) else bindings
        normalized = {}
        for var, val in items:
            if var < 1:
                raise ValueError(f"variable ids must be >= 1, got {var}")
            normalized[int(var)] = 1 if val else 0
        self._bindings = normalized

    def domain(self) -> frozenset[int]:
        return frozenset(self._bindings)

    def restrict(self, variables: Iterable[int]) -> "Assignment":
        """Keep exactly the bindings whose variable lies in `variables`."""
        keep = set(variables)
        return Assignment({v: b for v, b in self._bindings.items() if v in keep})

    def agrees_with(self, other: "Assignment") -> bool:
        """True when both assignments coincide on their shared domain."""
        small, big = sorted((self._bindings, other._bindings), key=len)
        return all(big.get(v, b) == b for v, b in small.items())

    def union(self, other: "Assignment") -> "Assignment":
        """Combined assignment; defined only for compatible operands."""
        if not self.agrees_with(other):
            raise ValueError("assignments disagree on a shared variable")
        merged = dict(self._bindings)
        merged.update(other._bindings)
        return Assignment(merged)

    def satisfies_literal(self, lit: Literal) -> bool:
        val = self._bindings.get(abs(lit))
        return val is not None and (val == 1) == (lit > 0)

    def falsifies_literal(self, lit: Literal) -> bool:
        val = self._bindings.get(abs(lit))
        return val is not None and (val == 1) != (lit > 0)

    def get(self, var: int, default=None):
        return self._bindings.get(var, default)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._bindings.items()))

    def __getitem__(self, var: int) -> int:
        return self._bindings[var]

    def __contains__(self, var: int) -> bool:
        return var in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._bindings.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}->{b}" for v, b in self.items())
        return f"Assignment({{{inner}}})"


@dataclass(frozen=True)
class Clause:
    """A non-tautological, duplicate-free set of literals."""

    literals: frozenset[Literal]
    variables: frozenset[int] = field(compare=False, repr=False)

    def __init__(self, literals: Iterable[Literal]):
        lits = frozenset(map(int, literals))
        if 0 in lits:
            raise ValueError("0 is not a literal")
        variables = frozenset(map(abs, lits))
        if len(variables) < len(lits):  # some v and -v: name the first met
            seen = set()
            for lit in lits:
                v = abs(lit)
                if v in seen:
                    raise ValueError(f"tautological or duplicated variable {v} in clause")
                seen.add(v)
        object.__setattr__(self, "literals", lits)
        object.__setattr__(self, "variables", variables)

    def sorted_literals(self) -> tuple[Literal, ...]:
        return tuple(sorted(self.literals, key=abs))

    def is_empty(self) -> bool:
        return not self.literals

    def satisfied_by(self, tau: Assignment) -> bool:
        return any(tau.satisfies_literal(l) for l in self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __repr__(self) -> str:
        return f"Clause({list(self.sorted_literals())})"


def falsifying_assignment(clause: Clause) -> Assignment:
    """The unique assignment of var(C) that satisfies no literal of C."""
    return Assignment({abs(l): 0 if l > 0 else 1 for l in clause.literals})


@dataclass(frozen=True)
class CnfFormula:
    """A finite set of non-tautological clauses."""

    clauses: frozenset[Clause]
    declared_variables: int | None = field(default=None, compare=False, repr=False)

    def __init__(self, clauses: Iterable[Clause], declared_variables: int | None = None):
        object.__setattr__(self, "clauses", frozenset(clauses))
        object.__setattr__(self, "declared_variables", declared_variables)

    @classmethod
    def from_ints(cls, clause_lists: Iterable[Iterable[Literal]]) -> "CnfFormula":
        return cls(Clause(lits) for lits in clause_lists)

    @property
    def variables(self) -> frozenset[int]:
        return frozenset().union(*(c.variables for c in self.clauses))

    @property
    def size(self) -> int:
        """Total number of variable occurrences over all clauses."""
        return sum(len(c) for c in self.clauses)

    def has_empty_clause(self) -> bool:
        return Clause(()) in self.clauses

    def sorted_clauses(self) -> list[Clause]:
        """Clauses in a canonical, deterministic order."""
        return sorted(self.clauses, key=lambda c: tuple(sorted(2 * abs(l) + (l < 0) for l in c.literals)))

    def _elimination_order(self) -> tuple[Hypergraph, EliminationOrder]:
        """The hypergraph and greedy order, kept; NotBetaAcyclicError on each call if stuck."""
        found = self.__dict__.get("_order")
        if found is None:
            hypergraph = hypergraph_of(self)
            found = hypergraph, beta_elimination_order(hypergraph)
            object.__setattr__(self, "_order", found)
        return found[0], _order_or_refuse(found[1])

    def restrict(self, tau: Assignment) -> "CnfFormula":
        """The residual formula after plugging in `tau`.

        Satisfied clauses are dropped, falsified literals are deleted; a
        clause that loses all its literals stays as the empty clause.
        """
        out = []
        for clause in self.clauses:
            if clause.satisfied_by(tau):
                continue
            out.append(Clause(l for l in clause.literals if not tau.falsifies_literal(l)))
        return CnfFormula(out)

    def evaluate(self, tau: Assignment) -> int:
        """1 iff `tau` satisfies every clause; requires a total assignment."""
        for v in self.variables:
            if v not in tau:
                raise ValueError(f"variable {v} is unbound")
        return int(all(c.satisfied_by(tau) for c in self.clauses))

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:
        return f"CnfFormula({self.sorted_clauses()!r})"


def hypergraph_of(formula: CnfFormula) -> Hypergraph:
    """The hypergraph whose edges are the distinct clause variable sets."""
    if formula.has_empty_clause():
        raise ValueError("formula contains the empty clause; handle the constant-0 case first")
    return Hypergraph(c.variables for c in formula.clauses)


def variable_masks(variables: Iterable[int]) -> dict[int, int]:
    """Bit pattern of each variable over all assignments of the set.

    Assignment k maps variable number i (in sorted order) to bit i of k;
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
    for clause in formula.clauses:
        ct = 0
        for lit in clause.literals:
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
        raise CapExceededError(
            f"{len(ordered)} variables exceed the enumeration cap of {cap}", cap
        )
    return truth_table_of_formula(formula, ordered).bit_count()


def parse_dimacs(text: str | bytes, strict: bool = False) -> CnfFormula:
    """Parse DIMACS CNF text into a formula.

    Duplicate literals within a clause collapse; duplicate clauses collapse;
    tautological clauses are dropped with a warning (they are satisfied by
    every assignment). With strict=True a tautology is an error instead.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    num_vars: int | None = None
    clauses: list[Clause] = []
    pending: list[int] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
                lits = set(pending)
                pending.clear()
                if len(set(map(abs, lits))) < len(lits):  # some v and -v
                    if strict:
                        raise DimacsParseError("tautological clause", lineno)
                    warnings.warn(
                        f"dropping tautological clause at line {lineno}", stacklevel=2
                    )
                    continue
                clauses.append(Clause(lits))
            else:
                if abs(lit) > num_vars:
                    raise DimacsParseError(
                        f"literal {lit} out of range 1..{num_vars}", lineno
                    )
                pending.append(lit)
    if pending:
        raise DimacsParseError("clause without terminating 0", last_line)
    if num_vars is None:
        raise DimacsParseError("missing 'p cnf' header", 0)
    return CnfFormula(clauses, declared_variables=num_vars)


def write_dimacs(formula: CnfFormula, num_vars: int | None = None) -> str:
    """Serialize to DIMACS with canonical clause order."""
    if num_vars is None:
        num_vars = formula.declared_variables
    max_var = max(formula.variables, default=0)
    if num_vars is None or num_vars < max_var:
        num_vars = max_var
    lines = [f"p cnf {num_vars} {len(formula.clauses)}"]
    for clause in formula.sorted_clauses():
        lines.append(" ".join(str(l) for l in clause.sorted_literals()) + " 0")
    return "\n".join(lines) + "\n"


def write_dimacs_file(formula: CnfFormula, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write_dimacs(formula))
