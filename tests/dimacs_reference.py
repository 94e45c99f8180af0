"""The DIMACS parser as it was before each line was split once and each
clause kept its variable set: `parse_dimacs` strips then splits every
line, measures it by its ASCII encoding, and `clause_literals` is
`Clause.__init__`'s checks. Kept verbatim as the oracle that
`tests/test_cnf.py` checks `betadnnf.cnf.parse_dimacs` against: same
clauses, same declared count, same errors and warnings."""
from __future__ import annotations

import warnings
from collections.abc import Iterable

from betadnnf.errors import DimacsParseError

MAX_DIMACS_LINE_BYTES = 4096


def clause_literals(literals: Iterable[int]) -> frozenset[int]:
    lits = frozenset(int(l) for l in literals)
    if 0 in lits:
        raise ValueError("0 is not a literal")
    seen = set()
    for lit in lits:
        v = abs(lit)
        if v in seen:
            raise ValueError(f"tautological or duplicated variable {v} in clause")
        seen.add(v)
    return lits


def parse_dimacs(text: str | bytes, strict: bool = False) -> tuple[frozenset[frozenset[int]], int]:
    """(set of clause literal sets, declared variable count)."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    num_vars: int | None = None
    clauses: list[frozenset[int]] = []
    pending: list[int] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        if len(raw.encode("ascii", errors="replace")) > MAX_DIMACS_LINE_BYTES:
            raise DimacsParseError(f"line longer than {MAX_DIMACS_LINE_BYTES} bytes", lineno)
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                raise DimacsParseError("duplicate header", lineno)
            fields = stripped.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsParseError(f"bad header {stripped!r}", lineno)
            try:
                num_vars = int(fields[2])
                int(fields[3])
            except ValueError:
                raise DimacsParseError(f"bad header {stripped!r}", lineno) from None
            if num_vars < 0:
                raise DimacsParseError("negative variable count", lineno)
            continue
        if num_vars is None:
            raise DimacsParseError("clause data before the 'p cnf' header", lineno)
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsParseError(f"non-integer token {token!r}", lineno) from None
            if lit == 0:
                lits = set(pending)
                pending.clear()
                if any(-l in lits for l in lits):
                    if strict:
                        raise DimacsParseError("tautological clause", lineno)
                    warnings.warn(
                        f"dropping tautological clause at line {lineno}", stacklevel=2
                    )
                    continue
                clauses.append(clause_literals(lits))
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
    return frozenset(clauses), num_vars
