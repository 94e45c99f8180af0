"""`read_nnf` as it was when every body line was stripped and tested for
a comment and had a `child` closure of its own. Kept verbatim as the
oracle that `tests/test_circuit.py` checks `betadnnf.circuit.read_nnf`
against: the same gates, or the same error message and line."""
from __future__ import annotations

from betadnnf.circuit import NnfCircuit
from betadnnf.errors import NnfParseError

Gate = tuple


def _integer(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise NnfParseError(f"non-integer {what} {token!r}", line) from None


def read_nnf(text: str | bytes) -> NnfCircuit:
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = [l for l in text.splitlines()]
    header: list[str] = []
    body_start = 0
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        header = stripped.split()
        body_start = lineno
        break
    if len(header) != 4 or header[0] != "nnf":
        raise NnfParseError("expected header 'nnf <gates> <edges> <vars>'", body_start or 1)
    n_gates, n_edges, n_vars = (_integer(t, "header field", body_start) for t in header[1:])
    gates: list[Gate] = []
    seen_edges = 0
    lineno = body_start
    for raw in lines[body_start:]:
        lineno += 1
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        fields = stripped.split()
        kind = fields[0]
        index = len(gates)

        def child(token: str) -> int:
            c = _integer(token, "child", lineno)
            if not (0 <= c < index):
                raise NnfParseError(f"child {c} must reference an earlier gate", lineno)
            return c

        if kind == "L" and len(fields) == 2:
            lit = _integer(fields[1], "literal", lineno)
            if lit == 0 or abs(lit) > n_vars:
                raise NnfParseError(f"literal {lit} out of range 1..{n_vars}", lineno)
            gates.append(("L", lit))
        elif kind in ("T", "F") and len(fields) == 1:
            gates.append((kind,))
        elif kind in ("A", "O") and len(fields) >= 2:
            count = _integer(fields[1], "fanin count", lineno)
            if count != len(fields) - 2:
                raise NnfParseError(f"{kind}-gate declares {count} children, lists {len(fields) - 2}", lineno)
            kids = tuple(child(t) for t in fields[2:])
            seen_edges += len(kids)
            gates.append((kind, kids))
        elif kind == "D" and len(fields) == 4:
            x = _integer(fields[1], "decision variable", lineno)
            if not (1 <= x <= n_vars):
                raise NnfParseError(f"decision variable {x} out of range 1..{n_vars}", lineno)
            hi, lo = child(fields[2]), child(fields[3])
            seen_edges += 2
            gates.append(("D", x, hi, lo))
        else:
            raise NnfParseError(f"unrecognized gate line {stripped!r}", lineno)
    if len(gates) != n_gates:
        raise NnfParseError(f"header declares {n_gates} gates, found {len(gates)}", lineno)
    if seen_edges != n_edges:
        raise NnfParseError(f"header declares {n_edges} child edges, found {seen_edges}", lineno)
    if not gates:
        raise NnfParseError("a circuit needs at least one gate", lineno)
    return NnfCircuit._unchecked(tuple(gates), len(gates) - 1)  # every line was checked above
