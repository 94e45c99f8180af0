"""The hash-consing circuit builder as it was when it keyed its index by
frozen gate objects, made for every call. Kept verbatim as the oracle that
`tests/test_circuit.py` checks `betadnnf.circuit.CircuitBuilder` against:
same returned ids and equal built circuits for every call sequence."""
from __future__ import annotations

from typing import Iterable

from gate_reference import (
    AndGate,
    DecisionGate,
    FalseGate,
    Gate,
    LiteralGate,
    NnfCircuit,
    OrGate,
    TrueGate,
)


class CircuitBuilder:
    """Hash-consing constructor: structurally equal gates are emitted once."""

    def __init__(self):
        self._gates: list[Gate] = []
        self._index: dict[Gate, int] = {}

    def _add(self, gate: Gate) -> int:
        found = self._index.get(gate)
        if found is not None:
            return found
        self._gates.append(gate)
        self._index[gate] = len(self._gates) - 1
        return len(self._gates) - 1

    def literal(self, lit: int) -> int:
        return self._add(LiteralGate(lit))

    def true(self) -> int:
        return self._add(TrueGate())

    def false(self) -> int:
        return self._add(FalseGate())

    def and_(self, children: Iterable[int]) -> int:
        kids = tuple(dict.fromkeys(children))
        if not kids:
            return self.true()
        if len(kids) == 1:
            return kids[0]
        return self._add(AndGate(kids))

    def or_(self, children: Iterable[int]) -> int:
        kids = tuple(dict.fromkeys(children))
        if not kids:
            return self.false()
        if len(kids) == 1:
            return kids[0]
        return self._add(OrGate(kids))

    def decision(self, variable: int, hi: int, lo: int) -> int:
        return self._add(DecisionGate(variable, hi, lo))

    def gate(self, index: int) -> Gate:
        return self._gates[index]

    def __len__(self) -> int:
        return len(self._gates)

    def build(self, output: int) -> NnfCircuit:
        return NnfCircuit(self._gates, output)
