"""The six gate dataclasses and the `NnfCircuit` constructor check as they
were before a gate became its tagged tuple, kept verbatim as oracles:
`tests/builder_reference.py` builds these gates, and `tests/test_circuit.py`
compares `betadnnf.circuit` against both through `as_tuple`."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union


@dataclass(frozen=True)
class LiteralGate:
    literal: int


@dataclass(frozen=True)
class TrueGate:
    pass


@dataclass(frozen=True)
class FalseGate:
    pass


@dataclass(frozen=True)
class AndGate:
    children: tuple[int, ...]


@dataclass(frozen=True)
class OrGate:
    children: tuple[int, ...]


@dataclass(frozen=True)
class DecisionGate:
    """Or-gate of the shape (x and hi) or (not-x and lo), guards implicit."""

    variable: int
    hi: int
    lo: int


Gate = Union[LiteralGate, TrueGate, FalseGate, AndGate, OrGate, DecisionGate]


def as_tuple(gate: Gate) -> tuple:
    """The tagged tuple that stands for the gate in `betadnnf.circuit`."""
    if isinstance(gate, LiteralGate):
        return ("L", gate.literal)
    if isinstance(gate, TrueGate):
        return ("T",)
    if isinstance(gate, FalseGate):
        return ("F",)
    if isinstance(gate, AndGate):
        return ("A", gate.children)
    if isinstance(gate, OrGate):
        return ("O", gate.children)
    return ("D", gate.variable, gate.hi, gate.lo)


class NnfCircuit:
    """The gate list and output, with the constructor check verbatim."""

    def __init__(self, gates: Iterable[Gate], output: int):
        self.gates = tuple(gates)
        self.output = output
        self._variables = self._masks = self._decomposable = self._decision = self._reachable = None
        if not (0 <= output < len(self.gates)):
            raise ValueError(f"output index {output} out of range")
        for i, gate in enumerate(self.gates):
            kind = type(gate)  # one dispatch per gate; traces are almost all decision gates
            if kind is DecisionGate:
                kids = gate.hi, gate.lo
            else:
                kids = gate.children if kind is AndGate or kind is OrGate else ()
            for c in kids:
                if not (0 <= c < i):
                    raise ValueError(f"gate {i} references child {c}, not strictly below it")
            if kind is LiteralGate and gate.literal == 0:
                raise ValueError("0 is not a literal")
            if kind is DecisionGate and gate.variable < 1:
                raise ValueError("decision variable ids must be >= 1")
