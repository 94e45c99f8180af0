"""NNF circuits: a topologically indexed gate DAG with the structural
property checkers (decomposability, decision gates, determinism,
vtree structuredness), evaluation, conditioning, linear-time model
counting on decision-DNNF, and a plain text file format.

A gate is a tuple tagged by its NNF line letter: `("L", lit)`, `("T",)`,
`("F",)`, `("A", children)`, `("O", children)` with children a tuple of
gate indices, and `("D", x, hi, lo)` for `(x and hi) or (not-x and lo)`.
The builder hash-conses on these tuples and keeps each as the gate; its
circuits and `read_nnf`'s are well formed by construction and are not
checked again. `NnfCircuit(...)` checks a gate list from elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from . import cnf as cnf_mod
from .errors import CapExceededError, CircuitPropertyError, NnfParseError

Gate = tuple  # one of the six tagged forms above
# the field types of each form, exactly: a bool field would be written as "True"
_FIELDS = {"L": (int,), "T": (), "F": (), "A": (tuple,), "O": (tuple,), "D": (int, int, int)}


def gate_children(gate: Gate) -> tuple[int, ...]:
    tag = gate[0]
    if tag == "D":
        return gate[2:]
    if tag == "A" or tag == "O":
        return gate[1]
    return ()


def _check_gates(gates: tuple, output: int) -> None:
    if not (0 <= output < len(gates)):
        raise ValueError(f"output index {output} out of range")
    for i, gate in enumerate(gates):
        tag = gate[0] if type(gate) is tuple and gate else None
        fields = _FIELDS.get(tag) if type(tag) is str else None
        if fields is None or tuple(map(type, gate[1:])) != fields or (
                fields == (tuple,) and any(type(c) is not int for c in gate[1])):
            raise ValueError(f"gate {i} is not one of the six gate forms: {gate!r}")
        for c in gate_children(gate):
            if not (0 <= c < i):
                raise ValueError(f"gate {i} references child {c}, not strictly below it")
        if gate[0] == "L" and gate[1] == 0:
            raise ValueError("0 is not a literal")
        if gate[0] == "D" and gate[1] < 1:
            raise ValueError("decision variable ids must be >= 1")


@dataclass(frozen=True)
class Violation:
    """Locates the first gate breaking a structural property."""

    gate: int
    reason: str


class NnfCircuit:
    """Immutable gate list in topological order; the designated output gate
    determines the computed function. It keeps facts once computed: its variables
    and variable masks, its two structural verdicts, and whether its output reaches every gate."""

    __slots__ = ("gates", "output", "_variables", "_masks", "_decomposable", "_decision", "_reachable")

    def __init__(self, gates: Iterable[Gate], output: int):
        self._start(tuple(gates), output)
        _check_gates(self.gates, output)

    @classmethod
    def _unchecked(cls, gates: tuple, output: int) -> "NnfCircuit":
        """A circuit over gates well formed by construction: the builder's and the reader's."""
        circuit = object.__new__(cls)
        circuit._start(gates, output)
        return circuit

    def _start(self, gates: tuple, output: int) -> None:
        self.gates = gates
        self.output = output
        self._variables = self._masks = self._decomposable = self._decision = self._reachable = None

    @property
    def size(self) -> int:
        return len(self.gates)

    @property
    def variables(self) -> frozenset[int]:
        """All variables labelling inputs anywhere in the circuit."""
        if self._variables is None:  # a literal's variable, or a decision's, which is positive
            self._variables = frozenset(abs(g[1]) for g in self.gates if g[0] == "L" or g[0] == "D")
        return self._variables

    @property
    def varsets(self) -> tuple[frozenset[int], ...]:
        """The variables below each gate, decoded from the kept masks on every access."""
        order, masks = _kept_masks(self)
        return tuple(_decode(order, m) for m in masks)

    @property
    def output_variables(self) -> frozenset[int]:
        order, masks = _kept_masks(self)
        return _decode(order, masks[self.output])

    def root_at(self, gate_index: int) -> "NnfCircuit":
        """Same gate list viewed with a different output gate."""
        return NnfCircuit(self.gates, gate_index)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NnfCircuit)
            and self.gates == other.gates
            and self.output == other.output
        )

    def __hash__(self) -> int:
        return hash((self.gates, self.output))

    def __repr__(self) -> str:
        return f"NnfCircuit({len(self.gates)} gates, output {self.output})"


class CircuitBuilder:
    """Hash-consing constructor: a gate tuple is its own key, so equal gates are made once."""

    def __init__(self):
        self._gates: list[Gate] = []
        self._index: dict[Gate, int] = {}

    def _add(self, *gate) -> int:
        found = self._index.get(gate)
        if found is None:
            found = self._index[gate] = len(self._gates)
            self._gates.append(gate)
        return found

    def literal(self, lit: int) -> int:
        return self._add("L", lit)

    def true(self) -> int:
        return self._add("T")

    def false(self) -> int:
        return self._add("F")

    def and_(self, children: Iterable[int]) -> int:
        return self._join("A", children)

    def or_(self, children: Iterable[int]) -> int:
        return self._join("O", children)

    def _join(self, tag: str, children: Iterable[int]) -> int:
        """An "A" or "O" gate over the distinct children: one is itself, none the gate's unit."""
        kids = tuple(dict.fromkeys(children))
        if len(kids) > 1:
            return self._add(tag, kids)
        return kids[0] if kids else self._add("T" if tag == "A" else "F")

    def decision(self, variable: int, hi: int, lo: int) -> int:
        # `_add` without its argument packing, as traces make mostly decision gates
        gate = ("D", variable, hi, lo)
        found = self._index.setdefault(gate, len(self._gates))
        if found == len(self._gates):
            self._gates.append(gate)
        return found

    def gate(self, index: int) -> Gate:
        return self._gates[index]

    def __len__(self) -> int:
        return len(self._gates)

    def build(self, output: int) -> NnfCircuit:
        return NnfCircuit._unchecked(tuple(self._gates), output)


def _variable_masks(circuit: NnfCircuit) -> tuple[list[int], list[int]]:
    """The circuit's variables in increasing order, and the variables below
    each gate as a bitset over that order: bit i is the i-th smallest
    variable, so a sparse variable range costs no extra bits."""
    order = sorted(circuit.variables)
    position = {v: i for i, v in enumerate(order)}
    masks: list[int] = []
    for gate in circuit.gates:
        tag = gate[0]
        if tag == "D":
            masks.append((1 << position[gate[1]]) | masks[gate[2]] | masks[gate[3]])
        elif tag == "L":
            masks.append(1 << position[abs(gate[1])])
        else:
            acc = 0
            for c in gate_children(gate):
                acc |= masks[c]
            masks.append(acc)
    return order, masks


def _kept_masks(circuit: NnfCircuit) -> tuple[list[int], list[int]]:
    if circuit._masks is None:  # computed on first use, then kept
        circuit._masks = _variable_masks(circuit)
    return circuit._masks


def _decode(order: list[int], mask: int) -> frozenset[int]:
    return frozenset(order[i] for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


def _decomposability_violation(circuit: NnfCircuit) -> Violation | None:
    order, masks = _kept_masks(circuit)
    for i, gate in enumerate(circuit.gates):
        tag = gate[0]
        if tag == "A":
            union = 0
            for c in dict.fromkeys(gate[1]):
                overlap = union & masks[c]
                if overlap:  # report the smallest shared variable, the lowest bit
                    v = order[(overlap & -overlap).bit_length() - 1]
                    return Violation(i, f"and-gate children share variable {v}")
                union |= masks[c]
        elif tag == "D":
            # equal exactly when a branch already holds the decision variable
            if masks[i] == masks[gate[2]] | masks[gate[3]]:
                return Violation(i, f"decision variable {gate[1]} reappears in a branch")
    return None


def check_decomposable(circuit: NnfCircuit) -> tuple[bool, Violation | None]:
    """Every conjunction must have pairwise variable-disjoint inputs.

    Decision gates are checked through their implicit guard conjunctions:
    the decision variable may not reappear in either branch. The circuit
    keeps the verdict.
    """
    if circuit._decomposable is None:
        violation = _decomposability_violation(circuit)
        circuit._decomposable = violation is None, violation
    return circuit._decomposable


def decision_parts(circuit: NnfCircuit, gate_index: int) -> tuple[int, int, int] | None:
    """(variable, hi, lo) if the or-gate has decision shape, else None.

    A plain or-gate qualifies when it is binary and each input is a binary
    conjunction guarded by one literal, the two guards being x and not-x.
    """
    gate = circuit.gates[gate_index]
    if gate[0] == "D":
        return gate[1:]
    if gate[0] != "O" or len(gate[1]) != 2:
        return None

    def guard_options(child: int) -> list[tuple[int, int]]:
        g = circuit.gates[child]
        pair = g[1] if g[0] == "A" and len(g[1]) == 2 else ()
        return [(circuit.gates[k][1], pair[1 - j]) for j, k in enumerate(pair) if circuit.gates[k][0] == "L"]

    for lit_a, body_a in guard_options(gate[1][0]):
        for lit_b, body_b in guard_options(gate[1][1]):
            if lit_a == -lit_b:
                if lit_a > 0:
                    return lit_a, body_a, body_b
                return -lit_a, body_b, body_a
    return None


def check_decision(circuit: NnfCircuit) -> tuple[bool, Violation | None]:
    """Every or-gate must be a decision gate. The circuit keeps the verdict."""
    if circuit._decision is None:
        verdict = True, None
        for i, gate in enumerate(circuit.gates):
            if gate[0] == "O" and decision_parts(circuit, i) is None:
                verdict = False, Violation(i, "or-gate is not a decision gate")
                break
        circuit._decision = verdict
    return circuit._decision


def truth_tables(circuit: NnfCircuit, variables: Iterable[int]) -> list[int]:
    """Bitmask satisfying set of every gate over the given variable list."""
    ordered = sorted(set(variables))
    missing = circuit.variables - set(ordered)
    if missing:
        raise ValueError(f"circuit variables {sorted(missing)} not in the enumeration set")
    masks = cnf_mod.variable_masks(ordered)
    full = (1 << (1 << len(ordered))) - 1
    tables: list[int] = []
    for gate in circuit.gates:
        tag = gate[0]
        if tag == "L":
            m = masks[abs(gate[1])]
            tables.append(m if gate[1] > 0 else full & ~m)
        elif tag == "T" or tag == "F":
            tables.append(full if tag == "T" else 0)
        elif tag == "A":
            acc = full
            for c in gate[1]:
                acc &= tables[c]
            tables.append(acc)
        elif tag == "O":
            acc = 0
            for c in gate[1]:
                acc |= tables[c]
            tables.append(acc)
        else:
            m = masks[gate[1]]
            tables.append((m & tables[gate[2]]) | ((full & ~m) & tables[gate[3]]))
    return tables


def check_deterministic(circuit: NnfCircuit, cap: int = 20) -> bool:
    """True iff the inputs of every or-gate are pairwise contradictory.

    Semantic, by enumeration; decision gates are disjoint by construction
    and are skipped.
    """
    n = len(circuit.variables)
    if n > cap:
        raise CapExceededError(f"{n} variables exceed the determinism cap of {cap}", cap)
    or_gates = [g for g in circuit.gates if g[0] == "O"]
    if not or_gates:
        return True
    tables = truth_tables(circuit, circuit.variables)
    for gate in or_gates:
        for a, b in combinations(gate[1], 2):
            if a != b and tables[a] & tables[b]:
                return False
    return True


def evaluate(circuit: NnfCircuit, tau: Iterable[int]) -> int:
    """Bottom-up evaluation under `tau`, the set of true literals, which
    must bind every circuit variable."""
    tau = cnf_mod._literal_set(tau, circuit.variables)
    values: list[int] = []
    for gate in circuit.gates:
        tag = gate[0]
        if tag == "L":
            values.append(int(gate[1] in tau))
        elif tag == "T":
            values.append(1)
        elif tag == "F":
            values.append(0)
        elif tag == "A":
            values.append(int(all(values[c] for c in gate[1])))
        elif tag == "O":
            values.append(int(any(values[c] for c in gate[1])))
        else:
            values.append(values[gate[2]] if gate[1] in tau else values[gate[3]])
    return values[circuit.output]


def condition(circuit: NnfCircuit, tau: Iterable[int]) -> NnfCircuit:
    """Make the literals of `tau` true; never increases the gate count."""
    tau = cnf_mod._literal_set(tau)
    builder = CircuitBuilder()
    remap: list[int] = []
    for gate in circuit.gates:
        tag = gate[0]
        if tag == "L" and (gate[1] in tau or -gate[1] in tau):
            remap.append(builder._add("T" if gate[1] in tau else "F"))
        elif tag == "L" or tag == "T" or tag == "F":  # a free literal or a constant, as it stands
            remap.append(builder._add(*gate))
        elif tag == "A" or tag == "O":
            # "F" decides an and-gate and "T" an or-gate; the other constant drops out
            decides = "F" if tag == "A" else "T"
            kids = [remap[c] for c in gate[1]]
            tags = [builder.gate(k)[0] for k in kids]
            if decides in tags:
                remap.append(builder._add(decides))
            else:
                remap.append(builder._join(tag, [k for k, t in zip(kids, tags) if t != "T" and t != "F"]))
        else:
            _, x, hi, lo = gate
            if x in tau:
                remap.append(remap[hi])
            elif -x in tau:
                remap.append(remap[lo])
            else:
                remap.append(builder.decision(x, remap[hi], remap[lo]))
    return prune_unreachable(builder.build(remap[circuit.output]))


def prune_unreachable(circuit: NnfCircuit) -> NnfCircuit:
    """The gates the output reaches; the result is marked, so pruning it again is free."""
    if circuit._reachable:
        return circuit
    reached = bytearray(circuit.size)
    reached[circuit.output] = 1
    for i in range(circuit.output, -1, -1):  # children precede parents, so one pass down
        if reached[i]:
            for c in gate_children(circuit.gates[i]):
                reached[c] = 1
    if reached.count(1) < circuit.size:
        new_index = [0] * (circuit.output + 1)
        gates: list[Gate] = []
        for old, gate in enumerate(circuit.gates[:circuit.output + 1]):
            if reached[old]:
                new_index[old] = len(gates)
                tag = gate[0]
                if tag == "D":
                    gate = ("D", gate[1], new_index[gate[2]], new_index[gate[3]])
                elif tag == "A" or tag == "O":
                    gate = (tag, tuple([new_index[c] for c in gate[1]]))
                gates.append(gate)
        circuit = NnfCircuit._unchecked(tuple(gates), len(gates) - 1)  # the output is the last gate kept
    circuit._reachable = True
    return circuit


def count_models(circuit: NnfCircuit, variables: Iterable[int]) -> int:
    """Exact model count over the variable set; requires a decomposable
    circuit whose every or-gate is a decision gate.

    A conjunction multiplies child counts; a decision on x adds the two
    branch counts, each padded by a power of two for the branch variables
    it does not mention; a final padding covers variables outside the
    circuit output.
    """
    target = frozenset(variables)
    order, masks = _kept_masks(circuit)
    extra = [v for v in order if v not in target]
    if extra:
        raise ValueError(f"circuit variables {extra} outside the counting set")
    ok, violation = check_decomposable(circuit)
    if not ok:
        raise CircuitPropertyError(f"not decomposable: gate {violation.gate}, {violation.reason}")
    ok, violation = check_decision(circuit)
    if not ok:
        raise CircuitPropertyError(f"not a decision circuit: gate {violation.gate}, {violation.reason}")
    counts: list[int] = []
    for i, gate in enumerate(circuit.gates):
        tag = gate[0]
        if tag == "D" or tag == "O":  # an or-gate passed `check_decision`, so it has decision shape
            _, hi, lo = gate[1:] if tag == "D" else decision_parts(circuit, i)
            here = masks[i].bit_count()
            gap_hi = here - 1 - masks[hi].bit_count()
            gap_lo = here - 1 - masks[lo].bit_count()
            counts.append(counts[hi] * (1 << gap_hi) + counts[lo] * (1 << gap_lo))
        elif tag == "A":
            n = 1
            for c in dict.fromkeys(gate[1]):
                n *= counts[c]
            counts.append(n)
        else:
            counts.append(0 if tag == "F" else 1)
    outside = len(target) - masks[circuit.output].bit_count()
    return counts[circuit.output] << outside


def is_satisfiable(circuit: NnfCircuit) -> tuple[bool, frozenset[int] | None]:
    """Satisfiability plus a witness, the set of its true literals over the
    output variables; linear in the circuit size.

    Requires decomposability: a conjunction is then satisfiable exactly
    when all of its inputs are.
    """
    ok, violation = check_decomposable(circuit)
    if not ok:
        raise CircuitPropertyError(f"not decomposable: gate {violation.gate}, {violation.reason}")
    sat: list[bool] = []
    for gate in circuit.gates:
        tag = gate[0]
        if tag == "D":
            sat.append(sat[gate[2]] or sat[gate[3]])
        elif tag == "A":
            sat.append(all(sat[c] for c in gate[1]))
        elif tag == "O":
            sat.append(any(sat[c] for c in gate[1]))
        else:
            sat.append(tag != "F")
    if not sat[circuit.output]:
        return False, None
    chosen: dict[int, int] = {}  # variable -> its true literal
    stack = [circuit.output]
    while stack:
        i = stack.pop()
        gate = circuit.gates[i]
        tag = gate[0]
        if tag == "L":
            chosen.setdefault(abs(gate[1]), gate[1])
        elif tag == "A":
            stack.extend(gate[1])
        elif tag == "O":
            stack.append(next(c for c in gate[1] if sat[c]))
        elif tag == "D":
            _, x, hi, lo = gate
            chosen.setdefault(x, x if sat[hi] else -x)
            stack.append(hi if sat[hi] else lo)
    for v in circuit.output_variables:
        chosen.setdefault(v, -v)
    return True, frozenset(chosen.values())


class Vtree:
    """Rooted binary tree whose leaves are labelled bijectively: the vtree
    of a structured circuit, and the branch decomposition of a graph.

    Since the labels are distinct, a tree up to child order is exactly the
    set of its nodes' leaf sets, which is what `==` compares."""

    __slots__ = ("label", "left", "right", "leaf_set")

    def __init__(self, label=None, left=None, right=None):
        self.label = label
        self.left = left
        self.right = right
        if label is not None:
            self.leaf_set = frozenset((label,))
        else:
            if left is None or right is None:
                raise ValueError("an internal node needs two children")
            if left.leaf_set & right.leaf_set:
                raise ValueError("leaf labels must be distinct")
            self.leaf_set = left.leaf_set | right.leaf_set

    @classmethod
    def leaf(cls, label) -> "Vtree":
        return cls(label=label)

    @classmethod
    def node(cls, left: "Vtree", right: "Vtree") -> "Vtree":
        return cls(left=left, right=right)

    def is_leaf(self) -> bool:
        return self.label is not None

    def nodes(self):
        """Every node of the tree, root first, without recursion."""
        stack = [self]
        while stack:
            t = stack.pop()
            yield t
            if not t.is_leaf():
                stack.append(t.right)
                stack.append(t.left)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vtree):
            return False
        return {t.leaf_set for t in self.nodes()} == {t.leaf_set for t in other.nodes()}

    def __hash__(self) -> int:
        return hash(self.leaf_set)

    def __repr__(self) -> str:
        """Nested parentheses, e.g. ((1 2) 3), written with an explicit stack."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
            elif t.is_leaf():
                out.append(str(t.label))
            else:
                stack.extend((")", t.right, " ", t.left, "("))
        return "".join(out)


def respects_vtree(circuit: NnfCircuit, vtree: Vtree) -> tuple[bool, Violation | None]:
    """Every conjunction (explicit or a decision guard) must be binary and
    split its input variables along some vtree node. Variable sets are
    bitsets over the circuit's variables, and so are the vtree's splits."""
    order, masks = _kept_masks(circuit)
    missing = sorted(set(order) - vtree.leaf_set)
    if missing:
        raise ValueError(f"circuit variables {missing} missing from the vtree")
    position = {v: i for i, v in enumerate(order)}

    def mask(leaves: frozenset[int]) -> int:
        return sum(1 << position[v] for v in leaves if v in position)

    splits = [
        (mask(t.left.leaf_set), mask(t.right.leaf_set)) for t in vtree.nodes() if not t.is_leaf()
    ]

    def splittable(a: int, b: int) -> bool:
        return any(
            (not a & ~l and not b & ~r) or (not a & ~r and not b & ~l) for l, r in splits
        )

    for i, gate in enumerate(circuit.gates):
        tag = gate[0]
        if tag == "A":
            if len(gate[1]) != 2:
                return False, Violation(i, f"and-gate has fanin {len(gate[1])}, not 2")
            a, b = (masks[c] for c in gate[1])
            if not splittable(a, b):
                return False, Violation(i, "no vtree node splits this and-gate")
        elif tag == "D":
            guard = 1 << position[gate[1]]
            for branch in gate[2:]:
                if not splittable(guard, masks[branch]):
                    return False, Violation(i, "no vtree node splits a decision guard")
    return True, None


def equivalent_to_formula(
    circuit: NnfCircuit, formula: cnf_mod.CnfFormula, cap: int = 20
) -> bool:
    """Truth-table comparison over the union of the two variable sets."""
    joint = sorted(circuit.variables | formula.variables)
    if len(joint) > cap:
        raise CapExceededError(
            f"{len(joint)} variables exceed the equivalence cap of {cap}", cap
        )
    circuit_table = truth_tables(circuit, joint)[circuit.output]
    return circuit_table == cnf_mod.truth_table_of_formula(formula, joint)


def write_nnf(circuit: NnfCircuit) -> str:
    """Serialize: header `nnf <gates> <child edges> <max variable>`, then one
    gate per line (L/T/F/A/O/D); the last gate is the output."""
    pruned = prune_unreachable(circuit)
    lines, edges, max_var = [""], 0, 0  # the header goes first once the pass has counted
    for gate in pruned.gates:  # one pass: emit, count edges, track the largest variable
        tag = gate[0]
        if tag == "D":
            _, x, hi, lo = gate
            lines.append(f"D {x} {hi} {lo}")
            edges += 2
            max_var = max(max_var, x)
        elif tag == "L":
            lines.append(f"L {gate[1]}")
            max_var = max(max_var, abs(gate[1]))
        elif tag == "A" or tag == "O":
            kids = gate[1]
            lines.append(" ".join(map(str, (tag, len(kids), *kids))))
            edges += len(kids)
        else:
            lines.append(tag)
    lines[0] = f"nnf {pruned.size} {edges} {max_var}"
    return "\n".join(lines) + "\n"


def _integer(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise NnfParseError(f"non-integer {what} {token!r}", line) from None


def read_nnf(text: str | bytes) -> NnfCircuit:
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = text.splitlines()
    header: list[str] = []
    body_start = 0
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("c"):  # blank or comment
            continue
        header = fields
        body_start = lineno
        break
    if len(header) != 4 or header[0] != "nnf":
        raise NnfParseError("expected header 'nnf <gates> <edges> <vars>'", body_start or 1)
    n_gates, n_edges, n_vars = (_integer(t, "header field", body_start) for t in header[1:])
    gates: list[Gate] = []
    seen_edges = 0
    lineno = body_start

    def child(token: str) -> int:  # a child of the gate being read, gate len(gates)
        c = _integer(token, "child", lineno)
        if not (0 <= c < len(gates)):
            raise NnfParseError(f"child {c} must reference an earlier gate", lineno)
        return c

    for raw in lines[body_start:]:
        lineno += 1
        fields = raw.split()
        if not fields or fields[0].startswith("c"):
            continue
        kind = fields[0]
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
            raise NnfParseError(f"unrecognized gate line {raw.strip()!r}", lineno)
    if len(gates) != n_gates:
        raise NnfParseError(f"header declares {n_gates} gates, found {len(gates)}", lineno)
    if seen_edges != n_edges:
        raise NnfParseError(f"header declares {n_edges} child edges, found {seen_edges}", lineno)
    if not gates:
        raise NnfParseError("a circuit needs at least one gate", lineno)
    return NnfCircuit._unchecked(tuple(gates), len(gates) - 1)  # every line was checked above


def read_nnf_file(path) -> NnfCircuit:
    with open(path, "r", encoding="ascii") as handle:
        return read_nnf(handle.read())


def write_nnf_file(circuit: NnfCircuit, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write_nnf(circuit))
