import contextlib
import io
import itertools
import os
import random
import tempfile
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betadnnf import (
    CnfFormula,
    brute_force_count,
    check_decision,
    check_decomposable,
    check_deterministic,
    compile_cnf,
    count_models,
    equivalent_to_formula,
    parse_dimacs,
    read_nnf,
    trace_to_circuit,
    write_nnf,
)
from betadnnf import circuit as circuit_mod
from betadnnf.cli import main
from betadnnf.circuit import (
    CircuitBuilder,
    NnfCircuit,
    Violation,
    Vtree,
    condition,
    decision_parts,
    evaluate,
    gate_children,
    is_satisfiable,
    prune_unreachable,
    respects_vtree,
    truth_tables,
)
from betadnnf.errors import CapExceededError, CircuitPropertyError, NnfParseError
from betadnnf.dpll import OrderStrategy, search
from betadnnf.generators import chain_cnf, random_beta_acyclic_cnf

import builder_reference
import gate_reference
import nnf_reference
from conftest import FSTAR_DIMACS, lits

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def simple_decision() -> NnfCircuit:
    """(x and true) or (not-x and false), built from explicit guards."""
    b = CircuitBuilder()
    x, nx, t, f = b.literal(1), b.literal(-1), b.true(), b.false()
    return b.build(b.or_([b.and_([x, t]), b.and_([nx, f])]))


class TestChecks:
    def test_fig3_is_decomposable(self, fig3):
        ok, violation = check_decomposable(fig3)
        assert ok and violation is None

    def test_shared_variable_detected(self):
        b = CircuitBuilder()
        shared = b.and_([b.or_([b.literal(1), b.literal(2)]),
                         b.or_([b.literal(1), b.literal(3)])])
        ok, violation = check_decomposable(b.build(shared))
        assert not ok
        assert "1" in violation.reason

    def test_single_literal_is_decomposable(self):
        b = CircuitBuilder()
        assert check_decomposable(b.build(b.literal(4)))[0]

    def test_fig3_is_not_a_decision_circuit(self, fig3):
        ok, violation = check_decision(fig3)
        assert not ok
        # the inner disjunction of two bare literals is the offender
        assert fig3.varsets[violation.gate] == frozenset({2, 3})

    def test_explicit_guards_form_a_decision_gate(self):
        circuit = simple_decision()
        assert check_decision(circuit)[0]
        assert decision_parts(circuit, circuit.output) is not None

    def test_and_only_circuit_passes_decision(self):
        b = CircuitBuilder()
        assert check_decision(b.build(b.and_([b.literal(1), b.literal(2)])))[0]

    def test_fig3_is_not_deterministic(self, fig3):
        assert not check_deterministic(fig3)

    def test_decision_circuits_are_deterministic(self, fstar):
        circuit, _ = compile_cnf(fstar)
        assert check_decision(circuit)[0]
        assert check_deterministic(circuit)

    def test_single_child_or_is_deterministic(self):
        circuit = NnfCircuit([("L", 1), ("O", (0,))], 1)
        assert check_deterministic(circuit)

    def test_determinism_cap(self, fig3):
        with pytest.raises(CapExceededError):
            check_deterministic(fig3, cap=2)


class TestEvaluate:
    @pytest.mark.parametrize(
        "bindings,expected",
        [({1: 1, 2: 1, 3: 0}, 1), ({1: 0, 2: 1, 3: 0}, 0), ({1: 0, 2: 0, 3: 1}, 1)],
    )
    def test_fig3(self, fig3, bindings, expected):
        assert evaluate(fig3, lits(bindings)) == expected

    def test_constant_true(self):
        b = CircuitBuilder()
        assert evaluate(b.build(b.true()), lits()) == 1

    def test_unbound_variable(self, fig3):
        with pytest.raises(ValueError, match="3"):
            evaluate(fig3, lits({1: 1, 2: 1}))


class TestCondition:
    def test_fig3_conditioned_equals_inner_disjunction(self, fig3):
        got = condition(fig3, lits({1: 1}))
        assert got.size <= fig3.size
        assert equivalent_to_formula(got, CnfFormula.from_ints([[2, 3]]))

    def test_empty_assignment_is_identity(self, fig3):
        assert condition(fig3, lits()) == fig3

    def test_total_assignment_gives_constant(self, fig3):
        for bits in itertools.product((0, 1), repeat=3):
            tau = lits(zip((1, 2, 3), bits))
            got = condition(fig3, tau)
            assert got.size == 1
            assert evaluate(got, lits()) == evaluate(fig3, tau)

    def test_agrees_with_evaluation_on_compiled_circuits(self):
        rng = random.Random(5)
        for _ in range(20):
            formula = random_beta_acyclic_cnf(rng, max_vars=8, max_clauses=10)
            circuit, _ = compile_cnf(formula)
            variables = sorted(circuit.output_variables)
            bound = [v for v in variables if rng.random() < 0.5]
            tau = lits({v: rng.randint(0, 1) for v in bound})
            got = condition(circuit, tau)
            assert got.size <= circuit.size
            assert check_decomposable(got)[0]
            free = [v for v in variables if v not in bound]
            for bits in itertools.product((0, 1), repeat=len(free)):
                sigma = lits(zip(free, bits))
                assert evaluate(got, tau | sigma) == evaluate(circuit, tau | sigma)


class TestCountModels:
    def test_single_clause(self):
        circuit, _ = compile_cnf(CnfFormula.from_ints([[1, 2]]))
        assert count_models(circuit, {1, 2}) == 3

    def test_worked_example(self, fstar):
        circuit, _ = compile_cnf(fstar)
        assert count_models(circuit, range(1, 6)) == brute_force_count(fstar, range(1, 6))

    def test_constant_false_padded(self):
        b = CircuitBuilder()
        circuit = b.build(b.false())
        assert count_models(circuit, {1, 2, 3}) == 0

    def test_pattern_matched_guards_count_correctly(self):
        assert count_models(simple_decision(), {1}) == 1

    def test_refuses_non_decision_circuits(self, fig3):
        with pytest.raises(CircuitPropertyError):
            count_models(fig3, {1, 2, 3})

    def test_refuses_foreign_variables(self, fig3):
        b = CircuitBuilder()
        circuit = b.build(b.literal(7))
        with pytest.raises(ValueError, match="7"):
            count_models(circuit, {1, 2})


class TestSatisfiability:
    def test_fig3_witness(self, fig3):
        ok, witness = is_satisfiable(fig3)
        assert ok
        assert evaluate(fig3, witness) == 1

    def test_constant_false(self):
        b = CircuitBuilder()
        ok, witness = is_satisfiable(b.build(b.false()))
        assert (ok, witness) == (False, None)

    def test_negative_literal(self):
        b = CircuitBuilder()
        ok, witness = is_satisfiable(b.build(b.literal(-3)))
        assert ok and -3 in witness

    def test_refuses_non_decomposable(self):
        b = CircuitBuilder()
        bad = b.and_([b.literal(1), b.literal(-1)])
        with pytest.raises(CircuitPropertyError):
            is_satisfiable(b.build(bad))

    def test_agrees_with_count_on_decision_circuits(self):
        rng = random.Random(9)
        for _ in range(20):
            formula = random_beta_acyclic_cnf(rng, max_vars=8, max_clauses=8)
            circuit, _ = compile_cnf(formula)
            over = circuit.output_variables or {1}
            assert is_satisfiable(circuit)[0] == (count_models(circuit, over) > 0)


class TestVtree:
    def test_fig3_respects_its_vtree(self, fig3, fig3_vtree):
        ok, violation = respects_vtree(fig3, fig3_vtree)
        assert ok and violation is None

    def test_ternary_and_gate_fails(self, fig3_vtree):
        b = CircuitBuilder()
        g = b.and_([b.literal(1), b.literal(2), b.literal(3)])
        ok, violation = respects_vtree(b.build(g), fig3_vtree)
        assert not ok and "fanin" in violation.reason

    def test_no_and_gates_is_vacuous(self, fig3_vtree):
        b = CircuitBuilder()
        g = b.or_([b.literal(1), b.literal(2)])
        assert respects_vtree(b.build(g), fig3_vtree)[0]

    def test_interleaved_split_fails(self):
        # (1 and 3) cannot be split by the vtree ((1 2) (3 4)) at any node
        vtree = Vtree.node(
            Vtree.node(Vtree.leaf(1), Vtree.leaf(2)),
            Vtree.node(Vtree.leaf(3), Vtree.leaf(4)),
        )
        b = CircuitBuilder()
        both = b.and_([b.and_([b.literal(1), b.literal(3)]),
                       b.and_([b.literal(2), b.literal(4)])])
        assert not respects_vtree(b.build(both), vtree)[0]

    def test_variable_sets_are_computed_once(self, monkeypatch):
        calls = []
        original = circuit_mod._variable_masks

        def counting(circuit):
            calls.append(circuit)
            return original(circuit)

        monkeypatch.setattr(circuit_mod, "_variable_masks", counting)
        n = 40
        _, _, trace = search(chain_cnf(n), OrderStrategy.lexicographic(), trace=True)
        vtree = Vtree.leaf(n)
        for v in range(n - 1, 0, -1):
            vtree = Vtree.node(Vtree.leaf(v), vtree)
        assert respects_vtree(trace, vtree) == (True, None)
        assert len(calls) == 1

    def test_matches_the_set_definition(self):
        """Against the definition over `varsets`, on DPLL traces of random
        formulas and random vtrees over their variables."""

        def reference(circuit, vtree):
            varsets = circuit.varsets
            splits = [(t.left.leaf_set, t.right.leaf_set) for t in vtree.nodes() if not t.is_leaf()]

            def splittable(a, b):
                return any((a <= l and b <= r) or (a <= r and b <= l) for l, r in splits)

            for i, gate in enumerate(circuit.gates):
                if gate[0] == "A":
                    if len(gate[1]) != 2:
                        return False, Violation(i, f"and-gate has fanin {len(gate[1])}, not 2")
                    if not splittable(*(varsets[c] for c in gate[1])):
                        return False, Violation(i, "no vtree node splits this and-gate")
                elif gate[0] == "D":
                    _, x, hi, lo = gate
                    for branch in (hi, lo):
                        if not splittable(frozenset((x,)), varsets[branch]):
                            return False, Violation(i, "no vtree node splits a decision guard")
            return True, None

        def random_vtree(rng, variables):
            nodes = [Vtree.leaf(v) for v in variables]
            while len(nodes) > 1:
                i, j = sorted(rng.sample(range(len(nodes)), 2))
                right, left = nodes.pop(j), nodes.pop(i)
                nodes.append(Vtree.node(left, right))
            return nodes[0]

        rng = random.Random(541)
        verdicts = set()
        for _ in range(120):
            formula = random_beta_acyclic_cnf(rng, max_vars=7, max_clauses=6)
            _, _, trace = search(formula, OrderStrategy.lexicographic(), trace=True)
            extra = rng.sample(range(8, 12), rng.randint(0, 2))
            vtree = random_vtree(rng, sorted(trace.variables) + extra)
            got = respects_vtree(trace, vtree)
            assert got == reference(trace, vtree), write_nnf(trace)
            verdicts.add(got[0])
        assert verdicts == {True, False}


class TestEquivalence:
    def test_compiled_circuit_matches_formula(self, fstar):
        circuit, _ = compile_cnf(fstar)
        assert equivalent_to_formula(circuit, fstar)

    def test_constant_true_vs_unit_clause(self):
        b = CircuitBuilder()
        assert not equivalent_to_formula(b.build(b.true()), CnfFormula.from_ints([[1]]))

    def test_empty_clause_formula_vs_constant_false(self):
        from betadnnf.cnf import Clause

        b = CircuitBuilder()
        assert equivalent_to_formula(b.build(b.false()), CnfFormula([Clause([])]))

    def test_cap(self, fig3):
        with pytest.raises(CapExceededError):
            equivalent_to_formula(fig3, CnfFormula.from_ints([[1]]), cap=2)


class TestNnfFormat:
    def test_single_literal_file(self):
        circuit = read_nnf("nnf 1 0 1\nL 1\n")
        assert circuit.size == 1 and circuit.variables == {1}

    def test_decision_line_semantics(self):
        text = "nnf 5 4 3\nL 2\nF\nT\nD 3 2 1\nD 1 3 0\n"
        circuit = read_nnf(text)
        # output = (x1 and (x3 ? true : false)) or (not-x1 and x2)
        assert evaluate(circuit, lits({1: 1, 2: 0, 3: 1})) == 1
        assert evaluate(circuit, lits({1: 0, 2: 0, 3: 1})) == 0

    def test_roundtrip_fixed_point(self, fstar):
        circuit, _ = compile_cnf(fstar)
        text = write_nnf(circuit)
        assert write_nnf(read_nnf(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "xxx 1 0 1\nL 1\n",
            "nnf 2 0 1\nL 1\n",
            "nnf 2 1 1\nL 1\nA 1 1\n",
            "nnf 1 0 1\nL 2\n",
            "nnf 2 2 1\nL 1\nD 1 0 3\n",
            "nnf 1 0 0\nL 0\n",
        ],
    )
    def test_malformed_files(self, text):
        with pytest.raises(NnfParseError):
            read_nnf(text)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("nnf 1 0 1\nL x\n", 2),
            ("nnf 2 1 1\nL 1\nA y 0\n", 3),
            ("nnf 2 2 1\nL 1\nD y 0 0\n", 3),
        ],
    )
    def test_non_integer_fields_name_their_line(self, text, line):
        with pytest.raises(NnfParseError) as info:
            read_nnf(text)
        assert info.value.line == line

    def test_comment_lines_ignored(self):
        circuit = read_nnf("c header comment\nnnf 1 0 2\nc body\nL -2\n")
        assert circuit.variables == {2}


class TestTruthTables:
    def test_fig3_against_enumeration(self, fig3):
        tables = truth_tables(fig3, (1, 2, 3))
        out = tables[fig3.output]
        for k, bits in enumerate(itertools.product((0, 1), repeat=3)):
            tau = lits({v: bits[v - 1] for v in (1, 2, 3)})
            # assignment index k has bit i equal to the value of variable i+1
            index = sum(bits[i] << i for i in range(3))
            assert (out >> index) & 1 == evaluate(fig3, tau)


def reference_varsets(circuit: NnfCircuit) -> list[frozenset[int]]:
    """The variables met by a DFS from each gate, one search per gate."""
    out = []
    for root in range(circuit.size):
        seen, stack, found = set(), [root], set()
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            gate = circuit.gates[i]
            if gate[0] == "L":
                found.add(abs(gate[1]))
            elif gate[0] == "D":
                found.add(gate[1])
            stack.extend(gate_children(gate))
        out.append(frozenset(found))
    return out


class TestVariableSets:
    def test_match_a_dfs_on_compiled_circuits_and_traces(self):
        rng = random.Random(17)
        strategies = [OrderStrategy.lexicographic(), OrderStrategy.reverse_beta_elimination()]
        for k in range(100):
            formula = random_beta_acyclic_cnf(rng, max_vars=12, max_clauses=16)
            for circuit in (compile_cnf(formula)[0], trace_to_circuit(formula, strategies[k % 2])):
                expected = reference_varsets(circuit)
                assert list(circuit.varsets) == expected
                assert circuit.output_variables == expected[circuit.output]

    def test_output_variables_and_witness_where_the_output_misses_gates(self):
        """Checked random gate lists seen at random outputs, most of which
        reach only part of the list: the output's variables are the DFS's,
        and a witness binds exactly them."""
        rng = random.Random(29)
        partial = witnessed = 0
        for _ in range(3000):
            gates = []
            for i in range(rng.randint(1, 10)):
                kind = rng.randrange(10) if i else 0
                if kind < 4:
                    gates.append(("L", rng.choice((-1, 1)) * rng.randint(1, 8)))
                elif kind < 5:
                    gates.append((rng.choice("TF"),))
                elif kind < 7:
                    gates.append((rng.choice("AO"), tuple(rng.sample(range(i), rng.randint(1, min(i, 3))))))
                else:
                    gates.append(("D", rng.randint(1, 8), rng.randrange(i), rng.randrange(i)))
            circuit = NnfCircuit(gates, len(gates) - 1)
            view = circuit.root_at(rng.randrange(circuit.size))
            expected = reference_varsets(circuit)[view.output]
            assert view.output_variables == expected, (gates, view.output)
            partial += prune_unreachable(view).size < view.size
            if check_decomposable(view)[0]:
                ok, witness = is_satisfiable(view)
                if ok:
                    assert {abs(lit) for lit in witness} == expected and len(witness) == len(expected)
                    rest = {-v for v in view.variables - expected}
                    assert evaluate(view, witness | rest) == 1, (gates, view.output)
                    witnessed += 1
        assert partial > 2000 and witnessed > 1500, (partial, witnessed)

    def test_sparse_variable_ids_cost_one_bit_each(self):
        text = "nnf 3 2 1000000000\nL 1000000000\nL 3\nA 2 0 1\n"
        tracemalloc.start()
        try:
            circuit = read_nnf(text)
            decomposable = check_decomposable(circuit)[0]
            count = count_models(circuit, {3, 10**9})
            varsets = circuit.varsets
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decomposable and count == 1
        assert varsets[2] == {3, 10**9}
        assert peak < 1_000_000

    def test_shared_variables_report_the_smallest(self):
        b = CircuitBuilder()
        left = b.and_([b.literal(7), b.literal(3)])
        right = b.and_([b.literal(-7), b.literal(5), b.literal(-3)])
        top = b.and_([left, right])
        circuit = b.build(top)
        reason = "and-gate children share variable 3"
        assert check_decomposable(circuit) == (False, Violation(top, reason))
        with pytest.raises(CircuitPropertyError, match=f"gate {top}, {reason}"):
            count_models(circuit, {3, 5, 7})

    @pytest.mark.parametrize("hi,lo", [(0, 1), (2, 0)])
    def test_reused_decision_variable(self, hi, lo):
        # gates x2, true, x5, then a decision on 2 with x2 as one branch
        gates = [("L", 2), ("T",), ("L", 5), ("D", 2, hi, lo)]
        circuit = NnfCircuit(gates, 3)
        reason = "decision variable 2 reappears in a branch"
        assert check_decomposable(circuit) == (False, Violation(3, reason))
        with pytest.raises(CircuitPropertyError, match=f"gate 3, {reason}"):
            count_models(circuit, {2, 5})


class TestMemory:
    def test_a_counted_circuit_keeps_linear_memory(self):
        """After a count the circuit keeps one variable count per gate, not
        a variable set: a chain's sets would hold Θ(n) bits per gate."""
        formula = chain_cnf(4000)
        circuit, _ = compile_cnf(formula)
        tracemalloc.start()
        try:
            count = count_models(circuit, formula.variables)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        a, b = 1, 2  # a positive chain over k variables has Fibonacci(k + 2) models
        for _ in range(3999):
            a, b = b, a + b
        assert count == b
        assert kept < 100 * circuit.size, kept / circuit.size

    def test_wide_clause_trace_round_trip(self):
        width = 1000
        formula = CnfFormula.from_ints([range(1, width + 1)])
        tracemalloc.start()
        try:
            text = write_nnf(trace_to_circuit(formula))
            count = count_models(read_nnf(text), formula.variables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 2**width - 1
        assert peak < 12_000_000


class TestPrune:
    def test_reachable_circuits_are_returned_as_they_are(self, fstar):
        rng = random.Random(5)
        formulas = [fstar] + [random_beta_acyclic_cnf(rng) for _ in range(40)]
        for formula in formulas:
            compiled = compile_cnf(formula)[0]
            traced = search(formula, OrderStrategy.reverse_beta_elimination(), trace=True)[2]
            for circuit in (compiled, traced, read_nnf(write_nnf(traced))):
                assert prune_unreachable(circuit) is circuit
                # the mark is right: an unmarked copy loses no gate either
                assert prune_unreachable(NnfCircuit(circuit.gates, circuit.output)) == circuit

    def test_unreachable_gates_are_dropped(self):
        circuit = NnfCircuit([("L", 1), ("L", -1), ("L", 2), ("A", (0, 2))], 3)
        assert prune_unreachable(circuit) == NnfCircuit([("L", 1), ("L", 2), ("A", (0, 1))], 2)
        assert prune_unreachable(circuit.root_at(2)) == NnfCircuit([("L", 2)], 0)


def random_gate_objects(rng: random.Random) -> tuple[list, int]:
    """A gate list of the reference's gate objects with int fields, and an
    output index. Children, literals, decision variables and the output are
    each out of range now and then."""
    ref = gate_reference
    gates = []
    for i in range(rng.randint(1, 6)):
        child = lambda: rng.randrange(i) if i and rng.random() < 0.93 else rng.randint(-2, i + 1)
        kind = rng.randrange(6)
        if kind == 0:
            gates.append(ref.LiteralGate(rng.choice((-3, -2, -1, 0, 1, 2, 3))))
        elif kind in (1, 2):
            gates.append(ref.TrueGate() if kind == 1 else ref.FalseGate())
        elif kind in (3, 4):
            kids = tuple(child() for _ in range(rng.randint(0, 3)))
            gates.append(ref.AndGate(kids) if kind == 3 else ref.OrGate(kids))
        else:
            x = rng.randint(1, 4) if rng.random() < 0.85 else rng.randint(-2, 0)
            gates.append(ref.DecisionGate(x, child(), child()))
    return gates, rng.randint(-1, len(gates)) if rng.random() < 0.1 else len(gates) - 1


class TestConstructorCheck:
    """`NnfCircuit(...)` checks a gate list from outside: the same verdicts
    and messages as the check on gate objects, and a non-gate is refused."""

    def test_matches_the_gate_object_check(self):
        def verdict(make):
            try:
                make()
            except ValueError as error:
                return str(error)
            return None

        rng = random.Random(16)
        seen = Counter()
        for _ in range(20_000):
            gates, output = random_gate_objects(rng)
            expected = verdict(lambda: gate_reference.NnfCircuit(gates, output))
            got = verdict(lambda: NnfCircuit(map(gate_reference.as_tuple, gates), output))
            assert got == expected, (gates, output)
            seen[expected and expected.split()[0]] += 1
        # every verdict is met often: accepted, and each of the four refusals
        assert len(seen) == 5 and min(seen.values()) > 500, seen

    def test_builder_and_reader_circuits_are_not_checked_again(self, monkeypatch):
        checked = []
        monkeypatch.setattr(circuit_mod, "_check_gates", lambda *args: checked.append(args))
        formula = parse_dimacs(FSTAR_DIMACS)
        compiled = compile_cnf(formula)[0]
        trace_to_circuit(formula)
        read = read_nnf(write_nnf(compiled))
        condition(read, lits({1: 1}))
        prune_unreachable(read.root_at(read.output - 1))
        assert len(checked) == 1  # `root_at`, from outside the builder and the reader
        NnfCircuit(read.gates, read.output)
        assert len(checked) == 2

    @pytest.mark.parametrize("gate", [
        pytest.param(object(), id="not-a-tuple"),
        pytest.param((), id="empty-tuple"),
        pytest.param(("X", 0), id="unknown-tag"),
        pytest.param(("D", 1, 0), id="wrong-length"),
        pytest.param(("L", "1"), id="non-int-field"),
        pytest.param(("L", True), id="bool-field"),
        pytest.param(("A", [0]), id="children-not-a-tuple"),
        pytest.param(("O", (0, 0.0)), id="non-int-child"),
    ])
    def test_refuses_a_non_gate_by_its_index(self, gate):
        with pytest.raises(ValueError, match=r"^gate 1 is not one of the six gate forms"):
            NnfCircuit([("L", 1), gate, ("A", (0, 1))], 2)


class GateReads(tuple):
    """A gate tuple that records each gate read, by index or by iteration."""

    def __new__(cls, gates, reads: list):
        self = super().__new__(cls, gates)
        self.reads = reads
        return self

    def __getitem__(self, i):
        self.reads.append(i)
        return tuple.__getitem__(self, i)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class TestKeptFacts:
    """A circuit keeps its structural verdicts and each gate's variable
    count, so the counter and the checks share one mask pass between them,
    and a pruned circuit is not walked again."""

    @staticmethod
    def counted(monkeypatch, name):
        calls, original = [], getattr(circuit_mod, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(circuit_mod, name, counting)
        return calls

    @pytest.mark.parametrize("count_first", [True, False])
    def test_count_and_checks_share_masks_and_verdicts(self, monkeypatch, count_first):
        masks = self.counted(monkeypatch, "_variable_masks")
        scans = self.counted(monkeypatch, "_decomposability_violation")
        formula = parse_dimacs(FSTAR_DIMACS)
        circuit, _ = compile_cnf(formula)
        checks = lambda: (check_decomposable(circuit), check_decision(circuit))
        if not count_first:
            assert checks() == ((True, None), (True, None))
        assert count_models(circuit, formula.variables) == 13
        assert checks() == ((True, None), (True, None))
        assert count_models(circuit, formula.variables) == 13
        assert is_satisfiable(circuit)[0]
        assert len(masks) == 1 and len(scans) == 1

    def test_failed_decomposability_still_refuses_the_count(self):
        b = CircuitBuilder()
        top = b.and_([b.literal(1), b.literal(-1)])
        circuit = b.build(top)
        verdict = (False, Violation(top, "and-gate children share variable 1"))
        assert check_decomposable(circuit) == verdict
        for _ in range(2):
            with pytest.raises(CircuitPropertyError, match=f"not decomposable: gate {top}"):
                count_models(circuit, {1})
        assert check_decomposable(circuit) == verdict
        with pytest.raises(CircuitPropertyError):
            is_satisfiable(circuit)

    def test_failed_decision_check_still_refuses_the_count(self):
        b = CircuitBuilder()
        top = b.or_([b.literal(1), b.literal(2)])
        circuit = b.build(top)
        verdict = (False, Violation(top, "or-gate is not a decision gate"))
        assert check_decision(circuit) == verdict
        for _ in range(2):
            with pytest.raises(CircuitPropertyError, match=f"not a decision circuit: gate {top}"):
                count_models(circuit, {1, 2})
        assert check_decision(circuit) == verdict

    def test_write_does_not_walk_a_compiled_circuit_again(self):
        rng = random.Random(23)
        formulas = [parse_dimacs(FSTAR_DIMACS)] + [random_beta_acyclic_cnf(rng) for _ in range(20)]
        compiled = [compile_cnf(formula)[0] for formula in formulas]
        strategy = OrderStrategy.reverse_beta_elimination()
        compiled += [search(formula, strategy, trace=True)[2] for formula in formulas]  # and traces
        # an equal circuit that nothing has marked is walked as before
        expected = [write_nnf(NnfCircuit(c.gates, c.output)) for c in compiled]
        with open(os.path.join(GOLDEN, "fstar.nnf")) as handle:
            assert expected[0] == handle.read()
        for circuit, text in zip(compiled, expected):
            reads = []
            circuit.gates = GateReads(circuit.gates, reads)
            assert write_nnf(circuit) == text
            assert len(reads) == circuit.size  # one read per gate written, and no walk

    def test_pruning_marks_its_result(self):
        circuit = NnfCircuit([("L", 1), ("L", -1), ("L", 2), ("A", (0, 2))], 3)
        pruned = prune_unreachable(circuit)
        reads = []
        pruned.gates = GateReads(pruned.gates, reads)
        assert prune_unreachable(pruned) is pruned and not reads
        assert write_nnf(pruned) == write_nnf(circuit)


# A builder call: (method, argument). Children, branches and the integers of
# "and_decision" are positions in the list of ids returned so far.
BUILDER_CALLS = st.lists(st.one_of(
    st.tuples(st.just("literal"), st.integers(1, 6).flatmap(lambda v: st.sampled_from((v, -v)))),
    st.tuples(st.sampled_from(("true", "false")), st.none()),
    st.tuples(st.sampled_from(("and_", "or_", "and_or")), st.lists(st.integers(0, 40), max_size=5)),
    st.tuples(st.just("decision"), st.tuples(st.integers(1, 6), st.integers(0, 40), st.integers(0, 40))),
    st.tuples(st.just("and_decision"), st.tuples(*[st.integers(0, 40)] * 3)),
), max_size=40)


def drive(builder, calls) -> list[int]:
    """Run the calls on the builder, starting from one literal; returns every
    id the builder gave."""
    ids = [builder.literal(1)]
    for method, arg in calls:
        pick = lambda positions: [ids[p % len(ids)] for p in positions]
        if method == "literal":
            ids.append(builder.literal(arg))
        elif method in ("true", "false"):
            ids.append(getattr(builder, method)())
        elif method in ("and_", "or_"):
            ids.append(getattr(builder, method)(pick(arg)))
        elif method == "and_or":  # an and-gate and an or-gate over the same children
            ids += [builder.and_(pick(arg)), builder.or_(pick(arg))]
        elif method == "decision":
            ids.append(builder.decision(arg[0], *pick(arg[1:])))
        else:  # a three-child and-gate, and a decision on the same three integers
            x, hi, lo = pick(arg)
            ids += [builder.and_([x, hi, lo]), builder.decision(max(x, 1), hi, lo)]
    return ids


class TestBuilderAgainstReference:
    """The tuple builder against the builder that keyed gate objects, through
    the map from each gate object to its tuple."""

    @given(BUILDER_CALLS)
    @example([("literal", 1), ("and_", [0, 0, 1, 1]), ("and_", []), ("and_", [1]), ("or_", []),
              ("or_", [2, 2]), ("and_or", [0, 1]), ("and_or", [1, 0]), ("literal", -2),
              ("and_decision", [1, 2, 3]), ("and_decision", [1, 2, 3]), ("decision", (1, 0, 0))])
    def test_same_ids_and_circuits(self, calls):
        builder, reference = CircuitBuilder(), builder_reference.CircuitBuilder()
        ids = drive(builder, calls)
        assert ids == drive(reference, calls)
        assert len(builder) == len(reference)
        assert [builder.gate(i) for i in range(len(builder))] == [
            gate_reference.as_tuple(reference.gate(i)) for i in range(len(reference))]
        for i in set(ids):
            expected = reference.build(i)
            # the public constructor checks the builder's gates and accepts them
            assert builder.build(i) == NnfCircuit(map(gate_reference.as_tuple, expected.gates), expected.output)


INT = st.one_of(st.integers(-3, 12), st.integers(-10**30, 10**30),
                st.sampled_from(["x", "1.5", "", "+2", "\u0663", "9" * 5000]))


@st.composite
def nnf_texts(draw):
    """NNF-like text: good and bad headers; L, T, F, A, O and D lines with
    random and out-of-range integers, wrong fan-in counts and forward or
    negative child references; comments, blank lines, unknown lines,
    non-ASCII characters and CRLF line ends."""
    field = lambda: st.builds(str, INT)
    header = st.one_of(
        st.builds("nnf {} {} {}".format, field(), field(), field()),
        st.builds("nnf {} {} {}".format, st.integers(0, 8), st.integers(0, 12), st.integers(0, 6)),
        st.sampled_from(["nnf 1 0", "nnf 1 0 1 1", "cnf 1 0 1", "nnf", "NNF 1 0 1", "nnf\u00e9 1 0 1"]),
    )
    children = st.lists(field(), max_size=4)
    gate = st.one_of(
        st.builds("L {}".format, field()),
        st.sampled_from(["T", "F", "T 1", "F x", "L", "D 1 0", "A", "O", "X 1", "\u00e9"]),
        st.builds(lambda kind, count, kids: " ".join([kind, count, *kids]),
                  st.sampled_from(["A", "O"]),
                  st.one_of(field(), st.sampled_from(["0", "1", "2"])), children),
        st.builds(lambda kind, kids: " ".join([kind, str(len(kids)), *kids]),
                  st.sampled_from(["A", "O"]), st.lists(st.builds(str, st.integers(-1, 6)), max_size=3)),
        st.builds("D {} {} {}".format, field(), field(), field()),
        st.builds("D {} {} {}".format, st.integers(0, 6), st.integers(-1, 6), st.integers(-1, 6)),
    )
    comment = st.builds("c{}".format, st.text(max_size=5))
    line = st.one_of(gate, gate, comment, st.sampled_from(["", "  ", "\t"]))
    lines = draw(st.lists(line, max_size=3)) + [draw(header)] + draw(st.lists(line, max_size=10))
    if draw(st.booleans()):  # a well-formed file, with one line replaced by chance
        body, edges = [], 0
        for k in range(draw(st.integers(1, 10))):
            kind = draw(st.sampled_from("LTF" if k == 0 else "LTFAOD"))
            kids = draw(st.lists(st.integers(0, k - 1), min_size=2 if kind == "D" else 0,
                                 max_size=2 if kind == "D" else 3)) if k else []
            edges += len(kids)
            body.append({"L": f"L {draw(st.sampled_from([1, -1, 2, -2, 3]))}", "T": "T", "F": "F",
                         "D": f"D {draw(st.integers(1, 3))} {kids[0] if kids else 0} {kids[-1] if kids else 0}",
                         }.get(kind, " ".join(map(str, [kind, len(kids), *kids]))))
            if draw(st.integers(0, 5)) == 0:
                body.append(draw(comment))
        lines = [f"nnf {sum(l[0] in 'LTFAOD' for l in body)} {edges} 3"] + body
        if draw(st.booleans()):
            lines[draw(st.integers(0, len(lines) - 1))] = draw(line)
    indent = st.sampled_from(["", " ", "\t", "\xa0"])
    return draw(st.sampled_from(["\n", "\r\n"])).join(draw(indent) + l for l in lines) + "\n"


def read_outcome(read, data):
    """The gates and output read, or the error's type, message and line."""
    try:
        circuit = read(data)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return "ok", circuit.gates, circuit.output


class TestNnfFuzz:
    @given(nnf_texts(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_read_raises_only_value_errors(self, text, as_bytes):
        try:
            circuit = read_nnf(text.encode("utf-8") if as_bytes else text)
        except ValueError:  # NnfParseError, and UnicodeDecodeError for bytes
            return
        assert read_nnf(write_nnf(circuit)) == prune_unreachable(circuit)

    @given(nnf_texts(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_read_matches_the_reference(self, text, as_bytes):
        data = text.encode("utf-8") if as_bytes else text
        assert read_outcome(read_nnf, data) == read_outcome(nnf_reference.read_nnf, data)

    def test_read_matches_the_reference_on_compiled_pool(self):
        rng = random.Random(20250810)
        for _ in range(500):
            text = write_nnf(compile_cnf(random_beta_acyclic_cnf(rng, max_vars=16, max_clauses=30))[0])
            got = read_outcome(read_nnf, text)
            assert got[0] == "ok" and got == read_outcome(nnf_reference.read_nnf, text)

    @given(nnf_texts())
    @settings(max_examples=100, deadline=None)
    def test_verify_exits_with_a_code(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.nnf")
            with open(path, "wb") as handle:
                handle.write(text.encode("utf-8"))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["verify", path])
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
