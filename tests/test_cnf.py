import gc
import itertools
import random
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadnnf import (
    Clause,
    CnfFormula,
    brute_force_count,
    falsifying_assignment,
    hypergraph_of,
    parse_dimacs,
    write_dimacs,
)
from betadnnf import cnf as cnf_mod
from betadnnf.circuit import condition, evaluate
from betadnnf.errors import CapExceededError, DimacsParseError
from betadnnf.lowerbounds import Rectangle, min_rectangle_cover

import dimacs_reference
from conftest import FSTAR_DIMACS, FSTAR_EDGES, build_fig3, lits


def clause_set(formula):
    return {c.sorted_literals() for c in formula.clauses}


class TestParse:
    def test_single_clause(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0")
        assert clause_set(f) == {(1, -2)}

    def test_tautology_dropped_with_warning(self):
        with pytest.warns(UserWarning):
            f = parse_dimacs("p cnf 1 1\n1 -1 0")
        assert len(f.clauses) == 0

    def test_tautology_strict_mode(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p cnf 1 1\n1 -1 0", strict=True)

    def test_worked_example(self, fstar):
        assert len(fstar.clauses) == 5
        assert fstar.size == 11
        assert fstar.variables == frozenset(range(1, 6))

    def test_duplicate_clauses_and_literals_collapse(self):
        f = parse_dimacs("p cnf 2 3\n1 2 0\n2 1 0\n1 1 2 0\n")
        assert len(f.clauses) == 1

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert clause_set(f) == {(1, 2, 3)}

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p dnf 2 1\n1 0\n", 1),
            ("p cnf x 1\n1 0\n", 1),
            ("p cnf 2 1\n3 0\n", 2),
            ("p cnf 2 1\n1 2\n", 2),
            ("1 0\n", 1),
            ("p cnf -1 0\n", 1),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(DimacsParseError) as err:
            parse_dimacs(text)
        assert err.value.line == line

    def test_roundtrip_is_identity(self, fstar):
        assert parse_dimacs(write_dimacs(fstar)) == fstar
        assert write_dimacs(fstar) == FSTAR_DIMACS

    def test_line_cap_is_4096_bytes(self):
        fill = "c " + "x" * 4092  # 4094 characters
        f = parse_dimacs(f"p cnf 1 1\n{fill}  \n1 0\n")
        assert clause_set(f) == {(1,)}
        with pytest.raises(DimacsParseError, match="longer than 4096 bytes") as err:
            parse_dimacs(f"p cnf 1 1\n{fill}   \n1 0\n")
        assert err.value.line == 2

    def test_non_ascii_character_counts_one_byte(self):
        # 4096 characters, though 4097 bytes in UTF-8
        f = parse_dimacs("p cnf 1 1\nc \u00e9" + "x" * 4093 + "\n1 0\n")
        assert clause_set(f) == {(1,)}
        with pytest.raises(DimacsParseError) as err:
            parse_dimacs("p cnf 1 1\nc \u00e9" + "x" * 4094 + "\n1 0\n")
        assert err.value.line == 2


class TestClause:
    def test_variables_built_once_and_not_compared(self):
        c = Clause([3, -1])
        assert c.variables == frozenset({1, 3}) and c.variables is c.variables
        assert c == Clause([-1, 3]) and hash(c) == hash(Clause([-1, 3]))
        assert repr(c) == "Clause([-1, 3])"

    @pytest.mark.parametrize("lits, message", [
        ([1, 0], "0 is not a literal"),
        ([2, -2], "tautological or duplicated variable 2 in clause"),
        (["x"], "invalid literal"),
    ])
    def test_rejects(self, lits, message):
        with pytest.raises(ValueError, match=message):
            Clause(lits)


class TestSortedClauses:
    def test_sorted_once_in_canonical_order(self, monkeypatch):
        """Clauses by their literals l as 2|l| + (l < 0); the first call sorts, each later one copies."""
        rng = random.Random(4)
        formulas = [CnfFormula.from_ints(
            [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 7), rng.randint(1, 4))]
             for _ in range(rng.randint(0, 8))]) for _ in range(200)]
        key = lambda c: tuple(sorted(2 * abs(l) + (l < 0) for l in c.literals))
        for formula in formulas:
            assert formula.sorted_clauses() == sorted(formula.clauses, key=key)
        monkeypatch.setattr(cnf_mod, "sorted", lambda *a, **k: pytest.fail("sorted again"), raising=False)
        for formula in formulas:
            first = formula.sorted_clauses()
            first.reverse()
            assert formula.sorted_clauses() == first[::-1]


class TestClauseStore:
    def test_the_parse_leaves_the_collector_almost_nothing(self):
        """A parsed chain of 3,200 variables keeps its clauses as tuples of
        ints, which the collector stops tracking: a full collection after the
        parse finds at most 10 more tracked objects, not three per clause."""
        n = 3200
        text = f"p cnf {n} {n - 1}\n" + "".join(f"{i} {i + 1} 0\n" for i in range(1, n))
        gc.collect()
        before = len(gc.get_objects())
        formula = parse_dimacs(text)
        gc.collect()
        assert len(gc.get_objects()) - before <= 10
        assert len(formula) == n - 1 and formula.size == 2 * (n - 1)

    def test_facts_are_kept_and_clauses_built_on_request(self, fstar):
        assert fstar.variables is fstar.variables and fstar.size is fstar.size
        assert fstar.clauses is fstar.clauses and clause_set(fstar) == set(fstar._store)
        assert fstar == CnfFormula(fstar.clauses) == CnfFormula.from_ints(fstar._store)
        assert hash(fstar) == hash(CnfFormula(fstar.sorted_clauses()))
        assert [c.sorted_literals() for c in fstar.sorted_clauses()] == list(fstar._sorted)


class TestRestrict:
    def test_worked_example(self, fstar):
        got = fstar.restrict(lits({5: 0}))
        assert clause_set(got) == {(1, 2), (3, 4), (2,), (4,), (2, 4)}

    def test_empty_assignment_is_identity(self, fstar):
        assert fstar.restrict(lits()) == fstar

    def test_falsified_clause_becomes_empty(self):
        f = CnfFormula.from_ints([[1, 2]])
        got = f.restrict(lits({1: 0, 2: 0}))
        assert got.has_empty_clause()

    def test_size_never_grows(self, fstar):
        for bits in itertools.product((0, 1), repeat=3):
            tau = lits(zip((1, 3, 5), bits))
            assert fstar.restrict(tau).size <= fstar.size


class TestFalsifyingAssignment:
    def test_plain(self):
        tau = falsifying_assignment(Clause([1, -3]))
        assert tau == lits({1: 0, 3: 1})

    def test_never_satisfies_and_binds_exactly_clause_vars(self):
        for lits in ([1, 2], [-1, 3], [-2], [1, -4, 5]):
            c = Clause(lits)
            tau = falsifying_assignment(c)
            assert {abs(l) for l in tau} == c.variables
            assert tau.isdisjoint(c.literals)


class TestHypergraphOf:
    def test_worked_example(self, fstar):
        assert hypergraph_of(fstar).edges == frozenset(FSTAR_EDGES.values())

    def test_equal_variable_sets_merge(self):
        f = CnfFormula.from_ints([[1, 2], [-1, -2]])
        assert hypergraph_of(f).edges == frozenset({frozenset({1, 2})})

    def test_empty_formula(self):
        assert len(hypergraph_of(CnfFormula([]))) == 0

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            hypergraph_of(CnfFormula([Clause([])]))


class TestBruteForce:
    def test_single_clause(self):
        assert brute_force_count(CnfFormula.from_ints([[1, 2]]), {1, 2}) == 3

    def test_worked_example(self, fstar):
        assert brute_force_count(fstar, range(1, 6)) == 13

    def test_empty_formula_over_empty_set(self):
        assert brute_force_count(CnfFormula([]), set()) == 1

    def test_free_variables_double(self):
        assert brute_force_count(CnfFormula.from_ints([[1]]), {1, 2, 3}) == 4

    def test_cap_refusal(self):
        f = CnfFormula.from_ints([[1]])
        with pytest.raises(CapExceededError) as err:
            brute_force_count(f, range(1, 30), cap=24)
        assert "24" in str(err.value)

    def test_requires_covering_variable_set(self):
        f = CnfFormula.from_ints([[1, 2]])
        with pytest.raises(ValueError, match="2"):
            brute_force_count(f, {1})

    def test_matches_naive_enumeration(self, fstar):
        variables = sorted(fstar.variables)
        naive = sum(
            fstar.evaluate(lits(zip(variables, bits)))
            for bits in itertools.product((0, 1), repeat=len(variables))
        )
        assert brute_force_count(fstar, variables) == naive == 13


class TestEvaluate:
    def test_all_ones(self, fstar):
        assert fstar.evaluate(lits({v: 1 for v in range(1, 6)})) == 1

    def test_all_zeros(self, fstar):
        assert fstar.evaluate(lits({v: 0 for v in range(1, 6)})) == 0

    def test_mixed(self, fstar):
        assert fstar.evaluate(lits({1: 0, 2: 1, 3: 1, 4: 1, 5: 0})) == 1

    def test_unbound_variable_named(self, fstar):
        with pytest.raises(ValueError, match="3"):
            fstar.evaluate(lits({1: 1, 2: 1, 4: 1, 5: 1}))


FIG3 = build_fig3()
TAKES_A_LITERAL_SET = {
    "restrict": CnfFormula.from_ints([[1, 3]]).restrict,
    "formula-evaluate": CnfFormula.from_ints([[1, 3]]).evaluate,
    "circuit-evaluate": lambda tau: evaluate(FIG3, tau),
    "condition": lambda tau: condition(FIG3, tau),
    "rectangle": lambda tau: Rectangle({1}, {3}, [tau]),
    "rectangle-cover": lambda tau: min_rectangle_cover([tau], {1}, {3}),
}


class TestLiteralSetValidation:
    """Every public entry point that takes a partial assignment, a set of
    true literals, refuses the literal 0 and a variable given both signs."""

    @pytest.mark.parametrize("entry", sorted(TAKES_A_LITERAL_SET))
    @pytest.mark.parametrize("tau,message", [
        ({0, 1}, "0 is not a literal"),
        ({1, 3, -3}, "variable 3 is both true and false"),
    ], ids=["zero", "both-signs"])
    def test_rejects(self, entry, tau, message):
        with pytest.raises(ValueError, match=message):
            TAKES_A_LITERAL_SET[entry](frozenset(tau))


@st.composite
def small_formulas(draw, max_vars=5, max_clauses=6):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    lit = st.builds(lambda v, s: v if s else -v,
                    st.integers(min_value=1, max_value=n), st.booleans())

    def dedupe(lits):
        by_var = {}
        for l in lits:
            by_var.setdefault(abs(l), l)
        return list(by_var.values())

    clause = st.lists(lit, min_size=1, max_size=4).map(dedupe)
    clause_lists = draw(st.lists(clause, min_size=0, max_size=max_clauses))
    return n, CnfFormula.from_ints(clause_lists)


@given(small_formulas(), st.integers(min_value=0))
@settings(max_examples=120, deadline=None)
def test_restriction_soundness(data, salt):
    """Evaluating the residual equals evaluating the original on the union."""
    n, formula = data
    variables = list(range(1, n + 1))
    bound = [v for v in variables if (salt >> v) & 1]
    tau = lits({v: (salt >> (v + 8)) & 1 for v in bound})
    residual = formula.restrict(tau)
    free = [v for v in variables if v not in bound]
    for bits in itertools.product((0, 1), repeat=len(free)):
        sigma = lits(zip(free, bits))
        on_residual = frozenset(l for l in sigma | tau if abs(l) in residual.variables)
        assert residual.evaluate(on_residual) == formula.evaluate(tau | sigma)
    assert residual.size <= formula.size


@given(small_formulas())
@settings(max_examples=80, deadline=None)
def test_parse_serialize_roundtrip(data):
    _, formula = data
    assert parse_dimacs(write_dimacs(formula)) == formula


SPACE = st.sampled_from([" ", "  ", "\t", "\xa0", "\x0b", "\r"])
TOKEN = st.one_of(
    st.integers(min_value=-9, max_value=9).map(str),
    st.sampled_from(["0", "00", "+2", "-0", "x", "1.5", "--1", "c", "c1", "p", "\u0663", "\u00e9"]),
)


@st.composite
def dimacs_texts(draw):
    """DIMACS-like text: good and bad headers, comments, blank lines,
    clauses across lines or several to a line, bad tokens, tautologies
    and lines at and past the length cap."""
    header = st.builds(
        "{}{}{}".format,
        st.sampled_from(["", " ", "\t"]),
        st.one_of(
            st.builds("p cnf {} {}".format, st.integers(-1, 9), st.integers(0, 9)),
            st.sampled_from(["p cnf 3", "p dnf 3 2", "p cnf x 2", "p cnf 3 y", "pcnf 3 2",
                             "p cnf 3 2 1", "p  cnf 4 1"]),
        ),
        st.sampled_from(["", " ", "\xa0"]),
    )
    clause = st.builds(
        lambda tokens, gaps, lead: lead + "".join(g + t for g, t in zip(gaps, tokens)),
        st.lists(TOKEN, max_size=8), st.lists(SPACE, min_size=8, max_size=8),
        st.sampled_from(["", " ", "\t"]),
    )
    comment = st.builds("{}c{}".format, st.sampled_from(["", "  "]), st.text(max_size=6))
    long_line = st.builds(lambda lead, k, tail: lead + "x" * k + tail,
                          st.sampled_from(["c ", "c \u00e9", "1 "]),
                          st.sampled_from([4092, 4093, 4094, 4095]), st.sampled_from(["", " 0"]))
    line = st.one_of(header, clause, comment, st.sampled_from(["", "   ", "\t"]), long_line)
    first = draw(st.one_of(header, st.just("")))
    lines = [first] + draw(st.lists(line, max_size=10))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(parse, text, strict):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text, strict)
        except ValueError as exc:  # DimacsParseError and UnicodeDecodeError are ValueErrors
            result = (type(exc), str(exc), getattr(exc, "line", None))
    return result, [(w.category, str(w.message)) for w in caught]


@given(dimacs_texts(), st.booleans(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_parse_dimacs_matches_reference(text, strict, as_bytes):
    if as_bytes:
        text = text.encode("utf-8")

    def current(text, strict):
        f = parse_dimacs(text, strict)
        return frozenset(c.literals for c in f.clauses), f.declared_variables

    assert _outcome(current, text, strict) == _outcome(dimacs_reference.parse_dimacs, text, strict)


@st.composite
def block_texts(draw):
    """DIMACS text whose first line is a `p cnf` header, with no comment:
    mostly clauses alone, several clauses to a line or one across lines,
    and now and then a tautology, an out-of-range literal, a missing final
    0, a non-integer token or a line at or past the length cap."""
    num_vars = draw(st.integers(-1, 9))
    bound = max(num_vars, 1) + (draw(st.integers(0, 9)) == 0)  # sometimes past the range
    tokens = []
    for variables in draw(st.lists(st.lists(st.integers(1, bound), unique=True, max_size=4), max_size=8)):
        clause = [v if draw(st.booleans()) else -v for v in variables]
        if clause and draw(st.integers(0, 9)) == 0:
            clause.append(-clause[0])  # a tautology
        tokens += [draw(st.sampled_from([str(l), str(l), f"+{l}"])) if l > 0 else str(l) for l in clause]
        tokens.append(draw(st.sampled_from(["0", "0", "0", "00", "-0"])))
    if tokens and draw(st.integers(0, 9)) == 0:
        tokens.pop()  # a missing final 0, or a clause's 0 when that clause was empty
    if draw(st.integers(0, 19)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(["x", "1.5", "c"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    gaps = draw(st.lists(st.sampled_from([" ", " ", "  ", "\t", newline, " " + newline]),
                         min_size=len(tokens), max_size=len(tokens)))
    if gaps and draw(st.integers(0, 9)):
        gaps[0] = newline  # mostly the header alone on its line
    body = "".join(g + t for g, t in zip(gaps, tokens))
    if draw(st.integers(0, 4)) == 0:  # a line of exactly k characters, the last ones "1 0"
        k = draw(st.sampled_from([4095, 4096, 4097]))
        body += newline + " " * (k - 3) + "1 0"
    header = f"{draw(st.sampled_from(['', ' ']))}p cnf {num_vars} {draw(st.integers(0, 9))}"
    return header + body + draw(st.sampled_from(["", newline]))


def test_parse_dimacs_block_pass_matches_reference(monkeypatch):
    """Texts with the header first and no comment: the block pass, and the
    line loop where it declines, give the reference's clauses, declared
    count, errors, warnings and line numbers, and the clauses the block
    pass builds equal, hash and print as `Clause` does, in text order."""
    reached = Counter()
    block = cnf_mod._block_formula

    def counted(text, lines):
        try:
            found = block(text, lines)
        except ValueError:
            reached["line loop"] += 1
            raise
        reached["block pass"] += 1
        return found

    monkeypatch.setattr(cnf_mod, "_block_formula", counted)

    @given(block_texts(), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def check(text, strict, as_bytes):
        data = text.encode("ascii") if as_bytes else text

        def current(data, strict):
            f = parse_dimacs(data, strict)
            return frozenset(c.literals for c in f.clauses), f.declared_variables

        assert _outcome(current, data, strict) == _outcome(dimacs_reference.parse_dimacs, data, strict)
        try:
            block(text, text.splitlines())
        except ValueError:
            return
        f = parse_dimacs(data, strict)
        for c in f.clauses:
            same = Clause(c.literals)
            assert c == same and hash(c) == hash(same) and repr(c) == repr(same)
            assert c.variables == same.variables
        # a comment after the header sends the text through the line loop
        looped = parse_dimacs(text.replace("\n", "\nc\n", 1) if "\n" in text else text + "\nc")
        assert list(f.clauses) == list(looped.clauses)

    check()
    assert reached["block pass"] and reached["line loop"], reached
