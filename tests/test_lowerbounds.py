import itertools
import random

import pytest

from betadnnf import (
    Clause,
    CnfFormula,
    hat,
    hat_preserves_beta,
    incidence_graph,
    is_rectangle,
    min_rectangle_cover,
    mimw_of_decomposition,
    exact_mimw,
)
from betadnnf.errors import BudgetExceededError, CapExceededError, NotBetaAcyclicError
from betadnnf.generators import random_beta_acyclic_cnf, random_beta_acyclic_hypergraph
from betadnnf.lowerbounds import (
    BranchDecomposition,
    Graph,
    Rectangle,
    hat_order,
    max_induced_matching_in_cut,
    parse_branch_decomposition,
    parse_graph,
    write_branch_decomposition,
    write_graph,
)

from conftest import lits

SQUARE_WITH_DIAGONAL = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])


def balanced_tree(labels):
    leaves = [BranchDecomposition.leaf(l) for l in labels]
    while len(leaves) > 1:
        leaves = [
            BranchDecomposition.node(a, b) if b is not None else a
            for a, b in itertools.zip_longest(leaves[::2], leaves[1::2])
        ]
    return leaves[0]


class TestIncidenceGraph:
    def test_worked_example(self, fstar):
        graph = incidence_graph(fstar)
        assert len(graph.vertices) == 10
        assert len(graph.edges) == 11

    def test_empty_formula(self):
        graph = incidence_graph(CnfFormula([]))
        assert len(graph.vertices) == 0 and len(graph.edges) == 0

    def test_unit_clause(self):
        graph = incidence_graph(CnfFormula.from_ints([[1]]))
        assert len(graph.edges) == 1


class TestInducedMatching:
    def test_distinguished_cut_has_width_one(self):
        # the candidate pair {1,4},{2,3} is spoiled by the cut edge 1-3
        assert max_induced_matching_in_cut(SQUARE_WITH_DIAGONAL, {1, 2}, {3, 4}) == 1

    def test_brute_force_cross_check(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(2, 7)
            vertices = list(range(1, n + 1))
            edges = {frozenset(p) for p in itertools.combinations(vertices, 2)
                     if rng.random() < 0.4}
            graph = Graph(vertices, edges)
            left = {v for v in vertices if rng.random() < 0.5}
            right = set(vertices) - left
            cut = graph.cut(left, right)
            cut_set = set(cut)
            best = 0
            for k in range(len(cut), 0, -1):
                for combo in itertools.combinations(cut, k):
                    ok = all(
                        not (e & f)
                        and not any(frozenset((u, v)) in cut_set for u in e for v in f)
                        for e, f in itertools.combinations(combo, 2)
                    )
                    if ok:
                        best = k
                        break
                if best:
                    break
            assert max_induced_matching_in_cut(graph, left, right) == best

    def test_matching_number_depends_only_on_the_cut(self):
        # removing an edge inside one side leaves every cut computation intact
        smaller = SQUARE_WITH_DIAGONAL.without_edge((3, 4))
        assert (
            max_induced_matching_in_cut(smaller, {1, 2}, {3, 4})
            == max_induced_matching_in_cut(SQUARE_WITH_DIAGONAL, {1, 2}, {3, 4})
        )


class TestMimw:
    def test_decomposition_of_the_square(self):
        tree = parse_branch_decomposition("((1 2)(3 4))")
        assert mimw_of_decomposition(SQUARE_WITH_DIAGONAL, tree) == 1

    def test_single_vertex(self):
        graph = Graph([1], [])
        assert mimw_of_decomposition(graph, BranchDecomposition.leaf(1)) == 0

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_perfect_matching_split_along_the_matching(self, j):
        vertices = list(range(1, 2 * j + 1))
        edges = [(2 * i + 1, 2 * i + 2) for i in range(j)]
        graph = Graph(vertices, edges)
        left = [2 * i + 1 for i in range(j)]
        right = [2 * i + 2 for i in range(j)]
        assert max_induced_matching_in_cut(graph, left, right) == j
        tree = BranchDecomposition.node(balanced_tree(left), balanced_tree(right))
        assert mimw_of_decomposition(graph, tree) == j

    def test_leaves_must_match_vertices(self):
        with pytest.raises(ValueError):
            mimw_of_decomposition(SQUARE_WITH_DIAGONAL, parse_branch_decomposition("(1 2)"))

    def test_cap(self):
        vertices = list(range(1, 18))
        graph = Graph(vertices, [])
        with pytest.raises(CapExceededError):
            mimw_of_decomposition(graph, balanced_tree(vertices))


class TestExactMimw:
    def test_square_with_diagonal(self):
        width, tree = exact_mimw(SQUARE_WITH_DIAGONAL)
        assert width == 1
        assert mimw_of_decomposition(SQUARE_WITH_DIAGONAL, tree) == 1

    def test_edgeless(self):
        width, tree = exact_mimw(Graph([1, 2, 3], []))
        assert width == 0
        assert tree.leaf_set == frozenset({1, 2, 3})

    def test_single_edge(self):
        width, _ = exact_mimw(Graph([1, 2], [(1, 2)]))
        assert width == 1

    def test_never_beats_a_given_decomposition(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.randint(2, 6)
            vertices = list(range(1, n + 1))
            edges = {frozenset(p) for p in itertools.combinations(vertices, 2)
                     if rng.random() < 0.5}
            graph = Graph(vertices, edges)
            width, best = exact_mimw(graph)
            assert mimw_of_decomposition(graph, best) == width
            assert width <= mimw_of_decomposition(graph, balanced_tree(vertices))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            exact_mimw(Graph(range(1, 10), []))


def assignments(pairs):
    return [lits(p) for p in pairs]


class TestRectangles:
    def test_diagonal_is_not_a_rectangle(self):
        rect = Rectangle({1}, {2}, assignments([[(1, 0), (2, 0)], [(1, 1), (2, 1)]]))
        assert not is_rectangle(rect)

    def test_product_set_is_a_rectangle(self):
        sats = assignments(
            [[(1, 1), (2, 0)], [(1, 1), (2, 1)], [(1, 0), (2, 0)], [(1, 0), (2, 1)]]
        )
        assert is_rectangle(Rectangle({1}, {2}, sats))

    def test_empty_is_a_rectangle(self):
        assert is_rectangle(Rectangle({1}, {2}, []))

    def test_sides_must_partition(self):
        with pytest.raises(ValueError):
            Rectangle({1}, {1, 2}, [])


def matching_formula(k):
    """Conjunction of k disjoint two-variable clauses: (x_i or y_i)."""
    return CnfFormula.from_ints([[i, k + i] for i in range(1, k + 1)])


class TestMinRectangleCover:
    @pytest.mark.parametrize("k,expected", [(1, 2), (2, 4)])
    def test_matching_formula(self, k, expected):
        formula = matching_formula(k)
        left = set(range(1, k + 1))
        right = set(range(k + 1, 2 * k + 1))
        assert min_rectangle_cover(formula, left, right) == expected

    @pytest.mark.parametrize("k,least", [(1, 28), (2, 128), (3, 592)])
    def test_budget_counts_the_steps(self, k, least):
        """`least` steps answer and one fewer refuses."""
        formula = matching_formula(k)
        left, right = set(range(1, k + 1)), set(range(k + 1, 2 * k + 1))
        assert min_rectangle_cover(formula, left, right, budget=least) == 2**k
        with pytest.raises(BudgetExceededError, match=f"exceeded {least - 1} steps"):
            min_rectangle_cover(formula, left, right, budget=least - 1)

    def test_constant_false(self):
        formula = CnfFormula([Clause([]), Clause([1]), Clause([2])])
        assert min_rectangle_cover(formula, {1}, {2}) == 0

    def test_explicit_satisfying_set(self):
        sats = assignments([[(1, 0), (2, 0)], [(1, 1), (2, 1)]])
        assert min_rectangle_cover(sats, {1}, {2}) == 2

    def test_full_space_is_one_rectangle(self):
        assert min_rectangle_cover(CnfFormula([]), {1}, {2}) == 1

    def test_cap(self):
        with pytest.raises(CapExceededError):
            min_rectangle_cover(CnfFormula([]), set(range(1, 6)), set(range(6, 11)))

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError):
            min_rectangle_cover(CnfFormula([]), {1}, {1})


class TestHat:
    def test_single_clause(self):
        got = hat(CnfFormula.from_ints([[1, 2]]))
        assert {c.sorted_literals() for c in got.clauses} == {(1, 2, 3)}

    def test_worked_example(self, fstar):
        got = hat(fstar)
        assert len(got.clauses) == 5
        assert got.variables == frozenset(range(1, 11))
        assert all(len(c) == len(o) + 1 for c, o in zip(got.sorted_clauses(), fstar.sorted_clauses()))

    def test_empty_formula(self):
        assert hat(CnfFormula([])) == CnfFormula([])

    def test_preserves_beta_acyclicity(self, fstar):
        assert hat_preserves_beta(fstar)
        assert hat_preserves_beta(CnfFormula.from_ints([[1]]))

    def test_hat_order_lists_fresh_variables_first(self, fstar):
        order = hat_order(fstar)
        assert order.sequence == (6, 7, 8, 9, 10, 1, 2, 3, 4, 5)

    def test_requires_beta_acyclic_input(self):
        triangle = CnfFormula.from_ints([[1, 2], [2, 3], [1, 3]])
        with pytest.raises(NotBetaAcyclicError):
            hat_preserves_beta(triangle)

    def test_random_instances(self):
        rng = random.Random(41)
        for _ in range(25):
            formula = random_beta_acyclic_cnf(rng, max_vars=10, max_clauses=10)
            assert hat_preserves_beta(formula)

    def test_edge_count_bound(self):
        rng = random.Random(43)
        for _ in range(50):
            graph = random_beta_acyclic_hypergraph(rng)
            n = len(graph.vertices)
            assert len(graph) <= n * (n + 1) // 2


class TestFiles:
    def test_graph_roundtrip(self):
        text = write_graph(SQUARE_WITH_DIAGONAL)
        assert parse_graph(text).edges == SQUARE_WITH_DIAGONAL.edges

    def test_graph_comments(self):
        graph = parse_graph("# comment\n1 2\nc1 2 # mixed labels\n")
        assert frozenset(("c1", 2)) in graph.edges

    def test_branch_decomposition_roundtrip(self):
        tree = parse_branch_decomposition("((1 2)((3)(4)))")
        assert tree.leaf_set == frozenset({1, 2, 3, 4})
        again = parse_branch_decomposition(write_branch_decomposition(tree))
        assert again == tree

    def test_wide_groups_normalize_to_binary(self):
        tree = parse_branch_decomposition("(1 2 3)")
        assert not tree.is_leaf()
        assert tree.leaf_set == frozenset({1, 2, 3})

    def test_malformed(self):
        for bad, message in [
            ("", "unexpected end of input"),
            ("(", "missing ')'"),
            (")", "unexpected ')'"),
            ("1)", "trailing input after the decomposition"),
            ("(1 2", "missing ')'"),
            ("()", "empty group"),
            ("(1 2))", "trailing input after the decomposition"),
            ("(1 2) 3", "trailing input after the decomposition"),
            ("((1 1))", "leaf labels must be distinct"),
        ]:
            with pytest.raises(ValueError) as info:
                parse_branch_decomposition(bad)
            assert str(info.value) == message
