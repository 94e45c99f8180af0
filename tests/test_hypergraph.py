import itertools
import random

import pytest

from betadnnf.hypergraph import (
    EdgeOrder,
    EliminationOrder,
    Hypergraph,
    NotBetaAcyclic,
    beta_elimination_order,
    connected_components,
    decreasing_path,
    is_beta_acyclic,
    parse_hypergraph,
    satisfies_beta_condition,
    sub_hypergraph,
    write_hypergraph,
)
from betadnnf.generators import random_beta_acyclic_hypergraph

from conftest import FSTAR_EDGES, TRIANGLE, structural_property_failures

E1, E2, E3, E4, E5 = (FSTAR_EDGES[k] for k in ("e1", "e2", "e3", "e4", "e5"))
ORDER = EliminationOrder((1, 2, 3, 4, 5))


class TestEliminationOrder:
    def test_worked_example(self, fstar_hypergraph):
        got = beta_elimination_order(fstar_hypergraph)
        assert isinstance(got, EliminationOrder)
        assert got.sequence == (1, 2, 3, 4, 5)

    def test_triangle_is_not_beta_acyclic(self):
        got = beta_elimination_order(TRIANGLE)
        assert isinstance(got, NotBetaAcyclic)
        assert got.stuck_vertices == frozenset({1, 2, 3})
        # no permutation satisfies the elimination condition either
        for perm in itertools.permutations((1, 2, 3)):
            assert not satisfies_beta_condition(TRIANGLE, EliminationOrder(perm))

    def test_single_edge(self):
        got = beta_elimination_order(Hypergraph([{1, 2, 3}]))
        assert got.sequence == (1, 2, 3)

    def test_is_beta_acyclic(self, fstar_hypergraph):
        assert is_beta_acyclic(fstar_hypergraph)
        assert not is_beta_acyclic(TRIANGLE)
        assert is_beta_acyclic(Hypergraph([]))

    def test_verifier_agrees_with_exhaustive_search(self):
        """Greedy succeeds exactly when some order passes the checker."""
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 5)
            edges = set()
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(1, min(3, n))
                edges.add(frozenset(rng.sample(range(1, n + 1), size)))
            h = Hypergraph(edges)
            vertices = sorted(h.vertices)
            brute = any(
                satisfies_beta_condition(h, EliminationOrder(perm))
                for perm in itertools.permutations(vertices)
            )
            assert is_beta_acyclic(h) == brute


class TestEdgeOrder:
    def test_worked_example_sequence(self, fstar_hypergraph):
        eo = EdgeOrder(fstar_hypergraph, ORDER)
        assert eo.sort(fstar_hypergraph.edges) == [E1, E2, E3, E4, E5]

    def test_pair_comparison(self, fstar_hypergraph):
        eo = EdgeOrder(fstar_hypergraph, ORDER)
        # symmetric difference {1, 5} has its maximum inside {2, 5}
        assert eo.less(E1, E3)
        assert not eo.less(E3, E1)
        assert not eo.less(E1, E1)

    def test_total_and_strict(self):
        rng = random.Random(3)
        for _ in range(30):
            h = random_beta_acyclic_hypergraph(rng, max_vertices=8)
            order = beta_elimination_order(h)
            eo = EdgeOrder(h, order)
            for e, f in itertools.combinations(h.edges, 2):
                assert eo.less(e, f) != eo.less(f, e)

    def test_missing_vertex_rejected(self, fstar_hypergraph):
        with pytest.raises(ValueError, match="5"):
            EdgeOrder(fstar_hypergraph, EliminationOrder((1, 2, 3, 4)))


class TestSubHypergraph:
    def test_whole_hypergraph(self, fstar_hypergraph):
        got = sub_hypergraph(fstar_hypergraph, ORDER, E5, 4)
        assert got.edges == fstar_hypergraph.edges

    def test_cutoff_blocks_edges(self, fstar_hypergraph):
        # {3,4} and {4,5} connect to the rest only through vertices above 3
        got = sub_hypergraph(fstar_hypergraph, ORDER, E5, 3)
        assert got.edges == fstar_hypergraph.edges - {E2, E4}

    def test_isolated_edge(self, fstar_hypergraph):
        got = sub_hypergraph(fstar_hypergraph, ORDER, E2, 3)
        assert got.edges == frozenset({E2})

    def test_bad_arguments(self, fstar_hypergraph):
        with pytest.raises(ValueError):
            sub_hypergraph(fstar_hypergraph, ORDER, frozenset({1, 9}), 3)
        with pytest.raises(ValueError):
            sub_hypergraph(fstar_hypergraph, ORDER, E1, 9)


class TestDecreasingPath:
    def test_single_step(self, fstar_hypergraph):
        walk = decreasing_path(fstar_hypergraph, ORDER, E5, 4, E2)
        assert walk.edges == (E5, E2)
        assert walk.vertices == (4,)

    def test_zero_length(self, fstar_hypergraph):
        walk = decreasing_path(fstar_hypergraph, ORDER, E5, 4, E5)
        assert walk.edges == (E5,)
        assert len(walk) == 0

    def test_single_step_to_smallest(self, fstar_hypergraph):
        walk = decreasing_path(fstar_hypergraph, ORDER, E5, 4, E1)
        assert walk.edges == (E5, E1)
        assert walk.vertices == (2,)

    def test_unreachable_target(self, fstar_hypergraph):
        with pytest.raises(ValueError):
            decreasing_path(fstar_hypergraph, ORDER, E2, 3, E1)

    def test_always_decreasing_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(40):
            h = random_beta_acyclic_hypergraph(rng, max_vertices=9)
            order = beta_elimination_order(h)
            eo = EdgeOrder(h, order)
            for e in h.edges:
                for x in order.sequence:
                    for f in sub_hypergraph(h, order, e, x).edges:
                        walk = decreasing_path(h, order, e, x, f)
                        assert walk.is_path()
                        assert walk.is_decreasing(eo)
                        assert all(order.rank[v] <= order.rank[x] for v in walk.vertices)


class TestComponents:
    def test_connected(self, fstar_hypergraph):
        assert len(connected_components(fstar_hypergraph)) == 1

    def test_two_components(self):
        parts = connected_components(Hypergraph([{1, 2}, {3, 4}]))
        assert [sorted(p.vertices) for p in parts] == [[1, 2], [3, 4]]

    def test_empty(self):
        assert connected_components(Hypergraph([])) == []


class TestStructuralProperties:
    def test_worked_example(self, fstar_hypergraph):
        assert structural_property_failures(fstar_hypergraph, ORDER) == []

    def test_random_instances(self):
        rng = random.Random(23)
        for _ in range(25):
            h = random_beta_acyclic_hypergraph(rng)
            order = beta_elimination_order(h)
            assert structural_property_failures(h, order) == []


class TestTextFormat:
    def test_roundtrip(self, fstar_hypergraph):
        text = write_hypergraph(fstar_hypergraph)
        assert parse_hypergraph(text) == fstar_hypergraph

    def test_comments_and_blanks(self):
        h = parse_hypergraph("# heading\n1 2\n\n2 3 # trailing\n")
        assert h == Hypergraph([{1, 2}, {2, 3}])

    def test_empty(self):
        assert write_hypergraph(Hypergraph([])) == ""
        assert parse_hypergraph("") == Hypergraph([])
