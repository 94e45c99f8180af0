import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadnnf import hypergraph as hypergraph_mod
from betadnnf.hypergraph import (
    EliminationOrder,
    Hypergraph,
    NotBetaAcyclic,
    beta_condition_violation,
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

import order_reference
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


def _chain_through(h, deleted, x):
    """By definition: the edges through x, less `deleted`, are pairwise
    inclusion-comparable."""
    left = [e - deleted for e in h.edges if x in e]
    return all(a <= b or b <= a for a, b in itertools.combinations(left, 2))


def _random_hypergraph(rng):
    """Small random edges, beta-acyclic or not."""
    n = rng.randint(1, 9)
    return Hypergraph(
        rng.sample(range(1, n + 1), rng.randint(1, min(n, 4))) for _ in range(rng.randint(1, 9))
    )


class TestOrderEngine:
    """The greedy and the verifier against the definitions."""

    def test_greedy_deletes_the_least_nest_point(self):
        rng = random.Random(41)
        outcomes = {EliminationOrder: 0, NotBetaAcyclic: 0}
        for _ in range(2500):
            h = _random_hypergraph(rng)
            got = beta_elimination_order(h)
            outcomes[type(got)] += 1
            deleted, left = set(), set(h.vertices)
            for x in got.sequence if isinstance(got, EliminationOrder) else ():
                assert x == min(v for v in left if _chain_through(h, deleted, v))
                deleted.add(x)
                left.remove(x)
            if isinstance(got, EliminationOrder):
                assert not left
                continue
            # the certificate is where the least-first walk stops: the
            # vertices left, none of them a nest point
            while nests := [v for v in left if _chain_through(h, deleted, v)]:
                deleted.add(min(nests))
                left.remove(min(nests))
            assert got.stuck_vertices == left
        assert min(outcomes.values()) > 300

    def test_verifier_names_the_first_failing_vertex(self):
        rng = random.Random(43)
        verdicts = {True: 0, False: 0}
        for _ in range(2500):
            h = _random_hypergraph(rng)
            perm = sorted(h.vertices)
            rng.shuffle(perm)
            greedy = beta_elimination_order(h)
            if isinstance(greedy, EliminationOrder) and rng.random() < 0.5:
                perm = list(greedy.sequence)
            got = beta_condition_violation(h, EliminationOrder(perm))
            first = next(
                (i for i, x in enumerate(perm) if not _chain_through(h, set(perm[: i + 1]), x)),
                None,
            )
            verdicts[got is None] += 1
            if first is None:
                assert got is None
                continue
            x, e, f = got
            prefix = set(perm[: first + 1])
            assert x == perm[first]
            assert e in h.edges and f in h.edges and x in e & f
            assert not (e - prefix <= f - prefix or f - prefix <= e - prefix)
        assert min(verdicts.values()) > 300

    @pytest.mark.parametrize("edges, sequence", [
        # the centre fails until one leaf is left, so it is woken each time
        ([{1, v} for v in range(2, 2002)], (*range(2, 2001), 1, 2001)),
        ([range(1, 2001)], tuple(range(1, 2001))),
        ([range(1, k + 1) for k in range(1, 301)], tuple(range(1, 301))),
        # 1 and 2 fail on the two residuals of size 3, incomparable, until 3 goes
        ([{1, 2, 3}, {1, 2, 4}, {1, 2, 3, 4, 5}], (3, 1, 2, 4, 5)),
    ], ids=["star", "one-edge", "nested", "equal-sizes"])
    def test_shapes(self, edges, sequence, monkeypatch):
        """The greedy, its re-verification and the verifier test no vertex
        on fewer than two edges: such a vertex is a nest point."""
        read = []
        chain_break = hypergraph_mod._chain_break

        def counted(through, *state):
            read.append(len(through))
            return chain_break(through, *state)

        monkeypatch.setattr(hypergraph_mod, "_chain_break", counted)
        h = Hypergraph(edges)
        assert beta_elimination_order(h).sequence == sequence
        assert beta_condition_violation(h, EliminationOrder(sequence)) is None
        assert min(read, default=2) >= 2

    @pytest.mark.parametrize("leaves", [1000, 4000])
    def test_star_reads_linearly_many_edges(self, leaves, monkeypatch):
        """A failed centre re-reads its edges only when its kept pair has
        become comparable, not after every leaf."""
        read = []
        chain_break = hypergraph_mod._chain_break

        def counted(through, *state):
            read.append(len(through))
            return chain_break(through, *state)

        monkeypatch.setattr(hypergraph_mod, "_chain_break", counted)
        star = Hypergraph([{1, v} for v in range(2, leaves + 2)])
        assert beta_elimination_order(star).sequence[-2] == 1
        assert sum(read) <= 40 * leaves

    def test_failed_reverification_raises(self, monkeypatch):
        """The greedy re-verifies through the verifier behind
        `beta_condition_violation`, so a verifier that reports a violation
        stops it returning."""
        def violated(edges, incident, sequence):
            return sequence[0], E1, E3

        monkeypatch.setattr(hypergraph_mod, "_first_violation", violated)
        with pytest.raises(AssertionError, match="invalid order"):
            hypergraph_mod.beta_elimination_order(Hypergraph(FSTAR_EDGES.values()))

    def test_star_violation(self):
        star = Hypergraph([{1, v} for v in range(2, 2002)])
        x, e, f = beta_condition_violation(star, EliminationOrder(range(1, 2002)))
        assert x == 1 and e != f and 1 in e & f

    @pytest.mark.parametrize("edges, gone, pair", [
        ([{1, 2}, {1, 3, 4}], {2}, None),
        ([{1, 3, 4}, {1, 2}], {2}, None),
        ([{1, 2}, {1, 3}, {1, 2, 3, 5}, {1, 4, 5, 6}], {2, 3}, None),
        ([{1, 2}, {1, 3}, {1, 2, 3, 5}, {1, 4, 6}], {2, 3}, (2, 3)),
        ([{1, 2, 3, 5}, {1, 4, 6}, {1, 3}, {1, 2}], {2, 3}, (0, 1)),
    ], ids=["two-chain", "two-chain-swapped", "four-chain", "four-break", "four-break-swapped"])
    def test_a_residual_of_the_vertex_alone_takes_no_difference(self, edges, gone, pair):
        """Through vertex 1, an edge whose residual is {1} passes on its
        live count: no set difference is taken from it, and the verdict
        and pair are those of the same test on plain frozensets, and of
        the definition."""
        subtracted = []

        class Counted(frozenset):
            def __sub__(self, other):
                subtracted.append(set(self))
                return frozenset.__sub__(self, other)

        left = [len(set(e) - gone) for e in edges]
        through = list(range(len(edges)))
        got = hypergraph_mod._chain_break(through, [Counted(e) for e in edges], left, gone)
        assert got == hypergraph_mod._chain_break(through, list(map(frozenset, edges)), left, gone) == pair
        assert (got is None) == _chain_through(Hypergraph(edges), gone, 1)
        assert 1 in left and all(len(e - gone) > 1 for e in subtracted)

    @pytest.mark.parametrize("edges", [
        [{i, i + 1} for i in range(1, 2000)],
        [{i, i + 1, i + 2} for i in range(1, 1999)] + [{i, i + 1} for i in range(1, 2000)],
    ], ids=["chain", "interval3"])
    def test_untried_vertices_bypass_the_heap(self, edges, monkeypatch):
        """Numbered in elimination order, no vertex is set aside, so the
        greedy pops no heap."""
        pops = _count_heap_pops(monkeypatch)
        assert beta_elimination_order(Hypergraph(edges)).sequence == tuple(range(1, 2001))
        assert pops == []

    def test_a_woken_centre_keeps_the_reference_order(self, monkeypatch):
        """The star's centre is set aside, then woken by each leaf deleted
        before it, and each time taken first, off the heap."""
        pops = _count_heap_pops(monkeypatch)
        star = Hypergraph([{1, v} for v in range(2, 1002)])
        got = beta_elimination_order(star)
        assert got.sequence == order_reference.beta_elimination_order(star).sequence
        assert got.sequence == (*range(2, 1001), 1, 1001)
        assert pops == [1] * 999


def _count_heap_pops(monkeypatch):
    """The vertices the order engine pops off its heap from here on."""
    pops = []

    class CountedHeapq:
        heappush = staticmethod(heapq.heappush)

        @staticmethod
        def heappop(heap):
            pops.append(heapq.heappop(heap))
            return pops[-1]

    monkeypatch.setattr(hypergraph_mod, "heapq", CountedHeapq)
    return pops


@st.composite
def hypergraphs(draw):
    """Beta-acyclic ones from the generator, arbitrary ones, stars, nested
    edges and single edges, over relabelled vertices."""
    kind = draw(st.sampled_from(["generated", "arbitrary", "star", "nested", "one-edge"]))
    if kind == "generated":
        rng = random.Random(draw(st.integers(0, 2**32)))
        return random_beta_acyclic_hypergraph(rng, max_vertices=draw(st.integers(2, 12)))
    if kind == "arbitrary":
        edge = st.frozensets(st.integers(1, 10), min_size=1, max_size=5)
        return Hypergraph(draw(st.lists(edge, max_size=12)))
    n = draw(st.integers(1, 12))
    label = draw(st.permutations(range(1, n + 1)))
    if kind == "star":
        edges = [{label[0], v} for v in label[1:]] or [{label[0]}]
        extra = draw(st.lists(st.frozensets(st.sampled_from(label), min_size=1), max_size=2))
        return Hypergraph(edges + extra)
    if kind == "nested":
        return Hypergraph(label[:k] for k in draw(st.sets(st.integers(1, n), min_size=1)))
    return Hypergraph([label])


class TestAgainstReference:
    @given(hypergraphs(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_orders_and_violations_match(self, h, data):
        got, want = beta_elimination_order(h), order_reference.beta_elimination_order(h)
        assert type(got) is type(want)
        if isinstance(want, NotBetaAcyclic):
            assert got.stuck_vertices == want.stuck_vertices
        else:
            assert got.sequence == want.sequence
        for _ in range(3):  # sometimes one short, which the verifier refuses
            sequence = data.draw(st.permutations(sorted(h.vertices)))
            order = EliminationOrder(sequence[data.draw(st.integers(0, 1)):])
            verdicts = []
            for verifier in (beta_condition_violation, order_reference.beta_condition_violation):
                try:
                    verdicts.append(verifier(h, order))
                except ValueError as err:
                    verdicts.append(str(err))
            assert verdicts[0] == verdicts[1]

    def test_intervals_at_scale_match(self):
        """Intervals of a shuffled line of 300-2,000 vertices: beta-acyclic,
        since the intervals through the line's leftmost vertex are nested
        and deleting it leaves intervals. Some get 1-3 random extra edges
        and stop partway."""
        rng = random.Random(29)
        stuck = 0
        for case in range(20):
            line = list(range(1, rng.randint(300, 2000) + 1))
            rng.shuffle(line)
            edges = [line[a:a + rng.randint(1, 6)] for a in range(len(line)) for _ in range(rng.randint(1, 2))]
            if case % 2:
                edges += [rng.sample(line, rng.randint(2, 4)) for _ in range(rng.randint(1, 3))]
            h = Hypergraph(edges)
            got, want = beta_elimination_order(h), order_reference.beta_elimination_order(h)
            if isinstance(want, NotBetaAcyclic):
                stuck += 1
                assert got.stuck_vertices == want.stuck_vertices
            else:
                assert got.sequence == want.sequence
            order = EliminationOrder(rng.sample(sorted(h.vertices), len(h.vertices)))
            assert beta_condition_violation(h, order) == order_reference.beta_condition_violation(h, order)
        assert stuck >= 6  # of the 10 with extra edges


class TestRandomHypergraphArguments:
    @pytest.mark.parametrize("argument, value", [
        ("max_vertices", 1), ("max_edges", 0), ("max_edge_size", 0), ("max_edge_size", 5),
    ])
    def test_out_of_range_is_named(self, argument, value):
        with pytest.raises(ValueError, match=f"{argument} .*got {value}"):
            random_beta_acyclic_hypergraph(random.Random(0), **{argument: value})

    def test_smallest_arguments_are_admitted(self):
        h = random_beta_acyclic_hypergraph(random.Random(0), max_vertices=2, max_edges=1, max_edge_size=1)
        assert len(h) == 1 and len(next(iter(h))) == 1


class TestEdgeOrder:
    def test_worked_example_sequence(self, fstar_hypergraph):
        assert sorted(fstar_hypergraph.edges, key=ORDER.edge_key) == [E1, E2, E3, E4, E5]

    def test_pair_comparison(self):
        key = ORDER.edge_key
        # symmetric difference {1, 5} has its maximum inside {2, 5}
        assert key(E1) < key(E3)
        assert not key(E3) < key(E1)
        assert not key(E1) < key(E1)

    def test_total_and_strict(self):
        rng = random.Random(3)
        for _ in range(30):
            h = random_beta_acyclic_hypergraph(rng, max_vertices=8)
            key = beta_elimination_order(h).edge_key
            for e, f in itertools.combinations(h.edges, 2):
                assert (key(e) < key(f)) != (key(f) < key(e))

    def test_missing_vertex_rejected(self, fstar_hypergraph):
        short = EliminationOrder((1, 2, 3, 4))
        with pytest.raises(ValueError, match=r"does not cover vertices \[5\]"):
            sub_hypergraph(fstar_hypergraph, short, E1, 2)
        with pytest.raises(ValueError, match=r"does not cover vertices \[5\]"):
            decreasing_path(fstar_hypergraph, short, E5, 4, E2)

    @given(hypergraphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_key_matches_reference(self, h, data):
        """Under the greedy order, when there is one, and under any
        permutation of the vertices, the rank-list key sorts and compares
        edges as the reference's n-bit integers do."""
        sequences = [data.draw(st.permutations(sorted(h.vertices)))]
        greedy = beta_elimination_order(h)
        if isinstance(greedy, EliminationOrder):
            sequences.append(greedy.sequence)
        for sequence in sequences:
            order = EliminationOrder(sequence)
            reference, key = order_reference.EdgeOrder(h, order), order.edge_key
            assert sorted(h.edges, key=key) == reference.sort(h.edges)
            for e in h.edges:
                for f in h.edges:
                    assert (key(e) < key(f)) == reference.less(e, f)


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
            for e in h.edges:
                for x in order.sequence:
                    for f in sub_hypergraph(h, order, e, x).edges:
                        walk = decreasing_path(h, order, e, x, f)
                        assert walk.is_path()
                        assert walk.is_decreasing(order)
                        assert all(order.rank[v] <= order.rank[x] for v in walk.vertices)

    def test_as_short_as_a_shortest_path(self):
        """Steps between edges of R(e, x) go through vertices at most x;
        the distance comes from a search over all pairs of edges."""
        rng = random.Random(12)
        for _ in range(60):
            h = random_beta_acyclic_hypergraph(rng, max_vertices=9)
            order = beta_elimination_order(h)
            for e in h.edges:
                for x in order.sequence:
                    sub = list(sub_hypergraph(h, order, e, x).edges)
                    below = {v for v in h.vertices if order.rank[v] <= order.rank[x]}
                    length, queue = {e: 1}, [e]  # edges on a shortest path to each
                    for f in queue:
                        for g in sub:
                            if g not in length and f & g & below:
                                length[g] = length[f] + 1
                                queue.append(g)
                    assert set(length) == set(sub)
                    for f in sub:
                        assert len(decreasing_path(h, order, e, x, f).edges) == length[f]


class TestComponents:
    def test_connected(self, fstar_hypergraph):
        assert len(connected_components(fstar_hypergraph)) == 1

    def test_two_components(self):
        parts = connected_components(Hypergraph([{1, 2}, {3, 4}]))
        assert [sorted(p.vertices) for p in parts] == [[1, 2], [3, 4]]

    def test_empty(self):
        assert connected_components(Hypergraph([])) == []

    def test_parts_share_no_vertex_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(150):
            h = random_beta_acyclic_hypergraph(rng, max_vertices=9)
            parts = connected_components(h)
            assert sum(len(p) for p in parts) == len(h)
            assert frozenset().union(*(p.edges for p in parts)) == h.edges
            for p, q in itertools.combinations(parts, 2):
                assert p.vertices.isdisjoint(q.vertices)


class TestStructuralProperties:
    def test_worked_example(self, fstar_hypergraph):
        assert structural_property_failures(fstar_hypergraph, ORDER) == []

    def test_random_instances(self):
        rng = random.Random(23)
        for _ in range(25):
            h = random_beta_acyclic_hypergraph(rng)
            order = beta_elimination_order(h)
            assert structural_property_failures(h, order) == []


class TestVertices:
    def test_kept_after_the_first_read(self, fstar_hypergraph):
        """`vertices` is built at the first read and kept; equality and
        hashing still compare only the edges."""
        h, twin = Hypergraph(fstar_hypergraph.edges), Hypergraph(fstar_hypergraph.edges)
        before = hash(h)
        assert h.vertices is h.vertices
        assert h.vertices == frozenset({1, 2, 3, 4, 5})
        assert h == twin and hash(h) == before == hash(twin) == hash(fstar_hypergraph)
        assert h != Hypergraph([E1]) and repr(h) == repr(twin)


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

    @given(st.text(alphabet=st.sampled_from("0123456789 -#\t\nx\u00e9\xa0\u0663"), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_raises_only_value_error(self, text):
        try:
            h = parse_hypergraph(text)
        except ValueError:
            return
        assert all(h.edges)
