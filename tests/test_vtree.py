"""The one labelled binary tree: vtree of `respects_vtree` and branch
decomposition of `mimw`. Its text form parses and writes at any depth, and
its equality is the set of its nodes' leaf sets."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadnnf.circuit import CircuitBuilder, Vtree, respects_vtree
from betadnnf.cli import main
from betadnnf.lowerbounds import (
    parse_branch_decomposition,
    parse_graph,
    write_branch_decomposition,
)

DEPTH = 3000  # well past Python's default recursion limit of 1000


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestDepth:
    @pytest.fixture(scope="class")
    def right_linear(self):
        tree = Vtree.leaf(DEPTH)
        for v in range(DEPTH - 1, 0, -1):
            tree = Vtree.node(Vtree.leaf(v), tree)
        return tree

    def test_respects_vtree(self, right_linear):
        b = CircuitBuilder()
        circuit = b.build(b.and_([b.literal(1), b.literal(2)]))
        assert respects_vtree(circuit, right_linear) == (True, None)

    def test_write_parse_round_trip(self, right_linear):
        text = write_branch_decomposition(right_linear)
        assert text.startswith("(1 (2 (3 ") and text.endswith(")" * (DEPTH - 1))
        again = parse_branch_decomposition(text)
        assert again == right_linear
        assert hash(again) == hash(right_linear)
        assert write_branch_decomposition(again) == text

    def test_nested_parentheses(self):
        tree = parse_branch_decomposition("(" * DEPTH + "1 2" + ")" * DEPTH)
        assert tree == Vtree.node(Vtree.leaf(1), Vtree.leaf(2))
        assert write_branch_decomposition(tree) == "(1 2)"

    def test_cli_mimw_on_nested_parentheses(self, tmp_path):
        graph_path = tmp_path / "g.edges"
        graph_path.write_text("1 2\n")
        tree_path = tmp_path / "deep.tree"
        tree_path.write_text("(" * DEPTH + "1 2" + ")" * DEPTH + "\n")
        assert run_cli("mimw", str(graph_path), "--tree", str(tree_path)) == (0, "1\n", "")


LABELS = st.one_of(
    st.integers(-99, 99), st.from_regex(r"[a-z][a-z0-9]{0,2}", fullmatch=True)
)


@st.composite
def trees(draw):
    """Random shape over 1–16 distinct int or str labels."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=16, unique=True))
    nodes = [Vtree.leaf(label) for label in labels]
    while len(nodes) > 1:
        left = nodes.pop(draw(st.integers(0, len(nodes) - 1)))
        right = nodes.pop(draw(st.integers(0, len(nodes) - 1)))
        nodes.append(Vtree.node(left, right))
    return nodes[0]


def mirror(tree):
    if tree.is_leaf():
        return Vtree.leaf(tree.label)
    return Vtree.node(mirror(tree.right), mirror(tree.left))


def rotations(tree):
    """Trees whose split sets differ from `tree`'s in exactly one split:
    one rotation turns the split {B, C} under (A (B C)) into {A, B}."""
    if tree.is_leaf():
        return
    a, b = tree.left, tree.right
    for x, y in ((a, b), (b, a)):
        if not y.is_leaf():
            yield Vtree.node(Vtree.node(x, y.left), y.right)
    for t in rotations(a):
        yield Vtree.node(t, b)
    for t in rotations(b):
        yield Vtree.node(a, t)


class TestTreeProperties:
    @settings(max_examples=80, deadline=None)
    @given(trees())
    def test_write_parse_round_trip(self, tree):
        text = write_branch_decomposition(tree)
        again = parse_branch_decomposition(text)
        assert again == tree
        assert write_branch_decomposition(again) == text

    @settings(max_examples=80, deadline=None)
    @given(trees())
    def test_equals_its_mirror(self, tree):
        assert mirror(tree) == tree
        assert hash(mirror(tree)) == hash(tree)

    @settings(max_examples=60, deadline=None)
    @given(trees())
    def test_one_split_apart_is_unequal(self, tree):
        for other in rotations(tree):
            assert other.leaf_set == tree.leaf_set
            assert other != tree


TEXT = st.text(alphabet="() 12ab#\n", max_size=40)


class TestParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(TEXT)
    def test_decomposition_parser_raises_only_value_error(self, text):
        try:
            tree = parse_branch_decomposition(text)
        except ValueError:
            return
        assert parse_branch_decomposition(write_branch_decomposition(tree)) == tree

    @settings(max_examples=200, deadline=None)
    @given(TEXT)
    def test_graph_parser_raises_only_value_error(self, text):
        try:
            parse_graph(text)
        except ValueError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(graph_text=TEXT, tree_text=TEXT)
    def test_cli_maps_parse_errors_to_exit_2(self, tmp_path_factory, graph_text, tree_text):
        folder = tmp_path_factory.mktemp("mimw")
        graph_path, tree_path = folder / "g.edges", folder / "t.tree"
        graph_path.write_text(graph_text)
        tree_path.write_text(tree_text)
        try:
            parse_graph(graph_text)
            parse_branch_decomposition(tree_text.strip())
        except ValueError as exc:
            code, out, err = run_cli("mimw", str(graph_path), "--tree", str(tree_path))
            assert (code, out, err) == (2, "", f"error: {exc}\n")
        else:
            code, _, _ = run_cli("mimw", str(graph_path), "--tree", str(tree_path))
            assert code in (0, 2, 3)
