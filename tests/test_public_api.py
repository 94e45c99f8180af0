import betadnnf


def test_every_exported_name_resolves():
    missing = [name for name in betadnnf.__all__ if not hasattr(betadnnf, name)]
    assert missing == []
    assert len(set(betadnnf.__all__)) == len(betadnnf.__all__)


def test_vtree_and_branch_decomposition_are_one_class():
    assert betadnnf.Vtree is betadnnf.BranchDecomposition


def test_partial_assignments_are_literal_sets():
    assert "Assignment" not in betadnnf.__all__
    assert betadnnf.falsifying_assignment(betadnnf.Clause([1, -3])) == frozenset({-1, 3})
