"""betadnnf: compile beta-acyclic CNF into decision-DNNF circuits, count
models three independent ways, and probe width-based lower bounds at desk
scale."""

from .cnf import (
    Clause,
    CnfFormula,
    brute_force_count,
    falsifying_assignment,
    hypergraph_of,
    parse_dimacs,
    write_dimacs,
)
from .hypergraph import (
    EliminationOrder,
    Hypergraph,
    NotBetaAcyclic,
    beta_elimination_order,
    connected_components,
    is_beta_acyclic,
)
from .circuit import (
    NnfCircuit,
    Vtree,
    check_decision,
    check_decomposable,
    check_deterministic,
    count_models,
    equivalent_to_formula,
    read_nnf,
    write_nnf,
)
from .compiler import CompileReport, compile_cnf
from .dpll import DpllStats, OrderStrategy, count_dpll, trace_to_circuit
from .lowerbounds import (
    BranchDecomposition,
    Graph,
    Rectangle,
    exact_mimw,
    hat,
    hat_preserves_beta,
    incidence_graph,
    is_rectangle,
    mimw_of_decomposition,
    min_rectangle_cover,
)

__version__ = "0.1.0"

__all__ = [
    "BranchDecomposition",
    "Clause",
    "CnfFormula",
    "CompileReport",
    "DpllStats",
    "EliminationOrder",
    "Graph",
    "Hypergraph",
    "NnfCircuit",
    "NotBetaAcyclic",
    "OrderStrategy",
    "Rectangle",
    "Vtree",
    "beta_elimination_order",
    "brute_force_count",
    "check_decision",
    "check_decomposable",
    "check_deterministic",
    "compile_cnf",
    "connected_components",
    "count_dpll",
    "count_models",
    "equivalent_to_formula",
    "exact_mimw",
    "falsifying_assignment",
    "hat",
    "hat_preserves_beta",
    "hypergraph_of",
    "incidence_graph",
    "is_beta_acyclic",
    "is_rectangle",
    "mimw_of_decomposition",
    "min_rectangle_cover",
    "parse_dimacs",
    "read_nnf",
    "trace_to_circuit",
    "write_dimacs",
    "write_nnf",
]
