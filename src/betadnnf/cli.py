"""Batch command-line front end.

Exit codes: 0 success, 1 property or equivalence failure, 2 usage or
input error, 3 refusal: a cap or budget was exceeded, or the run ran out
of memory or stack (`MemoryError`, `RecursionError`). Diagnostics go to
stderr; results meant for scripting (counts, orders, verdicts) go to
stdout.
"""
from __future__ import annotations

import argparse
import json
import random
import sys

from . import circuit as circuit_mod
from . import cnf as cnf_mod
from . import compiler as compiler_mod
from . import dpll as dpll_mod
from . import generators
from . import hypergraph as hg_mod
from . import lowerbounds as lb_mod
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DimacsParseError,
    NnfParseError,
    NotBetaAcyclicError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
# DPLL steps in (exponential-time) lex order without `--budget`; reverse-beta is unbudgeted
LEX_BUDGET = 50_000
# `rectcover` steps without `--budget` (`lowerbounds.min_rectangle_cover` counts them)
RECTCOVER_BUDGET = 2_000_000


def _read_text(path: str) -> str:
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _load_formula(path: str) -> cnf_mod.CnfFormula:
    return cnf_mod.parse_dimacs(_read_text(path))


def _load_order(path: str | None) -> hg_mod.EliminationOrder | None:
    if not path:
        return None
    vertices = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if line.strip():
            try:
                vertices.append(int(line))
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer vertex id {line.strip()!r}") from None
    return hg_mod.EliminationOrder(vertices)


def _width(formula: cnf_mod.CnfFormula) -> int:
    """n for the counting set 1..n: the declared or the largest variable."""
    return max(max(formula.variables, default=0), formula.declared_variables or 0)


def _decimal(n: int) -> str:
    """n in decimal, in near-linear time: `str` is quadratic on CPython
    3.11 and refuses past the interpreter's digit limit, so it only takes
    ints under the least limit that can be set, and larger ones go by
    divide and conquer on `decimal` (libmpdec multiplies large numbers in
    subquadratic time), the method of CPython 3.12's
    `_pylong.int_to_decimal_string`."""
    if n.bit_length() <= 2_000:  # 603 digits, below the least settable limit of 640
        return str(n)
    import decimal  # only here: importing it at the top would cost every run

    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:  # 2**w, kept: the halvings meet few distinct w
        if w not in powers:
            powers[w] = decimal.Decimal(2) ** w if w <= 128 else power(w >> 1) * power(w - (w >> 1))
        return powers[w]

    def convert(m: int, w: int) -> decimal.Decimal:  # m < 2**w
        if w <= 128:
            return decimal.Decimal(m)
        half = w >> 1
        high = m >> half
        return convert(m - (high << half), half) + convert(high, w - half) * power(half)

    with decimal.localcontext() as context:
        context.prec, context.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _refuse_wider(width: int, cap: int, what: str) -> None:
    """Refuse before a set of `width` variables is built."""
    if width > cap:
        raise CapExceededError(f"{width} variables exceed the {what} cap of {cap}", cap)


def _dpll_strategy(name: str, budget: int | None) -> tuple[dpll_mod.OrderStrategy, int | None]:
    """The DPLL order `name` ("reverse-beta" or "lex") and its step budget:
    lex order gets `LEX_BUDGET` unless `--budget` is given."""
    if name == "reverse-beta":
        return dpll_mod.OrderStrategy.reverse_beta_elimination(), budget
    return dpll_mod.OrderStrategy.lexicographic(), LEX_BUDGET if budget is None else budget


def cmd_check(args) -> int:
    formula = _load_formula(args.formula)
    if formula.has_empty_clause():
        print("beta-acyclic: yes (degenerate, empty clause)")
        return EXIT_OK
    try:
        _, order = formula._elimination_order()
    except NotBetaAcyclicError as exc:
        print("beta-acyclic: no")
        print(f"stuck at vertices {sorted(exc.certificate)}", file=sys.stderr)
        return EXIT_FAIL
    print("beta-acyclic: yes")
    print("order: " + " ".join(map(str, order.sequence)))
    return EXIT_OK


def cmd_order(args) -> int:
    formula = _load_formula(args.formula)
    _, order = formula._elimination_order()
    if order.sequence:
        print("\n".join(map(str, order.sequence)))
    return EXIT_OK


def cmd_compile(args) -> int:
    formula = _load_formula(args.formula)
    circuit, report = compiler_mod.compile_cnf(formula, _load_order(args.order))
    circuit_mod.write_nnf_file(circuit, args.output)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(
            f"gates={report.gates} fanin={report.and_fanin_max} "
            f"size={report.formula_size} components={report.components}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_count(args) -> int:
    if args.order and args.method != "compile":
        raise ValueError(f"--order applies only to --method compile, not --method {args.method}")
    formula = _load_formula(args.formula)
    width = _width(formula)
    free = width - len(formula.variables)  # declared but in no clause
    if args.method == "brute":
        _refuse_wider(width, args.cap_vars, "enumeration")
        n = cnf_mod.brute_force_count(formula, range(1, width + 1), cap=args.cap_vars)
    elif args.method == "compile":
        circuit, _ = compiler_mod.compile_cnf(formula, _load_order(args.order))
        n = circuit_mod.count_models(circuit, formula.variables) << free
    else:
        try:  # the strategy refuses before the search starts
            count, _ = dpll_mod.count_dpll(formula, *_dpll_strategy("reverse-beta", args.budget))
        except NotBetaAcyclicError:
            count, _ = dpll_mod.count_dpll(formula, *_dpll_strategy("lex", args.budget))
        n = count << free
    print(_decimal(n))
    return EXIT_OK


def cmd_verify(args) -> int:
    circuit = circuit_mod.read_nnf_file(args.circuit)
    ok_dec, v1 = circuit_mod.check_decomposable(circuit)
    ok_gate, v2 = circuit_mod.check_decision(circuit)
    failures = []
    if not ok_dec:
        failures.append(f"decomposability: gate {v1.gate}: {v1.reason}")
    if not ok_gate:
        failures.append(f"decision: gate {v2.gate}: {v2.reason}")
    if args.against:
        formula = _load_formula(args.against)
        if not circuit_mod.equivalent_to_formula(circuit, formula, cap=args.cap_vars):
            failures.append("equivalence: circuit disagrees with the formula")
    for line in failures:
        print(line, file=sys.stderr)
    print("ok" if not failures else "failed")
    return EXIT_OK if not failures else EXIT_FAIL


def cmd_dpll(args) -> int:
    formula = _load_formula(args.formula)
    strategy, budget = _dpll_strategy(args.strategy, args.budget)
    count, stats, trace = dpll_mod.search(formula, strategy, budget=budget, trace=bool(args.trace))
    if args.trace:
        circuit_mod.write_nnf_file(trace, args.trace)
    print(_decimal(count))
    if args.json:
        print(json.dumps(stats.to_dict(), sort_keys=True))
    else:
        print(json.dumps(stats.to_dict(), sort_keys=True), file=sys.stderr)
    return EXIT_OK


def cmd_hat(args) -> int:
    formula = _load_formula(args.formula)
    preserved = lb_mod.hat_preserves_beta(formula)  # before writing, so a refusal writes nothing
    widened = lb_mod.hat(formula)
    if args.output:
        cnf_mod.write_dimacs_file(widened, args.output)
    else:
        sys.stdout.write(cnf_mod.write_dimacs(widened))
    print(f"beta-acyclicity preserved: {'yes' if preserved else 'no'}", file=sys.stderr)
    return EXIT_OK if preserved else EXIT_FAIL


def cmd_mimw(args) -> int:
    graph = lb_mod.parse_graph(_read_text(args.graph))
    if args.tree:
        tree = lb_mod.parse_branch_decomposition(_read_text(args.tree).strip())
        width = lb_mod.mimw_of_decomposition(graph, tree, cap=args.cap_vars)
        print(width)
    else:
        width, tree = lb_mod.exact_mimw(graph)
        print(width)
        if tree is not None:
            print(lb_mod.write_branch_decomposition(tree))
    return EXIT_OK


def cmd_rectcover(args) -> int:
    formula = _load_formula(args.formula)
    left = frozenset(int(v) for v in args.left.split(",") if v)
    width = _width(formula)
    _refuse_wider(width + sum(not 1 <= v <= width for v in left), args.cap_vars, "rectangle")
    right = frozenset(range(1, width + 1)) - left
    budget = RECTCOVER_BUDGET if args.budget is None else args.budget
    print(lb_mod.min_rectangle_cover(formula, left, right, cap=args.cap_vars, budget=budget))
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    rng = random.Random(args.seed)
    if args.family == "chain":
        formulas = [generators.chain_cnf(n) for n in sizes]
    else:
        formulas = [generators.random_beta_acyclic_cnf(rng, max_vars=n) for n in sizes]
    for formula in formulas:
        _, report = compiler_mod.compile_cnf(formula)
        if args.json:
            print(json.dumps({
                "formula_size": report.formula_size,
                "gates": report.gates,
                "and_fanin_max": report.and_fanin_max,
                "wall_time_seconds": report.wall_time_seconds,
            }, sort_keys=True))
        else:
            print(f"size={report.formula_size} gates={report.gates} fanin={report.and_fanin_max}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betadnnf",
        description="Compile beta-acyclic CNF to decision-DNNF, count models, "
        "and run width/rectangle experiments.",
    )
    parser.add_argument("--cap-vars", type=int, default=20, metavar="N",
                        help="enumeration cap for semantic checks (default 20)")
    parser.add_argument("--budget", type=int, default=None, metavar="STEPS",
                        help=f"abort DPLL or rectangle-cover search after this many steps "
                        f"(lex order: {LEX_BUDGET}, rectcover: {RECTCOVER_BUDGET})")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="seed for generated families")
    parser.add_argument("--json", action="store_true", help="machine-readable reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="beta-acyclicity verdict and order")
    p.add_argument("formula")

    p = sub.add_parser("order", help="print a beta-elimination order, one vertex per line")
    p.add_argument("formula")

    p = sub.add_parser("compile", help="compile CNF into a decision-DNNF file")
    p.add_argument("formula")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--order", metavar="FILE", help="explicit elimination order file")

    p = sub.add_parser("count", help="model count over the declared variables")
    p.add_argument("formula")
    p.add_argument("--method", choices=("compile", "dpll", "brute"), default="compile")
    p.add_argument("--order", metavar="FILE", help="explicit elimination order file")

    p = sub.add_parser("verify", help="structural checks, optionally against a CNF")
    p.add_argument("circuit")
    p.add_argument("--against", metavar="FILE.cnf")

    p = sub.add_parser("dpll", help="exhaustive DPLL count with statistics")
    p.add_argument("formula")
    p.add_argument("--strategy", choices=("reverse-beta", "lex"), default="lex")
    p.add_argument("--trace", metavar="FILE.nnf", help="write the trace circuit")

    p = sub.add_parser("hat", help="widen every clause with a fresh variable")
    p.add_argument("formula")
    p.add_argument("-o", "--output")

    p = sub.add_parser("mimw", help="width of a decomposition, or the exact minimum")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--tree", metavar="FILE", help="branch decomposition file")

    p = sub.add_parser("rectcover", help="exact minimum rectangle cover size")
    p.add_argument("formula")
    p.add_argument("--left", required=True, metavar="V1,V2,...",
                   help="variables on the left side of the split")

    p = sub.add_parser("bench", help="compile a formula family and tabulate stats")
    p.add_argument("--family", choices=("chain", "random"), default="chain")
    p.add_argument("--sizes", default="10,20,40,80", metavar="N1,N2,...")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # the handler is looked up now, so a replaced `cmd_*` is the one run
        return globals()[f"cmd_{args.command}"](args)
    except BudgetExceededError as exc:
        what = "rectcover" if args.command == "rectcover" else "lex-order"
        default = f" (the {what} default; --budget sets another)" if args.budget is None else ""
        print(f"refused: {exc}{default}", file=sys.stderr)
        return EXIT_REFUSED
    except CapExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (RecursionError, MemoryError) as exc:
        print(f"refused: {exc!r}", file=sys.stderr)
        return EXIT_REFUSED
    except NotBetaAcyclicError as exc:
        print(f"not beta-acyclic: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (DimacsParseError, NnfParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
