"""Scaling rows for the compiler: `Compiler` set-up and run on families
whose cache keys once grew with the square of the clause width.

For each family and size: seconds of one compile, the tracemalloc peak of
another, and the gate, formula-size and cache-entry counts; per family,
the least-squares slope of log(seconds) and log(peak) over log(literals). The
formula's elimination order is computed first and not timed. Repeats,
fresh interpreters and `--baseline` work as in `tools/bench_dpll.py`:

    python3 tools/bench_compile.py --baseline 09b5143 -o BENCH_compile.json

Families: chain and interval3 as there, wide (one clause over 1..n, every
third literal negative) and nested (one clause on each edge {1..j}, j <= n,
signs varying by variable and clause). chain-long and interval3-long are
the same clauses at n = 12,800-51,200, where per-edge records that grow
with n show; they are separate families so that the shorter ladders keep
their fitted exponents. All are built here, so that a tree whose
`betadnnf.generators` lacks them measures the same formulas.
"""
from __future__ import annotations

import sys
import time

import bench_dpll

FAMILIES = {
    "chain": (400, 800, 1600, 3200),
    "interval3": (400, 800, 1600, 3200),
    "wide": (1000, 2000, 4000, 8000),
    "nested": (50, 100, 200, 400),
    "chain-long": (12800, 25600, 51200),
    "interval3-long": (12800, 25600, 51200),
}
KEYS = ("compile_s", "compile_peak_bytes")
SIZE = "formula_size"  # literals: nested n has n(n+1)/2


def clauses_of(family: str, n: int) -> list[list[int]]:
    if family == "wide":
        return [[v if v % 3 else -v for v in range(1, n + 1)]]
    if family == "nested":
        return [[v if (v + j) % 3 else -v for v in range(1, j + 1)] for j in range(1, n + 1)]
    return bench_dpll.clauses_of(family.removesuffix("-long"), n)


def measure(family: str, n: int, peak: bool = True) -> dict:
    """One timing, the peak (unless not `peak`) and the counts for the `betadnnf` found on sys.path."""
    from betadnnf import CnfFormula
    from betadnnf.compiler import Compiler

    formula = CnfFormula.from_ints(clauses_of(family, n))
    formula._elimination_order()
    start = time.perf_counter()
    compiler = Compiler(formula)
    _, report = compiler.run()
    compile_s = time.perf_counter() - start
    row = {"compile_s": compile_s, "formula_size": report.formula_size, "gates": report.gates,
           "cache_entries": len(compiler.cache)}
    if peak:
        row["compile_peak_bytes"] = bench_dpll.traced_peak(lambda: Compiler(formula).run())
    return row


if __name__ == "__main__":
    sys.exit(bench_dpll.run(None, sys.modules[__name__], {"measured": "Compiler(formula).run()"}))
