"""Parse, order and compile take memory linear in the formula: the
tracemalloc peak of each, which is deterministic, fitted over chain and
interval-3 formulas of n = 200 to 1,600 variables, grows with a log-log
slope of at most 1.1. A record per pair of clauses, or a copy per stage,
would fit near 2. (A bound for `count_models` waits until its counts are
freed after their last reader.)

Two CPython caches make small formulas look cheaper than they are, which
would tilt the fit upward:
- the ints -5..256 are preallocated, so a formula whose variables are all
  at most 256 reads its literals for free; the variables here are
  numbered from `FIRST` up, past that cache, at every size;
- up to 2,000 freed tuples of each length below 20 are kept for reuse, and
  a reused tuple is no traced allocation; `traced_peak` holds that many of
  each length while it traces, so that every size pays for every tuple.
"""
import math
import tracemalloc

import pytest

from betadnnf.cnf import parse_dimacs
from betadnnf.compiler import Compiler

SIZES = (200, 400, 800, 1600)
BOUND = 1.1
FIRST = 257  # the least variable id


def chain(n):
    return [[i, i + 1] for i in range(n - 1)]


def interval3(n):
    return [[i, i + 1, i + 2] for i in range(n - 2)] + chain(n)


def dimacs(family, n):
    clauses = family(n)
    return f"p cnf {n + FIRST - 1} {len(clauses)}\n" + "".join(
        " ".join(str(v + FIRST) for v in c) + " 0\n" for c in clauses)


def parse(text):
    return lambda: parse_dimacs(text)


def order(text):
    return parse_dimacs(text)._elimination_order


def compile_(text):
    formula = parse_dimacs(text)
    formula._elimination_order()
    return lambda: Compiler(formula).run()


def traced_peak(call) -> int:
    held = [tuple(range(k)) for k in range(1, 20) for _ in range(2000)]  # empties the tuple free lists
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def slope(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


@pytest.mark.parametrize("stage", [parse, order, compile_], ids=["parse", "order", "compile"])
@pytest.mark.parametrize("family", [chain, interval3], ids=["chain", "interval3"])
def test_the_traced_peak_is_linear(family, stage):
    stage(dimacs(family, 20))()  # one-time allocations of the first call are not the formula's
    peaks = [traced_peak(stage(dimacs(family, n))) for n in SIZES]
    assert slope(SIZES, peaks) <= BOUND, peaks
