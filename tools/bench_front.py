"""Scaling rows for the front end: DIMACS parse and the nest-point order.

For each family and size: seconds of `parse_dimacs` on DIMACS text built
here, of `beta_elimination_order` on the formula's hypergraph (with the
re-verification it runs before returning) and of the standalone
`beta_condition_violation` on that hypergraph and order, each the least
of 3 calls in one interpreter, and the tracemalloc peak of one parse
plus order; per family, the least-squares slope of log(seconds) and
log(peak) over log(n). As a control, `control_s` times a loop that is
linear by construction, one `set(e)` per edge: an exponent above 1 that
it shares is the host's (allocation and memory), not an algorithm's.
Repeats, fresh interpreters and `--baseline` work as in
`tools/bench_dpll.py`:

    python3 tools/bench_front.py --baseline dba27ab -o BENCH_front.json

Families: chain and interval3 as there. The text lists the clauses in
order, one to a line, after a `p cnf` header, as `write_dimacs` would.
"""
from __future__ import annotations

import sys
import time

import bench_dpll

FAMILIES = {
    "chain": (800, 1600, 3200, 6400),
    "interval3": (800, 1600, 3200, 6400),
}
KEYS = ("parse_s", "order_s", "verify_s", "control_s", "front_peak_bytes")
SIZE = "n"
CALLS = 3


def dimacs_of(family: str, n: int) -> str:
    clauses = bench_dpll.clauses_of(family, n)
    lines = [" ".join(map(str, c)) + " 0" for c in clauses]
    return f"p cnf {n} {len(lines)}\n" + "\n".join(lines) + "\n"


def least_seconds(call) -> float:
    best = float("inf")
    for _ in range(CALLS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def measure(family: str, n: int, peak: bool = True) -> dict:
    """The timings, the peak (unless not `peak`) and the counts for the `betadnnf` found on sys.path."""
    from betadnnf.cnf import hypergraph_of, parse_dimacs
    from betadnnf.hypergraph import beta_condition_violation, beta_elimination_order

    text = dimacs_of(family, n)
    parse_s = least_seconds(lambda: parse_dimacs(text))
    hypergraph = hypergraph_of(parse_dimacs(text))
    order_s = least_seconds(lambda: beta_elimination_order(hypergraph))
    order = beta_elimination_order(hypergraph)
    verify_s = least_seconds(lambda: beta_condition_violation(hypergraph, order))
    control_s = least_seconds(lambda: [set(e) for e in hypergraph.edges])
    row = {"parse_s": parse_s, "order_s": order_s, "verify_s": verify_s, "control_s": control_s,
           "clauses": len(hypergraph), "text_bytes": len(text)}
    if peak:
        row["front_peak_bytes"] = bench_dpll.traced_peak(
            lambda: beta_elimination_order(hypergraph_of(parse_dimacs(text))))
    return row


if __name__ == "__main__":
    sys.exit(bench_dpll.run(None, sys.modules[__name__],
                            {"measured": "parse_dimacs(text); beta_elimination_order(hypergraph_of(formula))"}))
