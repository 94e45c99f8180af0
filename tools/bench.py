"""Scaling rows for one layer of betadnnf: DPLL, compiler or front end.

    python3 tools/bench.py LAYER [--baseline REV] [-o FILE]

For each family and size of the layer, a row holds the layer's timings,
its tracemalloc peak and its counts; per family, the exponents are the
least-squares slopes of log(seconds) and log(peak) over log(size).
Every measurement runs in a fresh interpreter as
`LAYER --measure FAMILY N [--no-peak]`, and a row keeps the least seconds
of its repeats, and next to each its spread over them (largest over
least, less one). The peak is traced in the first repeat only: it reads
the same in every repeat, and a traced run costs up to 10 times an
untraced one. With `--baseline REV`, the tree of that commit is extracted
by `git archive` into a temporary directory as the "before" tree, and
this tree's measuring code measures both. Each repeat measures the two
trees back to back, the first of them alternating, so that a drift of
the host's speed reaches both trees alike. The report's `command` names
the `-o` file as the repo root reaches it, or by its base name when it
lies outside the checkout, so that the command reruns from the root.

Layers:

- `dpll` (`BENCH_dpll.json`): seconds of `count_dpll` and of a traced
  `search` under the reverse-beta strategy, the peak of a traced search
  and its `DpllStats`; size is n. The formula's elimination order is
  computed by an untimed count first.
- `compile` (`BENCH_compile.json`): seconds of one `Compiler` set-up and
  run and of the first `count_models` on its circuit, the peaks of
  another run and of the first count on that freshly compiled circuit,
  and the gate, formula-size and cache-entry counts; size is the literal
  count (`formula_size`). The formula's elimination order is computed
  first and not timed.
- `front` (`BENCH_front.json`): seconds of `parse_dimacs` on DIMACS text
  built here, of `hypergraph_of` on a freshly parsed formula, of
  `beta_elimination_order` on the formula's hypergraph (with the
  re-verification it runs before returning) and of the standalone
  `beta_condition_violation` on that hypergraph and order, each the least
  of 3 calls in one interpreter, and the peak of one parse, hypergraph
  and order; size is n. As a control, `control_s` times a loop that is
  linear by construction, one `set(e)` per edge: an exponent above 1 that
  it shares is the host's (allocation and memory), not an algorithm's.
  The text lists the clauses in order, one to a line, after a
  `p cnf` header, as `write_dimacs` would.

Families: chain (clauses {i, i+1}), interval3 (every run of three and of
two consecutive variables), wide (one clause over 1..n: all positive for
`dpll`, every third literal negative for `compile`) and nested (one
clause on each edge {1..j}, j <= n, signs varying by variable and
clause). chain-long and interval3-long are the same clauses at
n = 12,800-51,200, where per-edge records that grow with n and the
cyclic collector's scans of them show; they are separate families so
that the shorter ladders keep their fitted exponents. All are built
here, so that a tree whose `betadnnf.generators` lacks them measures the
same formulas.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

REPO = Path(__file__).resolve().parent.parent
REPEATS = 5
CALLS = 3  # a front-end timing keeps the least of this many calls


def chain(n: int) -> list[list[int]]:
    return [[i, i + 1] for i in range(1, n)]


def interval3(n: int) -> list[list[int]]:
    return [[i, i + 1, i + 2] for i in range(1, n - 1)] + chain(n)


def positive_wide(n: int) -> list[list[int]]:
    return [list(range(1, n + 1))]


def signed_wide(n: int) -> list[list[int]]:
    return [[v if v % 3 else -v for v in range(1, n + 1)]]


def nested(n: int) -> list[list[int]]:
    return [[v if (v + j) % 3 else -v for v in range(1, j + 1)] for j in range(1, n + 1)]


def traced_peak(call) -> int:
    """The tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def seconds(call, calls: int = 1) -> float:
    """The least wall seconds of `calls` calls."""
    best = float("inf")
    for _ in range(calls):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def measure_dpll(clauses: list[list[int]], n: int, peak: bool) -> dict:
    from betadnnf import CnfFormula
    from betadnnf.dpll import OrderStrategy, count_dpll, search

    strategy = OrderStrategy.reverse_beta_elimination()
    formula = CnfFormula.from_ints(clauses)
    count_dpll(formula, strategy)
    row = {"count_s": seconds(lambda: count_dpll(formula, strategy))}
    start = time.perf_counter()
    _, stats, _ = search(formula, strategy, trace=True)
    row.update(trace_s=time.perf_counter() - start, stats=stats.to_dict())
    if peak:
        row["trace_peak_bytes"] = traced_peak(lambda: search(formula, strategy, trace=True))
    return row


def measure_compile(clauses: list[list[int]], n: int, peak: bool) -> dict:
    from betadnnf import CnfFormula, count_models
    from betadnnf.compiler import Compiler

    formula = CnfFormula.from_ints(clauses)
    formula._elimination_order()
    start = time.perf_counter()
    compiler = Compiler(formula)
    circuit, report = compiler.run()
    row = {"compile_s": time.perf_counter() - start, "formula_size": report.formula_size,
           "gates": report.gates, "cache_entries": len(compiler.cache)}
    row["count_s"] = seconds(lambda: count_models(circuit, formula.variables))
    if peak:
        fresh = []
        row["compile_peak_bytes"] = traced_peak(lambda: fresh.append(Compiler(formula).run()[0]))
        row["count_peak_bytes"] = traced_peak(lambda: count_models(fresh[0], formula.variables))
    return row


def measure_front(clauses: list[list[int]], n: int, peak: bool) -> dict:
    from betadnnf.cnf import hypergraph_of, parse_dimacs
    from betadnnf.hypergraph import beta_condition_violation, beta_elimination_order

    text = f"p cnf {n} {len(clauses)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    row = {"parse_s": seconds(lambda: parse_dimacs(text), CALLS)}
    fresh = [parse_dimacs(text) for _ in range(CALLS)]
    row["hypergraph_s"] = seconds(lambda: hypergraph_of(fresh.pop()), CALLS)
    hypergraph = hypergraph_of(parse_dimacs(text))
    row["order_s"] = seconds(lambda: beta_elimination_order(hypergraph), CALLS)
    order = beta_elimination_order(hypergraph)
    row["verify_s"] = seconds(lambda: beta_condition_violation(hypergraph, order), CALLS)
    row["control_s"] = seconds(lambda: [set(e) for e in hypergraph.edges], CALLS)
    row.update(clauses=len(hypergraph), text_bytes=len(text))
    if peak:
        row["front_peak_bytes"] = traced_peak(
            lambda: beta_elimination_order(hypergraph_of(parse_dimacs(text))))
    return row


class Layer(NamedTuple):
    measure: Callable[[list[list[int]], int, bool], dict]
    size: str  # the row field the exponents are fitted over
    keys: tuple[str, ...]  # each row keeps the least and spread of the times
    report: dict  # what the report says was measured
    families: dict[str, tuple[Callable[[int], list[list[int]]], tuple[int, ...]]]


LONG = (12800, 25600, 51200)
LAYERS = {
    "dpll": Layer(measure_dpll, "n", ("count_s", "trace_s", "trace_peak_bytes"),
                  {"strategy": "reverse-beta"},
                  {"chain": (chain, (400, 800, 1600, 3200)),
                   "interval3": (interval3, (300, 600, 1200, 2400)),
                   "wide": (positive_wide, (800, 1600, 3200))}),
    "compile": Layer(measure_compile, "formula_size",
                     ("compile_s", "count_s", "compile_peak_bytes", "count_peak_bytes"),
                     {"measured": "Compiler(formula).run(); count_models(circuit, formula.variables)"},
                     {"chain": (chain, (400, 800, 1600, 3200)),
                      "interval3": (interval3, (400, 800, 1600, 3200)),
                      "wide": (signed_wide, (1000, 2000, 4000, 8000)),
                      "nested": (nested, (50, 100, 200, 400)),
                      "chain-long": (chain, LONG),
                      "interval3-long": (interval3, LONG)}),
    "front": Layer(measure_front, "n",
                   ("parse_s", "hypergraph_s", "order_s", "verify_s", "control_s", "front_peak_bytes"),
                   {"measured": "parse_dimacs(text); beta_elimination_order(hypergraph_of(formula))"},
                   {"chain": (chain, (800, 1600, 3200, 6400)),
                    "interval3": (interval3, (800, 1600, 3200, 6400)),
                    "chain-long": (chain, LONG),
                    "interval3-long": (interval3, LONG)}),
}


def slope(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure_tree(layer: str, src: Path, family: str, n: int, peak: bool) -> dict:
    """One measurement in a fresh interpreter importing betadnnf from `src`."""
    argv = [sys.executable, __file__, layer, "--measure", family, str(n)] + ([] if peak else ["--no-peak"])
    env = dict(os.environ, PYTHONPATH=str(src))
    return json.loads(subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout)


def measure_trees(layer: str, trees: dict[str, Path]) -> dict[str, dict]:
    """Rows and exponents of `layer` for each named source tree. A row keeps
    the least of each time in the layer's keys over its repeats, as
    `<key>_spread` the largest over the least less one, and the peak (a
    `*_peak_bytes` key) and the other fields of the first repeat, the only
    one traced."""
    spec = LAYERS[layer]
    names = list(trees)
    rows: dict[str, list[dict]] = {name: [] for name in names}
    for family, (_, sizes) in spec.families.items():
        for n in sizes:
            runs: dict[str, list[dict]] = {name: [] for name in names}
            for k in range(REPEATS):
                for name in names if k % 2 == 0 else names[::-1]:
                    runs[name].append(measure_tree(layer, trees[name], family, n, peak=k == 0))
            for name, got in runs.items():
                row = {"family": family, "n": n, **got[0]}
                for key in spec.keys:
                    if key.endswith("_peak_bytes"):
                        continue
                    least, most = min(r[key] for r in got), max(r[key] for r in got)
                    row[key] = round(least, 4)
                    row[f"{key}_spread"] = round(most / least - 1, 3)
                rows[name].append(row)
    out = {}
    for name, mine in rows.items():
        exponents = {}
        for family in spec.families:
            part = [r for r in mine if r["family"] == family]
            xs = [r[spec.size] for r in part]
            exponents[family] = {key: round(slope(xs, [r[key] for r in part]), 3) for key in spec.keys}
        out[name] = {"rows": mine, "exponents": exponents}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", choices=LAYERS)
    parser.add_argument("--baseline", metavar="REV", help="also measure this commit, alternating with the working tree")
    parser.add_argument("-o", "--output", type=Path, help="write the JSON here, not to stdout")
    parser.add_argument("--measure", nargs=2, metavar=("FAMILY", "N"), help=argparse.SUPPRESS)
    parser.add_argument("--no-peak", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = LAYERS[args.layer]
    if args.measure:  # the child process of measure_tree
        family, n = args.measure[0], int(args.measure[1])
        build, _ = spec.families[family]
        print(json.dumps(spec.measure(build(n), n, not args.no_peak)))
        return 0
    command = ["python3", "tools/bench.py", args.layer] + (["--baseline", args.baseline] if args.baseline else [])
    if args.output:  # as reached from the repo root, so that the record reruns there
        output = args.output.resolve()
        command += ["-o", str(output.relative_to(REPO) if output.is_relative_to(REPO) else output.name)]
    report = {
        "command": " ".join(command),
        **spec.report,
        "repeats": REPEATS,
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "runs": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        if args.baseline:
            archive = subprocess.run(["git", "-C", str(REPO), "archive", args.baseline],
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            trees["before"] = Path(tmp) / "src"
        trees["after"] = REPO / "src"
        for name, measured in measure_trees(args.layer, trees).items():
            rev = args.baseline if name == "before" else "working tree"
            report["runs"][name] = {"rev": rev, **measured}
    text = json.dumps(report, indent=1) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
