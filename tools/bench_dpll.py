"""Scaling rows for the DPLL engine under the reverse-beta strategy.

For each family and size: seconds of `count_dpll` and of a traced
`search`, the tracemalloc peak of a traced search, and its `DpllStats`;
per family, the least-squares slope of log(seconds) and log(peak) over
log(size). Each source tree is measured in a fresh interpreter. With
`--baseline REV`, the tree of that commit is extracted by `git archive`
into a temporary directory and measured first, as the "before" rows.

    python3 tools/bench_dpll.py --baseline 8a6bcd1 -o BENCH_dpll.json

Families: chain (clauses {i, i+1}), interval3 (every run of three and of
two consecutive variables) and wide (one clause over 1..n).
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

FAMILIES = {
    "chain": (400, 800, 1600, 3200),
    "interval3": (300, 600, 1200, 2400),
    "wide": (800, 1600, 3200),
}
TIME_BUDGET_S = 2.0  # repeat a timing, up to 3 runs, while the runs total less


def clauses_of(family: str, n: int) -> list[list[int]]:
    if family == "chain":
        return [[i, i + 1] for i in range(1, n)]
    if family == "interval3":
        return [[i, i + 1, i + 2] for i in range(1, n - 1)] + [[i, i + 1] for i in range(1, n)]
    if family == "wide":
        return [list(range(1, n + 1))]
    raise ValueError(f"unknown family {family!r}")


def best_seconds(run) -> float:
    times: list[float] = []
    while len(times) < 3 and sum(times) < TIME_BUDGET_S:
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def slope(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure() -> dict:
    """Rows and exponents for the `betadnnf` found on sys.path."""
    from betadnnf import CnfFormula
    from betadnnf.dpll import OrderStrategy, count_dpll, search

    strategy = OrderStrategy.reverse_beta_elimination()
    rows, exponents = [], {}
    for family, sizes in FAMILIES.items():
        for n in sizes:
            formula = CnfFormula.from_ints(clauses_of(family, n))
            count_s = best_seconds(lambda: count_dpll(formula, strategy))
            trace_s = best_seconds(lambda: search(formula, strategy, trace=True))
            tracemalloc.start()
            try:
                _, stats, _ = search(formula, strategy, trace=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows.append({"family": family, "n": n, "count_s": round(count_s, 4),
                         "trace_s": round(trace_s, 4), "trace_peak_bytes": peak,
                         "stats": stats.to_dict()})
        mine = [r for r in rows if r["family"] == family]
        exponents[family] = {key: round(slope(sizes, [r[key] for r in mine]), 3)
                             for key in ("count_s", "trace_s", "trace_peak_bytes")}
    return {"rows": rows, "exponents": exponents}


def measure_tree(src: Path) -> dict:
    """`measure` in a fresh interpreter importing betadnnf from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, __file__, "--measure"],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", metavar="REV", help="also measure this commit, first")
    parser.add_argument("-o", "--output", type=Path, help="write the JSON here, not to stdout")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:  # the child process of measure_tree
        print(json.dumps(measure()))
        return 0
    repo = Path(__file__).resolve().parent.parent
    report = {
        "command": "python3 tools/bench_dpll.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "strategy": "reverse-beta",
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "runs": {},
    }
    if args.baseline:
        with tempfile.TemporaryDirectory() as tmp:
            archive = subprocess.run(["git", "-C", str(repo), "archive", args.baseline],
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            report["runs"]["before"] = {"rev": args.baseline,
                                        **measure_tree(Path(tmp) / "src")}
    report["runs"]["after"] = {"rev": "working tree", **measure_tree(repo / "src")}
    text = json.dumps(report, indent=1) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
