"""Scaling rows for the DPLL engine under the reverse-beta strategy.

For each family and size: seconds of `count_dpll` and of a traced
`search`, the tracemalloc peak of a traced search, and its `DpllStats`;
per family, the least-squares slope of log(seconds) and log(peak) over
log(size). Every measurement runs in a fresh interpreter, and a row keeps
the least seconds of its repeats, and next to each its spread over them
(largest over least, less one). The peak is traced in the first repeat
only: it reads the same in every repeat, and a traced run costs up to
10 times an untraced one. With `--baseline REV`, the
tree of that commit is extracted by `git archive` into a temporary
directory as the "before" tree. Each repeat then measures the two trees
back to back, the first of them alternating, so that a drift of the
host's speed reaches both trees alike.

    python3 tools/bench_dpll.py --baseline 8a6bcd1 -o BENCH_dpll.json

Families: chain (clauses {i, i+1}), interval3 (every run of three and of
two consecutive variables) and wide (one clause over 1..n).

`tools/bench_compile.py` runs its own measurement through `run`.
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
KEYS = ("count_s", "trace_s", "trace_peak_bytes")  # each row keeps the least and spread of the times
SIZE = "n"  # the row field the exponents are fitted over
REPEATS = 5


def clauses_of(family: str, n: int) -> list[list[int]]:
    if family == "chain":
        return [[i, i + 1] for i in range(1, n)]
    if family == "interval3":
        return [[i, i + 1, i + 2] for i in range(1, n - 1)] + [[i, i + 1] for i in range(1, n)]
    if family == "wide":
        return [list(range(1, n + 1))]
    raise ValueError(f"unknown family {family!r}")


def slope(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure(family: str, n: int, peak: bool = True) -> dict:
    """One timing of each kind, the peak (unless not `peak`) and the stats
    for the `betadnnf` found on sys.path. An untimed count first computes
    the formula's elimination order, which the formula keeps."""
    from betadnnf import CnfFormula
    from betadnnf.dpll import OrderStrategy, count_dpll, search

    strategy = OrderStrategy.reverse_beta_elimination()
    formula = CnfFormula.from_ints(clauses_of(family, n))
    count_dpll(formula, strategy)
    start = time.perf_counter()
    count_dpll(formula, strategy)
    count_s = time.perf_counter() - start
    start = time.perf_counter()
    _, stats, _ = search(formula, strategy, trace=True)
    trace_s = time.perf_counter() - start
    row = {"count_s": count_s, "trace_s": trace_s, "stats": stats.to_dict()}
    if peak:
        row["trace_peak_bytes"] = traced_peak(lambda: search(formula, strategy, trace=True))
    return row


def traced_peak(call) -> int:
    """The tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure_tree(script: str, src: Path, family: str, n: int, peak: bool) -> dict:
    """`script`'s measurement in a fresh interpreter importing betadnnf from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, script, "--measure", family, str(n)] + ([] if peak else ["--no-peak"])
    out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def measure_trees(tool, trees: dict[str, Path]) -> dict[str, dict]:
    """Rows and exponents of a tool module (see `run`) for each named source
    tree. A row keeps the least of each time in `KEYS` over its repeats, as
    `<key>_spread` the largest over the least less one, and the peak (a
    `*_peak_bytes` key) and the other fields of the first repeat, the only
    one traced."""
    script, families, keys = tool.__file__, tool.FAMILIES, tool.KEYS
    names = list(trees)
    rows: dict[str, list[dict]] = {name: [] for name in names}
    for family, sizes in families.items():
        for n in sizes:
            runs: dict[str, list[dict]] = {name: [] for name in names}
            for k in range(REPEATS):
                for name in names if k % 2 == 0 else names[::-1]:
                    runs[name].append(measure_tree(script, trees[name], family, n, peak=k == 0))
            for name, got in runs.items():
                row = {"family": family, "n": n, **got[0]}
                for key in keys:
                    if key.endswith("_peak_bytes"):
                        continue
                    least, most = min(r[key] for r in got), max(r[key] for r in got)
                    row[key] = round(least, 4) if isinstance(least, float) else least
                    row[f"{key}_spread"] = round(most / least - 1, 3)
                rows[name].append(row)
    out = {}
    for name, mine in rows.items():
        exponents = {}
        for family in families:
            part = [r for r in mine if r["family"] == family]
            xs = [r[tool.SIZE] for r in part]
            exponents[family] = {key: round(slope(xs, [r[key] for r in part]), 3) for key in keys}
        out[name] = {"rows": mine, "exponents": exponents}
    return out


def main(argv=None) -> int:
    return run(argv, sys.modules[__name__], {"strategy": "reverse-beta"})


def run(argv, tool, extra: dict) -> int:
    """The command line of a tool module with `FAMILIES`, `KEYS`, `SIZE`
    and `measure`: `--measure` measures in this process, and otherwise the
    trees are measured and reported with the fields of `extra`."""
    parser = argparse.ArgumentParser(description=tool.__doc__.splitlines()[0])
    parser.add_argument("--baseline", metavar="REV", help="also measure this commit, alternating with the working tree")
    parser.add_argument("-o", "--output", type=Path, help="write the JSON here, not to stdout")
    parser.add_argument("--measure", nargs=2, metavar=("FAMILY", "N"), help=argparse.SUPPRESS)
    parser.add_argument("--no-peak", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:  # the child process of measure_tree
        print(json.dumps(tool.measure(args.measure[0], int(args.measure[1]), peak=not args.no_peak)))
        return 0
    repo = Path(tool.__file__).resolve().parent.parent
    given = argv if argv is not None else sys.argv[1:]
    report = {
        "command": " ".join(["python3", f"tools/{Path(tool.__file__).name}", *given]),
        **extra,
        "repeats": REPEATS,
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "runs": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        if args.baseline:
            archive = subprocess.run(["git", "-C", str(repo), "archive", args.baseline],
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            trees["before"] = Path(tmp) / "src"
        trees["after"] = repo / "src"
        for name, measured in measure_trees(tool, trees).items():
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
