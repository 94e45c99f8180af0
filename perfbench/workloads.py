"""The four workloads: seeded instances, the jobs run on them, and the
checks of each job's answer against the reference in `inputs`.

A job's `run` is the timed call into the program; its `check` runs after
the timer stops and returns (outcome, reason, emitted NNF/DIMACS bytes).
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

# (job kind, family, sizes) per ladder workload. Sizes are set so that one
# pass takes a few seconds on a 2-core machine, which leaves several passes
# per run to take medians over.
LADDERS = {
    "compile-ladder": [
        ("compile", "chain", (16, 32, 64)),
        ("compile", "interval3", (10, 20, 40)),
        ("compile", "hat-chain", (12, 24, 48)),
    ],
    "dpll-trace": [
        ("dpll", "chain", (32, 64, 128)),
        ("dpll", "wide", (800,)),
    ],
    "order-check": [
        ("check+order", "chain", (250, 500, 1000)),
        ("check+order", "interval3", (125, 250, 500)),
        ("hat", "chain", (40, 80, 160)),
        ("check", "cycle", (200,)),
    ],
}
POOL_SIZE = 500


@dataclass
class Job:
    name: str
    family: str  # jobs of one family form one line of the scaling fit
    size: int  # variable occurrences of the input formula
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str, bytes]]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def instances(workload: str, seed: int) -> list[tuple[str, inputs.Instance]]:
    """(job kind, formula) pairs of the workload; equal seeds give equal texts."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "crosscheck-pool":
        return [("pool", inputs.pool_instance(i, rng)) for i in range(POOL_SIZE)]
    if workload not in LADDERS:
        raise ValueError(f"unknown workload {workload!r}")
    return [(kind, inputs.ladder_instance(family, n, rng))
            for kind, family, sizes in LADDERS[workload] for n in sizes]


def jobs(program, found: list[tuple[str, inputs.Instance]], workdir: Path) -> list[Job]:
    """Write the input files and build the job list."""
    out = []
    for kind, inst in found:
        if kind == "pool":
            out.append(_pool_job(program, inst))
            continue
        path = workdir / f"{inst.name}.cnf"
        path.write_text(inst.text, encoding="ascii")
        out += [make(program, inst, path) for make in _MAKERS[kind]]
    return out


# --------------------------------------------------------------- helpers

def call_cli(program, argv: list[str]) -> CliResult:
    """`betadnnf.cli.main` in-process, looked up at call time so that a
    tracer's wrapper is the one called."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = program.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _exit_outcome(result: CliResult, expected: int) -> tuple[str, str] | None:
    """None when the exit code is the expected one, else the outcome."""
    if result.code == expected:
        return None
    kind = {2: "error", 3: "refused"}.get(result.code, "wrong")
    return kind, f"exit {result.code}, expected {expected}: {result.stderr.strip()[:200]}"


def _counting_set(inst: inputs.Instance) -> range:
    return range(1, inst.num_vars + 1)


def _circuit_count(program, data: bytes, inst: inputs.Instance) -> int:
    return program.circuit.count_models(program.circuit.read_nnf(data), _counting_set(inst))


# ------------------------------------------------------------------ jobs

def _compile_job(program, inst, path: Path) -> Job:
    target = path.with_suffix(".nnf")
    argv = ["--json", "compile", str(path), "-o", str(target)]

    def check(result: CliResult):
        bad = _exit_outcome(result, 0)
        if bad:
            return (*bad, b"")
        data = target.read_bytes()
        report = json.loads(result.stdout.splitlines()[-1])
        n = _circuit_count(program, data, inst)
        if n != inst.count:
            return "wrong", f"circuit counts {n}, reference {inst.count}", data
        if report["gates"] != int(data.split(None, 2)[1]):
            return "wrong", "report gate count differs from the written circuit", data
        return "ok", "", data

    return Job(inst.name, inst.family, inst.size, lambda: call_cli(program, argv), check)


def _dpll_job(program, inst, path: Path) -> Job:
    target = path.with_suffix(".trace.nnf")
    argv = ["--json", "dpll", str(path), "--strategy", "reverse-beta", "--trace", str(target)]

    def check(result: CliResult):
        bad = _exit_outcome(result, 0)
        if bad:
            return (*bad, b"")
        data = target.read_bytes()
        lines = result.stdout.splitlines()
        json.loads(lines[1])  # the DpllStats report must parse
        if int(lines[0]) != inst.count:
            return "wrong", f"dpll printed {lines[0]}, reference {inst.count}", data
        n = _circuit_count(program, data, inst)
        if n != inst.count:
            return "wrong", f"trace counts {n}, reference {inst.count}", data
        return "ok", "", data

    return Job(inst.name, inst.family, inst.size, lambda: call_cli(program, argv), check)


def _check_job(program, inst, path: Path) -> Job:
    acyclic = inst.family != "cycle"
    argv = ["check", str(path)]

    def check(result: CliResult):
        bad = _exit_outcome(result, 0 if acyclic else 1)
        if bad:
            return (*bad, b"")
        lines = result.stdout.splitlines()
        if lines[0] != ("beta-acyclic: yes" if acyclic else "beta-acyclic: no"):
            return "wrong", f"verdict {lines[0]!r}", b""
        if acyclic:
            order = [int(v) for v in lines[1].removeprefix("order:").split()]
            if not inputs.is_elimination_order(inst.clauses, order):
                return "wrong", "printed order is not a beta-elimination order", b""
        return "ok", "", b""

    return Job(f"check-{inst.name}", f"check-{inst.family}", inst.size,
               lambda: call_cli(program, argv), check)


def _order_job(program, inst, path: Path) -> Job:
    argv = ["order", str(path)]

    def check(result: CliResult):
        bad = _exit_outcome(result, 0)
        if bad:
            return (*bad, b"")
        order = [int(v) for v in result.stdout.split()]
        if not inputs.is_elimination_order(inst.clauses, order):
            return "wrong", "printed order is not a beta-elimination order", b""
        return "ok", "", b""

    return Job(f"order-{inst.name}", f"order-{inst.family}", inst.size,
               lambda: call_cli(program, argv), check)


def _hat_job(program, inst, path: Path) -> Job:
    target = path.with_suffix(".hat.cnf")
    argv = ["hat", str(path), "-o", str(target)]

    def check(result: CliResult):
        bad = _exit_outcome(result, 0)
        if bad:
            return (*bad, b"")
        data = target.read_bytes()
        widened = inputs.read_clauses(data.decode("ascii"))
        base, m = inst.num_vars, len(inst.clauses)
        fresh = [l for c in widened for l in c if abs(l) > base]
        stripped = {tuple(sorted(l for l in c if abs(l) <= base)) for c in widened}
        if (sorted(fresh) != list(range(base + 1, base + m + 1))
                or any(sum(abs(l) > base for l in c) != 1 for c in widened)
                or stripped != {tuple(sorted(c)) for c in inst.clauses}):
            return "wrong", "output is not the clauses each widened by one fresh variable", data
        if "preserved: yes" not in result.stderr:
            return "wrong", "beta-acyclicity not reported as preserved", data
        return "ok", "", data

    return Job(f"hat-{inst.name}", "hat-chain", inst.size, lambda: call_cli(program, argv), check)


def _pool_job(program, inst) -> Job:
    """The cross-check of one small formula through the public library."""
    bd, over = program, _counting_set(inst)

    def run():
        formula = bd.parse_dimacs(inst.text)
        reparsed = bd.parse_dimacs(bd.write_dimacs(formula))
        circuit, _report = bd.compile_cnf(formula)
        compiled = bd.count_models(circuit, over)
        searched, _stats = bd.count_dpll(formula, bd.OrderStrategy.reverse_beta_elimination())
        searched <<= inst.num_vars - len(formula.variables)
        brute = bd.brute_force_count(formula, over)
        structural = bd.check_decomposable(circuit)[0] and bd.check_decision(circuit)[0]
        text = bd.write_nnf(circuit)
        rewritten = bd.write_nnf(bd.read_nnf(text))
        same_clauses = reparsed.clauses == formula.clauses
        return compiled, searched, brute, structural, text, rewritten, same_clauses

    def check(result):
        compiled, searched, brute, structural, text, rewritten, same_clauses = result
        data = text.encode("ascii")
        if not same_clauses:
            return "wrong", "DIMACS write/parse changed the clauses", data
        if not (compiled == searched == brute == inst.count):
            return ("wrong", f"compile {compiled}, dpll {searched}, brute {brute}, "
                    f"reference {inst.count}", data)
        if not structural:
            return "wrong", "compiled circuit fails a structural check", data
        if rewritten != text:
            return "wrong", "NNF write/read round trip is not byte-stable", data
        return "ok", "", data

    return Job(inst.name, "pool", inst.size, run, check)


_MAKERS = {
    "compile": [_compile_job],
    "dpll": [_dpll_job],
    "check+order": [_check_job, _order_job],
    "hat": [_hat_job],
    "check": [_check_job],
}
