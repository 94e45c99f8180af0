"""Benchmark of the betadnnf toolkit: one seeded workload per run.

    python3 perfbench/run.py --workload compile-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The load is a closed loop in one process and one thread: the
workload's jobs run one after another, pass after pass, until `--seconds`
have gone by. Every answer is checked against a reference computed by
`inputs.py`, never by the program. With `--trace 0` the last line of
standard output is the JSON result with the end-to-end metrics of
BENCHMARK.json; with `--trace 1`, plain and traced passes alternate and
the line holds the per-layer metrics, tracing overhead included. Details
(per-job medians, input and output digests, spans) go to
`.perfbench/<workload>-s<seed>-t<trace>/`.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up repeats until it has run at least this often and this long.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 5, 0.5, 30
# The host's speed for interpreted code drifts by up to half within a
# minute when neighbours load it, and a change of program cannot be told
# from such a drift. Every time metric is therefore scaled to a reference
# speed: each job's seconds times KERNEL_REF_S over the median time of
# `speed_kernel` run KERNEL_REPEATS times just before and just after the
# job. Jobs shorter than CALIBRATE_EVERY_S share a calibration with their
# neighbours. The raw seconds and kernel times go to result.json.
KERNEL_REF_S = 0.012
CALIBRATE_EVERY_S = 0.1
KERNEL_REPEATS = 3
# seed whose input digest is pinned in pins.json: a change to the input
# generators shows as a failed run instead of a silently different pool
PIN_SEED = 0
MODULES = ("cli", "cnf", "hypergraph", "compiler", "circuit", "dpll", "lowerbounds", "errors")


def load_program():
    """The betadnnf package of this checkout, or None when it is absent."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        program = importlib.import_module("betadnnf")
        for name in MODULES:
            importlib.import_module(f"betadnnf.{name}")
    except ImportError as exc:
        print(f"cannot import betadnnf from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    if not Path(program.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"betadnnf imported from {program.__file__}, not from this checkout",
              file=sys.stderr)
        return None
    return program


def speed_kernel() -> float:
    """Seconds that a fixed piece of set and dict work, independent of
    betadnnf, takes right now."""
    start = time.perf_counter()
    seen: dict[frozenset[int], int] = {}
    for i in range(15_000):
        key = frozenset((i % 97, (i * 7) % 101, i % 13))
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


def digest(parts) -> str:
    h = hashlib.sha256()
    for name, data in parts:
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def input_digest(found) -> str:
    return digest((inst.name, inst.text.encode("ascii")) for _kind, inst in found)


def run_job(program, job, tracer):
    """(seconds, outcome, reason, emitted bytes) of one job."""
    errors = program.errors
    failure = None
    if tracer is not None:
        tracer.job = job.name
    start = time.perf_counter()
    try:
        result = job.run()
    except (errors.CapExceededError, errors.BudgetExceededError) as exc:
        failure = "refused", repr(exc)
    except (errors.NotBetaAcyclicError, errors.CircuitPropertyError, ValueError) as exc:
        failure = "error", repr(exc)
    except Exception as exc:  # a traceback is an outcome to report, not a crash
        failure = "traceback", repr(exc)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.job = None
    if failure is not None:
        return seconds, *failure, b""
    try:
        outcome, reason, emitted = job.check(result)
    except Exception as exc:  # output the check could not read is wrong output
        outcome, reason, emitted = "wrong", f"unreadable output: {exc!r}", b""
    return seconds, outcome, reason, emitted


def calibrate() -> list[float]:
    return [speed_kernel() for _ in range(KERNEL_REPEATS)]


def to_reference(seconds: float, before: list[float], after: list[float]) -> float:
    """Seconds at reference speed, from the kernel times around them."""
    return seconds * KERNEL_REF_S / statistics.median(before + after)


def run_pass(program, jobs, tracer, emitted, outcomes, failures):
    """Run every job once, calibrating between jobs. Return the raw and
    the reference-speed job seconds and the kernel times. Outcomes and
    failures are tallied in place, and a job's emitted bytes must match
    those of its first pass."""
    if tracer is not None:
        tracer.install()
    blocks, owner, raw, since = [], [], [], CALIBRATE_EVERY_S
    try:
        for job in jobs:
            if since >= CALIBRATE_EVERY_S:
                blocks.append(calibrate())
                since = 0.0
            owner.append(len(blocks) - 1)
            # every job starts with the collector in the same state
            gc.collect()
            seconds, outcome, reason, data = run_job(program, job, tracer)
            since += seconds
            raw.append(seconds)
            if job.name not in emitted:
                emitted[job.name] = data
            elif outcome == "ok" and data != emitted[job.name]:
                outcome, reason = "wrong", "output differs from the first pass"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if outcome != "ok":
                failures.append(f"{job.name}: {outcome}: {reason}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    blocks.append(calibrate())
    scaled = [to_reference(sec, blocks[b], blocks[b + 1]) for sec, b in zip(raw, owner)]
    return raw, scaled, blocks


def slope(points) -> float:
    """Least-squares slope of log(seconds) on log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(max(sec, 1e-9)) for _, sec in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def end_to_end(jobs, walls, per_job, emitted, setup_s) -> dict[str, float]:
    """End-to-end metrics from reference-speed job seconds."""
    medians = [statistics.median(per_job[job.name]) for job in jobs]
    families: dict[str, list[tuple[int, float]]] = {}
    for job, sec in zip(jobs, medians):
        families.setdefault(job.family, []).append((job.size, sec))
    fitted = [slope(points) for points in families.values() if len({s for s, _ in points}) > 1]
    percentiles = statistics.quantiles(medians, n=100, method="inclusive")
    return {
        "wall_s": statistics.median(walls),
        "largest_s": statistics.fmean(sorted(medians)[-math.ceil(len(medians) / 20):]),
        "scaling_exponent": max(fitted),
        "job_p50_ms": 1000 * statistics.median(medians),
        "job_p98_ms": 1000 * percentiles[97],
        "output_lines": sum(data.count(b"\n") for data in emitted.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile-ladder", "dpll-trace", "crosscheck-pool", "order-check"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    if program is None:
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setups, scaled_setups, before = [], [], calibrate()
    while len(setups) < SETUP_MAX_REPEATS and (
            len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS):
        start = time.perf_counter()
        found = workloads.instances(args.workload, args.seed)
        jobs = workloads.jobs(program, found, workdir)
        setups.append(time.perf_counter() - start)
        after = calibrate()
        scaled_setups.append(to_reference(setups[-1], before, after))
        before = after
    setup_s = statistics.median(scaled_setups)
    # the benchmark's own objects stay out of the collections the jobs cause
    gc.collect()
    gc.freeze()

    per_job = {job.name: [] for job in jobs}
    outcomes: dict[str, int] = {}
    failures: list[str] = []
    emitted: dict[str, bytes] = {}
    walls, traced_walls, tracers, raw_log, kernel_log = [], [], [], [], []
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(walls) > len(traced_walls)
        tracer = tracing.Tracer() if traced else None
        raw, scaled, kernels = run_pass(program, jobs, tracer, emitted, outcomes, failures)
        raw_log.append(raw)
        kernel_log.append(kernels)
        if traced:
            traced_walls.append(sum(scaled))
            tracers.append(tracer)
        else:
            walls.append(sum(scaled))
            for job, seconds in zip(jobs, scaled):
                per_job[job.name].append(seconds)
        if time.perf_counter() - start >= args.seconds and (args.trace == 0 or tracers):
            break

    if args.trace:
        metrics = tracing.layer_metrics(tracers, traced_walls, walls)
        spans = [span + [i] for i, t in enumerate(tracers) for span in t.spans]
        (workdir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job", "pass"], "spans": spans}))
        self_seconds = dict(tracers[-1].self_seconds())
    else:
        metrics = end_to_end(jobs, walls, per_job, emitted, setup_s)
        self_seconds = {}

    pinned = json.loads((HERE / "pins.json").read_text())[args.workload]
    pin_ok = input_digest(workloads.instances(args.workload, PIN_SEED)) == pinned
    if not pin_ok:
        failures.append(f"inputs of seed {PIN_SEED} no longer match pins.json")

    attempted = sum(outcomes.values())
    failed = attempted - outcomes.get("ok", 0)
    units = {m["name"]: m["unit"] for m in wanted}
    missing = set(units) - set(metrics)
    if missing:
        print(f"metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0 and pin_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(walls) + len(traced_walls),
        "outcomes": outcomes,
        "fail_ratio": failed / attempted,
        "failures": failures[:50],
        "inputs_sha256": input_digest(found),
        "outputs_sha256": digest(emitted.items()),
        "jobs": [{"name": j.name, "family": j.family, "size": j.size,
                  "median_s": statistics.median(per_job[j.name])} for j in jobs],
        "raw_setup_s": setups,
        "pass_raw_job_s": raw_log,
        "pass_kernel_s": kernel_log,
        "span_self_s": self_seconds,
        "result": result,
    }
    (workdir / "result.json").write_text(json.dumps(details, indent=1))
    for key in ("passes", "outcomes", "fail_ratio", "inputs_sha256", "outputs_sha256"):
        print(f"{key}: {details[key]}")
    for line in failures[:10]:
        print(f"failure: {line}")
    for name, value in result["metrics"].items():
        print(f"{name}: {value['value']:.6g} {value['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
