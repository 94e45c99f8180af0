"""Spans and counters around the program's public callables.

The tracer rebinds each traced function at every module binding a caller
resolves (`compiler.sub_hypergraph`, `cli`'s `dpll_mod.count_dpll`, the
package re-exports) and each traced method on its class. Spans record
name, start, end, parent and job; hot, tiny calls get a call counter
only, so that tracing stays cheap. Nothing is recorded outside a job,
so the benchmark's own answer checks do not count as program work.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from statistics import median

# module, attribute (Class.method for methods), span or counter name
SPANS = [
    ("cli", "main", "cli.main"),
    ("cnf", "parse_dimacs", "cnf.parse_dimacs"),
    ("cnf", "write_dimacs", "cnf.write_dimacs"),
    ("cnf", "hypergraph_of", "cnf.hypergraph_of"),
    ("cnf", "brute_force_count", "cnf.brute_force_count"),
    ("hypergraph", "beta_elimination_order", "hypergraph.beta_elimination_order"),
    ("hypergraph", "beta_condition_violation", "hypergraph.beta_condition_violation"),
    ("hypergraph", "connected_components", "hypergraph.connected_components"),
    ("hypergraph", "sub_hypergraph", "hypergraph.sub_hypergraph"),
    ("compiler", "compile_cnf", "compiler.compile_cnf"),
    ("compiler", "Compiler.__init__", "compiler.init"),
    ("compiler", "Compiler.run", "compiler.run"),
    ("compiler", "Compiler.compute_U", "compiler.compute_U"),
    ("circuit", "prune_unreachable", "circuit.prune_unreachable"),
    ("circuit", "write_nnf", "circuit.write_nnf"),
    ("circuit", "read_nnf", "circuit.read_nnf"),
    ("circuit", "count_models", "circuit.count_models"),
    ("circuit", "check_decomposable", "circuit.check_decomposable"),
    ("circuit", "check_decision", "circuit.check_decision"),
    ("dpll", "count_dpll", "dpll.count_dpll"),
    ("dpll", "trace_to_circuit", "dpll.trace_to_circuit"),
    ("lowerbounds", "hat", "lowerbounds.hat"),
    ("lowerbounds", "hat_preserves_beta", "lowerbounds.hat_preserves_beta"),
]
COUNTERS = [
    ("compiler", "Compiler.decision_step", "compiler.decision_step"),
    ("compiler", "Compiler.reachable_edges", "compiler.reachable_edges"),
]


PACKAGE = "betadnnf"


class Tracer:
    """Collects spans, call counts and result-derived totals for one
    traced pass; `install` and `uninstall` bracket the pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.totals: Counter = Counter()
        self.peak_depth = 0
        self.job: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._rebind(module, attr, lambda fn, name=name: self._span(name, fn))
        for module, attr, name in COUNTERS:
            self._rebind(module, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, module: str, attr: str, make) -> None:
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[method]
            self._undo.append((owner, method, original))
            setattr(owner, method, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, binding, original))
                    setattr(loaded, binding, wrapper)

    def _span(self, name: str, fn):
        after = {
            "compiler.run": self._after_run,
            "circuit.write_nnf": self._after_write_nnf,
            "dpll.count_dpll": self._after_count_dpll,
        }.get(name)
        spans, stack, calls = self.spans, self.stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            calls[name] += 1
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is not None:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------- totals read from public state

    def _after_run(self, args, result) -> None:
        compiler, (circuit, _report) = args[0], result
        self.totals["compiler.cache_entries"] += len(compiler.cache)
        self.totals["compiler.builder_gates"] += len(compiler.builder)
        self.totals["compiler.final_gates"] += circuit.size

    def _after_write_nnf(self, args, _result) -> None:
        circuit = args[0]
        gate_children = sys.modules[f"{PACKAGE}.circuit"].gate_children
        self.totals["circuit.gates"] += circuit.size
        self.totals["circuit.child_edges"] += sum(len(gate_children(g)) for g in circuit.gates)
        self.totals["circuit.varset_elements"] += sum(len(v) for v in circuit.varsets)

    def _after_count_dpll(self, _args, result) -> None:
        stats = result[1]
        for field in ("decisions", "component_splits", "cache_hits", "cache_misses"):
            self.totals["dpll." + field] += getattr(stats, field)
        self.peak_depth = max(self.peak_depth, stats.peak_residuals)

    # ------------------------------------------------------------ metrics

    def inclusive_seconds(self) -> Counter:
        """Span time per name, counting only spans with no same-named
        ancestor so that nested calls are not counted twice."""
        out: Counter = Counter()
        for span in self.spans:
            name, parent = span[0], span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] += span[2] - span[1]
        return out

    def self_seconds(self) -> Counter:
        """Span time per name minus the time its child spans cover."""
        out: Counter = Counter()
        for span in self.spans:
            out[span[0]] += span[2] - span[1]
        for span in self.spans:
            if span[3] >= 0:
                out[self.spans[span[3]][0]] -= span[2] - span[1]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracers: list[Tracer], traced_walls: list[float],
                  plain_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run: span seconds are medians over the
    traced passes; counts come from the last traced pass, since every pass
    runs the same jobs."""
    inclusive = [t.inclusive_seconds() for t in tracers]
    selfs = [t.self_seconds() for t in tracers]
    out: dict[str, float] = {}
    for _module, _attr, name in SPANS:
        out[name + "_s"] = median(s[name] for s in inclusive)
    out["cli.self_s"] = median(s["cli.main"] for s in selfs)
    last = tracers[-1]
    calls, totals = last.calls, last.totals
    out["hypergraph.beta_elimination_order_calls"] = calls["hypergraph.beta_elimination_order"]
    out["hypergraph.sub_hypergraph_calls"] = calls["hypergraph.sub_hypergraph"]
    out["compiler.compute_U_calls"] = calls["compiler.compute_U"]
    out["compiler.decision_step_calls"] = calls["compiler.decision_step"]
    out["compiler.reachable_edges_calls"] = calls["compiler.reachable_edges"]
    out["compiler.reach_memo_hit_ratio"] = (
        1.0 - _ratio(calls["hypergraph.sub_hypergraph"], calls["compiler.reachable_edges"])
        if calls["compiler.reachable_edges"] else 0.0
    )
    out["compiler.cache_entries"] = totals["compiler.cache_entries"]
    out["compiler.builder_gates"] = totals["compiler.builder_gates"]
    out["compiler.prune_keep_ratio"] = _ratio(totals["compiler.final_gates"],
                                              totals["compiler.builder_gates"])
    out["compiler.compute_U_share"] = _ratio(out["compiler.compute_U_s"], out["compiler.run_s"])
    for name in ("circuit.gates", "circuit.child_edges", "circuit.varset_elements"):
        out[name] = totals[name]
    out["dpll.search_passes"] = calls["dpll.count_dpll"] + calls["dpll.trace_to_circuit"]
    for field in ("decisions", "component_splits", "cache_hits", "cache_misses"):
        out["dpll." + field] = totals["dpll." + field]
    out["dpll.cache_hit_ratio"] = _ratio(
        totals["dpll.cache_hits"], totals["dpll.cache_hits"] + totals["dpll.cache_misses"]
    )
    out["dpll.peak_depth"] = last.peak_depth
    out["trace_overhead"] = _ratio(median(traced_walls), median(plain_walls))
    return out
