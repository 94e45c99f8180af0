"""The benchmark tracer rebinds program functions by name. A rename in
the package must fail here, not only under `perfbench/run.py --trace 1`."""
import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attr",
                         [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTERS])
def test_target_resolves(module, attr):
    importlib.import_module(f"{tracing.PACKAGE}.{module}")
    tracer = tracing.Tracer()
    wrapped = []

    def make(fn):
        wrapped.append(fn)
        return fn

    try:
        tracer._rebind(module, attr, make)  # raises when the target is gone
        bindings = len(tracer._undo)
    finally:
        tracer.uninstall()
    assert len(wrapped) == 1 and callable(wrapped[0])
    assert bindings >= 1


@pytest.mark.parametrize("gate, children", [
    (("L", -3), ()),
    (("T",), ()),
    (("F",), ()),
    (("A", (0, 2, 5)), (0, 2, 5)),
    (("O", (1,)), (1,)),
    (("D", 4, 2, 0), (2, 0)),
])
def test_gate_children_of_each_form(gate, children):
    """`Tracer._after_write_nnf` counts child edges through `gate_children`."""
    circuit = importlib.import_module(f"{tracing.PACKAGE}.circuit")
    assert circuit.gate_children(gate) == children
