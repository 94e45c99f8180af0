"""The scale tool measures each layer as the committed BENCH rows record.
A child measurement of `tools/bench.py` must keep its keys, and its
counts must equal the committed "after" rows: they do not depend on the
host, so a change to a family's formula or to a measure shows here."""
import contextlib
import importlib.util
import io
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(ROOT, "tools", "bench.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_tool()

COUNTS = {"dpll": ("stats",), "compile": ("formula_size", "gates", "cache_entries"),
          "front": ("clauses", "text_bytes")}


def _measure(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert bench.main(argv) == 0
    return json.loads(out.getvalue())


def _smallest_rows():
    for layer, spec in bench.LAYERS.items():
        for family, (_, sizes) in spec.families.items():
            if not family.endswith("-long"):
                yield layer, family, min(sizes)


@pytest.mark.parametrize("layer, family, n", list(_smallest_rows()))
def test_measure_matches_the_committed_row(layer, family, n):
    row = _measure([layer, "--measure", family, str(n), "--no-peak"])
    timed = [key for key in bench.LAYERS[layer].keys if not key.endswith("_peak_bytes")]
    assert sorted(row) == sorted(timed + list(COUNTS[layer]))
    assert all(isinstance(row[key], float) and row[key] > 0 for key in timed)
    with open(os.path.join(ROOT, f"BENCH_{layer}.json")) as handle:
        committed = json.load(handle)["runs"]["after"]["rows"]
    want = next(r for r in committed if (r["family"], r["n"]) == (family, n))
    assert {key: row[key] for key in COUNTS[layer]} == {key: want[key] for key in COUNTS[layer]}


@pytest.mark.parametrize("layer", list(bench.LAYERS))
def test_a_traced_measure_records_every_peak(layer):
    """The first repeat traces: its row holds every key of the layer, the
    compile layer's count peak among them."""
    family, (_, sizes) = next(iter(bench.LAYERS[layer].families.items()))
    row = _measure([layer, "--measure", family, str(min(sizes))])
    assert set(bench.LAYERS[layer].keys) <= set(row)
    assert all(row[key] > 0 for key in bench.LAYERS[layer].keys)


def test_every_layer_has_a_committed_baseline_with_its_keys():
    for layer, spec in bench.LAYERS.items():
        with open(os.path.join(ROOT, f"BENCH_{layer}.json")) as handle:
            committed = json.load(handle)
        assert {key: committed.get(key) for key in spec.report} == spec.report
        for run in committed["runs"].values():
            assert set(run["exponents"]) == set(spec.families)
            assert all(set(e) == set(spec.keys) for e in run["exponents"].values())
            assert all(set(spec.keys) <= set(row) for row in run["rows"])
