import contextlib
import decimal
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadnnf import CnfFormula, cli, cnf, count_dpll, dpll, hypergraph, lowerbounds
from betadnnf.cli import main
from betadnnf.cnf import hypergraph_of
from betadnnf.dpll import OrderStrategy, search

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def fstar_path():
    return os.path.join(GOLDEN, "fstar.cnf")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def counted_calls(monkeypatch, original):
    """The arguments of every call to `original` from here on, through any
    module-level name the package resolves it by."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("betadnnf"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    return calls


class TestCount:
    @pytest.mark.parametrize("method", ["compile", "dpll", "brute"])
    def test_methods_agree_on_the_worked_example(self, capsys, method):
        code, out, _ = run(capsys, "count", fstar_path(), "--method", method)
        assert code == 0
        assert out == "13\n"

    def test_empty_formula(self, capsys, tmp_path):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 0 0\n")
        code, out, _ = run(capsys, "count", str(path), "--method", "brute")
        assert (code, out) == (0, "1\n")

    def test_declared_free_variables_count(self, capsys, tmp_path):
        path = tmp_path / "free.cnf"
        path.write_text("p cnf 3 1\n1 0\n")
        for method in ("compile", "dpll", "brute"):
            code, out, _ = run(capsys, "count", str(path), "--method", method)
            assert (code, out) == (0, "4\n")

    def test_cap_refusal_exit_code(self, capsys, tmp_path):
        path = tmp_path / "wide.cnf"
        lits = " ".join(str(v) for v in range(1, 22))
        path.write_text(f"p cnf 21 1\n{lits} 0\n")
        code, _, err = run(capsys, "count", str(path), "--method", "brute")
        assert code == 3
        assert "refused" in err

    def test_huge_header_is_refused_before_allocating(self, capsys, tmp_path):
        path = tmp_path / "huge.cnf"
        path.write_text("p cnf 1000000000 1\n1 0\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "count", str(path), "--method", "brute")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "refused: 1000000000 variables exceed the enumeration cap of 20" in err

    @pytest.mark.parametrize("method", ["compile", "dpll"])
    def test_declared_width_shifts_the_count(self, capsys, tmp_path, method):
        path = tmp_path / "free.cnf"
        path.write_text("p cnf 40 1\n1 0\n")
        code, out, _ = run(capsys, "count", str(path), "--method", method)
        assert (code, out) == (0, f"{2**39}\n")

    def test_dpll_computes_the_order_once(self, capsys, monkeypatch):
        calls = counted_calls(monkeypatch, hypergraph.beta_elimination_order)
        code, out, _ = run(capsys, "count", fstar_path(), "--method", "dpll")
        assert (code, out) == (0, "13\n")
        assert len(calls) == 1

    # `count --method compile` prints through the same line, but compiles one clause of width w in Θ(w²)
    @pytest.mark.parametrize("argv", [["count", "--method", "dpll"], ["dpll", "--strategy", "reverse-beta"]])
    def test_counts_past_the_digit_limit_of_int_to_text(self, capsys, tmp_path, argv):
        width = 15_000  # 2**15000 - 1 has 4,516 digits, above the default limit of 4,300
        path = tmp_path / "wide.cnf"
        rows = [" ".join(map(str, range(v, min(v + 500, width + 1)))) for v in range(1, width + 1, 500)]
        path.write_text(f"p cnf {width} 1\n" + "\n".join(rows) + " 0\n")
        limit = lambda: getattr(sys, "get_int_max_str_digits", lambda: None)()
        before = limit()
        code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        digits = out.splitlines()[0]  # read back in pieces, each under the limit
        assert int(digits[:-4000]) * 10**4000 + int(digits[-4000:]) == 2**width - 1
        assert limit() == before  # restored, so parsing keeps it

    def test_decimal_equals_str_on_seeded_ints(self):
        rng = random.Random(1_000_000)
        cases = [0, 1, -1, 1 << 128, (1 << 2_000) - 1, 1 << 2_000, -(1 << 2_000)]
        for bits in (100, 129, 2_001, 14_001, 60_000, 250_000):
            cases += [rng.getrandbits(bits) | 1 << (bits - 1), -rng.getrandbits(bits), (1 << bits) - 1]
        cases.append(rng.getrandbits(1_000_000) | 1 << 999_999)  # `str` alone takes seconds here
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            expected = [str(n) for n in cases]
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert [cli._decimal(n) for n in cases] == expected

    def test_a_padded_count_prints_in_near_linear_time(self, capsys, tmp_path):
        # 2**39,999,999 has 12,041,200 digits; `str` on CPython 3.11 would take about 46 min
        path = tmp_path / "padded.cnf"
        path.write_text("p cnf 40000000 1\n1 0\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "count", str(path))
        elapsed = time.perf_counter() - start
        assert code == 0
        digits = out.rstrip("\n")
        assert len(digits) == 12_041_200
        assert digits.endswith(str(pow(2, 39_999_999, 10 ** 30)).zfill(30))
        leading = decimal.Context(prec=40, Emax=decimal.MAX_EMAX).power(decimal.Decimal(2), 39_999_999)
        assert digits[:30] == str(leading).replace(".", "")[:30]
        assert elapsed < 5

    def test_dpll_falls_back_to_lex_order(self, capsys):
        code, out, _ = run(capsys, "count", os.path.join(GOLDEN, "triangle.cnf"),
                           "--method", "dpll")
        assert (code, out) == (0, "4\n")


class TestCheck:
    def test_beta_acyclic(self, capsys):
        code, out, _ = run(capsys, "check", fstar_path())
        assert code == 0
        assert "yes" in out
        assert "order: 1 2 3 4 5" in out

    def test_triangle_fails(self, capsys):
        code, out, err = run(capsys, "check", os.path.join(GOLDEN, "triangle.cnf"))
        assert code == 1
        assert "no" in out
        assert "stuck" in err
        code, out, err = run(capsys, "order", os.path.join(GOLDEN, "triangle.cnf"))
        assert (code, out) == (1, "")
        assert "no nest point among vertices [1, 2, 3]" in err

    def test_order_subcommand(self, capsys):
        code, out, _ = run(capsys, "order", fstar_path())
        assert code == 0
        assert out.split() == ["1", "2", "3", "4", "5"]

    def test_order_of_no_clauses_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "none.cnf"
        path.write_text("p cnf 3 0\n")
        assert run(capsys, "order", str(path)) == (0, "", "")

    def test_degenerate_empty_clause(self, capsys, tmp_path):
        path = tmp_path / "zero.cnf"
        path.write_text("p cnf 1 1\n0\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and "degenerate" in out
        code, out, _ = run(capsys, "count", str(path), "--method", "compile")
        assert (code, out) == (0, "0\n")


class TestCompileVerify:
    def test_compile_then_verify(self, capsys, tmp_path):
        out_path = tmp_path / "fstar.nnf"
        code, _, err = run(capsys, "compile", fstar_path(), "-o", str(out_path))
        assert code == 0 and "gates=" in err
        code, out, _ = run(capsys, "verify", str(out_path), "--against", fstar_path())
        assert (code, out) == (0, "ok\n")

    def test_compile_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "out.nnf"
        code, out, _ = run(capsys, "--json", "compile", fstar_path(), "-o", str(out_path))
        assert code == 0
        report = json.loads(out)
        assert report["formula_size"] == 11

    def test_verify_catches_disagreement(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "verify", os.path.join(GOLDEN, "unit.nnf"), "--against", fstar_path()
        )
        assert code == 1
        assert out == "failed\n"
        assert "equivalence" in err

    def test_verify_reports_structural_violations(self, capsys):
        code, _, err = run(capsys, "verify", os.path.join(GOLDEN, "fig3.nnf"))
        assert code == 1
        assert "decision" in err

    def test_explicit_order_file(self, capsys, tmp_path):
        order_path = tmp_path / "order.txt"
        order_path.write_text("1\n2\n3\n4\n5\n")
        out_path = tmp_path / "c.nnf"
        code, *_ = run(capsys, "compile", fstar_path(), "-o", str(out_path),
                       "--order", str(order_path))
        assert code == 0

    def test_order_file_may_list_an_unused_variable(self, capsys, tmp_path):
        cnf_path = tmp_path / "unused.cnf"
        cnf_path.write_text("p cnf 3 1\n1 2 0\n")
        order_path = tmp_path / "order.txt"
        order_path.write_text("1\n2\n3\n")
        out_path = tmp_path / "c.nnf"
        code, *_ = run(capsys, "compile", str(cnf_path), "-o", str(out_path),
                       "--order", str(order_path))
        assert code == 0
        assert out_path.read_text() == "nnf 3 2 2\nL 1\nT\nD 2 1 0\n"
        code, out, _ = run(capsys, "count", str(cnf_path), "--order", str(order_path))
        assert (code, out) == (0, "6\n")

    @pytest.mark.parametrize("text, message", [
        ("1\n2\n\nx\n4\n5\n", "line 4: non-integer vertex id 'x'"),
        ("5\n4\n3\n2\n1\n", "conflict at vertex 5"),
        ("1\n2\n3\n", "does not cover vertices [4, 5]"),
    ])
    def test_bad_order_file_is_a_usage_error(self, capsys, tmp_path, text, message):
        order_path = tmp_path / "order.txt"
        order_path.write_text(text)
        for argv in (["compile", fstar_path(), "-o", str(tmp_path / "c.nnf")],
                     ["count", fstar_path()]):
            code, out, err = run(capsys, *argv, "--order", str(order_path))
            assert (code, out) == (2, "")
            assert message in err


    @pytest.mark.parametrize("method", ["dpll", "brute"])
    def test_order_file_needs_the_compile_method(self, capsys, tmp_path, method):
        order_path = tmp_path / "order.txt"
        order_path.write_text("x\n")
        code, out, err = run(capsys, "count", fstar_path(), "--method", method,
                             "--order", str(order_path))
        assert (code, out) == (2, "")
        assert "--method compile" in err and f"--method {method}" in err


class TestDpllCommand:
    def test_count_and_stats(self, capsys):
        code, out, err = run(capsys, "dpll", fstar_path(), "--strategy", "reverse-beta")
        assert code == 0
        assert out == "13\n"
        assert "cache_entries" in err

    def test_trace_output(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.nnf"
        code, out, _ = run(capsys, "dpll", fstar_path(), "--trace", str(trace_path))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(trace_path), "--against", fstar_path())
        assert (code, out) == (0, "ok\n")

    def test_trace_runs_one_search(self, capsys, tmp_path, monkeypatch):
        calls = []
        original = dpll.search

        def counted(*args, **kwargs):
            calls.append(kwargs.get("trace"))
            return original(*args, **kwargs)

        monkeypatch.setattr(dpll, "search", counted)
        trace_path = tmp_path / "trace.nnf"
        code, out, _ = run(capsys, "--json", "dpll", fstar_path(), "--trace", str(trace_path))
        assert code == 0
        assert calls == [True]
        assert out == (
            '13\n{"cache_entries": 10, "cache_hits": 4, "cache_misses": 10, '
            '"component_splits": 0, "decisions": 10, "peak_residuals": 6}\n'
        )
        assert trace_path.read_text().startswith("nnf ")

    def test_budget_refusal(self, capsys):
        code, _, err = run(capsys, "--budget", "2", "dpll", fstar_path())
        assert code == 3
        assert "refused" in err


def random_3cnf(path, n=80, m=300, seed=0):
    """A random 3-CNF: in lex order the search is exponential."""
    rng = random.Random(seed)
    lines = [" ".join(str(v if rng.random() < 0.5 else -v) for v in rng.sample(range(1, n + 1), 3))
             for _ in range(m)]
    path.write_text(f"p cnf {n} {m}\n" + " 0\n".join(lines) + " 0\n")
    return str(path)


class TestDefaultLexBudget:
    """`dpll` in lex order and the lex fallback of `count --method dpll`
    stop at `cli.LEX_BUDGET` steps unless `--budget` is given."""

    NOTE = "(the lex-order default; --budget sets another)"

    def test_the_lex_searches_of_the_tests_fit(self, capsys):
        # the widest clause the tests search in lex order takes 8,001 steps
        formula = CnfFormula.from_ints([range(1, 4001)])
        assert search(formula, OrderStrategy.lexicographic(), budget=cli.LEX_BUDGET)[0] == 2**4000 - 1
        for name in ("fstar", "triangle", "two_components", "empty"):
            path = os.path.join(GOLDEN, f"{name}.cnf")
            code, out, _ = run(capsys, "dpll", path)
            assert code == 0
            assert run(capsys, "count", path, "--method", "dpll")[:2] == (0, out.split("\n")[0] + "\n")

    def test_random_3cnf_is_refused_within_seconds(self, capsys, tmp_path):
        path = random_3cnf(tmp_path / "r3.cnf")
        start = time.perf_counter()
        code, out, err = run(capsys, "dpll", path)
        assert time.perf_counter() - start < 5
        assert (code, out, err) == (3, "", f"refused: exceeded {cli.LEX_BUDGET} steps {self.NOTE}\n")

    def test_only_lex_order_without_budget_is_bounded(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "LEX_BUDGET", 5)  # fstar takes more steps in either order
        refused = (3, "", f"refused: exceeded 5 steps {self.NOTE}\n")
        assert run(capsys, "dpll", fstar_path()) == refused
        assert run(capsys, "count", os.path.join(GOLDEN, "triangle.cnf"), "--method", "dpll") == refused
        assert run(capsys, "dpll", fstar_path(), "--strategy", "reverse-beta")[:2] == (0, "13\n")
        assert run(capsys, "count", fstar_path(), "--method", "dpll")[:2] == (0, "13\n")
        assert run(capsys, "--budget", "1000", "dpll", fstar_path())[:2] == (0, "13\n")
        assert run(capsys, "--budget", "2", "dpll", fstar_path()) == (3, "", "refused: exceeded 2 steps\n")

    def test_the_library_stays_unbounded(self):
        width = cli.LEX_BUDGET // 2 + 1  # 2 * width + 1 steps, past the default
        formula = CnfFormula.from_ints([range(1, width + 1)])
        for strategy in (OrderStrategy.lexicographic(), OrderStrategy.reverse_beta_elimination()):
            assert count_dpll(formula, strategy)[0] == 2**width - 1


# a few of fstar's beta-elimination orders, among its 16
FSTAR_ORDERS = [(1, 2, 3, 4, 5), (1, 3, 4, 5, 2), (3, 1, 4, 2, 5), (3, 4, 5, 2, 1)]


@st.composite
def order_texts(draw):
    """Order-file text over fstar's vertices 1..5: valid orders and random
    permutations, with repeats, missing and extra vertices, non-integers,
    blank lines, surrounding blanks and CRLF line ends."""
    vertices = draw(st.one_of(st.sampled_from(FSTAR_ORDERS), st.permutations(range(1, 6))))
    tokens = [str(v) for v in vertices[:draw(st.sampled_from([5, 5, 4, 3]))]]
    for extra in draw(st.lists(st.one_of(
            st.builds(str, st.integers(-2, 8)),
            st.sampled_from(["x", "1.0", "2 3", "", " ", "\u0663", "9" * 5000])), max_size=3)):
        tokens.insert(draw(st.integers(0, len(tokens))), extra)
    pad = st.sampled_from(["", " ", "\t"])
    lines = [draw(pad) + t + draw(pad) for t in tokens]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


class TestOrderFileFuzz:
    @given(order_texts())
    @settings(max_examples=120, deadline=None)
    def test_compile_and_count_exit_with_a_code(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            order = os.path.join(tmp, "order.txt")
            with open(order, "wb") as handle:
                handle.write(text.encode("utf-8"))
            for argv in (["compile", fstar_path(), "-o", os.path.join(tmp, "f.nnf"), "--order", order],
                         ["count", fstar_path(), "--order", order]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), err.getvalue()
                assert "Traceback" not in err.getvalue()
                if argv[0] == "count" and code == 0:
                    assert out.getvalue() == "13\n"


class TestLabCommands:
    def test_hat(self, capsys, tmp_path):
        out_path = tmp_path / "hat.cnf"
        code, _, err = run(capsys, "hat", fstar_path(), "-o", str(out_path))
        assert code == 0
        assert "preserved: yes" in err
        assert "p cnf 10 5" in out_path.read_text()

    def test_mimw_exact(self, capsys, tmp_path):
        graph_path = tmp_path / "g.edges"
        graph_path.write_text("1 2\n2 3\n3 4\n1 4\n1 3\n")
        code, out, _ = run(capsys, "mimw", str(graph_path))
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_mimw_with_tree(self, capsys, tmp_path):
        graph_path = tmp_path / "g.edges"
        graph_path.write_text("1 2\n2 3\n3 4\n1 4\n1 3\n")
        tree_path = tmp_path / "t.tree"
        tree_path.write_text("((1 2)(3 4))\n")
        code, out, _ = run(capsys, "mimw", str(graph_path), "--tree", str(tree_path))
        assert (code, out) == (0, "1\n")

    def test_rectcover(self, capsys, tmp_path):
        path = tmp_path / "m.cnf"
        path.write_text("p cnf 2 1\n1 2 0\n")
        code, out, _ = run(capsys, "rectcover", str(path), "--left", "1")
        assert (code, out) == (0, "2\n")

    def test_rectcover_answers_on_a_wide_clause(self, tmp_path):
        """One 10-literal clause split 5/5 has 32 row patterns; trying every
        subset of them would take hours, so a child process bounds the wait."""
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 10 1\n1 2 3 4 5 6 7 8 9 10 0\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from betadnnf.cli import main; sys.exit(main(sys.argv[1:]))",
             "--cap-vars", "20", "rectcover", str(path), "--left", "1,2,3,4,5"],
            capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stdout) == (0, "2\n")

    def test_rectcover_is_refused_within_seconds(self, capsys, tmp_path):
        """The exact cover is exponential well inside the cap of 20 variables:
        on this 16-variable 3-CNF split 8/8 it stops at the default budget."""
        path = random_3cnf(tmp_path / "r16.cnf", n=16, m=32, seed=1)
        start = time.perf_counter()
        result = run(capsys, "rectcover", path, "--left", "1,2,3,4,5,6,7,8")
        assert time.perf_counter() - start < 5
        note = "(the rectcover default; --budget sets another)"
        assert result == (3, "", f"refused: exceeded {cli.RECTCOVER_BUDGET} steps {note}\n")
        assert run(capsys, "--budget", "100", "rectcover", path, "--left", "1") == (
            3, "", "refused: exceeded 100 steps\n")

    def test_rectcover_refuses_a_huge_header(self, capsys, tmp_path):
        path = tmp_path / "huge.cnf"
        path.write_text("p cnf 1000000000 1\n1 2 0\n")
        code, _, err = run(capsys, "rectcover", str(path), "--left", "1,0")
        assert code == 3
        assert "refused: 1000000001 variables exceed the rectangle cap of 20" in err

    def test_bench(self, capsys):
        code, out, _ = run(capsys, "--json", "bench", "--family", "chain", "--sizes", "5,10")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 2 and rows[0]["gates"] > 0

    def test_bench_random_too_small_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "bench", "--family", "random", "--sizes", "1")
        assert (code, out) == (2, "")
        assert "error: a random hypergraph needs max_vertices >= 2, got 1" in err


# the least argv each subcommand accepts
LEAST_ARGV = [["check", "f.cnf"], ["order", "f.cnf"], ["compile", "f.cnf", "-o", "f.nnf"],
              ["count", "f.cnf"], ["verify", "f.nnf"], ["dpll", "f.cnf"], ["hat", "f.cnf"],
              ["mimw", "g.edges"], ["rectcover", "f.cnf", "--left", "1"], ["bench"]]


class TestCliContract:
    def test_identical_argv_gives_identical_stdout(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "count", fstar_path(), "--method", "dpll")
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    @pytest.mark.parametrize("argv", LEAST_ARGV, ids=lambda argv: argv[0])
    def test_resource_errors_are_refusals(self, capsys, monkeypatch, argv, error):
        """`main` runs the `cmd_<command>` the module holds when it is called."""
        def exhausted(args):
            raise error()

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", exhausted)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"refused: {error.__name__}")

    @pytest.mark.parametrize("argv", LEAST_ARGV, ids=lambda argv: argv[0])
    def test_every_subcommand_has_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: betadnnf {argv[0]} ")

    @pytest.mark.parametrize("command", ["check", "order", "hat"])
    def test_the_order_of_the_input_is_computed_once(self, capsys, monkeypatch, tmp_path, command):
        calls = counted_calls(monkeypatch, hypergraph.beta_elimination_order)
        extra = ["-o", str(tmp_path / "hat.cnf")] if command == "hat" else []
        assert run(capsys, command, fstar_path(), *extra)[0] == 0
        fstar = cli._load_formula(fstar_path())
        assert calls[0] == (hypergraph_of(fstar),)
        if command == "hat":  # and once more on the widened formula, by `is_beta_acyclic`
            assert calls[1:] == [(hypergraph_of(lowerbounds.hat(fstar)),)]
        else:
            assert len(calls) == 1

    def test_hat_widens_the_input_once(self, capsys, monkeypatch, tmp_path):
        calls, original = [], CnfFormula._fill
        monkeypatch.setattr(CnfFormula, "_fill", lambda self, *args: calls.append(1) or original(self, *args))
        code, _, err = run(capsys, "hat", fstar_path(), "-o", str(tmp_path / "hat.cnf"))
        assert (code, err) == (0, "beta-acyclicity preserved: yes\n")
        assert len(calls) == 2  # one clause store per formula: the parsed one and the widened one

    @pytest.mark.parametrize("argv", [
        ["check"], ["order"], ["compile", "-o", "{dir}/c.nnf"], ["count", "--method", "compile"],
        ["count", "--method", "dpll"], ["dpll", "--trace", "{dir}/t.nnf"], ["hat", "-o", "{dir}/h.cnf"],
    ])
    def test_no_clause_object_on_the_formula_paths(self, capsys, monkeypatch, tmp_path, argv):
        """Parse, order, both engines, the writer and the widening read the
        formula's clause store; every `Clause` is made through `_fill`."""
        block = "p cnf 6 5\n1 2 0\n-2 3 0\n3 -4 0\n-4 -5 0\n5 6 0\n"
        made, original = [], cnf.Clause._fill
        monkeypatch.setattr(cnf.Clause, "_fill", lambda self, *args: made.append(1) or original(self, *args))
        for text in (block, block + "c a comment sends the text to the line loop\n6 1 -1 0\n1 0\n"):
            path = tmp_path / "chain.cnf"
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the line loop drops the tautology
                code = main([argv[0], str(path)] + [a.format(dir=tmp_path) for a in argv[1:]])
            capsys.readouterr()
            assert code == 0 and made == []
        assert cnf.Clause([2, 1]) and made == [1]  # the counter sees a construction

    @pytest.mark.parametrize("command", ["order", "hat"])
    def test_an_empty_clause_has_no_order(self, capsys, tmp_path, command):
        path = tmp_path / "zero.cnf"
        path.write_text("p cnf 1 1\n0\n")
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        assert err == "error: formula contains the empty clause; handle the constant-0 case first\n"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count"])  # missing the formula argument
        assert exc.value.code == 2

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.cnf")
        assert code == 2
        assert "error" in err

    def test_parse_error_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 2 1\n1 2\n")
        code, _, err = run(capsys, "count", str(path))
        assert code == 2
        assert "terminating 0" in err

    def test_over_long_line_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "long.cnf"
        path.write_text("p cnf 1 1\n1 0\nc " + "x" * 4095 + "\n")
        code, out, err = run(capsys, "order", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 3: line longer than 4096 bytes\n"

    def test_malformed_circuit_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.nnf"
        path.write_text("nnf 1 0 1\nL x\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err == "error: line 2: non-integer literal 'x'\n"

    def test_every_subcommand_on_hostile_inputs(self, capsys, tmp_path):
        """Huge declared headers, exponential rectangle covers and dense
        width graphs: each call answers, fails a property or refuses, prints
        no traceback and ends within seconds."""
        huge, wide = tmp_path / "huge.cnf", tmp_path / "wide.cnf"
        huge.write_text("p cnf 100000000 1\n1 0\n")
        wide.write_text("p cnf 10000000 1\n1 0\n")
        nnf = str(tmp_path / "huge.nnf")
        rng = random.Random(23)
        dense = lambda n: "".join(f"{u} {v}\n" for u in range(1, n + 1) for v in range(u + 1, n + 1)
                                  if rng.random() < 0.7)
        graphs = {}
        for n in (8, 9, 20):
            graphs[n] = tmp_path / f"g{n}.edges"
            graphs[n].write_text(dense(n) + "".join(f"{v} {v % n + 1}\n" for v in range(1, n + 1)))
        tree = tmp_path / "g20.tree"
        tree.write_text("(" + " ".join(map(str, range(1, 21))) + ")\n")
        calls = [("check", huge), ("order", huge), ("compile", huge, "-o", nnf),
                 ("verify", nnf, "--against", huge), ("dpll", huge),
                 ("dpll", huge, "--strategy", "reverse-beta"), ("hat", huge),
                 ("rectcover", huge, "--left", "1"), ("count", huge, "--method", "brute"),
                 ("count", wide, "--method", "compile"), ("count", wide, "--method", "dpll"),
                 ("mimw", graphs[8]), ("mimw", graphs[9]), ("mimw", graphs[20], "--tree", tree)]
        for n, m in ((16, 32), (20, 60)):
            left = ",".join(map(str, range(1, n // 2 + 1)))
            calls.append(("rectcover", random_3cnf(tmp_path / f"r{n}.cnf", n=n, m=m), "--left", left))
        results = []
        for argv in calls:
            start = time.perf_counter()
            code, out, err = run(capsys, *map(str, argv))
            assert time.perf_counter() - start < 5, argv
            assert code in (0, 1, 3) and "Traceback" not in out + err, (argv, code, err)
            results.append((code, out))
        # the cover and the enumeration past the cap of 20 and the exact width past 8 vertices refuse
        assert [code for code, _ in results] == [0] * 7 + [3, 3, 0, 0, 0, 3, 0, 0, 0]
        assert [len(out) for _, out in results[9:11]] == [3_010_301] * 2  # 2**9,999,999 has 3,010,300 digits
        assert [out for _, out in results[-2:]] == ["38\n", "36\n"]
