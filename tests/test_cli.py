import contextlib
import io
import itertools
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import crfactor
from crfactor import (
    ModelGraph, ParsedModel, Variable, factorize_bn, factorize_tcg, is_tcg, render, render_model, singleton_cr,
    trace_to_dicts,
)
from crfactor import cli
from crfactor.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_VERIFICATION,
    export_dot,
    main,
    verify_expression,
)
from crfactor.randgen import make_graph, random_gibbs_model
from crfactor import parse_model

from conftest import DATA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factorize_bn_student(capsys):
    code, out, err = run(
        capsys, "factorize", "--method", "bn", "--model", str(DATA / "student.model")
    )
    assert code == EXIT_OK
    assert "P(D)·P(I)·P(G|D I)·P(S|I)·P(L|G)" in out
    assert "verification: pass" in out


def test_factorize_tree(capsys):
    code, out, _ = run(
        capsys, "factorize", "--method", "tree", "--model", str(DATA / "path3_gibbs.model")
    )
    assert code == EXIT_OK
    assert "CR(a,b)" in out and "verification: pass" in out


def test_factorize_tcg_path(capsys):
    code, out, _ = run(
        capsys, "factorize", "--method", "tcg", "--model", str(DATA / "path3_gibbs.model")
    )
    assert code == EXIT_OK
    assert "phi(a b) = P(a b)·P(b)^-1" in out
    assert "phi(b c) = P(b c)" in out


def test_factorize_tcg_cycle_fails_precondition(capsys):
    code, out, err = run(
        capsys, "factorize", "--method", "tcg", "--model", str(DATA / "cycle4_gibbs.model")
    )
    assert code == EXIT_PRECONDITION
    assert "not a TCG" in err


# a = b = c is one fair coin and d another: each non-adjacent pair of the
# star a-d, b-d, c-d is independent given the other two nodes, but the
# table is not Markov for the star
STAR_MODEL = (
    "graph undirected\nvar a 2\nvar b 2\nvar c 2\nvar d 2\nedge a d\nedge b d\nedge c d\n"
    "joint\n0 0 0 0 0.25\n0 0 0 1 0.25\n1 1 1 0 0.25\n1 1 1 1 0.25\n"
)


def test_factorize_tcg_star_table_fails_precondition(tmp_path, capsys):
    model_file = tmp_path / "star.model"
    model_file.write_text(STAR_MODEL)
    code, out, err = run(capsys, "factorize", "--method", "tcg", "--model", str(model_file))
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err == (
        "error: table fails the numeric Markov check for this graph: "
        "relative error inf at assignment {'a': 0, 'b': 0, 'c': 1, 'd': 0}\n"
    )


STAR_WEIGHTS = [1.0, 1.0] + [0.0] * 12 + [1.0, 1.0] + [0.0] * 8  # the star table's cells, row-major


@settings(max_examples=100, deadline=None)
@given(
    edges=st.sets(st.sampled_from(list(itertools.combinations("abcd", 2)))),
    weights=st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.0]), min_size=24, max_size=24),
    markov=st.booleans(),
)
@example(edges={("a", "d"), ("b", "d"), ("c", "d")}, weights=STAR_WEIGHTS, markov=False)
def test_markov_methods_exit_ok_or_precondition_never_verification(argv_files, edges, weights, markov):
    """mrf, rmrf and (on a TCG) tcg over four binary variables: a generic
    table, or a product of one generated factor per edge, which is Markov
    for the graph with zero cells or not. A factorization whose Markov check
    passed verifies, so no run exits 2; and on a strictly positive Markov
    table every method succeeds."""
    graph = ModelGraph("undirected", tuple("abcd"), sorted(edges))
    if markov:
        probs = np.ones((2,) * 4)
        for k, (u, v) in enumerate(graph.edges):
            shape = [2 if n in (u, v) else 1 for n in "abcd"]
            probs = probs * np.reshape(weights[4 * k:4 * k + 4], shape)
    else:
        probs = np.reshape(weights[:16], (2,) * 4)
    assume(probs.sum() > 0.0)
    variables = tuple(Variable(n, 2) for n in "abcd")
    model_file = argv_files / "markov.model"
    model_file.write_text(render_model(ParsedModel("joint", variables, graph, {}, joint_probs=probs / probs.sum())))
    for method in ("mrf", "rmrf", "tcg") if is_tcg(graph) else ("mrf", "rmrf"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["factorize", "--method", method, "--model", str(model_file)])
        assert code in (EXIT_OK, EXIT_PRECONDITION), (method, err.getvalue())
        if markov and probs.all():
            assert code == EXIT_OK, (method, err.getvalue())


def test_factorize_mrf_and_rmrf(capsys):
    for method in ("mrf", "rmrf"):
        code, out, _ = run(
            capsys, "factorize", "--method", method, "--model", str(DATA / "cycle4_gibbs.model")
        )
        assert code == EXIT_OK
        assert "verification: pass" in out


def test_factorize_no_verify_skips_report(capsys):
    code, out, _ = run(
        capsys,
        "factorize", "--method", "bn", "--model", str(DATA / "student.model"), "--no-verify",
    )
    assert code == EXIT_OK
    assert "verification" not in out


def test_factorize_trace_roundtrip(tmp_path, capsys):
    g = make_graph("student")
    _, trace = factorize_bn(g)
    trace_file = tmp_path / "student_bn.trace.json"
    trace_file.write_text(
        json.dumps({"initial": render(singleton_cr(g.topological_order())), "steps": trace_to_dicts(trace)})
    )
    code, out, _ = run(
        capsys,
        "factorize", "--method", "trace",
        "--model", str(DATA / "student.model"),
        "--trace", str(trace_file),
    )
    assert code == EXIT_OK
    assert "CR(" in out and "verification: pass" in out


def test_factorize_trace_requires_file(capsys):
    code, _, err = run(
        capsys, "factorize", "--method", "trace", "--model", str(DATA / "student.model")
    )
    assert code == EXIT_PARSE
    assert "--trace" in err


def _merge_trace(**step):
    return {"initial": "CR(a,b,c)", "steps": [{"rule": "merge", "path": [], "params": {"i": 0, "j": 1}, **step}]}


MALFORMED_TRACES = {
    "missing param": _merge_trace(params={"i": 0}),
    "string int": _merge_trace(params={"i": "0", "j": 1}),
    "int name": _merge_trace(rule="condition", params={"over": 5}),
    "unknown param": _merge_trace(params={"i": 0, "j": 1, "k": 2}),
    "step not object": {"initial": "CR(a,b,c)", "steps": [1]},
    "steps not list": {"initial": "CR(a,b,c)", "steps": {"rule": "merge"}},
    "initial not string": {"initial": 5, "steps": []},
    "params not object": _merge_trace(params=[0, 1]),
    "path not list": _merge_trace(path=0),
    "certificate not object": _merge_trace(certificate="graph"),
    "certificate field not list": _merge_trace(certificate={"kind": "graph", "x": "a", "y": ["b"]}),
    "initial not an expression": {"initial": "CR(", "steps": []},
    "initial zero exponent": {"initial": "CR(a,b)^0", "steps": []},
    "initial sum variable also free": {"initial": "sum_a[P(a)]·P(a)", "steps": []},
    "initial sum variable not a name": {"initial": "sum_9[P(a)]", "steps": []},
    "initial nested too deep": {"initial": "(" * 3000 + "P(a)" + ")" * 3000, "steps": []},
    # raw text: json.dumps cannot write this nesting either
    "steps nested too deep": '{"initial": "CR(a,b,c)", "steps": ' + "[" * 100_000 + "]" * 100_000 + "}",
}


@pytest.mark.parametrize("case", list(MALFORMED_TRACES))
def test_factorize_trace_malformed_file_exits_parse(case, tmp_path, capsys):
    trace_file = tmp_path / "bad.trace.json"
    data = MALFORMED_TRACES[case]
    trace_file.write_text(data if isinstance(data, str) else json.dumps(data))
    code, _, err = run(
        capsys,
        "factorize", "--method", "trace",
        "--model", str(DATA / "path3_gibbs.model"),
        "--trace", str(trace_file),
    )
    assert code == EXIT_PARSE
    assert err.startswith("error:") and "Traceback" not in err
    assert "trace file" in err


def test_factorize_trace_replay_error_names_the_step(tmp_path, capsys):
    trace_file = tmp_path / "leaf.trace.json"
    trace_file.write_text(json.dumps(_merge_trace(path=[3])))
    code, _, err = run(
        capsys,
        "factorize", "--method", "trace",
        "--model", str(DATA / "path3_gibbs.model"),
        "--trace", str(trace_file),
    )
    assert code == EXIT_PRECONDITION
    assert err.startswith("error: step 0: path (3,) descends into a leaf")


OVERSIZED_MODELS = {
    "joint": "graph undirected\nvar a 100000\nvar b 100000\nvar c 100000\njoint\n0 0 0 1.0\n",
    "cpt": (
        "graph directed\nvar a 100000\nvar b 100000\nvar c 100000\nedge a c\nedge b c\n"
        "cpt a\n0 1.0\ncpt b\n0 1.0\ncpt c\n0 0 0 1.0\n"
    ),
    # 2^64 cells: a product in int64 wraps to 0, the number of rows listed.
    "potential": "graph undirected\nvar a 4294967296\nvar b 4294967296\nedge a b\npotential a b\n",
}


@pytest.mark.parametrize("kind", list(OVERSIZED_MODELS))
def test_oversized_model_file_exits_precondition(kind, tmp_path, capsys):
    model_file = tmp_path / f"{kind}.model"
    model_file.write_text(OVERSIZED_MODELS[kind])
    code, _, err = run(capsys, "factorize", "--method", "bn", "--model", str(model_file))
    assert code == EXIT_PRECONDITION
    assert err.startswith("error: a table of ") and "cells exceeds the cap of 1048576 cells" in err
    assert "Traceback" not in err


def test_factorize_trace_tampered_certificate_exits_precondition(tmp_path, capsys):
    g = make_graph("student")
    _, trace = factorize_bn(g)
    steps = trace_to_dicts(trace)
    cert = next(s["certificate"] for s in steps if s["rule"] == "ci_reduce")
    cert["x"] = [n for n in g.nodes if n not in cert["x"]][:1]
    trace_file = tmp_path / "tampered.trace.json"
    trace_file.write_text(json.dumps({"initial": render(singleton_cr(g.topological_order())), "steps": steps}))
    code, _, err = run(
        capsys,
        "factorize", "--method", "trace",
        "--model", str(DATA / "student.model"),
        "--trace", str(trace_file),
    )
    assert code == EXIT_PRECONDITION
    assert "records certificate" in err


def test_factorize_chain_crf_cli(tmp_path, capsys):
    nodes = ["y1", "y2", "y3", "x1", "x2", "x3"]
    edges = [("y1", "y2"), ("y2", "y3"), ("x1", "y1"), ("x2", "y2"), ("x3", "y3")]
    g = ModelGraph("undirected", nodes, edges)
    gm = random_gibbs_model(g, seed=4)
    model = ParsedModel(
        "potential",
        tuple(Variable(n, 2) for n in nodes),
        g,
        {},
        potentials=[(s, gm.potentials[s]) for s in g.maximal_cliques()],
    )
    path = tmp_path / "chain.model"
    path.write_text(render_model(model))
    code, out, _ = run(capsys, "factorize", "--method", "chain-crf", "--model", str(path))
    assert code == EXIT_OK
    assert "CR(y1,y2|x1 x2 x3)" in out
    assert "verification: pass" in out


def test_verify_reports_undefined_value_with_assignment(tmp_path, capsys):
    model_file = tmp_path / "zeros.model"
    model_file.write_text(
        "graph undirected\nvar A 2\nvar B 2\nedge A B\njoint\n0 0 0.5\n0 1 0.5\n"
    )
    expr_file = tmp_path / "cr.txt"
    expr_file.write_text("CR(A,B)·P(A)·P(B)\n")
    code, _, err = run(capsys, "verify", "--model", str(model_file), "--expr", str(expr_file))
    assert code == EXIT_PRECONDITION
    assert "zero marginal" in err and "'A': 1" in err


def test_verify_reports_overflow_with_term_and_assignment(tmp_path, capsys):
    expr_file = tmp_path / "huge.txt"
    expr_file.write_text("CR(A,B)^99999\n")
    code, _, err = run(capsys, "verify", "--model", str(DATA / "d2.model"), "--expr", str(expr_file))
    assert code == EXIT_PRECONDITION
    assert err == "error: CR(A,B)^99999 overflows (at assignment {'A': 0, 'B': 0})\n"


def test_verify_fails_a_relative_error_past_the_float_range(tmp_path, capsys):
    """P(a=0 b=0)^-773 is finite (about 4e307) at a=0, b=0, but its error
    over P there leaves the float range: max_rel_err is inf, a FAIL with no
    numpy warning (Tier-1 turns RuntimeWarning into an error)."""
    expr_file = tmp_path / "huge.txt"
    expr_file.write_text("P(a=0 b=0)^-773\n")
    code, out, err = run(capsys, "verify", "--model", str(DATA / "path3_gibbs.model"), "--expr", str(expr_file))
    assert code == EXIT_VERIFICATION
    assert out == (
        "verification: FAIL  assignments=8  max_rel_err=inf  max_abs_err=4.052e+307  worst=a=0,b=0,c=0\n"
    )
    assert err == ""


def test_verify_pass_and_fail(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--model", str(DATA / "d2.model"), "--expr", str(DATA / "expr_d2_good.txt"),
    )
    assert code == EXIT_OK
    assert "verification: pass" in out and "max_rel_err=0.000e+00" in out

    code, out, _ = run(
        capsys,
        "verify", "--model", str(DATA / "d2.model"), "--expr", str(DATA / "expr_d2_bad.txt"),
    )
    assert code == EXIT_VERIFICATION
    assert "verification: FAIL" in out
    assert "worst=A=0,B=0" in out


def test_verification_tolerance_boundary(nearly_markov):
    """The tcg product misses the nearly Markov table by a relative error d
    at its worst row: verification passes at tol = 2d and fails at d/2."""
    table, path = nearly_markov
    expr = factorize_tcg(table, path, tol=1e-3).expr
    d = verify_expression(expr, table).max_rel_error
    assert 0.0 < d < 1e-3
    assert verify_expression(expr, table, tol=2 * d).passed
    assert not verify_expression(expr, table, tol=d / 2).passed


def test_verify_whole_block_expression(tmp_path, capsys):
    expr_file = tmp_path / "whole.txt"
    expr_file.write_text("P(A B)\n")
    code, out, _ = run(
        capsys, "verify", "--model", str(DATA / "d2.model"), "--expr", str(expr_file)
    )
    assert code == EXIT_OK


def test_verify_unknown_variable(tmp_path, capsys):
    expr_file = tmp_path / "unknown.txt"
    expr_file.write_text("P(Z)\n")
    code, _, err = run(
        capsys, "verify", "--model", str(DATA / "d2.model"), "--expr", str(expr_file)
    )
    assert code == EXIT_PRECONDITION
    assert "unknown variables" in err


def test_verify_deeply_nested_expression_exits_parse(tmp_path, capsys):
    expr_file = tmp_path / "deep.txt"
    expr_file.write_text("(" * 3000 + "P(A)" + ")" * 3000 + "\n")
    code, _, err = run(capsys, "verify", "--model", str(DATA / "d2.model"), "--expr", str(expr_file))
    assert code == EXIT_PARSE
    assert err.startswith("error:") and "Traceback" not in err


def test_scoping_error_does_not_depend_on_the_hash_seed(tmp_path):
    """Of two clashing sum variables, the first in text order is named,
    whatever order the interpreter's string hashing gives a set of them."""
    expr_file = tmp_path / "clash.txt"
    expr_file.write_text("sum_A[sum_B[P(A B)]]·P(A)·P(B)\n")
    argv = [sys.executable, "-m", "crfactor.cli", "verify", "--model", str(DATA / "d2.model"), "--expr", str(expr_file)]
    src = str(Path(crfactor.__file__).parents[1])
    procs = [
        subprocess.Popen(argv, env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for seed in range(4)
    ]
    results = {(*p.communicate(timeout=60), p.returncode) for p in procs}
    assert results == {("", "error: sum variable 'A' also occurs free outside its sum\n", EXIT_PARSE)}


def test_parse_error_exit_code(capsys):
    code, _, err = run(
        capsys, "factorize", "--method", "bn", "--model", str(DATA / "bad_edge.model")
    )
    assert code == EXIT_PARSE
    assert "line 3" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "istcg", "--model", "/nonexistent.model")
    assert code == EXIT_PARSE


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "factorize", "--method", "warp", "--model", "x")
    assert code == EXIT_PARSE


def test_gen_random_deterministic_and_reparses(capsys):
    code, out1, _ = run(capsys, "gen-random", "--kind", "gibbs", "--graph", "path:3", "--seed", "9")
    assert code == EXIT_OK
    code, out2, _ = run(capsys, "gen-random", "--kind", "gibbs", "--graph", "path:3", "--seed", "9")
    assert out1 == out2
    model = parse_model(out1)
    assert model.kind == "potential"
    table = model.joint()
    assert table.strictly_positive
    code, out3, _ = run(capsys, "gen-random", "--kind", "gibbs", "--graph", "path:3", "--seed", "10")
    assert out3 != out1


def test_gen_random_bn_rows_normalized(capsys):
    code, out, _ = run(capsys, "gen-random", "--kind", "bn", "--graph", "student", "--seed", "3")
    assert code == EXIT_OK
    model = parse_model(out)
    assert model.kind == "cpt"
    for cpt in model.cpts.values():
        rows = cpt.probs.reshape(-1, cpt.probs.shape[-1])
        assert abs(rows.sum(axis=1) - 1.0).max() < 1e-12


def test_gen_random_kind_graph_mismatch(capsys):
    code, _, err = run(capsys, "gen-random", "--kind", "gibbs", "--graph", "student", "--seed", "1")
    assert code == EXIT_PARSE
    assert "undirected" in err


@pytest.mark.parametrize("spec", ["path:x", "er:5:abc", "dag:4:x", "triangles:", "path", "path:-3", "cycle:0",
                                  "er:5:nan", "er:5:1.5", "path:3:9", "student:3", "bogus:3", ""])
def test_gen_random_malformed_spec_exits_parse(spec, capsys):
    code, out, err = run(capsys, "gen-random", "--kind", "gibbs", "--graph", spec, "--seed", "0")
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("error: ") and "graph spec" in err


SPEC_PART = st.one_of(
    st.integers(-3, 14).map(str),
    st.sampled_from(["27", "1000", "0.5", "1e-300", "nan", "inf", "-0.0", ""]),
    st.floats().map(str),
    st.text(alphabet="0123456789.-+eaxn _", max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["gibbs", "bn"]),
    st.sampled_from(["path", "cycle", "complete", "star", "tree", "er", "triangles", "chain", "dag", "student", "x"]),
    st.lists(SPEC_PART, max_size=3),
)
def test_gen_random_any_spec_ends_in_an_exit_code(kind, head, parts):
    """Any spec ends in exit 0, 3 or 4 with no exception escaping main."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["gen-random", "--kind", kind, "--graph", ":".join([head, *parts]), "--seed", "0"])
    assert code in (EXIT_OK, EXIT_PRECONDITION, EXIT_PARSE)
    assert (code == EXIT_OK) == (err.getvalue() == "")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "abc"])
def test_non_finite_or_negative_tol_exits_parse(tol, tmp_path, capsys):
    # with tol = nan no deviation exceeds it, and rmrf would take a cycle:4 table for a path:4 graph
    probs = random_gibbs_model(make_graph("cycle:4"), seed=1).to_joint().probs
    rows = "".join(" ".join(map(str, s)) + f" {float(probs[s])!r}\n" for s in np.ndindex(probs.shape))
    model_file = tmp_path / "cycle4_on_path4.model"
    model_file.write_text("graph undirected\nvar a 2\nvar b 2\nvar c 2\nvar d 2\nedge a b\nedge b c\nedge c d\njoint\n" + rows)
    code, out, err = run(capsys, "factorize", "--method", "rmrf", "--model", str(model_file), f"--tol={tol}")
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("error: argument --tol: ")
    code, _, err = run(capsys, "factorize", "--method", "rmrf", "--model", str(model_file))
    assert code == EXIT_PRECONDITION and "Markov" in err
    for command in (["verify", "--expr", "x"], ["indep", "--query", "a _|_ c | b"]):
        assert main([command[0], "--model", str(model_file), *command[1:], f"--tol={tol}"]) == EXIT_PARSE


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys, caplog):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_istcg", boom)
    argv = ("istcg", "--model", str(DATA / "path3_gibbs.model"))
    assert run(capsys, *argv) == (EXIT_INTERNAL, "", "error: internal error: RuntimeError: boom\n")
    assert caplog.records == []  # the traceback is logged at DEBUG, which is off by default
    with caplog.at_level(logging.DEBUG, logger="crfactor"):
        assert run(capsys, *argv)[0] == EXIT_INTERNAL
    (record,) = caplog.records
    assert record.name == "crfactor" and record.levelno == logging.DEBUG
    assert record.exc_info[0] is RuntimeError and "boom" in caplog.text


def test_istcg_output(capsys):
    code, out, _ = run(capsys, "istcg", "--model", str(DATA / "path3_gibbs.model"))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "TCG: true"
    code, out, _ = run(capsys, "istcg", "--model", str(DATA / "cycle4_gibbs.model"))
    assert code == EXIT_OK
    assert out.strip() == "TCG: false"


def test_indep_student(capsys):
    code, out, _ = run(
        capsys, "indep", "--model", str(DATA / "student.model"), "--query", "D _|_ I |"
    )
    assert code == EXIT_OK
    assert out.strip() == "d-separated: true"
    code, out, _ = run(
        capsys,
        "indep", "--model", str(DATA / "student.model"), "--query", "D _|_ I | G", "--numeric",
    )
    assert out.splitlines() == ["d-separated: false", "numeric-ci: false"]


def test_indep_undirected(capsys):
    code, out, _ = run(
        capsys, "indep", "--model", str(DATA / "path3_gibbs.model"), "--query", "a _|_ c | b",
        "--numeric",
    )
    assert out.splitlines() == ["u-separated: true", "numeric-ci: true"]


def test_indep_bad_query(capsys):
    code, _, err = run(
        capsys, "indep", "--model", str(DATA / "student.model"), "--query", "D I G"
    )
    assert code == EXIT_PARSE


def test_export_dot_round_trips_counts(capsys):
    code, out, _ = run(capsys, "export-dot", "--model", str(DATA / "student.model"))
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert out.count("->") == 4
    assert sum(line.strip().endswith(";") and "->" not in line for line in out.splitlines()) == 5

    code, out, _ = run(
        capsys, "export-dot", "--model", str(DATA / "cycle4_gibbs.model"), "--clique-graph"
    )
    assert code == EXIT_OK
    assert out.count("--") == 4


def test_export_dot_deterministic():
    g = make_graph("student")
    assert export_dot(g) == export_dot(g)


def test_verification_report_fields(d2_table):
    from crfactor import parse_expr

    report = verify_expression(parse_expr("P(A)·P(B)"), d2_table, tol=1e-9)
    assert not report.passed
    assert report.assignments_checked == 4
    assert report.worst_assignment == {"A": 0, "B": 0}
    assert report.max_abs_error == pytest.approx(0.15)
    good = verify_expression(parse_expr("CR(A,B)·P(A)·P(B)"), d2_table, tol=1e-9)
    assert good.passed and good.max_rel_error <= 1e-12


@pytest.mark.parametrize("weight, second", [("1e200", "b"), ("1e-200", "b"), ("1e200", "a")])
def test_potential_product_out_of_float_range_exits_precondition(weight, second, tmp_path, capsys):
    # every weight is a valid float; the product of the two blocks is not
    model_file = tmp_path / "extreme.model"
    model_file.write_text(
        f"graph undirected\nvar a 2\nvar b 2\npotential a\n0 {weight}\n1 {weight}\n"
        f"potential {second}\n0 {weight}\n1 {weight}\n"
    )
    code, _, err = run(capsys, "factorize", "--method", "mrf", "--model", str(model_file))
    assert code == EXIT_PRECONDITION
    assert err.startswith("error: ") and "float range" in err
    assert "Warning" not in err


TINY_MARGINALS_MODEL = (
    "graph undirected\nvar a 2\nvar b 2\nedge a b\n"
    "potential a\n0 1e-200\n1 1\npotential b\n0 1e-200\n1 1\n"
)


def test_verification_fails_on_a_nan_row(tmp_path, capsys):
    # P(a=0) = P(b=0) = 1e-200 and P(a=0, b=0) = 0, so at a=0, b=0 the product
    # P(a)^-1·P(b)^-1 overflows to inf with no cause, and inf·0 is nan
    model_file = tmp_path / "tiny.model"
    model_file.write_text(TINY_MARGINALS_MODEL)
    expr_file = tmp_path / "nan.expr"
    expr_file.write_text("P(a)^-1·P(b)^-1·P(a b)\n")
    code, out, err = run(capsys, "verify", "--model", str(model_file), "--expr", str(expr_file))
    assert code == EXIT_VERIFICATION
    assert err == ""
    assert out == (
        "verification: FAIL  assignments=4  max_rel_err=nan  max_abs_err=nan  worst=a=0,b=0\n"
    )


def test_tree_factorization_survives_an_underflowing_denominator(tmp_path, capsys):
    # CR(a,b) at a=0, b=0 is 0 / (1e-200 · 1e-200): the marginals' product
    # underflows, so the kernel divides by one at a time and gets 0, not nan
    model_file = tmp_path / "tiny.model"
    model_file.write_text(TINY_MARGINALS_MODEL)
    code, out, err = run(capsys, "factorize", "--method", "tree", "--model", str(model_file))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1].startswith("verification: pass  assignments=4")


# ---------------------------------------------------------------------------
# Every command over generated argv ends in exit 0, 2, 3 or 4; exit 1, an
# internal error, is a defect. Names come mostly from the chosen model, so
# that inputs get past the parsers to the checks behind them.

MODELS = {str(p): re.findall(r"^var (\w+)", p.read_text(), re.MULTILINE) for p in sorted(DATA.glob("*.model"))}
MODELS[str(DATA / "missing.model")] = []
STUDENT_STEPS = trace_to_dicts(factorize_bn(make_graph("student"))[1])
TRACES = {  # with graph, then numeric certificates
    "student.model": [
        {"initial": "CR(D,I,G,S,L)", "steps": STUDENT_STEPS},
        {"initial": "CR(D,I,G,S,L)", "steps": json.loads(json.dumps(STUDENT_STEPS).replace('"graph"', '"numeric"'))},
    ],
    "path3_gibbs.model": [_merge_trace()],
}


def _mutated(text: str, at: int, ch: str) -> str:
    """`text` with the character at `at` dropped (ch ""), or replaced by or prefixed with ch."""
    return text[:at] + ch + text[at + (ch == "" or at % 2):]


def _inputs(names: list[str]):
    """Strategies for an expression text and a JSON value over these names."""
    name = st.sampled_from(names * 4 + ["zz"])
    block = st.lists(name | st.builds("{}={}".format, name, st.integers(0, 2)), min_size=1, max_size=3,
                     unique_by=lambda m: m.split("=")[0]).map(" ".join)
    cond, exp = st.just("") | block.map("|{}".format), st.sampled_from(["", "", "^-1", "^2"])
    term = st.one_of(
        st.builds("CR({}{}){}".format, st.lists(block, min_size=1, max_size=3).map(",".join), cond, exp),
        st.builds("P({}{}){}".format, block, cond, exp),
        st.just(f"CR({','.join(names)})·" + "·".join(f"P({n})" for n in names)),  # the joint
    )
    text = st.recursive(term, lambda e: st.lists(e, min_size=2, max_size=3).map("·".join)
                        | st.builds("sum_{}[{}]".format, name, e), max_leaves=6)
    mutated = st.builds(_mutated, text, st.integers(0, 30), st.sampled_from(list("()[]|,^·*= -") + [""]))
    value = st.recursive(st.none() | st.integers(-1, 5) | name | st.sampled_from(["graph", "numeric", "merge"]),
                         lambda v: st.lists(v, max_size=3) | st.dictionaries(st.sampled_from("ijxyz"), v, max_size=2),
                         max_leaves=4)
    return text | mutated | st.text(max_size=12), value


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_command_ends_in_a_documented_exit_code(argv_files, data):
    model = data.draw(st.sampled_from([m for m in MODELS if len(MODELS[m]) > 1] * 3 + list(MODELS)))
    names = MODELS[model]
    expr_text, json_value = _inputs(names)
    command = data.draw(st.sampled_from(["factorize", "verify", "indep", "istcg", "export-dot"]))
    argv = [command, "--model", model]
    flag = {"factorize": "--no-verify", "indep": "--numeric", "export-dot": "--clique-graph"}.get(command)
    if flag and data.draw(st.booleans()):
        argv.append(flag)
    if command == "factorize":
        method = data.draw(st.sampled_from(["bn", "tree", "chain-crf", "mrf", "rmrf", "tcg"] + ["trace"] * 4))
        argv += ["--method", method]
        if method == "trace" and data.draw(st.integers(0, 9)):
            trace = json.loads(json.dumps(data.draw(st.sampled_from(TRACES.get(Path(model).name, TRACES["student.model"])))))
            parts = [trace, *trace["steps"], *(step["params"] for step in trace["steps"])]
            for part in data.draw(st.lists(st.sampled_from(parts), max_size=3)):  # replace or delete one field of each
                if part:
                    key = data.draw(st.sampled_from(sorted(part)))
                    if data.draw(st.booleans()):
                        del part[key]
                    else:
                        part[key] = data.draw(json_value)
            text = json.dumps(trace)
            cut = data.draw(st.integers(0, len(text))) if data.draw(st.integers(0, 9)) == 0 else None
            (argv_files / "trace.json").write_text(text[:cut])
            argv += ["--trace", str(argv_files / "trace.json")]
        if data.draw(st.booleans()):
            argv.append("--y=" + ",".join(data.draw(st.lists(st.sampled_from(names + ["zz", ""]), max_size=3))))
    elif command == "verify":
        (argv_files / "expr.txt").write_text(data.draw(expr_text))
        argv += ["--expr", str(argv_files / data.draw(st.sampled_from(["expr.txt"] * 9 + ["missing.txt"])))]
    elif command == "indep":
        perm = data.draw(st.permutations(names + ["zz"] * (data.draw(st.integers(0, 3)) == 0)))
        i, j, k = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)), data.draw(st.integers(0, 3))
        argv.append(f"--query={' '.join(perm[:i])} _|_ {' '.join(perm[i:i + j])} | {' '.join(perm[i + j:i + j + k])}")
    if command in ("factorize", "verify", "indep") and data.draw(st.integers(0, 2)) == 0:
        argv.append("--tol=" + data.draw(st.sampled_from(["0", "1e-9", "1", "1e400", "nan", "-1", "x"]) | st.floats().map(str)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VERIFICATION, EXIT_PRECONDITION, EXIT_PARSE), (argv, err.getvalue())
    if code in (EXIT_PRECONDITION, EXIT_PARSE):
        assert err.getvalue().startswith("error: ") and "\n" not in err.getvalue()[:-1], (argv, err.getvalue())
