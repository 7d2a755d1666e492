import json

import pytest

from crfactor import factorize_bn, render, singleton_cr, trace_to_dicts
from crfactor.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_VERIFICATION,
    export_dot,
    main,
    verify_expression,
)
from crfactor.randgen import make_graph
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
}


@pytest.mark.parametrize("case", list(MALFORMED_TRACES))
def test_factorize_trace_malformed_file_exits_parse(case, tmp_path, capsys):
    trace_file = tmp_path / "bad.trace.json"
    trace_file.write_text(json.dumps(MALFORMED_TRACES[case]))
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
    from crfactor import ModelGraph, ParsedModel, Variable, render_model
    from crfactor.randgen import random_gibbs_model

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


def test_verification_fails_on_a_nan_row(tmp_path, capsys):
    # P(a=0) = P(b=0) = 1e-200, so CR(a,b) at a=0, b=0 is 0 / (1e-200 * 1e-200),
    # which underflows to 0 / 0: no marginal is zero, the value is nan
    model_file = tmp_path / "tiny.model"
    model_file.write_text(
        "graph undirected\nvar a 2\nvar b 2\nedge a b\n"
        "potential a\n0 1e-200\n1 1\npotential b\n0 1e-200\n1 1\n"
    )
    code, out, err = run(capsys, "factorize", "--method", "tree", "--model", str(model_file))
    assert code == EXIT_VERIFICATION
    assert out == ""
    assert err == (
        "verification: FAIL  assignments=4  max_rel_err=nan  max_abs_err=nan  worst=a=0,b=0\n"
    )
