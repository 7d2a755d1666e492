import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crfactor import (
    Block,
    CPT,
    GibbsModel,
    JointTable,
    ModelError,
    ModelGraph,
    PreconditionError,
    PTerm,
    UndefinedCRError,
    Variable,
    build_joint_from_cpts,
    eval_expr,
    factorize_bn,
    factorize_chain_crf,
    factorize_tcg,
    factorize_tree_mn,
    is_tcg,
    mrf_factorize,
    product_of,
    render,
    replay_trace,
    rmrf_factorize,
    singleton_cr,
)
from crfactor import separation
from crfactor.cli import verify_expression
from crfactor.cr import grid
from crfactor.model import REL_TOL
from crfactor.factorizers import hc_potential
from crfactor.rewrites import Certificate, TraceStep, replay_step, validate_certificate
from crfactor.separation import is_markov
from crfactor.randgen import (
    make_graph,
    random_chain_conditional_table,
    random_gibbs_model,
    random_joint_table,
    random_model,
)

from conftest import assignments, exact_bn_table, exact_evaluator, exact_gibbs_table, student_table


def _assert_matches_joint(expr, table, rel=1e-9):
    for a in assignments(table):
        assert eval_expr(expr, table, a) == pytest.approx(table.prob(a), rel=rel)


# ---------------------------------------------------------------------------
# Bayesian networks


def test_bn_student_render(student_graph):
    expr, trace = factorize_bn(student_graph)
    assert render(expr) == "P(D)·P(I)·P(G|D I)·P(S|I)·P(L|G)"
    assert trace  # the derivation is recorded


def test_bn_single_node():
    g = ModelGraph("directed", ["A"], [])
    expr, trace = factorize_bn(g)
    assert render(expr) == "P(A)"
    final = replay_trace(singleton_cr(["A"]), trace, graph=g)
    assert render(final) == "1"


def test_bn_chain_matches_d3(d3_table):
    chain = ModelGraph("directed", ["A", "B", "C"], [("A", "B"), ("B", "C")])
    cpts = {
        "A": CPT("A", (), np.array([0.5, 0.5])),
        "B": CPT("B", ("A",), np.array([[0.9, 0.1], [0.1, 0.9]])),
        "C": CPT("C", ("B",), np.array([[0.8, 0.2], [0.2, 0.8]])),
    }
    table = build_joint_from_cpts(chain, cpts, [Variable(n, 2) for n in "ABC"])
    assert table.names == d3_table.names
    assert np.allclose(table.probs, d3_table.probs, rtol=REL_TOL, atol=1e-12)
    expr, _ = factorize_bn(chain)
    assert render(expr) == "P(A)·P(B|A)·P(C|B)"
    _assert_matches_joint(expr, table)


def test_bn_value_invariant_across_topological_orders(student_graph):
    # the student DAG declared in each of its topological orders is factorized in that order
    table = student_table(student_graph, seed=31)
    orders = [
        p for p in itertools.permutations(student_graph.nodes)
        if all(p.index(a) < p.index(b) for a, b in student_graph.edges)
    ]
    assert len(orders) > 1
    for order in orders:
        expr, _ = factorize_bn(ModelGraph("directed", order, student_graph.edges))
        assert tuple(t.block.vars[0] for t in expr.children) == order
        _assert_matches_joint(expr, table)


def test_bn_trace_replays_with_valid_certificates(student_graph):
    expr, trace = factorize_bn(student_graph)
    table = student_table(student_graph, seed=8)
    order = student_graph.topological_order()
    cr_product = replay_trace(singleton_cr(order), trace, graph=student_graph, table=table)
    full = product_of([cr_product] + [PTerm(Block([n])) for n in order])
    _assert_matches_joint(full, table)


# ---------------------------------------------------------------------------
# tree Markov networks


def test_tree_single_edge(d2_table):
    g = ModelGraph("undirected", ["A", "B"], [("A", "B")])
    expr = factorize_tree_mn(g)
    assert render(expr) == "CR(A,B)·P(A)·P(B)"
    _assert_matches_joint(expr, d2_table)


def test_tree_single_node():
    g = ModelGraph("undirected", ["A"], [])
    assert render(factorize_tree_mn(g)) == "P(A)"


def test_tree_rejects_cycles_and_forests():
    with pytest.raises(PreconditionError):
        factorize_tree_mn(make_graph("cycle:4"))
    forest = ModelGraph("undirected", ["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(PreconditionError):
        factorize_tree_mn(forest)


def test_tree_labels_with_observations():
    # chain of labels with one pendant observation per label
    nodes = ["y1", "y2", "y3", "x1", "x2", "x3"]
    edges = [("y1", "y2"), ("y2", "y3"), ("x1", "y1"), ("x2", "y2"), ("x3", "y3")]
    g = ModelGraph("undirected", nodes, edges)
    expr = factorize_tree_mn(g)
    from crfactor import CRTerm, PTerm

    cr_edges = {frozenset(b.vars for b in c.blocks) for c in expr.children if isinstance(c, CRTerm)}
    assert cr_edges == {frozenset({(a,), (b,)}) for a, b in edges}
    assert sum(isinstance(c, PTerm) for c in expr.children) == len(nodes)
    table = random_gibbs_model(g, seed=2).to_joint()
    _assert_matches_joint(expr, table)


def test_tree_random_models():
    for seed in range(10):
        g = make_graph("tree:6", seed=seed)
        table = random_gibbs_model(g, seed=seed).to_joint()
        _assert_matches_joint(factorize_tree_mn(g), table)


# ---------------------------------------------------------------------------
# chain-structured conditionals


def _conditional(table, x_vars):
    def expected(a):
        return table.prob(a) / table.event_prob({n: a[n] for n in x_vars})

    return expected


def test_chain_crf_single_label():
    table = random_chain_conditional_table(["y1"], ["x1"], seed=0)
    expr = factorize_chain_crf(table, ["y1"])
    assert render(expr) == "P(y1|x1)"
    want = _conditional(table, ("x1",))
    for a in assignments(table):
        assert eval_expr(expr, table, a) == pytest.approx(want(a), rel=1e-9)


def test_chain_crf_two_labels():
    table = random_chain_conditional_table(["y1", "y2"], ["x1"], seed=1)
    expr = factorize_chain_crf(table, ["y1", "y2"])
    assert render(expr) == "CR(y1,y2|x1)·P(y1|x1)·P(y2|x1)"
    want = _conditional(table, ("x1",))
    for a in assignments(table):
        assert eval_expr(expr, table, a) == pytest.approx(want(a), rel=1e-9)


def test_chain_crf_three_labels_two_conditions():
    table = random_chain_conditional_table(["y1", "y2", "y3"], ["x1", "x2"], seed=2)
    expr = factorize_chain_crf(table, ["y1", "y2", "y3"])
    want = _conditional(table, ("x1", "x2"))
    for a in assignments(table):
        assert eval_expr(expr, table, a) == pytest.approx(want(a), rel=1e-9)


def test_chain_crf_no_conditions_degenerates(d3_table):
    expr = factorize_chain_crf(d3_table, ["A", "B", "C"])
    assert render(expr) == "CR(A,B)·CR(B,C)·P(A)·P(B)·P(C)"
    _assert_matches_joint(expr, d3_table)


def test_chain_crf_names_the_first_zero_condition_row_major():
    # names interleaved, x1 y1 x2 y2: X is every other name in table order
    names = ("x1", "y1", "x2", "y2")
    table = random_joint_table(names, seed=3, cardinality=3)
    arr = np.array(table.probs)
    for x1, x2 in ((2, 0), (1, 2), (2, 1)):
        arr[x1, :, x2, :] = 0.0
    table = JointTable([Variable(n, 3) for n in names], arr / arr.sum())
    first = next(
        (x1, x2)
        for x1, x2 in itertools.product(range(3), repeat=2)
        if table.event_prob({"x1": x1, "x2": x2}) == 0.0
    )
    assert first == (1, 2)
    with pytest.raises(PreconditionError) as exc:
        factorize_chain_crf(table, ["y2", "y1"])
    assert str(exc.value) == f"conditioning configuration {first!r} has probability zero"


def test_chain_crf_zero_condition_rejected():
    arr = np.zeros((2, 2))
    arr[:, 0] = 0.5
    table = JointTable([Variable("y1", 2), Variable("x1", 2)], arr)
    with pytest.raises(PreconditionError):
        factorize_chain_crf(table, ["y1"])


# ---------------------------------------------------------------------------
# candidate potentials, maximal-clique products, refined products


def test_hc_empty_clique():
    table = random_joint_table(("a", "b"), seed=0)
    expr = hc_potential(table, ())
    assert render(expr) == "P(a=0 b=0)"


def test_hc_singleton_clique():
    table = random_joint_table(("a", "b"), seed=1)
    expr = hc_potential(table, ("a",))
    assert render(expr) == "P(a=0 b=0)^-1·P(a b=0)"


def test_hc_edge_clique_four_terms():
    table = random_joint_table(("a", "b", "c"), seed=2)
    expr = hc_potential(table, ("a", "b"))
    assert len(expr.children) == 4
    exps = sorted(t.exponent for t in expr.children)
    assert exps == [-1, -1, 1, 1]


def test_hc_product_over_all_subsets_is_joint():
    # with every subset of a complete graph contributing, the alternating
    # product telescopes to the joint for any positive table
    table = random_joint_table(("a", "b", "c"), seed=3)
    g = make_graph("complete:3")
    expr = product_of(hc_potential(table, c) for c in g.all_cliques())
    _assert_matches_joint(expr, table)


def test_hc_respects_default_and_rejects_zeros():
    table = random_joint_table(("a", "b"), seed=4)
    expr = hc_potential(table, ("a",), {"b": 1})
    assert render(expr) == "P(a=0 b=1)^-1·P(a b=1)"
    zero = JointTable([Variable("a", 2)], [1.0, 0.0])
    with pytest.raises(PreconditionError):
        hc_potential(zero, ("a",))


def test_mrf_complete_graph_single_phi():
    table = random_joint_table(("a", "b", "c"), seed=5)
    g = make_graph("complete:3")
    phis = mrf_factorize(table, g)
    assert list(phis) == [("a", "b", "c")]
    _assert_matches_joint(phis[("a", "b", "c")], table)


def test_mrf_path_two_phis(d3_table):
    path = ModelGraph("undirected", ["A", "B", "C"], [("A", "B"), ("B", "C")])
    phis = mrf_factorize(d3_table, path)
    assert list(phis) == [("A", "B"), ("B", "C")]
    _assert_matches_joint(product_of(phis.values()), d3_table)


def test_mrf_cycle():
    g = make_graph("cycle:4")
    table = random_gibbs_model(g, seed=6).to_joint()
    phis = mrf_factorize(table, g)
    assert len(phis) == 4
    _assert_matches_joint(product_of(phis.values()), table)


def test_mrf_rejects_non_markov_tables():
    g = make_graph("cycle:4")
    table = random_joint_table(g.nodes, seed=7)
    with pytest.raises(PreconditionError):
        mrf_factorize(table, g)


def test_rmrf_single_clique_matches_mrf_product():
    table = random_joint_table(("a", "b"), seed=8)
    g = make_graph("complete:2")
    mrf = product_of(mrf_factorize(table, g).values())
    rmrf = rmrf_factorize(table, g)
    for a in assignments(table):
        assert eval_expr(rmrf, table, a) == pytest.approx(eval_expr(mrf, table, a), rel=1e-9)
    _assert_matches_joint(rmrf, table)


def test_rmrf_path(d3_table):
    path = ModelGraph("undirected", ["A", "B", "C"], [("A", "B"), ("B", "C")])
    _assert_matches_joint(rmrf_factorize(d3_table, path), d3_table)


def test_rmrf_five_node_model(fig4_graph):
    table = random_gibbs_model(fig4_graph, seed=9).to_joint()
    _assert_matches_joint(rmrf_factorize(table, fig4_graph), table)


def test_rmrf_scopes_are_clique_plus_blanket(fig4_graph):
    table = random_gibbs_model(fig4_graph, seed=10).to_joint()
    expr = rmrf_factorize(table, fig4_graph)
    for term in expr.children:
        scope = set(term.block.vars)
        cond = set(term.condition.vars) if term.condition is not None else set()
        if not cond and scope == set(fig4_graph.nodes):
            continue  # the pinned whole-model constant from the empty clique
        assert cond == set(fig4_graph.markov_blanket(scope))


def test_mrf_product_with_nonzero_defaults(d3_table):
    path = ModelGraph("undirected", ["A", "B", "C"], [("A", "B"), ("B", "C")])
    for default in itertools.product(range(2), repeat=3):
        d = dict(zip("ABC", default))
        _assert_matches_joint(product_of(mrf_factorize(d3_table, path, d).values()), d3_table)
        _assert_matches_joint(rmrf_factorize(d3_table, path, d), d3_table)


# ---------------------------------------------------------------------------
# the Markov precondition: each factorizer's own product


# each factorizer, reduced to the product it returns
PRODUCTS = {
    "mrf": lambda table, graph, **kw: product_of(mrf_factorize(table, graph, **kw).values()),
    "rmrf": rmrf_factorize,
    "tcg": lambda table, graph, **kw: factorize_tcg(table, graph, **kw).expr,
}


def _markov_verdict(method, table, graph, **kw):
    """Whether the factorizer accepts the table for the graph, and the product it returns."""
    try:
        return True, PRODUCTS[method](table, graph, **kw)
    except PreconditionError as exc:
        assert "fails the numeric Markov check" in str(exc)
        return False, None


def _uniform(table):
    """The uniform table over the same variables: Markov for every graph, so
    each factorizer returns there the product it builds for any strictly
    positive table over them (the products depend only on the graph and the
    default)."""
    return JointTable(table.variables, np.full(table.probs.shape, 1.0 / table.probs.size))


@pytest.mark.parametrize(
    "spec, card",
    [("er:8:0.4", 2), ("er:10:0.3", 2), ("path:8", 2), ("cycle:6", 2), ("triangles:4", 2),
     ("er:6:0.4", 3), ("path:5", 3), ("cycle:6", 3), ("triangles:2", 3)],
)
def test_markov_check_agrees_with_is_markov(spec, card):
    """Each Gibbs table against its own graph (Markov) and against every graph
    with one edge removed (not Markov): mrf, rmrf and tcg accept exactly when
    is_markov does."""
    for seed in range(2):
        g = make_graph(spec, seed)
        table = random_gibbs_model(g, seed, card).to_joint()
        cut_graphs = [ModelGraph("undirected", g.nodes, [e for e in g.edges if e != cut]) for cut in g.edges]
        for graph in [g, *cut_graphs]:
            for method in PRODUCTS if is_tcg(graph).ok else ("mrf", "rmrf"):
                verdict, _ = _markov_verdict(method, table, graph)
                assert verdict == is_markov(table, graph) == (graph is g), (spec, seed, method, graph.edges)


@pytest.mark.parametrize("spec", ["path:10", "er:10:0.3"])
def test_markov_check_needs_no_ci_query_on_cheap_positive_shapes(spec, monkeypatch):
    def no_ci_query(*args):
        raise AssertionError("the Markov check ran a CI query")

    monkeypatch.setattr(separation, "_deviation", no_ci_query)
    g = make_graph(spec)
    table = random_gibbs_model(g, seed=1).to_joint()
    mrf_factorize(table, g)
    rmrf_factorize(table, g)
    if is_tcg(g).ok:
        factorize_tcg(table, g)


def test_markov_check_decides_by_the_product_alone():
    # a zero entry: the path's product of CPTs is Markov for it, and tcg's product shows it
    path = make_graph("path:3")
    pa, pb_a, pc_b = np.array([0.4, 0.6]), np.array([[1.0, 0.0], [0.3, 0.7]]), np.array([[0.2, 0.8], [0.5, 0.5]])
    zero = JointTable([Variable(n, 2) for n in path.nodes], pa[:, None, None] * pb_a[:, :, None] * pc_b)
    _assert_matches_joint(factorize_tcg(zero, path).expr, zero)
    # a dense graph: 909 product terms, where the pairwise check needed 13 CI queries
    dense = make_graph("er:10:0.8")
    table = random_gibbs_model(dense, seed=1).to_joint()
    assert verify_expression(product_of(mrf_factorize(table, dense).values()), table).passed
    # the product misses the table: the error names the worst row and its relative error
    cycle, path6 = make_graph("cycle:6"), make_graph("path:6")
    table = random_gibbs_model(cycle, seed=1, cardinality=3).to_joint()
    product = product_of(mrf_factorize(_uniform(table), path6).values())
    rel = np.abs(eval_expr(product, table, grid(table)) - table.probs) / table.probs
    worst = dict(zip(table.names, map(int, np.unravel_index(int(np.argmax(rel)), rel.shape))))
    with pytest.raises(PreconditionError) as exc:
        mrf_factorize(table, path6)
    assert str(exc.value) == (
        "table fails the numeric Markov check for this graph: "
        f"relative error {rel.max():.3e} at assignment {worst!r}"
    )


def test_tcg_rejects_a_table_that_is_only_pairwise_markov():
    # a = b = c is one fair coin and d another: each non-adjacent pair is
    # independent given the other two nodes, but a and b are not independent
    # given d, so the star a-d, b-d, c-d is no factorization of the table
    star = ModelGraph("undirected", "abcd", [("a", "d"), ("b", "d"), ("c", "d")])
    probs = np.zeros((2,) * 4)
    probs[0, 0, 0, :] = probs[1, 1, 1, :] = 0.25
    table = JointTable([Variable(n, 2) for n in "abcd"], probs)
    assert is_markov(table, star) and is_tcg(star).ok
    with pytest.raises(PreconditionError) as exc:
        factorize_tcg(table, star)
    assert str(exc.value) == (
        "table fails the numeric Markov check for this graph: "
        "relative error inf at assignment {'a': 0, 'b': 0, 'c': 1, 'd': 0}"
    )


def test_markov_check_on_subnormal_entries_matches_is_markov():
    # potentials of 1e-155 at a=b=0 and b=c=0 put P(a..f = 0), the default
    # configuration, below 1e-310. The mrf product raises P(a..f = 0) to -1,
    # and on the Markov table rmrf raises P(b=0|a=0 c=0) to -1: both
    # overflow, so that row is undefined, the error verification raises.
    # Where the product stays in range, as tcg's P(a b)·P(b)^-1·… does, the
    # verdict is is_markov's.
    g = make_graph("path:6")
    tiny = np.array([[1e-155, 1.0], [1.0, 1.0]])
    potentials = {**random_gibbs_model(g, seed=16).potentials, ("a", "b"): tiny, ("b", "c"): tiny}
    markov = GibbsModel([Variable(n, 2) for n in g.nodes], g, potentials).to_joint()
    raw = random_joint_table(g.nodes, seed=17).probs.copy()
    raw[(0,) * 6] = 1e-310
    generic = JointTable(markov.variables, raw / raw.sum())
    overflow = None
    expected = {"tcg": True, "mrf": overflow, "rmrf": overflow}, {"tcg": False, "mrf": overflow, "rmrf": False}
    for table, outcomes in zip((markov, generic), expected):
        assert 0.0 < table.probs[(0,) * 6] < 1e-300
        for method, verdict in outcomes.items():
            if verdict is not overflow:
                assert _markov_verdict(method, table, g)[0] == is_markov(table, g) == verdict
                continue
            with pytest.raises(UndefinedCRError) as verified:
                verify_expression(PRODUCTS[method](_uniform(table), g), table)
            with pytest.raises(UndefinedCRError) as gated:
                PRODUCTS[method](table, g)
            assert str(gated.value) == str(verified.value)
            default_row = {n: 0 for n in "abcdef"}
            assert str(gated.value).endswith(f")^-1 overflows (at assignment {default_row!r})")


def test_markov_check_reports_a_float_range_loss_not_a_verdict():
    # a strictly positive Gibbs table, Markov for its graph: the mrf product's
    # running value leaves the float range at some rows and reads 0 or inf
    # there, and at others passes through subnormals and comes back finite
    # but wrong; no row proves the table is not Markov
    model = random_model("gibbs", "er:14:0.8", seed=1)
    table = model.joint()
    with pytest.raises(UndefinedCRError) as exc:
        mrf_factorize(table, model.graph, model.default_assignment())
    assert str(exc.value).startswith("the factorization's product leaves the float range (at assignment {'a': ")


def test_tcg_on_a_zero_entry_path20_table_takes_one_product_evaluation():
    # path:20 times a pairwise factor on (a, b) that is 0 at (0, 0): still
    # Markov for the path, with 2^18 zero cells
    g = make_graph("path:20")
    probs = random_gibbs_model(g, seed=0).to_joint().probs.copy()
    probs[0, 0] = 0.0
    table = JointTable([Variable(n, 2) for n in g.nodes], probs / probs.sum())
    start = time.perf_counter()
    result = factorize_tcg(table, g)
    assert time.perf_counter() - start < 1.0
    assert verify_expression(result.expr, table).passed


def test_markov_check_tolerance_boundary(nearly_markov):
    """Each factorizer's product misses the nearly Markov table by a relative
    error d at its worst row: the gate accepts at tol = 2d and rejects at d/2."""
    table, g = nearly_markov
    for method in PRODUCTS:
        product = PRODUCTS[method](_uniform(table), g)
        d = float(np.max(np.abs(eval_expr(product, table, grid(table)) - table.probs) / table.probs))
        assert 0.0 < d < 1e-3
        assert _markov_verdict(method, table, g, tol=2 * d)[0]
        assert not _markov_verdict(method, table, g, tol=d / 2)[0]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, "1e-9", None])
def test_tolerance_must_be_finite_and_non_negative(tol):
    # with tol = nan no `dev > tol` test fails: is_markov took a cycle:4 table for a path:4 graph
    cycle, path = make_graph("cycle:4"), make_graph("path:4")
    table = random_gibbs_model(cycle, seed=1).to_joint()
    assert not is_markov(table, path)
    message = f"tolerance must be finite and non-negative, got {tol!r}"
    calls = [
        lambda: is_markov(table, path, tol=tol),
        lambda: mrf_factorize(table, path, tol=tol),
        lambda: rmrf_factorize(table, path, tol=tol),
        lambda: factorize_tcg(table, path, tol=tol),
        # before anything else: a certificate of one group, a step of no known rule, an empty trace
        lambda: validate_certificate(Certificate("numeric", groups=(("a",),)), table=table, tol=tol),
        lambda: replay_step(singleton_cr(["a"]), TraceStep("bogus", (), {}), table=table, tol=tol),
        lambda: replay_trace(singleton_cr(table.names), (), table=table, tol=tol),
    ]
    for call in calls:
        with pytest.raises(ModelError) as exc:
            call()
        assert str(exc.value) == message
    assert is_markov(table, cycle, tol=1) and not is_markov(table, path, tol=0)  # ints are tolerances too


_PATH3 = make_graph("path:3")
_PATH3_GIBBS = random_gibbs_model(_PATH3, seed=1).to_joint()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: factorize_bn(_PATH3), "BN factorization requires a directed graph"),
        (lambda: factorize_tree_mn(make_graph("chain:3")), "tree factorization requires an undirected graph"),
        (lambda: mrf_factorize(_PATH3_GIBBS, _PATH3, {"b": 2}), "default state 2 out of range for 'b'"),
        (lambda: rmrf_factorize(_PATH3_GIBBS, _PATH3, {"b": -1}), "default state -1 out of range for 'b'"),
        (lambda: hc_potential(_PATH3_GIBBS, ("a", "b", "a")), "duplicate variable in clique"),
    ],
)
def test_factorizers_refuse_bad_arguments(call, message):
    with pytest.raises(ModelError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("state", ["1", 1.0, None, np.int64(1), True])
def test_non_int_default_state_is_a_model_error(state):
    g = make_graph("path:3")
    table = random_gibbs_model(g, seed=1).to_joint()
    message = f"default state for 'a' must be an integer, got {state!r}"
    for call in (mrf_factorize, rmrf_factorize, lambda t, g, d: hc_potential(t, ("a",), d)):
        with pytest.raises(ModelError) as exc:
            call(table, g, {"a": state})
        assert str(exc.value) == message
    mrf_factorize(table, g, {"a": 1})


# ---------------------------------------------------------------------------
# tree-reducible clique graphs


def test_is_tcg_small_cases():
    assert is_tcg(make_graph("complete:4")).ok  # single clique
    assert is_tcg(ModelGraph("undirected", ["a"], [])).ok
    assert is_tcg(make_graph("path:4")).ok
    assert is_tcg(make_graph("star:5")).ok
    assert not is_tcg(make_graph("cycle:4")).ok
    assert not is_tcg(make_graph("cycle:5")).ok


def test_is_tcg_trees():
    for seed in range(10):
        assert is_tcg(make_graph("tree:7", seed=seed)).ok


def test_is_tcg_triangle_hub_with_cyclic_clique_graph():
    g = make_graph("triangles:3")
    from crfactor.cli import export_dot

    lines = export_dot(g, clique_graph=True).splitlines()[1:-1]
    assert len(g.maximal_cliques()) == 3
    assert sum(" -- " in line for line in lines) == 3  # the clique graph is a 3-cycle
    assert is_tcg(g).ok


def test_is_tcg_deterministic():
    g = make_graph("triangles:3")
    a, b = is_tcg(g), is_tcg(g)
    assert a.elimination == b.elimination
    assert a.root == b.root


def test_is_tcg_disconnected_is_rejected():
    g = ModelGraph("undirected", ["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert not is_tcg(g).ok


def test_tcg_path_hand_values(d3_table):
    path = ModelGraph("undirected", ["A", "B", "C"], [("A", "B"), ("B", "C")])
    result = factorize_tcg(d3_table, path)
    assert render(result.factors[("A", "B")]) == "P(A B)·P(B)^-1"
    assert render(result.factors[("B", "C")]) == "P(B C)"
    # 0.45 / 0.5 * 0.4 = 0.36 = P(0,0,0), by hand
    a0 = {"A": 0, "B": 0, "C": 0}
    assert eval_expr(result.expr, d3_table, a0) == pytest.approx(0.45 / 0.5 * 0.4)
    _assert_matches_joint(result.expr, d3_table)


def test_tcg_single_clique():
    table = random_joint_table(("a", "b"), seed=11)
    g = make_graph("complete:2")
    result = factorize_tcg(table, g)
    assert render(result.expr) == "P(a b)"
    check = is_tcg(g)
    assert (check.elimination, check.root) == ((), ("a", "b"))
    assert list(result.factors) == [check.root]


def test_tcg_triangle_hub():
    g = make_graph("triangles:2")
    table = random_gibbs_model(g, seed=12).to_joint()
    result = factorize_tcg(table, g)
    _assert_matches_joint(result.expr, table)
    for mc, phi in result.factors.items():
        assert "=" not in render(phi)
    # eliminated triangles divide by the shared hub vertex
    for clique, maxadj in is_tcg(g).elimination:
        shared = set(clique) & set(maxadj)
        assert shared == {"a"}
        assert render(result.factors[clique]).endswith("·P(a)^-1")


def test_tcg_trace_replays(d3_table):
    path = ModelGraph("undirected", ["A", "B", "C"], [("A", "B"), ("B", "C")])
    result = factorize_tcg(d3_table, path)
    final = replay_trace(singleton_cr(d3_table.names), result.trace, graph=path, table=d3_table)
    full = product_of([final] + [PTerm(Block([n])) for n in path.nodes])
    _assert_matches_joint(full, d3_table)


def test_tcg_rejects_non_tcg_and_non_markov():
    g = make_graph("cycle:4")
    table = random_gibbs_model(g, seed=13).to_joint()
    with pytest.raises(PreconditionError, match="not a TCG"):
        factorize_tcg(table, g)
    path = make_graph("path:3")
    with pytest.raises(PreconditionError, match="Markov"):
        factorize_tcg(random_joint_table(path.nodes, seed=14), path)


def test_tcg_random_models():
    rng = random.Random(0)
    specs = ["path:4", "tree:6", "star:5", "complete:3", "triangles:3", "triangles:2"]
    for seed in range(12):
        g = make_graph(rng.choice(specs), seed=seed)
        table = random_gibbs_model(g, seed=seed).to_joint()
        result = factorize_tcg(table, g)
        _assert_matches_joint(result.expr, table)
        assert "=" not in render(result.expr)


# ---------------------------------------------------------------------------
# Exact tables: each product, read over Fraction tables by the explicit-sum
# evaluator of conftest, equals what it factorizes with no tolerance.


def _integer_weights(scopes, card: int, weight) -> list[dict[tuple[int, ...], int]]:
    """For each scope, {states over the scope: weight()}."""
    return [{s: weight() for s in itertools.product(range(card), repeat=len(scope))} for scope in scopes]


def _exact_gibbs(nodes, edges, card: int, weight):
    """An undirected graph and the exact joint of integer potentials on
    every node and edge of it, which is Markov for it."""
    scopes = [*((v,) for v in nodes), *edges]
    potentials = dict(zip(scopes, _integer_weights(scopes, card, weight)))
    return ModelGraph("undirected", nodes, edges), card, exact_gibbs_table(nodes, potentials, card)


def _exact_bn(nodes, edges, card: int, weight):
    """A DAG and the exact joint of CPT rows of integer weights."""
    graph = ModelGraph("directed", nodes, edges)
    parents = {n: graph.parents(n) for n in nodes}
    weights = dict(zip(nodes, _integer_weights([(*parents[n], n) for n in nodes], card, weight)))
    return graph, card, exact_bn_table(nodes, parents, weights, card)


def _sizes(draw) -> tuple[int, tuple[str, ...]]:
    """A cardinality, 2 or 3, and up to 7 node names (4 at cardinality 3)."""
    card = draw(st.sampled_from((2, 3)))
    return card, tuple("abcdefg"[: draw(st.integers(1, 7 if card == 2 else 4))])


@st.composite
def exact_markov_tables(draw, tree: bool = False):
    """A graph (a tree if asked) and the exact joint of integer potentials
    in 1..9 on every node and edge of it."""
    card, nodes = _sizes(draw)
    if tree:
        edges = [(nodes[draw(st.integers(0, i - 1))], n) for i, n in enumerate(nodes) if i]
    else:
        edges = [e for e in itertools.combinations(nodes, 2) if draw(st.booleans())]
    return _exact_gibbs(nodes, edges, card, lambda: draw(st.integers(1, 9)))


@st.composite
def exact_bn_tables(draw):
    """A DAG, each edge from an earlier to a later node, and the exact joint
    of CPT rows of integer weights in 1..9."""
    card, nodes = _sizes(draw)
    edges = [e for e in itertools.combinations(nodes, 2) if draw(st.booleans())]
    return _exact_bn(nodes, edges, card, lambda: draw(st.integers(1, 9)))


@st.composite
def exact_chain_tables(draw):
    """2-4 binary labels y1.. and 0-2 binary conditioning variables x1..,
    in a drawn table order, and the exact joint of integer potentials in
    1..9 on every variable and on each pair of neighbouring labels with all
    the conditioning variables: given X, the labels form a chain."""
    ys = tuple(f"y{i}" for i in range(1, draw(st.integers(2, 4)) + 1))
    xs = tuple(f"x{i}" for i in range(1, draw(st.integers(0, 2)) + 1))
    nodes = tuple(draw(st.permutations(ys + xs)))
    scopes = [*((v,) for v in nodes), *((a, b, *xs) for a, b in zip(ys, ys[1:]))]
    potentials = dict(zip(scopes, _integer_weights(scopes, 2, lambda: draw(st.integers(1, 9)))))
    return nodes, ys, exact_gibbs_table(nodes, potentials)


def _float_copy(nodes, card: int, exact) -> JointTable:
    return JointTable([Variable(n, card) for n in nodes], [float(p) for p in exact.values()])


def _assert_exact(expr, table: JointTable, value, want) -> None:
    """At every row, `expr` read exactly by `value` equals `want`, and
    eval_expr on the float table is within 1e-12 relative of it."""
    floats = np.broadcast_to(eval_expr(expr, table, grid(table)), table.probs.shape)
    for states, p in want.items():
        assert value(expr, dict(zip(table.names, states))) == p, states
        assert abs(Fraction(float(floats[states])) - p) <= p / 10**12, states


# Weights of the cardinality-3 cases run whatever Hypothesis draws: a path, which is a TCG, and a collider with a child.
_WEIGHTS = (2, 7, 1, 8, 2, 8, 1, 8, 3)


@settings(max_examples=40, deadline=None)
@example(_exact_gibbs("abc", [("a", "b"), ("b", "c")], 3, itertools.cycle(_WEIGHTS).__next__))
@given(exact_markov_tables())
def test_product_methods_equal_the_exact_joint(case):
    """Built on the float copy of an exact Markov table, the mrf, rmrf and
    (on a TCG) tcg products equal the exact joint at every row when
    evaluated exactly, and eval_expr is within 1e-12 relative of it."""
    graph, card, exact = case
    table = _float_copy(graph.nodes, card, exact)
    products = {"mrf": product_of(mrf_factorize(table, graph).values()), "rmrf": rmrf_factorize(table, graph)}
    if is_tcg(graph).ok:
        products["tcg"] = factorize_tcg(table, graph).expr
    value = exact_evaluator(exact, graph.nodes)
    for expr in products.values():
        _assert_exact(expr, table, value, exact)


@settings(max_examples=20, deadline=None)
@given(exact_markov_tables(tree=True))
def test_tree_product_equals_the_exact_joint(case):
    graph, card, exact = case
    table = _float_copy(graph.nodes, card, exact)
    _assert_exact(factorize_tree_mn(graph), table, exact_evaluator(exact, graph.nodes), exact)


@settings(max_examples=30, deadline=None)
@example(_exact_bn("abcd", [("a", "c"), ("b", "c"), ("c", "d")], 3, itertools.cycle(_WEIGHTS).__next__))
@given(exact_bn_tables())
def test_bn_product_equals_the_exact_joint(case):
    graph, card, exact = case
    table = _float_copy(graph.nodes, card, exact)
    _assert_exact(factorize_bn(graph)[0], table, exact_evaluator(exact, graph.nodes), exact)


@settings(max_examples=20, deadline=None)
@given(exact_chain_tables())
def test_chain_crf_product_equals_the_exact_conditional(case):
    """The chain-crf product equals P(Y | X), each P(X) an explicit sum."""
    nodes, ys, exact = case
    x_at = [i for i, n in enumerate(nodes) if n not in ys]
    px: dict[tuple[int, ...], Fraction] = {}
    for states, p in exact.items():
        x = tuple(states[i] for i in x_at)
        px[x] = px.get(x, 0) + p
    want = {states: p / px[tuple(states[i] for i in x_at)] for states, p in exact.items()}
    table = _float_copy(nodes, 2, exact)
    _assert_exact(factorize_chain_crf(table, ys), table, exact_evaluator(exact, nodes), want)
