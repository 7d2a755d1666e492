import inspect
import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from crfactor import rewrites
from crfactor import (
    Block,
    CertificateError,
    Certificate,
    CRTerm,
    ModelError,
    ModelGraph,
    Product,
    PTerm,
    RewriteError,
    Sum,
    TraceStep,
    apply_bipartition,
    apply_ci_collapse,
    apply_ci_reduce,
    apply_ci_split,
    apply_condition,
    apply_duplicate,
    apply_independence,
    apply_merge,
    apply_single_block,
    eval_expr,
    factorize_bn,
    factorize_tcg,
    mutual_independence_deviation,
    parse_expr,
    render,
    replay_trace,
    singleton_cr,
    trace_from_dicts,
    trace_to_dicts,
)
from crfactor.cr import grid
from crfactor.randgen import random_gibbs_model, random_joint_table, make_graph
from crfactor.rewrites import RULES, validate_certificate

from conftest import (
    D3_NAMES, D3_PROBS, assignments, exact_evaluator, exact_gibbs_table, oracle_cr, oracle_u_separated,
)

A000 = {"A": 0, "B": 0, "C": 0}


def _everywhere_equal(before, after, table, rel=1e-9):
    for a in assignments(table):
        assert eval_expr(after, table, a) == pytest.approx(eval_expr(before, table, a), rel=rel)


# ---------------------------------------------------------------------------
# bipartition


def test_bipartition_structure_and_value(d3_table):
    e0 = singleton_cr("ABC")
    e1, step = apply_bipartition(e0, (), [0], [1, 2])
    assert render(e1) == "CR(A)·CR(A,B C)·CR(B,C)"
    # CR(A) = 1, CR(B,C) = 1.6, CR(A, BC) = 1.8 at the all-zeros assignment
    assert eval_expr(e1, d3_table, A000) == pytest.approx(1.0 * 1.6 * 1.8)
    assert eval_expr(e1, d3_table, A000) == pytest.approx(2.88)
    _everywhere_equal(e0, e1, d3_table)
    assert step.rule == "bipartition" and step.path == ()


def test_bipartition_trivial_two_blocks(d2_table):
    e0 = singleton_cr("AB")
    e1, _ = apply_bipartition(e0, (), [0], [1])
    # CR(A) CR(B) CR(A,B): after removing the single-block terms the value
    # is the original CR(A,B)
    e2, _ = apply_single_block(e1, (0,))
    e3, _ = apply_single_block(e2, (1,))  # CR(B) shifted left after the removal
    _everywhere_equal(e0, e3, d2_table)


def test_bipartition_invalid_split(d3_table):
    e0 = singleton_cr("ABC")
    with pytest.raises(RewriteError):
        apply_bipartition(e0, (), [0], [1])  # does not cover block 2
    with pytest.raises(RewriteError):
        apply_bipartition(e0, (), [], [0, 1, 2])
    with pytest.raises(RewriteError):
        apply_bipartition(e0, (), [0, 1], [1, 2])


def test_bipartition_merge_duplicate_variable_rejected():
    # merging two blocks that share a variable is illegal inside the cut
    e0 = CRTerm((Block(["A"]), Block(["A"]), Block(["B"])))
    with pytest.raises(RewriteError):
        apply_bipartition(e0, (), [0, 1], [2])


# ---------------------------------------------------------------------------
# merge


def test_merge_value_and_structure(d3_table):
    e0 = singleton_cr("ABC")
    e1, _ = apply_merge(e0, (), 0, 1)
    assert render(e1) == "CR(A B,C)·CR(A,B)"
    assert eval_expr(e1, d3_table, A000) == pytest.approx(1.6 * 1.8)
    _everywhere_equal(e0, e1, d3_table)


def test_merge_independent_blocks_then_independence(coins_table):
    e0 = singleton_cr("AB")
    e1, _ = apply_merge(e0, (), 0, 1)
    e2, step = apply_independence(e1, (1,), "numeric")
    validate_certificate(step.certificate, table=coins_table)
    assert render(e2) == "CR(A B)"
    _everywhere_equal(e0, e2, coins_table)


def test_merge_errors(d3_table):
    e0 = singleton_cr("ABC")
    with pytest.raises(RewriteError):
        apply_merge(e0, (), 0, 0)
    with pytest.raises(RewriteError):
        apply_merge(e0, (), 0, 5)


# ---------------------------------------------------------------------------
# duplicate


def test_duplicate_preserves_value(d2_table):
    e0 = singleton_cr("AB")
    e1, _ = apply_duplicate(e0, (), 0)
    assert render(e1) == "CR(A,A,B)·P(A)"
    _everywhere_equal(e0, e1, d2_table)


def test_duplicate_single_block_gives_one(d3_table):
    e0 = CRTerm((Block(["A"]),))
    e1, _ = apply_duplicate(e0, (), 0)
    assert render(e1) == "CR(A,A)·P(A)"
    for a in assignments(d3_table):
        assert eval_expr(e1, d3_table, a) == pytest.approx(1.0)


def test_duplicate_bad_index(d2_table):
    with pytest.raises(RewriteError):
        apply_duplicate(singleton_cr("AB"), (), 3)


# ---------------------------------------------------------------------------
# condition


def test_condition_structure(fig4_graph):
    e0 = singleton_cr("ABD")
    e1, _ = apply_condition(e0, (), "C")
    assert render(e1) == "sum_C[CR(A,B,D|C)·CR(A,C)·CR(B,C)·CR(D,C)·P(C)]"


def test_condition_single_variable_collapses(d3_table):
    e0 = CRTerm((Block(["A"]),))
    e1, _ = apply_condition(e0, (), "B")
    for a in assignments(d3_table):
        assert eval_expr(e1, d3_table, a) == pytest.approx(1.0)


def test_condition_value_on_random_positive_tables():
    for seed in range(10):
        table = random_joint_table(("A", "B", "C"), seed=seed)
        e0 = singleton_cr("AB")
        e1, _ = apply_condition(e0, (), "C")
        _everywhere_equal(e0, e1, table)


def test_condition_errors(d3_table):
    with pytest.raises(RewriteError):
        apply_condition(singleton_cr("AB"), (), "A")  # already in the term
    e = Sum("C", Product((singleton_cr("AB"), PTerm(Block(["C"])))))
    with pytest.raises(RewriteError):
        apply_condition(e, (0, 0), "C")  # bound by the enclosing sum
    with pytest.raises(RewriteError):
        apply_condition(CRTerm((Block(["A"]),), condition=Block(["B"])), (), "C")
    with pytest.raises(RewriteError, match="already occurs free"):
        apply_condition(Product((singleton_cr("AB"), PTerm(Block(["C"])))), (0,), "C")  # free beside the target
    # a sum of the same name beside the target binds its own C, so there is no clash
    e1, _ = apply_condition(Product((singleton_cr("AB"), Sum("C", PTerm(Block(["C"]))))), (0,), "C")
    assert render(e1) == "sum_C[CR(A,B|C)·CR(A,C)·CR(B,C)·P(C)]·sum_C[P(C)]"


def test_rewrites_at_nested_paths():
    # condition puts a sum below the root product; the next steps reach
    # through the sum into its product
    table = random_joint_table("ABCD", seed=3)
    e0 = Product((singleton_cr("AB"), PTerm(Block(["D"]))))
    e1, s1 = apply_condition(e0, (0,), "C")
    e2, s2 = apply_duplicate(e1, (0, 0, 1), 0)
    e3, s3 = apply_bipartition(e2, (0, 0, 0), [0], [1])
    assert render(e3) == "sum_C[CR(A|C)·CR(A,B|C)·CR(B|C)·CR(A,A,C)·P(A)·CR(B,C)·P(C)]·P(D)"
    rows = grid(table)
    np.testing.assert_allclose(eval_expr(e3, table, rows), eval_expr(e0, table, rows), rtol=1e-12)
    steps = trace_from_dicts(json.loads(json.dumps(trace_to_dicts([s1, s2, s3]))))
    assert render(replay_trace(e0, steps)) == render(e3)
    with pytest.raises(RewriteError, match="a sum has a single child"):
        apply_duplicate(e1, (0, 1), 0)


# ---------------------------------------------------------------------------
# ci_reduce


def test_ci_reduce_d3(d3_table):
    # CR(A, BC) -> CR(A, B) given (A ⊥ C | B); both equal 1.8 at all-zeros
    e0 = CRTerm((Block(["A"]), Block(["B", "C"])))
    e1, step = apply_ci_reduce(e0, (), 0, ["C"], ["B"], "numeric")
    validate_certificate(step.certificate, table=d3_table)
    assert render(e1) == "CR(A,B)"
    assert eval_expr(e0, d3_table, A000) == pytest.approx(1.8)
    assert eval_expr(e1, d3_table, A000) == pytest.approx(1.8)
    _everywhere_equal(e0, e1, d3_table)
    assert step.certificate.kind == "numeric"


def test_ci_reduce_graph_certificate(d3_table):
    chain = make_graph("chain:3")  # a -> b -> c
    e0 = CRTerm((Block(["a"]), Block(["b", "c"])))
    e1, step = apply_ci_reduce(e0, (), 0, ["c"], ["b"], "graph")
    validate_certificate(step.certificate, graph=chain)
    assert render(e1) == "CR(a,b)"


def test_ci_reduce_invalid_certificate(d3_table):
    e0 = CRTerm((Block(["A"]), Block(["B", "C"])))
    _, step = apply_ci_reduce(e0, (), 0, ["B"], ["C"], "numeric")
    with pytest.raises(CertificateError):
        # (A ⊥ B | C) is false for the chain table
        validate_certificate(step.certificate, table=d3_table)


def test_ci_reduce_parameter_validation(d3_table):
    e0 = CRTerm((Block(["A"]), Block(["B", "C"])))
    with pytest.raises(RewriteError, match="^ci_reduce needs non-empty y and w variable sets$"):
        apply_ci_reduce(e0, (), 0, ["C"], [], "numeric")  # empty w
    with pytest.raises(RewriteError, match="^y and w must partition the reduced block's variables$"):
        apply_ci_reduce(e0, (), 0, ["C"], ["Z"], "numeric")  # not a partition
    with pytest.raises(RewriteError, match="^ci_reduce applies to two-block CR terms$"):
        apply_ci_reduce(singleton_cr("ABC"), (), 0, ["C"], ["B"], "numeric")
    with pytest.raises(RewriteError, match="^keep must be 0 or 1$"):
        apply_ci_reduce(e0, (), 2, ["C"], ["B"], "numeric")


@pytest.mark.parametrize(
    "rule, target, args, message",
    [
        ("ci_split", "CR(A,B,C)", (0, ["A"], ["C"]), "ci_split applies to two-block CR terms"),
        ("ci_split", "CR(B,A C)", (2, ["A"], ["C"]), "w_index must be 0 or 1"),
        ("ci_split", "CR(B,A C)", (0, ["A", "C"], []), "ci_split needs non-empty x and y variable sets"),
        ("ci_split", "CR(B,A C)", (0, ["A"], ["B"]), "x and y must partition the grouped block's variables"),
        ("ci_split", "CR(B,A C)", (0, ["A", "C"], ["C"]), "x and y must partition the grouped block's variables"),
        ("ci_collapse", "CR(A,B,C)", (), "ci_collapse applies to two-block CR terms"),
    ],
)
def test_ci_split_and_collapse_parameter_validation(d3_table, rule, target, args, message):
    """The twin of the ci_reduce checks: each message, pinned whole."""
    with pytest.raises(RewriteError) as exc:
        getattr(rewrites, f"apply_{rule}")(parse_expr(target), (), *args)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# ci_split


def test_ci_split_d3(d3_table):
    # CR(B, AC) -> CR(A,B) CR(C,B) / CR(A,C) under (A ⊥ C | B)
    e0 = CRTerm((Block(["B"]), Block(["A", "C"])))
    e1, step = apply_ci_split(e0, (), 0, ["A"], ["C"], "numeric")
    validate_certificate(step.certificate, table=d3_table)
    assert render(e1) == "CR(A,B)·CR(C,B)·CR(A,C)^-1"
    # oracle: CR(A,C) = P(A=0,C=0) / 0.25 = 0.37 / 0.25 = 1.48
    cr_ac = oracle_cr(D3_PROBS, D3_NAMES, [{"A": 0}, {"C": 0}])
    assert cr_ac == pytest.approx(1.48)
    assert eval_expr(e1, d3_table, A000) == pytest.approx(1.8 * 1.6 / cr_ac)
    _everywhere_equal(e0, e1, d3_table)


def test_ci_split_composes_with_ci_reduce(d3_table):
    # both routes out of CR(B, AC) agree everywhere
    e0 = CRTerm((Block(["B"]), Block(["A", "C"])))
    split, step = apply_ci_split(e0, (), 0, ["A"], ["C"], "numeric")
    validate_certificate(step.certificate, table=d3_table)
    _everywhere_equal(e0, split, d3_table)


def test_ci_split_independent_blocks(coins_table):
    # with a third independent variable everything collapses to 1
    table = random_joint_table(("x", "y", "w"), seed=99)
    # construct a table that is a product of independent marginals
    import numpy as np
    from crfactor import JointTable, Variable

    px, py, pw = [0.3, 0.7], [0.6, 0.4], [0.5, 0.5]
    arr = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                arr[i, j, k] = px[i] * py[j] * pw[k]
    t = JointTable([Variable("x", 2), Variable("y", 2), Variable("w", 2)], arr)
    e0 = CRTerm((Block(["w"]), Block(["x", "y"])))
    e1, step = apply_ci_split(e0, (), 0, ["x"], ["y"], "numeric")
    validate_certificate(step.certificate, table=t)
    for a in assignments(t):
        assert eval_expr(e1, t, a) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# ci_collapse


def test_ci_collapse_d3(d3_table):
    # CR(A B, B C) -> 1 / P(B) = 2.0 at B = 0
    e0 = CRTerm((Block(["A", "B"]), Block(["B", "C"])))
    e1, step = apply_ci_collapse(e0, (), "numeric")
    validate_certificate(step.certificate, table=d3_table)
    assert render(e1) == "P(B)^-1"
    assert eval_expr(e0, d3_table, A000) == pytest.approx(2.0)
    assert eval_expr(e1, d3_table, A000) == pytest.approx(2.0)
    _everywhere_equal(e0, e1, d3_table)


def test_ci_collapse_identical_blocks_needs_no_certificate(d3_table):
    e0 = CRTerm((Block(["B"]), Block(["B"])))
    e1, step = apply_ci_collapse(e0, ())
    assert render(e1) == "P(B)^-1"
    assert step.certificate is None
    _everywhere_equal(e0, e1, d3_table)


def test_ci_collapse_binding_mismatch():
    e0 = CRTerm((Block([("B", 0), "A"]), Block([("B", 1), "C"])))
    with pytest.raises(RewriteError):
        apply_ci_collapse(e0, ())
    with pytest.raises(RewriteError):
        apply_ci_collapse(CRTerm((Block(["A"]), Block(["C"]))), ())  # no overlap


# ---------------------------------------------------------------------------
# independence


def test_independence_drops_term(coins_table):
    e0 = Product((singleton_cr("AB"), PTerm(Block(["A"])), PTerm(Block(["B"]))))
    e1, step = apply_independence(e0, (0,), "numeric")
    validate_certificate(step.certificate, table=coins_table)
    assert render(e1) == "P(A)·P(B)"
    _everywhere_equal(e0, e1, coins_table)


def test_independence_invalid_certificate(d2_table):
    _, step = apply_independence(singleton_cr("AB"), (), "numeric")
    with pytest.raises(CertificateError):
        validate_certificate(step.certificate, table=d2_table)


def test_independence_graph_certificate():
    g = make_graph("er:4:0.0")  # no edges: everything separated
    t = random_gibbs_model(make_graph("path:4"), seed=1).to_joint()
    e0 = singleton_cr("abcd")
    e1, step = apply_independence(e0, (), "graph")
    validate_certificate(step.certificate, graph=g)
    assert render(e1) == "1"
    # the certificate is about the edgeless graph, not the path table
    assert eval_expr(e1, t, {n: 0 for n in "abcd"}) == 1.0


def test_graph_certificate_reads_each_group_less_z():
    """A group's names in z are given: a pair left with an empty side is
    separated, a pair sharing a name outside z is not, and z may repeat a
    name; every name must be a node, also one that drops out."""
    path = make_graph("path:3")  # a - b - c
    for cert in (Certificate("graph", ("a", "b"), ("c",), ("b",)), Certificate("graph", ("a", "b"), ("b",), ("b",)),
                 Certificate("graph", ("a",), ("c",), ("b", "b")), Certificate("graph", groups=(("a",), ("b",)), z=("b",))):
        validate_certificate(cert, graph=path)
    for cert in (Certificate("graph", groups=(("a",), ("a",))), Certificate("graph", ("a", "b"), ("b", "c"), ("a",)),
                 Certificate("graph", ("a",), ("c",))):
        with pytest.raises(CertificateError, match="^graph separation does not hold"):
            validate_certificate(cert, graph=path)
    for cert in (Certificate("graph", ("a", "q"), ("c",), ("b",)), Certificate("graph", groups=(("a",), ("q",)), z=("q",))):
        with pytest.raises(ModelError, match="^unknown node 'q'$"):
            validate_certificate(cert, graph=path)


def test_independence_missing_context():
    for kind in ("numeric", "graph"):
        _, step = apply_independence(singleton_cr("AB"), (), kind)
        with pytest.raises(CertificateError):
            validate_certificate(step.certificate)
        # one group is independent of nothing else: its certificate states nothing and is not checked
        _, step = apply_independence(singleton_cr("A"), (), kind)
        assert render(replay_trace(singleton_cr("A"), [step])) == "1"


def test_certificate_validation_requires_known_kind():
    with pytest.raises(RewriteError):
        Certificate("hearsay", x=("A",), y=("B",))


# ---------------------------------------------------------------------------
# single_block


def test_single_block(d3_table):
    e0 = Product((CRTerm((Block(["A", "B", "C"]),)), PTerm(Block(["A"]))))
    e1, _ = apply_single_block(e0, (0,))
    assert render(e1) == "P(A)"
    with pytest.raises(RewriteError, match="^single_block applies to one-block CR terms$"):
        apply_single_block(singleton_cr("AB"), ())


def test_single_block_at_root_leaves_constant_one(d3_table):
    e0 = CRTerm((Block(["A"]),))
    e1, _ = apply_single_block(e0, ())
    assert render(e1) == "1"


# ---------------------------------------------------------------------------
# targeting and replay


def test_rewrites_require_cr_targets():
    with pytest.raises(RewriteError):
        apply_single_block(PTerm(Block(["A"])), ())
    with pytest.raises(RewriteError):
        apply_merge(CRTerm((Block(["A"]), Block(["B"])), exponent=-1), (), 0, 1)
    with pytest.raises(RewriteError):
        apply_single_block(Product((PTerm(Block(["A"])),)), (3,))


def test_replay_reproduces_recorded_run(d3_table):
    e0 = singleton_cr("ABC")
    steps = []
    e, s = apply_bipartition(e0, (), [0], [1, 2])
    steps.append(s)
    e, s = apply_single_block(e, (0,))
    steps.append(s)
    e, s = apply_ci_reduce(e, (0,), 0, ["C"], ["B"], "numeric")
    steps.append(s)
    e, s = apply_merge(e, (1,), 0, 1)
    steps.append(s)
    final = e
    replayed = replay_trace(e0, steps, table=d3_table)
    assert replayed == final
    # and across serialization
    assert trace_from_dicts(trace_to_dicts(steps)) == tuple(steps)
    replayed2 = replay_trace(e0, trace_from_dicts(trace_to_dicts(steps)), table=d3_table)
    assert replayed2 == final


def test_replay_empty_trace_is_identity(d3_table):
    e0 = singleton_cr("ABC")
    assert replay_trace(e0, []) == e0


def test_replay_stale_target_raises(d3_table):
    e0 = singleton_cr("ABC")
    _, s = apply_bipartition(e0, (), [0], [1, 2])
    with pytest.raises(RewriteError):
        replay_trace(Product((PTerm(Block(["A"])),)), [s])


def test_replay_revalidates_certificates(d3_table):
    # recorded against one table, replayed against a table lacking the CI
    e0 = CRTerm((Block(["A"]), Block(["B", "C"])))
    _, s = apply_ci_reduce(e0, (), 0, ["C"], ["B"], "numeric")
    validate_certificate(s.certificate, table=d3_table)
    bad = random_joint_table(("A", "B", "C"), seed=17)
    with pytest.raises(CertificateError):
        replay_trace(e0, [s], table=bad)
    # the rule alone is the raw algebra: it checks no certificate
    out, _ = apply_ci_reduce(e0, s.path, **s.params, cert_kind="numeric")
    assert render(out) == "CR(A,B)"


def test_replay_requires_the_recorded_certificate(d3_table):
    e0 = CRTerm((Block(["A"]), Block(["B", "C"])))
    _, reduce = apply_ci_reduce(e0, (), 0, ["C"], ["B"], "numeric")
    _, merge = apply_merge(e0, (), 0, 1)
    tampered = [
        replace(reduce, certificate=replace(reduce.certificate, x=("B",))),
        replace(reduce, certificate=None),
        replace(merge, certificate=reduce.certificate),
    ]
    for step in tampered:
        with pytest.raises(RewriteError, match="records certificate"):
            replay_trace(e0, [step], table=d3_table)
    # the derived certificate is validated before it is compared: where it fails, so does the step
    with pytest.raises(CertificateError, match="^step 0: numeric CI test fails"):
        replay_trace(e0, [tampered[0]], table=random_joint_table(("A", "B", "C"), seed=17))


def test_replay_refuses_an_unknown_rule():
    with pytest.raises(RewriteError, match="step 0: unknown rule 'bogus'"):
        replay_trace(singleton_cr("AB"), [TraceStep("bogus", (), {})])


def _json_round_trip(trace):
    return trace_from_dicts(json.loads(json.dumps(trace_to_dicts(trace))))


@pytest.mark.parametrize("spec, card", [
    ("dag:10:0.3", 2), ("dag:12:0.3", 2), ("chain:12", 2), ("dag:14:0.3", 2), ("dag:8:0.4", 3), ("student", 3),
])
def test_factorize_bn_steps_pass_the_json_boundary(spec, card):
    # the steps the library builds itself are checked only where JSON enters
    _, trace = factorize_bn(make_graph(spec, 0))
    assert _json_round_trip(trace) == trace


@pytest.mark.parametrize("spec", ["path:10", "triangles:4"])
def test_factorize_tcg_steps_pass_the_json_boundary(spec):
    graph = make_graph(spec, 0)
    trace = factorize_tcg(random_gibbs_model(graph, 1).to_joint(), graph).trace
    assert {s.rule for s in trace} == {"duplicate", "bipartition", "ci_collapse"}
    assert _json_round_trip(trace) == trace


def _certificate_free_step(draw, names, card: int) -> tuple[CRTerm, str, dict]:
    """A CR term over the first k of `names` (at least one name stays
    outside it) in drawn blocks, each member free or pinned, under a
    condition on some outside names or none, and a certificate-free rule
    with params that apply to it."""
    k = draw(st.integers(1, len(names) - 1))
    cuts = sorted(draw(st.sets(st.integers(1, k - 1)))) if k > 1 else []
    blocks = tuple(_pinned(draw, names[a:b], card) for a, b in zip([0, *cuts], [*cuts, k]))
    m = len(blocks)
    rule = draw(st.sampled_from(["duplicate", "condition"] + (["bipartition", "merge"] if m > 1 else ["single_block"])))
    outside = draw(st.sets(st.sampled_from(names[k:])))
    cond = _pinned(draw, [v for v in names if v in outside], card) if outside and rule != "condition" else None
    if rule == "bipartition":
        left = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m - 1)))
        params = {"left": left, "right": [i for i in range(m) if i not in left]}
    elif rule == "merge":
        params = dict(zip("ij", draw(st.permutations(range(m)))))
    elif rule == "duplicate":
        params = {"index": draw(st.integers(0, m - 1))}
    elif rule == "condition":
        params = {"over": draw(st.sampled_from(names[k:]))}
    else:
        params = {}
    return CRTerm(blocks, cond), rule, params


def _pinned(draw, names, card: int) -> Block:
    """A block of `names`, in order, each free or pinned to a drawn state."""
    return Block([(n, draw(st.none() | st.integers(0, card - 1))) for n in names])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certificate_free_rewrites_preserve_value_and_round_trip(data):
    n, card = data.draw(st.integers(3, 4)), data.draw(st.integers(2, 3))
    table = random_joint_table("ABCD"[:n], seed=data.draw(st.integers(0, 999)), cardinality=card)
    e0, rule, params = _certificate_free_step(data.draw, data.draw(st.permutations(table.names)), card)
    e1, step = getattr(rewrites, f"apply_{rule}")(e0, (), **params)
    rows = grid(table)
    np.testing.assert_allclose(eval_expr(e1, table, rows), eval_expr(e0, table, rows), rtol=1e-9)
    assert step == TraceStep(rule, (), params)
    assert _json_round_trip([step]) == (step,)


def test_apply_signatures_follow_the_rule_table():
    for rule, (params, certified) in RULES.items():
        names = list(inspect.signature(getattr(rewrites, f"apply_{rule}")).parameters)
        cert_args = ["cert_kind"] if certified else []
        assert names == ["root", "path", *params, *cert_args], rule


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
STEP_LIKE = st.fixed_dictionaries(
    {"rule": st.sampled_from(list(RULES)) | JSON, "path": st.lists(st.integers(0, 2), max_size=2) | JSON},
    optional={
        "params": st.dictionaries(st.sampled_from(["i", "j", "left", "over", "y", "w"]), JSON, max_size=3),
        "certificate": st.fixed_dictionaries(
            {}, optional={f: JSON for f in ("kind", "x", "y", "z", "groups")}
        ) | JSON,
    },
)


@settings(max_examples=300, deadline=None)
@given(st.lists(STEP_LIKE, max_size=3) | JSON)
def test_trace_from_dicts_raises_only_rewrite_errors(items):
    try:
        trace_from_dicts(items)
    except RewriteError:
        pass


# ---------------------------------------------------------------------------
# soundness sweep over random tables (small here; the acceptance suite runs
# the full hundred-seed version)


def test_rewrite_soundness_random_tables():
    rng = random.Random(1234)
    for seed in range(15):
        n = rng.randint(3, 5)
        names = tuple(f"v{i}" for i in range(n))
        table = random_joint_table(names, seed=seed)
        e0 = singleton_cr(names)
        k = rng.randint(1, n - 1)
        idx = list(range(n))
        rng.shuffle(idx)
        e1, _ = apply_bipartition(e0, (), sorted(idx[:k]), sorted(idx[k:]))
        _everywhere_equal(e0, e1, table)
        i, j = rng.sample(range(n), 2)
        e2, _ = apply_merge(e0, (), i, j)
        _everywhere_equal(e0, e2, table)
        e3, _ = apply_duplicate(e0, (), rng.randrange(n))
        _everywhere_equal(e0, e3, table)


def test_numeric_certificate_tolerance_boundary(nearly_markov):
    """A numeric certificate holds when its deviation d on the nearly Markov
    table is within tol: it validates at tol = 2d and fails at d/2."""
    table, _ = nearly_markov
    cert = Certificate("numeric", x=("a",), y=("c", "d"), z=("b",))
    d = mutual_independence_deviation(table, (cert.x, cert.y), cert.z)
    assert 0.0 < d < 1e-3
    validate_certificate(cert, table=table, tol=2 * d)
    with pytest.raises(CertificateError, match="numeric CI test fails"):
        validate_certificate(cert, table=table, tol=d / 2)


def test_independence_of_three_groups_needs_every_pair_separated():
    # a -> b, c apart: (a, c) and (b, c) are d-separated, (a, b) is not
    dag = ModelGraph("directed", ("a", "b", "c"), [("a", "b")])
    expr = singleton_cr(("a", "b", "c"))
    after, step = apply_independence(expr, (), "graph")
    with pytest.raises(CertificateError, match="graph separation does not hold"):
        validate_certificate(step.certificate, graph=dag)
    validate_certificate(step.certificate, graph=ModelGraph("directed", ("a", "b", "c"), []))
    assert render(after) == "1"


# ---------------------------------------------------------------------------
# Exact tables: a rewrite keeps the exact value of its term, read by the
# explicit-sum evaluator of conftest over a Fraction table, at every row where
# both sides are defined; a certificate rule wherever its graph certificate
# holds in the graph that generated the table.


@st.composite
def exact_markov_cases(draw):
    """3 to 7 nodes (4 at cardinality 3) in a drawn order, a graph over
    them and the exact joint of integer potentials in 1..9 on every node and
    edge of it, which is Markov for it."""
    card = draw(st.sampled_from((2, 3)))
    nodes = tuple("abcdefg"[: draw(st.integers(3, 7 if card == 2 else 4))])
    edges = [e for e in itertools.combinations(nodes, 2) if draw(st.booleans())]
    potentials = {
        scope: {s: draw(st.integers(1, 9)) for s in itertools.product(range(card), repeat=len(scope))}
        for scope in [*((v,) for v in nodes), *edges]
    }
    return nodes, edges, card, exact_gibbs_table(nodes, potentials, card), draw(st.permutations(nodes))


def _assert_exact_value_kept(before, after, nodes, exact) -> None:
    value = exact_evaluator(exact, nodes)

    def defined(expr, row):
        try:
            return value(expr, row)
        except ZeroDivisionError:
            return None

    for states in exact:
        row = dict(zip(nodes, states))
        want, got = defined(before, row), defined(after, row)
        if want is not None and got is not None:
            assert got == want, row


@settings(max_examples=60, deadline=None)
@given(exact_markov_cases(), st.data())
def test_certificate_free_rewrites_keep_the_exact_value(case, data):
    nodes, _, card, exact, order = case
    before, rule, params = _certificate_free_step(data.draw, order, card)
    after, _ = getattr(rewrites, f"apply_{rule}")(before, (), **params)
    _assert_exact_value_kept(before, after, nodes, exact)


def _certified(cert, nodes, edges) -> bool:
    """Whether the graph holds `cert` as validate_certificate reads it, by
    the oracle: each pair of groups, less z's names, is separated by z."""
    groups, z = cert.groups or (cert.x, cert.y), set(cert.z)
    sides = [set(g) - z for g in groups]
    return all(
        not a & b and oracle_u_separated(nodes, edges, a, b, z) for a, b in itertools.combinations(sides, 2) if a and b
    )


@pytest.mark.parametrize("rule", ["ci_reduce", "ci_split", "ci_collapse", "independence"])
@settings(max_examples=40, deadline=None)
@given(exact_markov_cases(), st.data())
def test_certificate_rewrites_keep_the_exact_value_where_the_graph_certifies(rule, case, data):
    """The certificate (x ⊥ y | w, condition) of a drawn x: its neighbours
    less y go to w or to the condition, so it mostly holds. Each rule must
    record exactly that certificate; the oracle checks it all the same, and
    the value is compared only where it holds."""
    nodes, edges, card, exact, order = case
    draw = data.draw
    adjacent = set(map(frozenset, edges))
    x = list(order[: draw(st.integers(1, 2))])
    near = [n for n in order if n not in x and any(frozenset((n, v)) in adjacent for v in x)]
    far = [n for n in order if n not in x and n not in near]
    y = draw(st.lists(st.sampled_from(far or near), min_size=1, max_size=2, unique=True))
    spare = [n for n in order if n not in x and n not in y]
    where = {n: draw(st.sampled_from(("w", "cond") if n in near else ("w", "cond", None))) for n in spare}
    w = [n for n in spare if where[n] == "w"]
    z = [n for n in spare if where[n] == "cond"]
    if rule == "independence":  # no w: the condition holds all of x's separator
        z = w + z
        term = CRTerm((_pinned(draw, x, card), _pinned(draw, y, card)), _pinned(draw, z, card) if z else None)
        after, step = apply_independence(term, ())
        want = Certificate("graph", z=z, groups=(x, y))
    else:  # w needs a node: one more name in z keeps x and y apart
        assume(spare)
        w = w or [spare[0]]
        z = [n for n in z if n not in w]
        cond = _pinned(draw, z, card) if z else None
        side = draw(st.integers(0, 1))
        if rule == "ci_reduce":
            kept, other = _pinned(draw, x, card), _pinned(draw, draw(st.permutations(y + w)), card)
            term = CRTerm((kept, other) if side == 0 else (other, kept), cond)
            after, step = apply_ci_reduce(term, (), side, y, w)
            want = Certificate("graph", x, y, w + z)
        elif rule == "ci_split":
            w = draw(st.permutations(w))
            sep, xy = _pinned(draw, w, card), _pinned(draw, draw(st.permutations(x + y)), card)
            term = CRTerm((sep, xy) if side == 0 else (xy, sep), cond)
            after, step = apply_ci_split(term, (), side, x, y)
            want = Certificate("graph", x, y, w + z)
        else:
            shared = _pinned(draw, w, card).members
            term = CRTerm((Block([*shared, *_pinned(draw, x, card).members]),
                           Block([*shared, *_pinned(draw, y, card).members])), cond)
            after, step = apply_ci_collapse(term, ())
            want = Certificate("graph", x, y, sorted(w) + z)
    assert step.certificate == want
    certified = _certified(want, nodes, edges)
    event(f"{rule}: certified" if certified else f"{rule}: not certified")
    if certified:
        _assert_exact_value_kept(term, after, nodes, exact)
