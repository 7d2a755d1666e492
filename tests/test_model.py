import itertools
import random
import re
import string
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
)
from crfactor.cli import export_dot
from crfactor.cr import grid
from crfactor.randgen import make_graph, random_chain_conditional_table, random_cpts, random_gibbs_model

from conftest import D2_NAMES, D2_PROBS, assignments, oracle_event_prob


def test_variable_validation():
    with pytest.raises(ModelError):
        Variable("not an identifier", 2)
    with pytest.raises(ModelError):
        Variable("x", 1)
    # A name is a letter or underscore, then word characters: the expression
    # grammar's name token. Middle dots, Other_ID_Start symbols and combining
    # marks pass str.isidentifier, but no name token holds them.
    for name in ("é", "_x1", "Zé_2", "ǅ"):
        assert Variable(name, 2).name == name
    for name in ("a·b", "℘", "e\u0301", "a\u0301b", "1a", "a b", "", 3):
        with pytest.raises(ModelError, match=f"^{re.escape(f'variable name must be a letter or underscore, then letters, digits or underscores, got {name!r}')}$"):
            Variable(name, 2)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=4) | st.text(alphabet=string.printable, max_size=4))
def test_a_name_is_exactly_a_name_token(name):
    """Variable takes a name when the grammar's name token, a letter or
    underscore then word characters, matches all of it, and refuses it otherwise."""
    try:
        Variable(name, 2)
    except ModelError:
        assert re.fullmatch(r"[^\W\d]\w*", name) is None
    else:
        assert re.fullmatch(r"[^\W\d]\w*", name) is not None


def test_joint_table_invariants(d2_table):
    assert d2_table.strictly_positive
    assert abs(float(d2_table.probs.sum()) - 1.0) <= 1e-12
    with pytest.raises(ModelError):
        JointTable([Variable("A", 2)], [0.5, 0.6])
    with pytest.raises(ModelError):
        JointTable([Variable("A", 2)], [-0.1, 1.1])
    with pytest.raises(ModelError):
        JointTable([Variable("A", 2), Variable("A", 2)], np.full((2, 2), 0.25))
    with pytest.raises(ModelError, match="^a joint table needs at least one variable$"):
        JointTable([], [1.0])
    with pytest.raises(ModelError, match=r"^probability array shape \(4,\) does not match \(2,\)$"):
        JointTable([Variable("A", 2)], [0.25] * 4)
    with pytest.raises(ModelError, match="^assignment does not bind variable 'B'$"):
        d2_table.prob({"A": 0})
    a = [Variable("a", 2)]
    real_numbers_only = (["x", "y"], [0.5 + 0j, 0.5], object(), [[0.5], [0.2, 0.3]],  # numpy's ValueError or TypeError
                         np.array([0.5 + 0j, 0.5]), ["0.5", "0.5"], np.array(["0.5", "0.5"], dtype=object))
    for bad in real_numbers_only:
        with pytest.raises(ModelError, match="^probabilities must be real numbers$"):
            JointTable(a, bad)
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [1.0, np.nan], [-0.5, 1.5]):
        with pytest.raises(ModelError, match="^probabilities must be finite and non-negative$"):
            JointTable(a, bad)
    signed_zero = JointTable(a, [-0.0, 1.0])  # -0.0 >= 0: a zero entry
    assert not signed_zero.strictly_positive and np.signbit(signed_zero.probs[0])
    assert JointTable(a, [0.25, 0.75]).strictly_positive
    assert d2_table.names == ("A", "B") and d2_table.names is d2_table.names
    given = np.array([0.25, 0.75])
    owned = JointTable(a, given)
    given[0] = 0.0  # the table holds its own copy
    assert owned.probs[0] == 0.25 and given.flags.writeable and not owned.probs.flags.writeable


def test_marginal_uniform_coins(coins_table):
    assert coins_table.event_prob({"A": 0}) == pytest.approx(0.5)
    assert coins_table.event_prob({"A": 1}) == pytest.approx(0.5)


def test_marginal_d2_matches_hand_sums(d2_table):
    # row sums done by hand: 0.4 + 0.1 on each row
    assert d2_table.event_prob({"A": 0}) == pytest.approx(0.5)
    assert d2_table.event_prob({"A": 1}) == pytest.approx(0.5)
    # and against the independent oracle
    assert d2_table.event_prob({"A": 0}) == pytest.approx(oracle_event_prob(D2_PROBS, D2_NAMES, {"A": 0}))


def test_marginal_identity_and_errors(d2_table):
    same = d2_table.event_prob(grid(d2_table))
    assert np.allclose(same, d2_table.probs, rtol=1e-9, atol=1e-12)
    with pytest.raises(ModelError):
        d2_table.event_prob({"A": 0, "Z": 0})
    assert d2_table.event_prob({}) == 1.0


def test_event_prob_errors_keep_their_order():
    """A state is a plain int in range or the variable's own grid axis; any
    other state is refused. An unknown name is reported before any state,
    then the first bad state in table order, whatever the other states are."""
    table = JointTable([Variable("A", 2), Variable("B", 3), Variable("C", 2)], np.full(12, 1 / 12))
    own = grid(table)
    other = grid(JointTable(table.variables, table.probs))

    def refused(name, got):
        return f"state of variable {name!r} must be an int or the table's own grid axis, got {got}"

    cases = [
        # a pinned int out of range next to own-grid axes
        ({"A": own["A"], "B": 3, "C": own["C"]}, "state 3 out of range for variable 'B'"),
        ({"C": own["C"], "B": -1, "A": own["A"]}, "state -1 out of range for variable 'B'"),
        ({"A": 2, "B": own["B"], "C": 5}, "state 2 out of range for variable 'A'"),
        ({"A": own["A"], "B": own["B"], "C": 2}, "state 2 out of range for variable 'C'"),
        # an array that is not the variable's own axis, before and after an own axis or a pinned int
        ({"A": np.array([0, 1]), "B": own["B"]}, refused("A", "int64")),
        ({"A": own["A"], "B": np.array([[0], [3], [4]])}, refused("B", "int64")),
        ({"A": 1, "B": other["B"], "C": np.array([1, -2])}, refused("B", "int64")),  # another table's axis
        ({"A": np.array([5]), "B": 7, "C": own["C"]}, refused("A", "int64")),
        ({"A": own["B"], "B": 1}, refused("A", "int64")),  # another name's axis
        # a state that is not an int, checked in table order with the ranges
        ({"A": 1.0}, refused("A", "float64")),
        ({"A": np.array([0.0, 1.0])}, refused("A", "float64")),
        ({"A": "0"}, refused("A", "str32")),
        ({"A": None}, refused("A", "object")),
        ({"A": True}, refused("A", "bool")),
        ({"A": np.int64(1)}, refused("A", "int64")),
        ({"A": own["A"], "B": np.array([1, 0]) == 1}, refused("B", "bool")),
        ({"C": 0.5, "A": np.array([2])}, refused("A", "int64")),
        ({"C": np.array([7]), "B": own["B"], "A": None}, refused("A", "object")),
        ({"A": 5, "B": 1.5}, "state 5 out of range for variable 'A'"),
        ({"A": own["A"], "B": 1.5, "C": 9}, refused("B", "float64")),
        ({"A": own["A"], "B": 1, "C": 0.5}, refused("C", "float64")),
        # an unknown name, before any state is checked
        ({"Z": 0, "A": own["A"]}, "unknown variable 'Z'"),
        ({"A": 9, "Z": own["A"]}, "unknown variable 'Z'"),
        ({"A": own["A"], "B": np.array([9]), "Z": 0}, "unknown variable 'Z'"),
    ]
    for event, message in cases:
        with pytest.raises(ModelError) as exc:
            table.event_prob(event)
        assert str(exc.value) == message, event


def test_event_prob_on_own_axes_equals_plain_int_rows():
    """Events mixing own-grid axes and pinned ints read, at each row, the
    same value as the event of plain ints at that row."""
    probs = np.random.default_rng(3).uniform(size=12)
    table = JointTable([Variable("A", 2), Variable("B", 3), Variable("C", 2)], probs / probs.sum())
    own = grid(table)
    events = [
        {"A": own["A"], "B": 2, "C": own["C"]},
        {"C": own["C"], "A": 1},
        {"A": 0, "B": 1},
        {"B": own["B"]},
        {"A": own["A"], "B": own["B"], "C": own["C"]},
    ]
    for event in events:
        got = table.event_prob(event)
        axes = [n for n, s in event.items() if s is own[n]]
        for a in assignments(table):
            want = table.event_prob({n: a[n] if n in axes else s for n, s in event.items()})
            assert type(want) is np.float64
            assert np.broadcast_to(got, table.probs.shape)[tuple(a.values())] == want, (event, a)


def test_marginal_sums_to_one(d3_table):
    own = grid(d3_table)
    for subset in (["A"], ["B"], ["C"], ["A", "C"], ["B", "C"]):
        assert float(np.sum(d3_table.event_prob({n: own[n] for n in subset}))) == pytest.approx(1.0, abs=1e-12)


def test_conditional_prob_examples(d2_table, coins_table):
    assert eval_expr(PTerm(Block([("B", 0)]), Block([("A", 0)])), d2_table, {}) == pytest.approx(0.8)
    assert eval_expr(PTerm(Block([("A", 1)]), Block([("A", 1)])), d2_table, {}) == pytest.approx(1.0)
    assert eval_expr(PTerm(Block([("A", 0)]), Block([("A", 1)])), d2_table, {}) == 0.0
    assert eval_expr(PTerm(Block([("B", 0)]), Block([("A", 1)])), coins_table, {}) == pytest.approx(0.5)


def test_conditional_prob_zero_event():
    table = JointTable([Variable("A", 2), Variable("B", 2)], [[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(UndefinedCRError, match="conditioning event has probability zero"):
        eval_expr(PTerm(Block([("B", 0)]), Block([("A", 1)])), table, {})


def test_build_joint_single_node():
    dag = ModelGraph("directed", ["A"], [])
    table = build_joint_from_cpts(dag, {"A": CPT("A", (), np.array([0.3, 0.7]))}, [Variable("A", 2)])
    assert table.prob({"A": 0}) == pytest.approx(0.3)
    assert table.prob({"A": 1}) == pytest.approx(0.7)


def test_build_joint_chain():
    dag = ModelGraph("directed", ["A", "B"], [("A", "B")])
    cpts = {
        "A": CPT("A", (), np.array([0.5, 0.5])),
        "B": CPT("B", ("A",), np.array([[0.9, 0.1], [0.1, 0.9]])),
    }
    table = build_joint_from_cpts(dag, cpts, [Variable("A", 2), Variable("B", 2)])
    assert table.prob({"A": 0, "B": 0}) == pytest.approx(0.45)


def test_build_joint_cpt_errors():
    dag = ModelGraph("directed", ["A", "B"], [("A", "B")])
    good_a = CPT("A", (), np.array([0.5, 0.5]))
    with pytest.raises(ModelError):  # scope mismatch: B's parent missing
        build_joint_from_cpts(dag, {"A": good_a, "B": CPT("B", (), np.array([1.0, 0.0]))},
                              [Variable("A", 2), Variable("B", 2)])
    # a row not normalized, in the model file's wording
    with pytest.raises(ModelError, match=r"^cpt rows for 'B' \(parent configuration index 0\) sum to 1\.1, not 1$"):
        CPT("B", ("A",), np.array([[0.9, 0.2], [0.1, 0.9]]))
    with pytest.raises(ModelError, match=r"^cpt rows for 'C' \(parent configuration index 3\) sum to 0\.9, not 1$"):
        CPT("C", ("A", "B"), np.array([[[0.5, 0.5], [0.3, 0.7]], [[1.0, 0.0], [0.4, 0.5]]]))
    ab = [Variable("A", 2), Variable("B", 2)]
    good_b = CPT("B", ("A",), np.eye(2))
    with pytest.raises(ModelError, match="^CPT models require a directed graph$"):
        build_joint_from_cpts(ModelGraph("undirected", ["A", "B"], [("A", "B")]), {"A": good_a}, ab)
    with pytest.raises(ModelError, match="^variables do not match graph nodes$"):
        build_joint_from_cpts(dag, {"A": good_a}, ab[:1])
    with pytest.raises(ModelError, match="^missing CPT for node 'B'$"):
        build_joint_from_cpts(dag, {"A": good_a}, ab)
    with pytest.raises(ModelError, match=r"^CPT for 'A' has shape \(3,\), expected \(2,\)$"):
        build_joint_from_cpts(dag, {"A": CPT("A", (), [0.2, 0.3, 0.5]), "B": good_b}, ab)


def test_cpt_rejects_non_finite_entries():
    with pytest.raises(ModelError, match="CPT for 'A' has non-finite entries"):
        CPT("A", (), np.array([np.nan, np.nan]))
    with pytest.raises(ModelError, match="'B'"):
        CPT("B", ("A",), np.array([[0.5, 0.5], [np.inf, 0.0]]))
    # a non-finite entry is reported before a negative one, and both before a row sum
    for bad, fault in (([0.5, np.nan], "non-finite"), ([-np.inf, 2.0], "non-finite"), ([-1.0, np.inf], "non-finite"),
                       ([1.5, -0.5], "negative"), ([-0.5, 0.5], "negative")):
        with pytest.raises(ModelError, match=f"^CPT for 'A' has {fault} entries$"):
            CPT("A", (), np.array(bad))
    for bad in (["x", "y"], [0.5 + 0j, 0.5], object(), [[0.5], [0.2, 0.3]], np.array([0.5 + 0j, 0.5]), ["0.5", "0.5"]):
        with pytest.raises(ModelError, match="^CPT entries for 'A' must be real numbers$"):
            CPT("A", (), bad)


@pytest.mark.parametrize(
    "parents, probs, message",
    [
        ((), 1.0, "CPT for 'a' has 0 axes, expected 1: one for each parent and one for the node"),
        (("b",), [0.5, 0.5], "CPT for 'a' has 1 axes, expected 2: one for each parent and one for the node"),
        ((), [[0.5, 0.5]], "CPT for 'a' has 2 axes, expected 1: one for each parent and one for the node"),
        ((), [], "CPT for 'a' has no entries"),
    ],
)
def test_cpt_checks_its_shape(parents, probs, message):
    with pytest.raises(ModelError) as err:
        CPT("a", parents, probs)
    assert str(err.value) == message


def test_cpt_probs_are_read_only():
    given = np.array([[0.9, 0.1], [0.2, 0.8]])
    cpt = CPT("B", ("A",), given)
    with pytest.raises(ValueError, match="read-only"):
        cpt.probs[0, 0] = 0.5
    given[0, 0] = 0.5  # the caller's array stays writable, and the CPT does not see the write
    assert cpt.probs[0, 0] == 0.9


def test_products_refuse_a_variable_named_twice():
    """Every table built by the factor product names its variables once."""
    twice = [Variable("a", 2), Variable("a", 2)]
    with pytest.raises(ModelError, match=r"^duplicate variable 'a'$"):
        build_joint_from_cpts(ModelGraph("directed", ["a"], []), {"a": CPT("a", (), [0.5, 0.5])}, twice)
    with pytest.raises(ModelError, match=r"^duplicate variable 'a'$"):
        GibbsModel(twice, ModelGraph("undirected", ["a"], []), {("a",): np.ones(2)}).to_joint()
    with pytest.raises(ModelError, match=r"^duplicate variable 'b'$"):
        random_chain_conditional_table(["a", "b"], ["b"], 0)


def test_chain_table_needs_a_chain_variable():
    """The generator refuses an empty chain in factorize_chain_crf's words."""
    with pytest.raises(ModelError, match=r"^need at least one chain variable$"):
        random_chain_conditional_table([], ["x"], 0)


def test_student_cpts_give_marginally_independent_roots(student_graph):
    from conftest import student_table
    from crfactor.model import REL_TOL
    from crfactor.separation import CIQuery, ci_deviation

    table = student_table(student_graph, seed=123)
    assert ci_deviation(table, CIQuery(("D",), ("I",))) <= REL_TOL


def test_chain_rule_reproduces_cpts(student_graph):
    from crfactor.randgen import random_cpts

    cpts = random_cpts(student_graph, seed=5)
    table = build_joint_from_cpts(student_graph, cpts, [Variable(n, 2) for n in student_graph.nodes])
    for node in student_graph.nodes:
        parents = student_graph.parents(node)
        for states in itertools.product(range(2), repeat=len(parents) + 1):
            given = Block(zip(parents, states[:-1])) if parents else None
            got = eval_expr(PTerm(Block([(node, states[-1])]), given), table, {})
            assert got == pytest.approx(float(cpts[node].probs[states]), abs=1e-12)


def test_build_joint_from_potentials_uniform():
    g = ModelGraph("undirected", ["A", "B"], [("A", "B")])
    gm = GibbsModel([Variable("A", 2), Variable("B", 2)], g, {("A", "B"): np.ones((2, 2))})
    table = gm.to_joint()
    assert np.allclose(table.probs, 0.25)
    assert table is not gm.to_joint()


def test_build_joint_from_potentials_d2():
    g = ModelGraph("undirected", ["A", "B"], [("A", "B")])
    gm = GibbsModel(
        [Variable("A", 2), Variable("B", 2)], g, {("A", "B"): np.array([[4.0, 1.0], [1.0, 4.0]])}
    )
    table = gm.to_joint()
    assert np.allclose(table.probs, np.array([[4.0, 1.0], [1.0, 4.0]]) / 10.0, rtol=1e-12, atol=0.0)
    assert table.prob({"A": 0, "B": 0}) == pytest.approx(0.4)
    assert table.strictly_positive


def test_disjoint_cliques_factorize():
    g = ModelGraph("undirected", ["A", "B", "C", "D"], [("A", "B"), ("C", "D")])
    gm = random_gibbs_model(g, seed=17)
    table = gm.to_joint()
    for a in assignments(table):
        expected = table.event_prob({"A": a["A"], "B": a["B"]}) * table.event_prob({"C": a["C"], "D": a["D"]})
        assert table.prob(a) == pytest.approx(expected, rel=1e-12)


def _ones_product(variables, factors):
    """The product of (scope, array) factors multiplied in place, in order,
    into a grid of ones over the variables' axes."""
    names = [v.name for v in variables]
    arr = np.ones([v.cardinality for v in variables])
    with np.errstate(over="ignore", under="ignore"):
        for scope, factor in factors:
            factor = np.transpose(factor, [list(scope).index(n) for n in names if n in scope])
            arr *= factor.reshape([v.cardinality if v.name in scope else 1 for v in variables])
    return arr


def test_joints_equal_an_in_place_product_over_ones_bit_for_bit():
    """build_joint_from_cpts and GibbsModel.to_joint give the bytes of a grid
    of ones times each factor in place, in order: on a DAG declared out of
    topological order (with its variables in either order), a ternary BN,
    generated BNs and Gibbs models, a Gibbs model with a variable in no
    potential, and potentials whose product leaves the float range."""
    dag = ModelGraph("directed", ["C", "A", "B", "D"], [("A", "B"), ("B", "C"), ("A", "C"), ("D", "A")])
    bns = [(dag, random_cpts(dag, 3, card), [Variable(n, card) for n in order])
           for card in (2, 3) for order in (dag.nodes, dag.nodes[::-1])]
    for spec, card in (("student", 3), ("dag:8:0.4", 3), ("dag:12:0.3", 2), ("chain:6", 2)):
        bn = make_graph(spec)
        bns.append((bn, random_cpts(bn, 1, card), [Variable(n, card) for n in bn.nodes]))
    for bn, cpts, variables in bns:
        expected = _ones_product(variables, (((*cpts[n].parents, n), cpts[n].probs) for n in bn.nodes))
        assert build_joint_from_cpts(bn, cpts, variables).probs.tobytes() == expected.tobytes()

    path = ModelGraph("undirected", list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
    lone = ModelGraph("undirected", ["A", "B", "C"], [("A", "B")])
    models = [GibbsModel([Variable("A", 2), Variable("B", 3), Variable("C", 2)], lone,
                         {("A", "B"): np.arange(1.0, 7.0).reshape(2, 3)})]  # C is in no potential
    for tiny in (1e-105, 1e-160):  # tiny^3 at (a..d = 0) is subnormal, or 0 by underflow
        pots = {("c", "d"): [[tiny, 1.0], [0.5, 1.0]], ("a", "b"): [[tiny, 1.0], [1.0, 2.0]],
                ("b", "c"): [[tiny, 3.0], [1.0, 1.0]]}
        models.append(GibbsModel([Variable(n, 2) for n in "abcd"], path, pots))
    models += [random_gibbs_model(make_graph(spec), seed=2, cardinality=card)
               for spec, card in (("cycle:6", 3), ("er:10:0.3", 2), ("triangles:4", 2))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gm in models:
            arr = _ones_product(gm.variables, gm.potentials.items())
            assert gm.to_joint().probs.tobytes() == (arr / arr.sum()).tobytes()
    first, second = (gm.to_joint().probs[0, 0, 0, 0] for gm in models[1:3])
    assert 0.0 < first < np.finfo(float).tiny and second == 0.0
    huge = GibbsModel([Variable(n, 2) for n in "abcd"], path, {s: np.full((2, 2), 1e120) for s in path.edges})
    assert _ones_product(huge.variables, huge.potentials.items()).max() == np.inf  # 1e360
    with pytest.raises(PreconditionError, match="normalizer is inf"):
        huge.to_joint()


def test_materialization_cap():
    from crfactor import PreconditionError
    from crfactor.randgen import random_cpts, random_model

    over = f"a table of {2**21} cells exceeds the cap of {2**20} cells"
    g = make_graph("path:21")
    gm = random_gibbs_model(g, seed=0)
    with pytest.raises(PreconditionError, match=over):
        gm.to_joint()
    with pytest.raises(PreconditionError, match=over):
        random_model("gibbs", "path:21", seed=0)
    dag = make_graph("chain:21")
    with pytest.raises(PreconditionError, match=over):
        build_joint_from_cpts(dag, random_cpts(dag, seed=0), [Variable(n, 2) for n in dag.nodes])


def test_potential_validation():
    g = ModelGraph("undirected", ["A", "B", "C"], [("A", "B")])
    vs = [Variable(n, 2) for n in "ABC"]
    with pytest.raises(ModelError):  # non-positive entry
        GibbsModel(vs, g, {("A", "B"): np.array([[1.0, 0.0], [1.0, 1.0]])})
    with pytest.raises(ModelError, match="non-finite"):  # nan entry
        GibbsModel(vs, g, {("A", "B"): np.array([[1.0, np.nan], [1.0, 1.0]])})
    with pytest.raises(ModelError):  # scope not a clique
        GibbsModel(vs, g, {("A", "C"): np.ones((2, 2))})
    with pytest.raises(ModelError, match="^Gibbs models require an undirected graph$"):
        GibbsModel(vs, ModelGraph("directed", ["A", "B", "C"], [("A", "B")]), {})
    with pytest.raises(ModelError, match="^variables do not match graph nodes$"):
        GibbsModel(vs[:2], g, {})
    with pytest.raises(ModelError, match="^potential with empty scope$"):
        GibbsModel(vs, g, {(): np.ones(())})
    with pytest.raises(ModelError, match=r"^potential over \('A',\) has wrong shape$"):
        GibbsModel(vs, g, {("A",): np.ones(3)})
    for bad in ([["x", "y"], [1, 1]], [[1 + 0j, 1], [1, 1]], object(), [[1.0], [1.0, 1.0]],
                np.array([[1 + 0j, 1], [1, 1]]), [["1", "1"], ["1", "1"]]):
        with pytest.raises(ModelError, match=r"^potential entries over \('A', 'B'\) must be real numbers$"):
            GibbsModel(vs, g, {("A", "B"): bad})
    given = np.ones((2, 2))
    gm = GibbsModel(vs, g, {("A", "B"): given})
    given[0, 0] = 0.0  # after the check: the model holds its own read-only copy
    assert gm.to_joint().strictly_positive and not gm.potentials[("A", "B")].flags.writeable


def test_potential_over_unknown_name():
    g = ModelGraph("undirected", ["a", "b"], [("a", "b")])
    vs = [Variable("a", 2), Variable("b", 2)]
    for scope in (("zz",), ("a", "zz")):
        with pytest.raises(ModelError, match="^unknown node 'zz'$"):
            GibbsModel(vs, g, {scope: np.ones((2,) * len(scope))})


def test_maximal_cliques_examples():
    tri = ModelGraph("undirected", ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert tri.maximal_cliques() == (("a", "b", "c"),)
    path = make_graph("path:3")
    assert path.maximal_cliques() == (("a", "b"), ("b", "c"))
    cyc = make_graph("cycle:4")
    assert cyc.maximal_cliques() == (("a", "b"), ("a", "d"), ("b", "c"), ("c", "d"))


def test_maximal_cliques_properties():
    rng = random.Random(0)
    for trial in range(25):
        n = rng.randint(2, 7)
        names = [f"n{i}" for i in range(n)]
        edges = [e for e in itertools.combinations(names, 2) if rng.random() < 0.5]
        g = ModelGraph("undirected", names, edges)
        cliques = g.maximal_cliques()
        assert cliques, "every graph has at least one maximal clique"
        for c in cliques:
            for u, v in itertools.combinations(c, 2):
                assert g.has_edge(u, v)
            outside = set(names) - set(c)
            for o in outside:  # maximality
                assert not all(g.has_edge(o, m) for m in c)
        for c1, c2 in itertools.combinations(cliques, 2):
            assert not set(c1) <= set(c2)
            assert not set(c2) <= set(c1)


# The graphs of the suite and of the benchmark: make_graph specs (seed 0)
SUITE_GRAPHS = (
    "path:3", "path:4", "path:5", "path:6", "path:10", "path:20", "path:21", "cycle:4", "cycle:5",
    "cycle:6", "triangles:2", "triangles:3", "triangles:4", "triangles:7", "tree:5", "tree:6",
    "tree:7", "tree:16", "star:5", "complete:2", "complete:3", "complete:4", "complete:5",
    "complete:12", "er:4:0.0", "er:5:0.5", "er:6:0.4", "er:7:0.4", "er:8:0.4", "er:10:0.3",
    "er:10:0.8", "er:12:0.8", "er:14:0.8", "er:16:0.8",
)


def _cliques_by_extension(g: ModelGraph) -> tuple[list, list]:
    """Every clique and the maximal ones, grown one later-declared neighbour
    at a time; independent of Bron-Kerbosch."""
    later = {n: {m for m in g.neighbors(n) if g.declaration_index(m) > g.declaration_index(n)} for n in g.nodes}
    cliques, frontier = [()], [((n,), later[n]) for n in g.nodes]
    while frontier:
        clique, common = frontier.pop()
        cliques.append(clique)
        frontier += [(clique + (m,), common & later[m]) for m in common]
    maximal = [c for c in cliques if c and not any(all(g.has_edge(o, m) for m in c) for o in g.nodes if o not in c)]
    cliques.sort(key=lambda c: (len(c), sorted(c)))
    maximal.sort(key=sorted)
    return cliques, maximal


@pytest.mark.parametrize("spec", SUITE_GRAPHS)
def test_maximal_cliques_are_found_once_per_graph(spec):
    g = make_graph(spec)
    cliques, maximal = _cliques_by_extension(g)
    first = g.maximal_cliques()
    assert g.maximal_cliques() is first
    assert first == tuple(maximal)
    assert g.all_cliques() == tuple(cliques)


def test_all_cliques_includes_empty():
    path = make_graph("path:3")
    cliques = path.all_cliques()
    assert cliques[0] == ()
    assert ("a",) in cliques and ("a", "b") in cliques
    assert ("a", "c") not in cliques


def test_markov_blanket_examples():
    path = make_graph("path:3")
    assert path.markov_blanket(["b"]) == ("a", "c")
    assert path.markov_blanket(["a", "c"]) == ("b",)
    g = ModelGraph("undirected", ["a", "b", "c", "d", "e"],
                   [("a", "c"), ("b", "d"), ("c", "e"), ("d", "e")])
    # MB of the unconnected pair {a, b}: union of neighbors minus the pair
    assert g.markov_blanket(["a", "b"]) == ("c", "d")


def test_markov_blanket_separates():
    from crfactor.separation import CIQuery, u_separated

    rng = random.Random(3)
    for trial in range(20):
        g = make_graph("er:6:0.4", seed=trial)
        nodes = list(g.nodes)
        s = tuple(rng.sample(nodes, rng.randint(1, 2)))
        mb = g.markov_blanket(s)
        rest = tuple(n for n in nodes if n not in s and n not in mb)
        if rest:
            assert u_separated(g, CIQuery(s, rest, mb))


def test_graph_validation():
    with pytest.raises(ModelError):
        ModelGraph("directed", ["a", "b"], [("a", "b"), ("b", "a")])  # cycle
    with pytest.raises(ModelError):
        ModelGraph("undirected", ["a"], [("a", "a")])  # self-loop
    with pytest.raises(ModelError):
        ModelGraph("undirected", ["a"], [("a", "z")])  # undeclared
    with pytest.raises(ModelError):
        ModelGraph("mixed", ["a"], [])
    with pytest.raises(ModelError, match="^duplicate node 'a'$"):
        ModelGraph("undirected", ["a", "b", "a"], [])
    with pytest.raises(ModelError, match=r"^duplicate edge \('b', 'a'\)$"):
        ModelGraph("undirected", ["a", "b"], [("a", "b"), ("b", "a")])
    dag = ModelGraph("directed", ["a", "b"], [("a", "b")])
    undirected = ModelGraph("undirected", ["a", "b"], [("a", "b")])
    with pytest.raises(ModelError, match=r"^parents\(\) requires a directed graph$"):
        undirected.parents("a")
    with pytest.raises(ModelError, match="^topological order requires a directed graph$"):
        undirected.topological_order()
    with pytest.raises(ModelError, match=r"^markov_blanket\(\) requires an undirected graph$"):
        dag.markov_blanket(["a"])
    with pytest.raises(ModelError, match="^maximal cliques require an undirected graph$"):
        dag.maximal_cliques()


def test_topological_order():
    g = make_graph("student")
    assert g.topological_order() == ("D", "I", "G", "S", "L")


def test_directed_has_edge_follows_the_arrow():
    g = ModelGraph("directed", ["a", "b", "c"], [("a", "b")])
    assert g.has_edge("a", "b")
    assert not g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    with pytest.raises(ModelError, match="unknown node 'z'"):
        g.has_edge("a", "z")


def test_clique_graph_structure():
    assert export_dot(make_graph("path:3"), clique_graph=True) == (
        'graph cliques {\n  "a b";\n  "b c";\n  "a b" -- "b c";\n}\n'
    )
    cyc = export_dot(make_graph("cycle:4"), clique_graph=True).splitlines()[1:-1]
    assert sum(" -- " not in line for line in cyc) == 4
    assert sum(" -- " in line for line in cyc) == 4  # the clique graph of a 4-cycle is a 4-cycle
