import itertools
import random

import numpy as np
import pytest

from crfactor import (
    CPT,
    GibbsModel,
    JointTable,
    ModelError,
    ModelGraph,
    UndefinedCRError,
    Variable,
    block,
    build_clique_graph,
    build_joint_from_cpts,
    conditional_prob,
)
from crfactor.cr import grid
from crfactor.randgen import make_graph, random_gibbs_model

from conftest import D2_NAMES, D2_PROBS, oracle_event_prob


def test_variable_validation():
    with pytest.raises(ModelError):
        Variable("not an identifier", 2)
    with pytest.raises(ModelError):
        Variable("x", 1)


def test_joint_table_invariants(d2_table):
    assert d2_table.strictly_positive
    assert abs(float(d2_table.probs.sum()) - 1.0) <= 1e-12
    with pytest.raises(ModelError):
        JointTable([Variable("A", 2)], [0.5, 0.6])
    with pytest.raises(ModelError):
        JointTable([Variable("A", 2)], [-0.1, 1.1])
    with pytest.raises(ModelError):
        JointTable([Variable("A", 2), Variable("A", 2)], np.full((2, 2), 0.25))


def test_marginal_uniform_coins(coins_table):
    m = coins_table.marginal(["A"])
    assert m.names == ("A",)
    assert m.prob({"A": 0}) == pytest.approx(0.5)
    assert m.prob({"A": 1}) == pytest.approx(0.5)


def test_marginal_d2_matches_hand_sums(d2_table):
    # row sums done by hand: 0.4 + 0.1 on each row
    m = d2_table.marginal(["A"])
    assert m.prob({"A": 0}) == pytest.approx(0.5)
    assert m.prob({"A": 1}) == pytest.approx(0.5)
    # and against the independent oracle
    assert m.prob({"A": 0}) == pytest.approx(oracle_event_prob(D2_PROBS, D2_NAMES, {"A": 0}))


def test_marginal_identity_and_errors(d2_table):
    same = d2_table.marginal(["A", "B"])
    assert same.allclose(d2_table)
    with pytest.raises(ModelError):
        d2_table.marginal(["A", "Z"])
    with pytest.raises(ModelError):
        d2_table.marginal([])


def test_event_prob_errors_keep_their_order():
    """Out-of-range states and unknown names raise the same ModelError
    whether the other states are the table's own grid axes or not: the
    first bad state in table order wins, and an unknown name wins over
    any state."""
    table = JointTable([Variable("A", 2), Variable("B", 3), Variable("C", 2)], np.full(12, 1 / 12))
    own = grid(table)
    foreign = grid(table, table.names)
    cases = [
        # a pinned int out of range next to own-grid axes
        ({"A": own["A"], "B": 3, "C": own["C"]}, "state 3 out of range for variable 'B'"),
        ({"C": own["C"], "B": -1, "A": own["A"]}, "state -1 out of range for variable 'B'"),
        ({"A": 2, "B": own["B"], "C": 5}, "state 2 out of range for variable 'A'"),
        ({"A": own["A"], "B": own["B"], "C": 2}, "state 2 out of range for variable 'C'"),
        # a foreign array out of range, before and after an own axis or a pinned int
        ({"A": np.array([0, 2]), "B": own["B"]}, "state 2 out of range for variable 'A'"),
        ({"A": own["A"], "B": np.array([[0], [3], [4]])}, "state 3 out of range for variable 'B'"),
        ({"A": 1, "B": foreign["B"], "C": np.array([1, -2])}, "state -2 out of range for variable 'C'"),
        ({"A": np.array([5]), "B": 7, "C": own["C"]}, "state 5 out of range for variable 'A'"),
        ({"A": own["B"], "B": 1}, "state 2 out of range for variable 'A'"),  # another name's axis
        # an unknown name, before any state is checked
        ({"Z": 0, "A": own["A"]}, "unknown variable 'Z'"),
        ({"A": 9, "Z": own["A"]}, "unknown variable 'Z'"),
        ({"A": own["A"], "B": np.array([9]), "Z": 0}, "unknown variable 'Z'"),
    ]
    for event, message in cases:
        with pytest.raises(ModelError) as exc:
            table.event_prob(event)
        assert str(exc.value) == message, event


def test_event_prob_on_own_axes_equals_the_gather():
    """Events mixing own-grid axes, pinned ints and foreign arrays read the
    same values as a twin table that never hands out its own grid."""
    variables = [Variable("A", 2), Variable("B", 3), Variable("C", 2)]
    probs = np.random.default_rng(3).uniform(size=12)
    table, twin = JointTable(variables, probs / probs.sum()), JointTable(variables, probs / probs.sum())
    own, foreign = grid(table), grid(twin, twin.names)
    events = [
        ({"A": own["A"], "B": 2, "C": own["C"]}, {"A": foreign["A"], "B": 2, "C": foreign["C"]}),
        ({"C": own["C"], "A": 1}, {"C": foreign["C"], "A": 1}),
        ({"A": 0, "B": 1}, {"A": 0, "B": 1}),
        ({"A": own["A"], "B": np.array([[0], [2]])}, {"A": foreign["A"], "B": np.array([[0], [2]])}),
        ({"B": own["A"], "C": own["C"]}, {"B": foreign["A"], "C": foreign["C"]}),
    ]
    for mine, theirs in events:
        got = table.event_prob(mine)
        want = np.broadcast_to(twin.event_prob(theirs), np.broadcast_shapes(*map(np.shape, theirs.values())))
        assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes(), mine
    assert type(table.event_prob({"A": 0, "B": 1})) is type(twin.event_prob({"A": 0, "B": 1}))


def test_marginal_sums_to_one(d3_table):
    for subset in (["A"], ["B"], ["C"], ["A", "C"], ["B", "C"]):
        assert float(d3_table.marginal(subset).probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_conditional_prob_examples(d2_table, coins_table):
    assert conditional_prob(d2_table, block(("B", 0)), block(("A", 0)), {}) == pytest.approx(0.8)
    assert conditional_prob(d2_table, block(("A", 1)), block(("A", 1)), {}) == pytest.approx(1.0)
    assert conditional_prob(d2_table, block(("A", 0)), block(("A", 1)), {}) == 0.0
    assert conditional_prob(coins_table, block(("B", 0)), block(("A", 1)), {}) == pytest.approx(0.5)


def test_conditional_prob_zero_event():
    table = JointTable([Variable("A", 2), Variable("B", 2)], [[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(UndefinedCRError, match="conditioning event has probability zero"):
        conditional_prob(table, block(("B", 0)), block(("A", 1)), {})


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
    with pytest.raises(ModelError):  # row not normalized
        CPT("B", ("A",), np.array([[0.9, 0.2], [0.1, 0.9]]))


def test_cpt_rejects_non_finite_entries():
    with pytest.raises(ModelError, match="CPT for 'A' has non-finite entries"):
        CPT("A", (), np.array([np.nan, np.nan]))
    with pytest.raises(ModelError, match="'B'"):
        CPT("B", ("A",), np.array([[0.5, 0.5], [np.inf, 0.0]]))


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
            given = block(*zip(parents, states[:-1])) if parents else None
            got = conditional_prob(table, block((node, states[-1])), given, {})
            assert got == pytest.approx(float(cpts[node].probs[states]), abs=1e-12)


def test_build_joint_from_potentials_uniform():
    g = ModelGraph("undirected", ["A", "B"], [("A", "B")])
    gm = GibbsModel([Variable("A", 2), Variable("B", 2)], g, {("A", "B"): np.ones((2, 2))})
    table = gm.to_joint()
    assert np.allclose(table.probs, 0.25)
    assert gm.normalizer == pytest.approx(4.0)


def test_build_joint_from_potentials_d2():
    g = ModelGraph("undirected", ["A", "B"], [("A", "B")])
    gm = GibbsModel(
        [Variable("A", 2), Variable("B", 2)], g, {("A", "B"): np.array([[4.0, 1.0], [1.0, 4.0]])}
    )
    table = gm.to_joint()
    assert gm.normalizer == pytest.approx(10.0)
    assert table.prob({"A": 0, "B": 0}) == pytest.approx(0.4)
    assert table.strictly_positive


def test_disjoint_cliques_factorize():
    g = ModelGraph("undirected", ["A", "B", "C", "D"], [("A", "B"), ("C", "D")])
    gm = random_gibbs_model(g, seed=17)
    table = gm.to_joint()
    left = table.marginal(["A", "B"])
    right = table.marginal(["C", "D"])
    for a in table.assignments():
        expected = left.prob({"A": a["A"], "B": a["B"]}) * right.prob({"C": a["C"], "D": a["D"]})
        assert table.prob(a) == pytest.approx(expected, rel=1e-12)


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


def test_close_helper():
    from crfactor import close

    assert close(1.0, 1.0 + 5e-10)
    assert not close(1.0, 1.0 + 5e-9)
    assert close(0.0, 5e-13)  # absolute floor near zero
    assert not close(0.0, 5e-12)


def test_potential_validation():
    g = ModelGraph("undirected", ["A", "B", "C"], [("A", "B")])
    vs = [Variable(n, 2) for n in "ABC"]
    with pytest.raises(ModelError):  # non-positive entry
        GibbsModel(vs, g, {("A", "B"): np.array([[1.0, 0.0], [1.0, 1.0]])})
    with pytest.raises(ModelError, match="non-finite"):  # nan entry
        GibbsModel(vs, g, {("A", "B"): np.array([[1.0, np.nan], [1.0, 1.0]])})
    with pytest.raises(ModelError):  # scope not a clique
        GibbsModel(vs, g, {("A", "C"): np.ones((2, 2))})


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


def test_topological_order():
    g = make_graph("student")
    order = g.topological_order()
    assert g.is_topological(order)
    assert order == ("D", "I", "G", "S", "L")
    assert not g.is_topological(("G", "D", "I", "S", "L"))


def test_clique_graph_structure():
    path = make_graph("path:3")
    cg = build_clique_graph(path)
    assert cg.cliques == (("a", "b"), ("b", "c"))
    assert cg.edges == ((0, 1),)
    cyc = build_clique_graph(make_graph("cycle:4"))
    assert len(cyc.cliques) == 4
    assert len(cyc.edges) == 4  # the clique graph of a 4-cycle is a 4-cycle
