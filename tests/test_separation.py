import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crfactor import (
    CertificateError,
    CIQuery,
    JointTable,
    ModelError,
    ModelGraph,
    Variable,
    ci_deviation,
    d_separated,
    eval_expr,
    factorize_tcg,
    is_tcg,
    mutual_independence_deviation,
    u_separated,
)
from crfactor.cli import main
from crfactor.model import REL_TOL
from crfactor.rewrites import Certificate, validate_certificate
from crfactor.separation import is_markov
from crfactor.randgen import make_graph, random_gibbs_model, random_joint_table

from conftest import (
    assignments,
    exchange_sides,
    oracle_d_separated,
    oracle_event_prob,
    oracle_u_separated,
    student_table,
)


def test_ci_query_validation():
    with pytest.raises(ModelError):
        CIQuery((), ("a",))
    with pytest.raises(ModelError):
        CIQuery(("a",), ("a",))
    with pytest.raises(ModelError):
        CIQuery(("a",), ("b",), ("a",))
    for x, y, z, twice in ((("a", "a"), ("b",), (), "a"), (("a",), ("b", "c", "b"), (), "b"),
                           (("a",), ("b",), ("c", "c"), "c")):
        with pytest.raises(ModelError, match=f"^variable '{twice}' appears twice in one block$"):
            CIQuery(x, y, z)


def test_d_separation_student(student_graph):
    assert d_separated(student_graph, CIQuery(("D",), ("I",)))
    # conditioning on the common child G couples the parents
    assert not d_separated(student_graph, CIQuery(("D",), ("I",), ("G",)))
    assert not d_separated(student_graph, CIQuery(("D",), ("I", "S", "L"), ("G",)))
    # the collider also opens the indirect route D -> G <- I -> S
    assert not d_separated(student_graph, CIQuery(("D",), ("S", "L"), ("G",)))
    # closing it again with I restores separation
    assert d_separated(student_graph, CIQuery(("D",), ("S", "L"), ("G", "I")))
    assert d_separated(student_graph, CIQuery(("S",), ("D", "G", "L"), ("I",)))
    assert d_separated(student_graph, CIQuery(("L",), ("D", "I", "S"), ("G",)))


def test_d_separation_chain():
    chain = make_graph("chain:3")
    assert d_separated(chain, CIQuery(("a",), ("c",), ("b",)))
    assert not d_separated(chain, CIQuery(("a",), ("c",)))


def test_d_separation_collider_descendant():
    # a -> c <- b, c -> d: conditioning on the collider's descendant opens it
    g = ModelGraph("directed", ["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("c", "d")])
    assert d_separated(g, CIQuery(("a",), ("b",)))
    assert not d_separated(g, CIQuery(("a",), ("b",), ("d",)))


def test_d_separation_requires_dag():
    with pytest.raises(ModelError):
        d_separated(make_graph("path:3"), CIQuery(("a",), ("c",), ("b",)))


_PATH3_TABLE = random_joint_table(("a", "b", "c"), seed=0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: u_separated(make_graph("chain:3"), CIQuery(("a",), ("c",), ("b",))),
         "vertex separation requires an undirected graph"),
        (lambda: is_markov(_PATH3_TABLE, make_graph("chain:3")), "the Markov check requires an undirected graph"),
        (lambda: factorize_tcg(_PATH3_TABLE, make_graph("chain:3")), "the Markov check requires an undirected graph"),
        (lambda: is_markov(_PATH3_TABLE, make_graph("path:4")), "graph nodes do not match table variables"),
        (lambda: factorize_tcg(_PATH3_TABLE, make_graph("path:2")), "graph nodes do not match table variables"),
    ],
)
def test_graph_checks_refuse_the_wrong_graph(call, message):
    """Vertex separation and the Markov gate, through is_markov and
    factorize_tcg, refuse a graph of the wrong kind or over other names."""
    with pytest.raises(ModelError) as err:
        call()
    assert str(err.value) == message


def test_u_separation_examples(fig4_graph):
    path = make_graph("path:3")
    assert u_separated(path, CIQuery(("a",), ("c",), ("b",)))
    cyc = make_graph("cycle:4")
    assert not u_separated(cyc, CIQuery(("a",), ("c",), ("b",)))
    assert u_separated(cyc, CIQuery(("a",), ("c",), ("b", "d")))
    assert u_separated(fig4_graph, CIQuery(("A",), ("D",), ("B", "C")))
    assert not u_separated(fig4_graph, CIQuery(("A",), ("D",), ("B",)))


@st.composite
def _graph_and_queries(draw, kind):
    """A graph of 2-8 nodes (a DAG: edges run forward in a drawn order) and
    1-8 queries, each with disjoint non-empty x and y and a possibly empty z."""
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 8)))]
    pairs = list(itertools.combinations(draw(st.permutations(nodes)), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        shuffled = draw(st.permutations(nodes))
        roles = "xy" + draw(st.text("xyz-", min_size=len(nodes) - 2, max_size=len(nodes) - 2))
        queries.append(tuple(tuple(n for n, role in zip(shuffled, roles) if role == r) for r in "xyz"))
    return ModelGraph(kind, nodes, edges), edges, queries


@settings(max_examples=300, deadline=None)
@given(_graph_and_queries("directed"))
def test_d_separation_matches_moralized_ancestral_graph(case):
    dag, edges, queries = case
    for x, y, z in queries:
        assert d_separated(dag, CIQuery(x, y, z)) == oracle_d_separated(dag.nodes, edges, x, y, z)


@settings(max_examples=300, deadline=None)
@given(_graph_and_queries("undirected"))
def test_u_separation_matches_reachability(case):
    graph, edges, queries = case
    for x, y, z in queries:
        assert u_separated(graph, CIQuery(x, y, z)) == oracle_u_separated(graph.nodes, edges, x, y, z)


# Every labelled graph on up to five nodes, every labelled DAG on up to four,
# each against oracles written here. Nodes are declared out of name order, so
# a clique listed in declaration order is not its sorted names.
SWEEP_NODES = ("c", "a", "e", "b", "d")


def _chordal(nodes, edges) -> bool:
    """Whether simplicial vertices (whose neighbours are pairwise adjacent)
    can be removed one by one until none is left (Blair & Peyton 1993)."""
    adj = {n: {m for e in edges if n in e for m in e if m != n} for n in nodes}
    while adj:
        n = next((n for n in adj if all(b in adj[a] for a, b in itertools.combinations(adj[n], 2))), None)
        if n is None:
            return False
        for m in adj.pop(n):
            adj[m].discard(n)
    return True


def _maximal_cliques(nodes, edges) -> list[tuple[str, ...]]:
    """Every node set that is a clique and lies in no larger one, members in
    declaration order, sorted by their sorted names."""
    cliques = [c for r in range(len(nodes) + 1) for c in itertools.combinations(nodes, r)
               if all(frozenset(p) in edges for p in itertools.combinations(c, 2))]
    maximal = [c for c in cliques if not any(set(c) < set(d) for d in cliques)]
    return sorted(maximal, key=sorted)


def _queries(nodes):
    """Each pair of nodes with each set of the others as the condition."""
    for x, y in itertools.combinations(nodes, 2):
        rest = [n for n in nodes if n not in (x, y)]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                yield (x,), (y,), z


def test_every_graph_on_up_to_five_nodes():
    """is_tcg holds exactly on the connected chordal graphs, maximal_cliques
    is the brute-force list, and u_separated is plain reachability, for each
    of the 1,099 labelled graphs on 1-5 nodes."""
    count = tcg = 0
    for n in range(1, 6):
        nodes = SWEEP_NODES[:n]
        pairs = list(itertools.combinations(nodes, 2))
        for mask in range(2 ** len(pairs)):
            edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
            graph = ModelGraph("undirected", nodes, edges)
            connected = not any(oracle_u_separated(nodes, edges, nodes[:1], (m,), ()) for m in nodes[1:])
            ok = connected and _chordal(nodes, edges)
            assert is_tcg(graph).ok == ok, edges
            assert list(graph.maximal_cliques()) == _maximal_cliques(nodes, set(map(frozenset, edges))), edges
            for x, y, z in _queries(nodes):
                assert u_separated(graph, CIQuery(x, y, z)) == oracle_u_separated(nodes, edges, x, y, z), (edges, z)
            count, tcg = count + 1, tcg + ok
    assert (count, tcg) == (1099, 1 + 1 + 4 + 35 + 541)  # connected chordal labelled graphs, OEIS A058862


def test_every_dag_on_up_to_four_nodes():
    """d_separated is separation in the moralized ancestral graph (Lauritzen
    et al., Networks 1990) for each of the 572 labelled DAGs on 1-4 nodes."""
    count = 0
    for n in range(1, 5):
        nodes = SWEEP_NODES[:n]
        pairs = list(itertools.combinations(nodes, 2))
        for way in itertools.product((None, 0, 1), repeat=len(pairs)):  # no edge, or one of two directions
            edges = [pair[::-1] if d else pair for pair, d in zip(pairs, way) if d is not None]
            remaining = set(nodes)
            while (free := {v for v in remaining if not any(b == v and a in remaining for a, b in edges)}):
                remaining -= free
            if remaining:  # a cycle: no node without a remaining parent is left
                continue
            dag = ModelGraph("directed", nodes, edges)
            for x, y, z in _queries(nodes):
                assert d_separated(dag, CIQuery(x, y, z)) == oracle_d_separated(nodes, edges, x, y, z), (edges, z)
            count += 1
    assert count == 572


def test_numeric_ci_examples(coins_table, d2_table, d3_table):
    assert ci_deviation(coins_table, CIQuery(("A",), ("B",))) <= REL_TOL
    # D2 is attractive: CR = 1.6, far from independent
    assert ci_deviation(d2_table, CIQuery(("A",), ("B",))) > REL_TOL
    assert ci_deviation(d2_table, CIQuery(("A",), ("B",))) == pytest.approx(0.6)
    assert ci_deviation(d3_table, CIQuery(("A",), ("C",), ("B",))) <= REL_TOL


def test_numeric_ci_skips_zero_condition_rows():
    import numpy as np
    from crfactor import JointTable

    arr = np.zeros((2, 2, 2))
    arr[0] = 0.25  # B = 1 never happens... states: (B, X, Y)
    table = JointTable([Variable("B", 2), Variable("X", 2), Variable("Y", 2)], arr)
    assert ci_deviation(table, CIQuery(("X",), ("Y",), ("B",))) <= REL_TOL


@st.composite
def _table_and_groups(draw):
    """3-4 variables of cardinality 2-3 with integer weights 0..4 (so some
    cells are exactly zero), and disjoint x, y, an optional third group w
    and z."""
    cards = draw(st.lists(st.integers(2, 3), min_size=3, max_size=4))
    names = "ABCD"[: len(cards)]
    weights = draw(st.lists(st.integers(0, 4), min_size=math.prod(cards), max_size=math.prod(cards)).filter(any))
    arr = np.array(weights, dtype=float).reshape(cards)
    table = JointTable([Variable(n, c) for n, c in zip(names, cards)], arr / arr.sum())
    order = draw(st.permutations(names))
    role = {order[0]: "x", order[1]: "y"} | {n: draw(st.sampled_from("xywz-")) for n in order[2:]}
    x, y, w, z = (tuple(n for n in names if role[n] == r) for r in "xywz")
    return table, tuple(g for g in (x, y, w) if g), z


def _oracle_deviation(table, groups, z):
    """max |P(z, g_1..g_k) P(z)^(k-1) / prod_i P(z, g_i) - 1| over the rows
    where every P(z, g_i) > 0, by explicit sums."""
    probs = {tuple(s): float(p) for s, p in np.ndenumerate(table.probs)}
    worst = 0.0
    for a in assignments(table):
        def p(*gs):
            return oracle_event_prob(probs, table.names, {n: a[n] for g in gs for n in g})

        marginals = [p(z, g) for g in groups]
        if all(m > 0.0 for m in marginals):
            worst = max(worst, abs(p(z, *groups) * p(z) ** (len(groups) - 1) / math.prod(marginals) - 1.0))
    return worst


@settings(max_examples=150, deadline=None)
@given(_table_and_groups())
def test_one_deviation_for_ci_and_mutual_independence(case):
    table, groups, z = case
    got = mutual_independence_deviation(table, groups, z)
    if len(groups) == 2:
        assert ci_deviation(table, CIQuery(*groups, z)) == got
    want = _oracle_deviation(table, groups, z)
    assert abs(got - want) <= max(1e-9 * max(got, want), 1e-12)


def test_mutual_independence_of_nothing_is_a_model_error(coins_table):
    """No groups, or groups and z that name no variable, raise ModelError;
    an unknown or repeated name keeps its own message, checked first."""
    cases = [
        ([], (), "mutual independence needs at least one group"),
        ([], ("A",), "mutual independence needs at least one group"),
        ([()], (), "mutual independence needs at least one variable"),
        ([(), ()], (), "mutual independence needs at least one variable"),
        ([], ("Z",), "unknown variable 'Z'"),
        ([()], ("A", "A"), "variable 'A' appears twice in one block"),
        ([(), ("Z",)], (), "unknown variable 'Z'"),
    ]
    for groups, z, message in cases:
        with pytest.raises(ModelError) as exc:
            mutual_independence_deviation(coins_table, groups, z)
        assert str(exc.value) == message, (groups, z)
    # an empty group next to named variables is still a check
    assert mutual_independence_deviation(coins_table, [()], ("A",)) == 0.0
    assert mutual_independence_deviation(coins_table, [("A",), ()], ()) == 0.0


def test_d_separation_implies_numeric_ci(student_graph):
    rng = random.Random(0)
    for seed in range(10):
        table = student_table(student_graph, seed=seed)
        nodes = list(student_graph.nodes)
        for _ in range(15):
            rng.shuffle(nodes)
            nx, ny, nz = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 2)
            x, y, z = nodes[:nx], nodes[nx : nx + ny], nodes[nx + ny : nx + ny + nz]
            q = CIQuery(tuple(x), tuple(y), tuple(z))
            if d_separated(student_graph, q):
                assert ci_deviation(table, q) <= REL_TOL, f"seed {seed} query {q}"


def test_u_separation_implies_numeric_ci():
    rng = random.Random(1)
    for seed in range(10):
        g = make_graph(f"er:5:0.5", seed=seed)
        table = random_gibbs_model(g, seed=seed).to_joint()
        nodes = list(g.nodes)
        for _ in range(15):
            rng.shuffle(nodes)
            nx, ny, nz = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 2)
            q = CIQuery(tuple(nodes[:nx]), tuple(nodes[nx : nx + ny]),
                        tuple(nodes[nx + ny : nx + ny + nz]))
            if u_separated(g, q):
                assert ci_deviation(table, q) <= REL_TOL, f"seed {seed} query {q}"


def test_is_markov(d3_table):
    path = ModelGraph("undirected", ["A", "B", "C"], [("A", "B"), ("B", "C")])
    assert is_markov(d3_table, path)
    # a generic positive table is not Markov for the path
    bad = random_joint_table(("A", "B", "C"), seed=3)
    assert not is_markov(bad, path)


def test_is_markov_tolerance_boundary(nearly_markov):
    """The worst pairwise CI deviation d on the nearly Markov table decides:
    is_markov accepts at tol = 2d and rejects at d/2."""
    table, path = nearly_markov
    d = max(
        ci_deviation(table, CIQuery((u,), (v,), tuple(n for n in path.nodes if n not in (u, v))))
        for u, v in itertools.combinations(path.nodes, 2) if not path.has_edge(u, v)
    )
    assert 0.0 < d < 1e-3
    assert is_markov(table, path, tol=2 * d)
    assert not is_markov(table, path, tol=d / 2)


@pytest.mark.parametrize("q, independent", [(1e-150, False), (1e-200, True)])
def test_ci_deviation_survives_underflowing_products(q, independent, tmp_path, capsys):
    """P(z=0) = P(x=0|z=0) = P(y=0|z=0) = 1e-100 and P(x=0, y=0|z=0) = q:
    P(z,x,y)·P(z) and P(z,x)·P(z,y) both underflow to 0 at z=x=y=0, where
    CR(x,y|z) is q / 1e-200. is_markov, a numeric certificate and
    `indep --numeric` agree on the verdict."""
    given_z0 = np.array([[q, 1e-100 - q], [1e-100 - q, 1.0 - 2e-100 + q]])
    probs = np.stack([1e-100 * given_z0, np.full((2, 2), 0.25 * (1.0 - 1e-100))])
    table = JointTable([Variable(n, 2) for n in "zxy"], probs)
    deviation = ci_deviation(table, CIQuery(("x",), ("y",), ("z",)))
    assert deviation == (0.0 if independent else pytest.approx(q / 1e-200 - 1.0))
    path = ModelGraph("undirected", ["z", "x", "y"], [("x", "z"), ("z", "y")])
    assert is_markov(table, path) == independent
    cert = Certificate("numeric", ("x",), ("y",), ("z",))
    if independent:
        validate_certificate(cert, table=table)
    else:
        with pytest.raises(CertificateError, match="deviation 1.000e\\+50"):
            validate_certificate(cert, table=table)
    rows = "".join(f"{z} {x} {y} {float(probs[z, x, y])!r}\n" for z, x, y in itertools.product(range(2), repeat=3))
    model = tmp_path / "underflow.model"
    model.write_text("graph undirected\nvar z 2\nvar x 2\nvar y 2\nedge x z\nedge z y\njoint\n" + rows)
    assert main(["indep", "--model", str(model), "--query", "x _|_ y | z", "--numeric"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"numeric-ci: {'true' if independent else 'false'}"


# ---------------------------------------------------------------------------
# the unconnected-nodes exchange identity


def test_unconnected_nodes_path():
    g = make_graph("path:3")  # a - b - c with the non-adjacent pair (a, c)
    table = random_gibbs_model(g, seed=5).to_joint()
    for assignment in assignments(table):
        lhs, rhs = (eval_expr(e, table, assignment) for e in exchange_sides("a", "c", ["b"], []))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_unconnected_nodes_default_states_trivial():
    g = make_graph("path:3")
    table = random_gibbs_model(g, seed=6).to_joint()
    # at the default configuration both sides are literally the same product
    assignment = {n: 0 for n in g.nodes}
    lhs, rhs = (eval_expr(e, table, assignment) for e in exchange_sides("a", "c", ["b"], []))
    assert lhs == rhs


def test_unconnected_nodes_random_models():
    rng = random.Random(9)
    for seed in range(15):
        g = make_graph("er:5:0.5", seed=seed)
        table = random_gibbs_model(g, seed=seed).to_joint()
        pairs = [
            (u, v)
            for u, v in itertools.combinations(g.nodes, 2)
            if not g.has_edge(u, v)
        ]
        if not pairs:
            continue
        a, b = rng.choice(pairs)
        rest = [n for n in g.nodes if n not in (a, b)]
        blanket = set(g.markov_blanket((a, b)))
        for _ in range(5):
            w, x = [], []
            for n in rest:
                bucket = rng.randrange(3)
                if n in blanket and bucket == 2:
                    bucket = rng.randrange(2)  # blanket nodes must land in W or X
                (w if bucket == 0 else x if bucket == 1 else []).append(n)
            assignment = {n: rng.randrange(2) for n in g.nodes}
            lhs, rhs = (eval_expr(e, table, assignment) for e in exchange_sides(a, b, w, x))
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_unconnected_nodes_nonzero_default():
    g = make_graph("path:4")  # a-b-c-d; pair (a, d), blanket {b, c}
    table = random_gibbs_model(g, seed=12).to_joint()
    default = {"b": 1, "c": 1, "a": 1, "d": 0}
    for assignment in assignments(table):
        sides = exchange_sides("a", "d", ["b"], ["c"], default=default)
        lhs, rhs = (eval_expr(e, table, assignment) for e in sides)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_unconnected_nodes_preconditions():
    """Without its preconditions the identity fails on a generic Gibbs table."""
    g = make_graph("path:3")
    table = random_gibbs_model(g, seed=7).to_joint()
    for a, b, w in (("a", "b", ["c"]), ("a", "c", [])):  # an adjacent pair; a blanket not covered
        gaps = []
        for assignment in assignments(table):
            lhs, rhs = (eval_expr(e, table, assignment) for e in exchange_sides(a, b, w, []))
            gaps.append(abs(lhs - rhs) / rhs)
        assert max(gaps) > 1e-3, (a, b, w)
