"""Acceptance suite: one test per criterion, executed at its stated
tolerance, printing one PASS/FAIL line each (run with ``pytest -v -s``).

Criterion 4 is split in two. 4a reproduces the chain rule of the five-node
study network (D -> G <- I, I -> S, G -> L). 4b replays the two fixed
four-factor reduction traces of CR(D,I,G,S,L), which cite (D ⊥ I,S,L | G)
and (D ⊥ I,L | G). Those independences hold in the network's tree skeleton
and in its G-rooted orientation (G -> D, G -> I, I -> S, G -> L), where 4b
requires the traces to replay strictly and verify at 1e-9. They are false
in the study DAG itself: G is a child of both D and I, so conditioning on it
couples the parents. There 4b requires strict replay to reject the D
certificate and the four-factor product to miss the joint. The 4b
docstring carries the full analysis.
"""

import itertools
import random
import time

import numpy as np
import pytest

from crfactor import (
    Block,
    CertificateError,
    CIQuery,
    CRTerm,
    Product,
    PTerm,
    apply_bipartition,
    apply_ci_collapse,
    apply_ci_reduce,
    apply_ci_split,
    apply_condition,
    apply_duplicate,
    apply_merge,
    Context,
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
    u_separated,
)
from crfactor.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_VERIFICATION, main, verify_expression
from crfactor.cr import grid
from crfactor.model import REL_TOL
from crfactor.randgen import (
    make_graph,
    random_chain_conditional_table,
    random_gibbs_model,
    random_joint_table,
    random_model,
)

from conftest import DATA, exchange_sides, f1_merge_trace, f1_partition_trace, student_table

MODULE_START = time.perf_counter()


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def on_grid(expr, table):
    """The expression's value at every row of the table, one grid evaluation."""
    return np.broadcast_to(eval_expr(expr, table, grid(table)), table.probs.shape)


def rel_gap(got, want) -> float:
    """max |got - want| / max(|want|, 1e-12) over the rows, skipping a nan row
    as the row-by-row `max(worst, gap)` did; 0.0 if every row is nan."""
    gaps = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
    return float(np.fmax.reduce(gaps, axis=None, initial=0.0))


def max_rel_gap(expr_a, expr_b, table) -> float:
    return rel_gap(on_grid(expr_a, table), on_grid(expr_b, table))


def joint_gap(expr, table) -> float:
    return rel_gap(on_grid(expr, table), table.probs)


# ---------------------------------------------------------------------------
# Shared model pools (generated once, reused by several criteria)

GENERAL_SPECS = ("path:5", "cycle:4", "cycle:5", "complete:3", "complete:4",
                 "star:5", "tree:5", "er:5:0.5", "er:4:0.6", "triangles:2")
TCG_SPECS = ("path:4", "path:5", "tree:5", "tree:6", "star:5", "complete:3",
             "complete:4", "triangles:2", "triangles:3")


@pytest.fixture(scope="module")
def gibbs_pool():
    """100 seeded random positive Markov models on graphs of <= 5 nodes."""
    pool = []
    for seed in range(100):
        graph = make_graph(GENERAL_SPECS[seed % len(GENERAL_SPECS)], seed=seed)
        table = random_gibbs_model(graph, seed=seed).to_joint()
        pool.append((graph, table))
    return pool


@pytest.fixture(scope="module")
def tcg_pool():
    """100 seeded random Gibbs models whose clique graphs are tree-reducible."""
    pool = []
    for seed in range(100):
        graph = make_graph(TCG_SPECS[seed % len(TCG_SPECS)], seed=seed)
        assert is_tcg(graph).ok
        table = random_gibbs_model(graph, seed=1000 + seed).to_joint()
        pool.append((graph, table))
    return pool


@pytest.fixture(scope="module")
def student_tables(student_graph):
    return [student_table(student_graph, seed=seed) for seed in range(20)]


@pytest.fixture(scope="module")
def g_rooted_tables(student_g_rooted_graph):
    return [student_table(student_g_rooted_graph, seed=seed) for seed in range(20)]


# ---------------------------------------------------------------------------


def test_criterion_1_rewrite_soundness():
    """Bipartition, merge, duplicate and condition preserve the value of a
    random valid target on 100 seeded positive tables of 3-5 binary
    variables, at every assignment, within 1e-9; total runtime <= 10 s."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = random.Random(seed)
        n = 3 + seed % 3
        names = tuple(f"v{i}" for i in range(n))
        table = random_joint_table(names, seed=seed)

        whole = singleton_cr(names)
        idx = list(range(n))
        rng.shuffle(idx)
        k = rng.randint(1, n - 1)
        split, _ = apply_bipartition(whole, (), sorted(idx[:k]), sorted(idx[k:]))
        worst = max(worst, max_rel_gap(split, whole, table))

        i, j = rng.sample(range(n), 2)
        merged, _ = apply_merge(whole, (), i, j)
        worst = max(worst, max_rel_gap(merged, whole, table))

        doubled, _ = apply_duplicate(whole, (), rng.randrange(n))
        worst = max(worst, max_rel_gap(doubled, whole, table))

        sub = singleton_cr(names[:-1])
        conditioned, _ = apply_condition(sub, (), names[-1])
        worst = max(worst, max_rel_gap(conditioned, sub, table))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 10.0
    report("criterion 1 (rewrite soundness)", ok, f"max_rel={worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed <= 10.0


def _separated_triples(graph, rng, want: int):
    """Seeded sample of disjoint (x, y, w) node triples, w non-empty, with x
    and y vertex-separated by w."""
    nodes = list(graph.nodes)
    found = []
    seen = set()
    for _ in range(400):
        roles = {n: rng.randrange(4) for n in nodes}  # 0=x 1=y 2=w 3=out
        x = tuple(n for n in nodes if roles[n] == 0)
        y = tuple(n for n in nodes if roles[n] == 1)
        w = tuple(n for n in nodes if roles[n] == 2)
        if not x or not y or not w or (x, y, w) in seen:
            continue
        seen.add((x, y, w))
        if u_separated(graph, CIQuery(x, y, w)):
            found.append((x, y, w))
            if len(found) >= want:
                break
    return found


def test_criterion_2_ci_rewrite_soundness(gibbs_pool):
    """On 100 seeded Gibbs models (graphs of <= 5 nodes), every applied
    reduce/split/collapse rewrite whose certificate comes from vertex
    separation preserves the value at every assignment within 1e-9."""
    worst = 0.0
    applications = 0
    for seed, (graph, table) in enumerate(gibbs_pool):
        rng = random.Random(10_000 + seed)
        ctx = Context(graph=graph, table=table)
        for x, y, w in _separated_triples(graph, rng, want=6):
            reduce_target = CRTerm((Block(x), Block(y + w)))
            reduced, _ = apply_ci_reduce(
                reduce_target, (), 0, list(y), list(w), "graph", ctx=ctx
            )
            worst = max(worst, max_rel_gap(reduced, reduce_target, table))

            split_target = CRTerm((Block(w), Block(x + y)))
            split, _ = apply_ci_split(split_target, (), 0, list(x), list(y), "graph", ctx=ctx)
            worst = max(worst, max_rel_gap(split, split_target, table))

            collapse_target = CRTerm((Block(w + x), Block(w + y)))
            collapsed, _ = apply_ci_collapse(collapse_target, (), "graph", ctx=ctx)
            worst = max(worst, max_rel_gap(collapsed, collapse_target, table))
            applications += 3
    ok = worst <= 1e-9 and applications > 0
    report("criterion 2 (CI rewrite soundness)", ok,
           f"{applications} applications, max_rel={worst:.3e}")
    assert applications > 0
    assert worst <= 1e-9


def test_criterion_3_unconnected_nodes_identity(gibbs_pool):
    """For 100 Gibbs models and ALL valid (a, b, W, X) splits (a, b
    non-adjacent, W and X disjoint and covering their blanket, X pinned to
    the default configuration), both identity sides agree within 1e-9 at
    every assignment of the free variables."""
    worst = 0.0
    splits_checked = 0
    for graph, table in gibbs_pool:
        own = grid(table)
        pairs = [
            (u, v)
            for u, v in itertools.combinations(graph.nodes, 2)
            if not graph.has_edge(u, v)
        ]
        for a, b in pairs:
            rest = [n for n in graph.nodes if n not in (a, b)]
            blanket = set(graph.markov_blanket((a, b)))
            for roles in itertools.product(range(3), repeat=len(rest)):  # 0=W 1=X 2=out
                w = [n for n, r in zip(rest, roles) if r == 0]
                x = [n for n, r in zip(rest, roles) if r == 1]
                out = {n for n, r in zip(rest, roles) if r == 2}
                if blanket & out:
                    continue
                splits_checked += 1
                rows = {n: own[n] for n in w + [a, b]}
                lhs, rhs = (eval_expr(e, table, rows) for e in exchange_sides(a, b, w, x))
                worst = max(worst, rel_gap(lhs, rhs))
    ok = worst <= 1e-9 and splits_checked > 0
    report("criterion 3 (unconnected-nodes identity)", ok,
           f"{splits_checked} splits, max_rel={worst:.3e}")
    assert splits_checked > 0
    assert worst <= 1e-9


def test_criterion_4a_study_network_chain_rule(student_graph, student_tables):
    """factorize_bn renders exactly P(D)·P(I)·P(G|D I)·P(S|I)·P(L|G) and the
    expression (and its recorded trace) verifies against 20 random CPT
    instantiations within 1e-9."""
    expr, trace = factorize_bn(student_graph)
    rendered = render(expr)
    target = "P(D)·P(I)·P(G|D I)·P(S|I)·P(L|G)"
    worst = 0.0
    order = student_graph.topological_order()
    for table in student_tables:
        worst = max(worst, joint_gap(expr, table))
        cr_product = replay_trace(singleton_cr(order), trace, graph=student_graph, table=table)
        full = product_of([cr_product] + [PTerm(Block([n])) for n in order])
        worst = max(worst, joint_gap(full, table))
    ok = rendered == target and worst <= 1e-9
    report("criterion 4a (study-network chain rule)", ok,
           f"render={'exact' if rendered == target else rendered!r}, max_rel={worst:.3e}")
    assert rendered == target
    assert worst <= 1e-9


def test_criterion_4b_fixed_reduction_traces(student_graph, student_tables, g_rooted_tables,
                                             student_g_rooted_graph):
    """The two fixed four-factor reduction traces of CR(D,I,G,S,L).

    The recorded derivations reduce CR(D,I,G,S,L) to the four factors
    CR(D,G)·CR(S,I)·CR(I,G)·CR(G,L) (split route) and the same factors in
    merge order. The rewrite machinery reproduces both products exactly
    (checked below with certificate validation off).

    The split route's first reduction and the merge route's second cite
    (D ⊥ I,S,L | G) / (D ⊥ I,L | G). The four factors are the edges of the
    study network's skeleton, a tree, and every certificate the traces cite
    holds in that tree. So on 20 random CPT instantiations of the G-rooted
    DAG (G -> D, G -> I, I -> S, G -> L) both traces must replay strictly,
    graph and table given, and equal CR(D,I,G,S,L) within 1e-9 relative at
    every assignment.

    In the study DAG D -> G <- I the D certificates are false: G is a common
    child of D and I, so conditioning on G opens the path between them. On
    20 random CPT instantiations of that DAG, each of the 40 strict replays
    must be rejected by d-separation for the certificate x=(D,), z=(G,).
    The merge route first validates (I ⊥ L | G), which holds in both graphs,
    so this also pins the refused step. The four-factor product equals
    P(G)P(D|G)P(I|G)P(S|I)P(L|G), the chain rule of the G-rooted tree, which
    matches a generic joint of the study DAG only if (D ⊥ I | G); its gap
    must exceed 1e-6 on every table (measured gaps are of order 1e-2 to 1).
    """
    initial = singleton_cr(("D", "I", "G", "S", "L"))
    routes = (f1_partition_trace(), f1_merge_trace())

    # Structural reproduction (certificates not checked, validation off).
    partition_final, merge_final = (replay_trace(initial, steps, validate=False) for steps in routes)
    split_render = render(partition_final)
    merge_factors = sorted(render(c) for c in merge_final.children)
    split_ok = split_render == "CR(D,G)·CR(S,I)·CR(I,G)·CR(G,L)"
    merge_ok = merge_factors == sorted(["CR(G,L)", "CR(I,G)", "CR(S,I)", "CR(D,G)"])

    # G-rooted DAG: every cited certificate holds; strict replay must verify.
    rejected = []
    worst = 0.0
    for table in g_rooted_tables:
        for steps in routes:
            try:
                final = replay_trace(initial, steps, graph=student_g_rooted_graph, table=table)
            except CertificateError as exc:
                rejected.append(str(exc))
                continue
            worst = max(worst, max_rel_gap(final, initial, table))
    tree_ok = not rejected and worst <= 1e-9

    # Collider study DAG: strict replay must refuse the D certificate, and
    # the four-factor product must miss the joint on every table.
    messages = []
    least_gap = float("inf")
    for table in student_tables:
        for steps in routes:
            try:
                replay_trace(initial, steps, graph=student_graph, table=table)
            except CertificateError as exc:
                messages.append(str(exc))
            else:
                messages.append(None)
        least_gap = min(least_gap, max_rel_gap(partition_final, initial, table),
                        max_rel_gap(merge_final, initial, table))
    d_marks = ("graph separation does not hold", "x=('D',)", "z=('G',)")
    off_target = [m for m in messages if m is None or not all(k in m for k in d_marks)]
    collider_ok = len(messages) == 40 and not off_target and least_gap > 1e-6

    ok = split_ok and merge_ok and tree_ok and collider_ok
    report(
        "criterion 4b (fixed reduction traces)", ok,
        f"G-rooted DAG: {len(rejected)}/40 strict replays rejected, max_rel={worst:.3e}; "
        f"collider DAG: {len(messages) - len(off_target)}/{len(messages)} rejected at "
        f"(D _|_ ... | G), least max_rel={least_gap:.3e}",
    )
    assert split_ok, split_render
    assert merge_ok, merge_factors
    assert not rejected, f"G-rooted DAG rejected {len(rejected)}/40 strict replays: {rejected[0]}"
    assert worst <= 1e-9, f"G-rooted DAG value gap {worst:.3e}"
    assert len(messages) == 40
    assert not off_target, (
        "collider DAG: every strict replay must be refused by d-separation at the D "
        f"certificate; {len(off_target)}/40 were not, e.g. {off_target[:3]}"
    )
    assert least_gap > 1e-6, f"collider DAG: four-factor product within {least_gap:.3e} of the joint"


def test_criterion_5_chain_conditionals():
    """For 50 seeded positive tables over (y1..y3, two binary conditioning
    variables) with chain structure given the conditioners, the factorized
    conditional equals P(y | x) at every assignment within 1e-9."""
    worst = 0.0
    y_order = ("y1", "y2", "y3")
    x_vars = ("x1", "x2")
    for seed in range(50):
        table = random_chain_conditional_table(y_order, x_vars, seed=seed)
        expr = factorize_chain_crf(table, y_order)
        rows = grid(table)
        want = table.prob(rows) / table.event_prob({n: rows[n] for n in x_vars})
        worst = max(worst, rel_gap(on_grid(expr, table), want))
    ok = worst <= 1e-9
    report("criterion 5 (chain-structured conditionals)", ok, f"max_rel={worst:.3e}")
    assert worst <= 1e-9


def test_criterion_6_clique_potential_products(gibbs_pool):
    """On 100 Gibbs models (<= 5 binary nodes) the per-maximal-clique
    product and the refined product both reproduce the joint within 1e-8;
    on every model with <= 4 nodes the equality additionally holds for all
    2^n default configurations."""
    worst = 0.0
    sweeps = 0
    for graph, table in gibbs_pool:
        phis = mrf_factorize(table, graph)
        worst = max(worst, joint_gap(product_of(phis.values()), table))
        worst = max(worst, joint_gap(rmrf_factorize(table, graph), table))
        if len(graph.nodes) <= 4:
            for states in itertools.product(range(2), repeat=len(graph.nodes)):
                default = dict(zip(graph.nodes, states))
                m = product_of(mrf_factorize(table, graph, default).values())
                worst = max(worst, joint_gap(m, table))
                worst = max(worst, joint_gap(rmrf_factorize(table, graph, default), table))
                sweeps += 1
    ok = worst <= 1e-8
    report("criterion 6 (clique potential products)", ok,
           f"max_rel={worst:.3e}, {sweeps} default sweeps")
    assert sweeps > 0
    assert worst <= 1e-8


def test_criterion_7_tcg_pipeline(tcg_pool):
    """Tree-reducibility holds for trees, complete graphs and the
    triangle-hub shape whose clique graph is cyclic; fails for the 4-cycle.
    On 100 random tree-reducible Gibbs models the per-clique product equals
    the joint within 1e-9 and no rendered factor pins a state."""
    shape_ok = (
        all(is_tcg(make_graph("tree:6", seed=s)).ok for s in range(5))
        and is_tcg(make_graph("complete:5")).ok
        and is_tcg(make_graph("triangles:3")).ok
        and not is_tcg(make_graph("cycle:4")).ok
    )
    worst = 0.0
    pin_free = True
    for graph, table in tcg_pool:
        result = factorize_tcg(table, graph)
        worst = max(worst, joint_gap(result.expr, table))
        if any("=" in render(phi) for phi in result.factors.values()):
            pin_free = False
    ok = shape_ok and pin_free and worst <= 1e-9
    report("criterion 7 (tree-reducible clique graphs)", ok,
           f"shapes={'ok' if shape_ok else 'BAD'}, pin-free={pin_free}, max_rel={worst:.3e}")
    assert shape_ok
    assert pin_free
    assert worst <= 1e-9


def test_criterion_8_route_cross_check(gibbs_pool, tcg_pool, student_graph, student_tables):
    """Every factorization route applicable to a model reproduces the same
    joint: pairwise deviation <= 1e-8 across all assignments, over all
    models used by the earlier criteria."""
    worst = 0.0

    def cross_check(routes, table):
        nonlocal worst
        values = [on_grid(expr, table) for expr in routes]
        for va, vb in itertools.combinations(values, 2):
            worst = max(worst, rel_gap(va, vb))

    order = student_graph.topological_order()
    bn_expr, bn_trace = factorize_bn(student_graph)
    for table in student_tables:
        cr_prod = replay_trace(singleton_cr(order), bn_trace, graph=student_graph, table=table)
        trace_route = product_of([cr_prod] + [PTerm(Block([n])) for n in order])
        cross_check([bn_expr, trace_route], table)

    for graph, table in gibbs_pool + tcg_pool:
        routes = [product_of(mrf_factorize(table, graph).values()),
                  rmrf_factorize(table, graph)]
        if is_tcg(graph).ok:
            result = factorize_tcg(table, graph)
            routes.append(result.expr)
            final = replay_trace(singleton_cr(table.names), result.trace, graph=graph, table=table)
            routes.append(product_of([final] + [PTerm(Block([n])) for n in graph.nodes]))
        if graph.is_tree():
            routes.append(factorize_tree_mn(graph))
        cross_check(routes, table)
    ok = worst <= 1e-8
    report("criterion 8 (route cross-check)", ok, f"max pairwise rel={worst:.3e}")
    assert worst <= 1e-8


def test_criterion_9_cli_contract(capsys, tmp_path):
    """The four exit codes are exercised by fixture files, gen-random is
    byte-deterministic per seed, and the acceptance module stays well under
    the two-minute budget."""
    ok_code = main(["factorize", "--method", "bn", "--model", str(DATA / "student.model")])
    bad_expr = main([
        "verify", "--model", str(DATA / "d2.model"), "--expr", str(DATA / "expr_d2_bad.txt"),
    ])
    not_tcg = main([
        "factorize", "--method", "tcg", "--model", str(DATA / "cycle4_gibbs.model"),
    ])
    bad_file = main(["istcg", "--model", str(DATA / "bad_edge.model")])
    capsys.readouterr()

    outs = []
    for _ in range(2):
        code = main(["gen-random", "--kind", "gibbs", "--graph", "tree:5", "--seed", "42"])
        assert code == EXIT_OK
        outs.append(capsys.readouterr().out)
    deterministic = outs[0] == outs[1]

    elapsed = time.perf_counter() - MODULE_START
    codes_ok = (ok_code, bad_expr, not_tcg, bad_file) == (
        EXIT_OK, EXIT_VERIFICATION, EXIT_PRECONDITION, EXIT_PARSE,
    )
    ok = codes_ok and deterministic and elapsed < 120.0
    report("criterion 9 (CLI contract)", ok,
           f"exit codes={(ok_code, bad_expr, not_tcg, bad_file)}, "
           f"deterministic={deterministic}, module elapsed {elapsed:.1f}s")
    assert codes_ok
    assert deterministic
    assert elapsed < 120.0


def test_criterion_10_tcg_at_scale():
    """The paper's TCG result on the seed-0 Gibbs models (as gen-random
    writes them) of a 20-node path, a 16-node tree, the 7-triangle hub and
    the 12-node complete graph: factorize_tcg's numerators are exactly the
    maximal cliques, no factor pins a state or has more than two terms, and
    the product verifies against the joint at REL_TOL. The mrf and rmrf
    products of the same models would need sum_c 2^|c| terms over every
    clique c; that count is reported, the products are not built."""
    details, failures = [], []
    for spec in ("path:20", "tree:16", "triangles:7", "complete:12"):
        model = random_model("gibbs", spec, 0)
        graph, table = model.graph, model.joint()
        result = factorize_tcg(table, graph)
        terms = [phi.children if isinstance(phi, Product) else (phi,) for phi in result.factors.values()]
        numerators = sorted(t.block.vars for ts in terms for t in ts if t.exponent > 0)
        blocks = [b for ts in terms for t in ts for b in (t.block, t.condition) if b is not None]
        pinned = [m for b in blocks for m in b.members if m[1] is not None]
        widest = max(map(len, terms))
        verdict = verify_expression(result.expr, table, REL_TOL)
        hc_terms = sum(2 ** len(c) for c in graph.all_cliques())
        cliques_ok = numerators == sorted(graph.maximal_cliques())
        if not (cliques_ok and not pinned and widest <= 2 and verdict.passed):
            failures.append((spec, cliques_ok, pinned, widest, verdict.line()))
        details.append(f"{spec}: {len(terms)} factors, {hc_terms:,} mrf/rmrf terms, max_rel={verdict.max_rel_error:.3e}")
    report("criterion 10 (TCG factorization at scale)", not failures, "; ".join(details))
    assert not failures
