"""End-to-end factorization algorithms.

Each factorizer turns a model into a factor expression whose value equals
the joint probability (or the conditional, for the chain algorithm) at
every assignment, a claim the caller can and should check against the
brute-force table. Where the construction runs through rewrites, the full
operation trace is returned so it can be replayed and audited.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .cr import Block, grid
from .errors import ModelError, PreconditionError
from .expr import CRTerm, FactorExpr, PTerm, Product, product_of
from .model import CliqueGraph, JointTable, ModelGraph, REL_TOL, build_clique_graph
from .rewrites import (
    Context,
    OperationTrace,
    apply_bipartition,
    apply_ci_collapse,
    apply_ci_reduce,
    apply_duplicate,
    apply_independence,
    apply_single_block,
    singleton_cr,
)
from .separation import is_markov


# ---------------------------------------------------------------------------
# Bayesian networks


def factorize_bn(dag: ModelGraph, order: Sequence[str] | None = None) -> tuple[FactorExpr, OperationTrace]:
    """Chain-rule factorization of a DAG, derived by rewrites.

    Nodes are split off one at a time in reverse topological order; each cut
    factor CR(x, rest) reduces to CR(x, parents(x)) because a node is
    independent of its remaining non-parents given its parents. Grouping
    CR(x, Pa(x)) P(x) into P(x | Pa(x)) yields the returned expression

        prod_i P(x_i | Pa(x_i)),

    presented in topological order. The trace starts from CR over all nodes
    as singleton blocks and replays to the intermediate CR product; its
    certificates all validate against the DAG.
    """
    if dag.kind != "directed":
        raise ModelError("BN factorization requires a directed graph")
    if order is None:
        order = dag.topological_order()
    else:
        order = tuple(order)
        if not dag.is_topological(order):
            raise PreconditionError(f"{order!r} is not a topological order of the graph")
    ctx = Context(graph=dag)

    expr: FactorExpr = singleton_cr(order)
    steps = []

    def run(fn, *args, **kw):
        nonlocal expr
        expr, st = fn(*((expr,) + args), **kw)
        steps.append(st)

    rem_path: tuple[int, ...] = ()
    rem = list(order)
    for x in reversed(order[1:]):
        i0 = rem_path[-1] if rem_path else 0
        base = rem_path[:-1]
        k = rem.index(x)
        run(apply_bipartition, rem_path, [k], [i for i in range(len(rem)) if i != k])
        run(apply_single_block, base + (i0,))
        cut_path = base + (i0,)
        rem_path = base + (i0 + 1,)
        rem.remove(x)
        parents = dag.parents(x)
        if parents:
            rest = [v for v in rem if v not in parents]
            if rest:
                run(apply_ci_reduce, cut_path, 0, rest, list(parents), "graph", ctx=ctx)
        else:
            run(apply_independence, cut_path, "graph", ctx=ctx)
            rem_path = base + (i0,)
    run(apply_single_block, rem_path)

    grouped = []
    for x in order:
        parents = dag.parents(x)
        cond = Block(parents) if parents else None
        grouped.append(PTerm(Block([x]), cond))
    return Product(tuple(grouped)), tuple(steps)


# ---------------------------------------------------------------------------
# Tree Markov networks


def factorize_tree_mn(graph: ModelGraph) -> FactorExpr:
    """Factorize a tree-shaped Markov network by splitting one leaf off at a
    time: the result is one CR factor per edge and one P factor per node,

        prod_edges CR(u, v) prod_nodes P(v).
    """
    if graph.kind != "undirected":
        raise ModelError("tree factorization requires an undirected graph")
    if not graph.is_tree():
        raise PreconditionError("graph is not a tree (connected and acyclic)")
    degree = {n: len(graph.neighbors(n)) for n in graph.nodes}
    alive = set(graph.nodes)
    adj = {n: set(graph.neighbors(n)) for n in graph.nodes}
    factors: list[FactorExpr] = []
    while len(alive) > 1:
        leaf = next(n for n in graph.nodes if n in alive and degree[n] == 1)
        nbr = next(iter(adj[leaf] & alive))
        factors.append(CRTerm((Block([leaf]), Block([nbr]))))
        alive.remove(leaf)
        degree[nbr] -= 1
        for m in adj[leaf]:
            adj[m].discard(leaf)
    factors.extend(PTerm(Block([n])) for n in graph.nodes)
    return Product(tuple(factors))


# ---------------------------------------------------------------------------
# Chain-structured conditionals


def factorize_chain_crf(
    table: JointTable, y_order: Sequence[str], x_vars: Sequence[str] | None = None
) -> FactorExpr:
    """Factorize P(y_1, ..., y_n | X) for a chain of labels y conditioned on
    the block X of all remaining variables:

        prod_{i<n} CR(y_i, y_{i+1} | X) prod_i P(y_i | X).

    The pairwise conditional CR factors are exactly the edge interaction
    strengths, and the P(y_i | X) factors the per-label state weights. The
    equality with P(y | X) holds whenever the labels are chain-structured
    given X, which the caller verifies numerically.
    """
    y_order = tuple(y_order)
    if not y_order:
        raise ModelError("need at least one chain variable")
    for y in y_order:
        table.cardinality(y)
    if len(set(y_order)) != len(y_order):
        raise ModelError("duplicate chain variable")
    if x_vars is None:
        x_vars = tuple(n for n in table.names if n not in set(y_order))
    else:
        x_vars = tuple(x_vars)
        if set(x_vars) & set(y_order):
            raise ModelError("conditioning variables overlap the chain")
    cond = Block(x_vars) if x_vars else None
    if x_vars:
        zero = (table.event_prob(grid(table, x_vars)) == 0.0).nonzero()  # row-major
        if zero[0].size:
            states = tuple(int(ix[0]) for ix in zero)
            raise PreconditionError(f"conditioning configuration {states!r} has probability zero")
    factors: list[FactorExpr] = [
        CRTerm((Block([a]), Block([b])), cond) for a, b in zip(y_order, y_order[1:])
    ]
    factors.extend(PTerm(Block([y]), cond) for y in y_order)
    return Product(tuple(factors))


# ---------------------------------------------------------------------------
# Candidate potentials and whole-graph products built from them


def _default_assignment(table: JointTable, default: Mapping[str, int] | None) -> dict[str, int]:
    out = {n: 0 for n in table.names}
    if default:
        for n, s in default.items():
            if not 0 <= s < table.cardinality(n):
                raise ModelError(f"default state {s} out of range for {n!r}")
            out[n] = s
    return out


def hc_potential(
    table: JointTable, clique: Sequence[str], default: Mapping[str, int] | None = None
) -> FactorExpr:
    """Hammersley-Clifford candidate potential of one clique c under a
    default configuration:

        prod_{s ⊆ c} P(X_s = x_s, X_rest = default)^((-1)^(|c| - |s|))

    where `rest` is everything outside s (the whole remaining model, not
    just the clique). Includes the boundary subsets s = {} and s = c.
    Requires a strictly positive table.
    """
    if not table.strictly_positive:
        raise PreconditionError("candidate potentials require a strictly positive table")
    clique = tuple(clique)
    for n in clique:
        table.cardinality(n)
    if len(set(clique)) != len(clique):
        raise ModelError("duplicate variable in clique")
    pins = _default_assignment(table, default)
    factors = []
    members = [n for n in table.names if n in set(clique)]
    for r in range(len(members) + 1):
        for s in itertools.combinations(members, r):
            free = set(s)
            blk = Block([n if n in free else (n, pins[n]) for n in table.names])
            factors.append(PTerm(blk, exponent=(-1) ** (len(clique) - len(s))))
    return Product(tuple(factors))


def mrf_factorize(
    table: JointTable,
    graph: ModelGraph,
    default: Mapping[str, int] | None = None,
    tol: float = REL_TOL,
) -> dict[tuple[str, ...], FactorExpr]:
    """One potential per maximal clique whose product is the joint.

    Every clique of the graph (including the empty one) contributes its
    candidate potential; each is attached to the lexicographically first
    maximal clique containing it. Requires a strictly positive table that
    passes the numeric Markov check for the graph.
    """
    _check_markov(table, graph, tol)
    if not table.strictly_positive:
        raise PreconditionError("this factorization requires a strictly positive table")
    maximal = graph.maximal_cliques()
    phis: dict[tuple[str, ...], list[FactorExpr]] = {mc: [] for mc in maximal}
    for c in graph.all_cliques():
        owner = next(mc for mc in maximal if set(c) <= set(mc))
        phis[owner].append(hc_potential(table, c, default))
    return {mc: product_of(parts) for mc, parts in phis.items()}


def rmrf_factorize(
    table: JointTable,
    graph: ModelGraph,
    default: Mapping[str, int] | None = None,
    tol: float = REL_TOL,
) -> FactorExpr:
    """Refined whole-graph product with factor scopes c ∪ MB(c):

        prod_c prod_{s ⊆ c} P(X_s = x_s, X_{c∖s} = default | X_MB(c) = default)^(±1)

    over all non-empty cliques c, times the pinned constant P(X = default)
    contributed by the empty clique (conditioning the empty clique away
    would silently drop that constant and the product would miss the joint
    by exactly that factor).
    """
    _check_markov(table, graph, tol)
    if not table.strictly_positive:
        raise PreconditionError("this factorization requires a strictly positive table")
    pins = _default_assignment(table, default)
    factors: list[FactorExpr] = []
    for c in graph.all_cliques():
        if not c:
            factors.append(PTerm(Block([(n, pins[n]) for n in table.names])))
            continue
        blanket = graph.markov_blanket(c)
        cond = Block([(n, pins[n]) for n in blanket]) if blanket else None
        members = [n for n in table.names if n in set(c)]
        for r in range(len(members) + 1):
            for s in itertools.combinations(members, r):
                free = set(s)
                blk = Block([n if n in free else (n, pins[n]) for n in members])
                factors.append(PTerm(blk, cond, exponent=(-1) ** (len(c) - len(s))))
    return Product(tuple(factors))


def _check_markov(table: JointTable, graph: ModelGraph, tol: float) -> None:
    if not is_markov(table, graph, tol):
        raise PreconditionError("table fails the numeric Markov check for this graph")


# ---------------------------------------------------------------------------
# Tree-reducible clique graphs


@dataclass(frozen=True)
class TcgCheck:
    """Outcome of the clique-graph reduction test.

    ok is True when repeatedly removing cliques that have a dominating
    neighbor (one whose intersection contains every other neighbor's
    intersection) reduces the clique graph to at most one node. The removal
    order performed is kept for the factorization step.
    """

    ok: bool
    elimination: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    root: tuple[str, ...] | None
    clique_graph: CliqueGraph

    def __bool__(self):
        return self.ok


def is_tcg(graph: ModelGraph) -> TcgCheck:
    """Test whether the clique graph is tree-reducible.

    Scan order and dominating-neighbor ties are both broken
    lexicographically (by sorted clique member names), which makes the
    removal order deterministic. A clique with no remaining neighbor is
    never removable, so disconnected clique graphs with more than one node
    are not tree-reducible.
    """
    cg = build_clique_graph(graph)
    alive = list(range(len(cg.cliques)))
    neighbors = {i: set(cg.adjacent(i)) for i in range(len(cg.cliques))}
    elim: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    while len(alive) > 1:
        removed = None
        for i in alive:
            adj = [j for j in neighbors[i] if j in alive and j != i]
            inter = {j: set(cg.cliques[i]) & set(cg.cliques[j]) for j in adj}
            dominating = [j for j in adj if all(inter[h] <= inter[j] for h in adj)]
            if dominating:
                maxadj = min(dominating, key=lambda j: tuple(sorted(cg.cliques[j])))
                elim.append((cg.cliques[i], cg.cliques[maxadj]))
                removed = i
                break
        if removed is None:
            return TcgCheck(False, tuple(elim), None, cg)
        alive.remove(removed)
    root = cg.cliques[alive[0]] if alive else None
    return TcgCheck(True, tuple(elim), root, cg)


@dataclass(frozen=True)
class TcgResult:
    """A clique-graph factorization: per-clique probability factors plus the
    rewrite trace that derives them.

    Every eliminated clique c contributes P(V(c)) / P(V(c) ∩ V(maxadj(c)));
    the last remaining clique contributes P(V(root)). No factor carries a
    pinned binding. `trace` rewrites `trace_initial` (CR over all nodes as
    singletons) into the equivalent CR-level product.
    """

    clique_graph: CliqueGraph
    elimination: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    root: tuple[str, ...]
    factors: dict[tuple[str, ...], FactorExpr]
    expr: FactorExpr
    trace_initial: FactorExpr
    trace: OperationTrace


def factorize_tcg(table: JointTable, graph: ModelGraph, tol: float = REL_TOL) -> TcgResult:
    """Factorize a model over a tree-reducible clique graph.

    For each elimination step the separator (the intersection with the
    dominating neighbor) is duplicated, the clique is split off, and the cut
    collapses to 1/P(separator) because the separator disconnects the clique
    from everything still in play. Grouping each CR(V(c)) with its node
    marginals gives the factor P(V(c)) / P(separator); the final clique
    keeps P(V(root)).
    """
    if set(table.names) != set(graph.nodes):
        raise ModelError("graph nodes do not match table variables")
    check = is_tcg(graph)
    if not check.ok:
        raise PreconditionError("not a TCG: the clique graph is not tree-reducible")
    _check_markov(table, graph, tol)
    assert check.root is not None
    ctx = Context(graph=graph, table=table, tol=tol)
    names = tuple(n for n in table.names)

    initial = singleton_cr(names)
    expr: FactorExpr = initial
    steps = []

    def run(fn, *args, **kw):
        nonlocal expr
        expr, st = fn(*((expr,) + args), **kw)
        steps.append(st)

    rem_path: tuple[int, ...] = ()
    rem = list(names)
    for clique, maxadj in check.elimination:
        sep = [n for n in names if n in set(clique) & set(maxadj)]
        for v in sep:
            run(apply_duplicate, rem_path, rem.index(v))
            rem.insert(rem.index(v) + 1, v)
            if not rem_path:
                # the bare root term became a product; the CR term is child 0
                rem_path = (0,)
        base = rem_path[:-1]
        i0 = rem_path[-1] if rem_path else 0
        in_clique = set(clique)
        left: list[int] = []
        taken: set[str] = set()
        for pos, v in enumerate(rem):
            if v in in_clique and v not in taken:
                left.append(pos)
                taken.add(v)
        right = [p for p in range(len(rem)) if p not in set(left)]
        run(apply_bipartition, rem_path, left, right)
        run(apply_ci_collapse, base + (i0 + 1,), "graph", ctx=ctx)
        rem_path = base + (i0 + 2,)
        rem = [rem[p] for p in right]

    factors: dict[tuple[str, ...], FactorExpr] = {}
    for clique, maxadj in check.elimination:
        sep = tuple(n for n in names if n in set(clique) & set(maxadj))
        factors[clique] = Product(
            (PTerm(Block(clique)), PTerm(Block(sep), exponent=-1))
        )
    factors[check.root] = PTerm(Block(check.root))
    combined = product_of(factors.values())
    return TcgResult(
        clique_graph=check.clique_graph,
        elimination=check.elimination,
        root=check.root,
        factors=factors,
        expr=combined,
        trace_initial=initial,
        trace=tuple(steps),
    )
