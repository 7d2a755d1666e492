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
from typing import Iterator, Mapping, Sequence

import numpy as np

from .cr import Block, grid
from .errors import ModelError, PreconditionError, UndefinedCRError
from .expr import CRTerm, FactorExpr, PTerm, Product, eval_expr, product_of
from .model import JointTable, ModelGraph, REL_TOL, _row, is_tcg
from .rewrites import (
    Context,
    OperationTrace,
    TraceStep,
    apply_bipartition,
    apply_ci_collapse,
    apply_ci_reduce,
    apply_duplicate,
    apply_independence,
    apply_single_block,
    singleton_cr,
)
from .separation import _check_markov_inputs


class _Recorder:
    """The expression a factorizer is rewriting and the steps taken so far."""

    def __init__(self, expr: FactorExpr):
        self.expr = expr
        self.steps: list[TraceStep] = []

    def apply(self, fn, *args, **kw) -> None:
        self.expr, step = fn(self.expr, *args, **kw)
        self.steps.append(step)


def _split_part(path: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Path of part j of the factors that replace the term at `path` in its
    parent product; a root term becomes that product, with part 0 at (0,)."""
    return path[:-1] + ((path[-1] if path else 0) + j,)


# ---------------------------------------------------------------------------
# Bayesian networks


def factorize_bn(dag: ModelGraph) -> tuple[FactorExpr, OperationTrace]:
    """Chain-rule factorization of a DAG, derived by rewrites.

    Nodes are split off one at a time in reverse topological order; each cut
    factor CR(x, rest) reduces to CR(x, parents(x)) because a node is
    independent of its remaining non-parents given its parents. Grouping
    CR(x, Pa(x)) P(x) into P(x | Pa(x)) yields the returned expression

        prod_i P(x_i | Pa(x_i)),

    presented in ``dag.topological_order()``, which is the declaration
    order when the nodes are declared topologically. The trace starts from
    CR over all nodes as singleton blocks and replays to the intermediate CR
    product; its certificates all validate against the DAG.
    """
    if dag.kind != "directed":
        raise ModelError("BN factorization requires a directed graph")
    order = dag.topological_order()
    ctx = Context(graph=dag)
    initial = singleton_cr(order)
    rec = _Recorder(initial)
    rem_path: tuple[int, ...] = ()
    rem = list(order)
    for x in reversed(order[1:]):
        k = rem.index(x)
        rec.apply(apply_bipartition, rem_path, [k], [i for i in range(len(rem)) if i != k])
        cut_path = _split_part(rem_path, 0)
        rec.apply(apply_single_block, cut_path)  # CR(x) = 1 goes, and the cut moves up
        rem.remove(x)
        parents = dag.parents(x)
        if parents:
            rem_path = _split_part(rem_path, 1)
            rest = [v for v in rem if v not in parents]
            if rest:
                rec.apply(apply_ci_reduce, cut_path, 0, rest, list(parents), "graph", ctx=ctx)
        else:
            rec.apply(apply_independence, cut_path, "graph", ctx=ctx)
            rem_path = cut_path
    rec.apply(apply_single_block, rem_path)

    single = dict(zip(order, initial.blocks))  # P(x | Pa(x)) reuses the members of these checked blocks
    grouped = []
    for x in order:
        parents = dag.parents(x)
        cond = Block._of(tuple(single[p].members[0] for p in parents)) if parents else None
        grouped.append(PTerm(single[x], cond))
    return Product(tuple(grouped)), tuple(rec.steps)


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
    adj = {n: set(graph.neighbors(n)) for n in graph.nodes}  # the neighbours still in play
    factors: list[FactorExpr] = []
    while len(adj) > 1:
        leaf = next(n for n in graph.nodes if n in adj and len(adj[n]) == 1)
        (nbr,) = adj.pop(leaf)
        factors.append(CRTerm((Block([leaf]), Block([nbr]))))
        adj[nbr].discard(leaf)
    factors.extend(PTerm(Block([n])) for n in graph.nodes)
    return Product(tuple(factors))


# ---------------------------------------------------------------------------
# Chain-structured conditionals


def factorize_chain_crf(table: JointTable, y_order: Sequence[str]) -> FactorExpr:
    """Factorize P(y_1, ..., y_n | X) for a chain of labels y conditioned on
    the block X of all remaining variables, in table order:

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
    x_vars = tuple(n for n in table.names if n not in set(y_order))
    cond = Block(x_vars) if x_vars else None
    if x_vars:
        zero = (table._marginal(x_vars)[1] == 0.0).nonzero()  # row-major over x_vars
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
            if type(s) is not int:  # a bool pin would render as a=True
                raise ModelError(f"default state for {n!r} must be an integer, got {s!r}")
            if not 0 <= s < table.cardinality(n):
                raise ModelError(f"default state {s} out of range for {n!r}")
            out[n] = s
    return out


def _subset_terms(
    span: Sequence[str], clique: Sequence[str], pins: Mapping[str, int], cond: Block | None = None
) -> Iterator[PTerm]:
    """For each s ⊆ c, smallest first, P(X_s = x_s, X_{span∖s} = default | cond)^((-1)^(|c| - |s|)):
    the Hammersley-Clifford terms of clique c, over `span` ⊇ c in table order.
    The span's names are the table's and `pins` is ``_default_assignment``'s,
    so the blocks need no checks."""
    scope = set(clique)
    members = [n for n in span if n in scope]
    pairs = [((n, None), (n, pins[n])) for n in span]  # each name's free and pinned member
    for r in range(len(members) + 1):
        for s in itertools.combinations(members, r):
            blk = Block._of(tuple([free if free[0] in s else pinned for free, pinned in pairs]))
            yield PTerm(blk, cond, exponent=(-1) ** (len(members) - r))


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
    return Product(tuple(_subset_terms(table.names, clique, _default_assignment(table, default))))


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
    _check_markov_args(table, graph, tol)
    pins = _default_assignment(table, default)
    maximal = graph.maximal_cliques()
    parts: dict[tuple[str, ...], list[FactorExpr]] = {mc: [] for mc in maximal}
    for c in graph.all_cliques():
        owner = next(mc for mc in maximal if set(c) <= set(mc))
        parts[owner].extend(_subset_terms(table.names, c, pins))  # c's hc_potential
    phis = {mc: product_of(p) for mc, p in parts.items()}
    _check_markov(table, tol, product_of(phis.values()))
    return phis


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
    by exactly that factor). Requires a strictly positive table that passes
    the numeric Markov check for the graph.
    """
    _check_markov_args(table, graph, tol)
    pins = _default_assignment(table, default)
    factors: list[FactorExpr] = []
    for c in graph.all_cliques():
        blanket, scope = graph.markov_blanket(c), set(c)
        cond = Block._of(tuple((n, pins[n]) for n in blanket)) if blanket else None  # the table's names
        # The empty clique spans the whole table: its one term is P(X = default).
        span = [n for n in table.names if n in scope] or table.names
        factors.extend(_subset_terms(span, c, pins, cond))
    expr = Product(tuple(factors))
    _check_markov(table, tol, expr)
    return expr


def _check_markov_args(table: JointTable, graph: ModelGraph, tol: float) -> None:
    """mrf's and rmrf's argument checks, in the order they are reported:
    is_markov's, then strict positivity."""
    _check_markov_inputs(table, graph, tol)
    if not table.strictly_positive:
        raise PreconditionError("this factorization requires a strictly positive table")


def _check_markov(table: JointTable, tol: float, product: FactorExpr) -> None:
    """PreconditionError unless the table is within tol·P(x) of the
    factorization's product at every row: a product of factors over cliques
    of G is globally Markov for G, zero cells or not (Lauritzen 1996, Prop.
    3.8). The value stays memoized for verification, and an undefined row
    raises verification's UndefinedCRError. A row with P(x) > 0 that reads
    0, inf or nan lost the float range, not the Markov property: an
    UndefinedCRError, tested first because a running product that passed
    through subnormals can leave other rows finite but wrong."""
    value = eval_expr(product, table, grid(table))
    lost = ~np.isfinite(value) | ((value == 0.0) & (table.probs > 0.0))
    if lost.any():
        at = _row(table, int(np.argmax(lost)))
        raise UndefinedCRError(f"the factorization's product leaves the float range (at assignment {at!r})")
    err = np.abs(value - table.probs)
    off = err > tol * table.probs
    if off.any():
        with np.errstate(divide="ignore", invalid="ignore"):  # inf where P(x) = 0
            rel = np.where(off, err / table.probs, 0.0)
        worst = int(np.argmax(rel))
        raise PreconditionError(
            "table fails the numeric Markov check for this graph: relative error "
            f"{rel.flat[worst]:.3e} at assignment {_row(table, worst)!r}"
        )


# ---------------------------------------------------------------------------
# Tree-reducible clique graphs


@dataclass(frozen=True)
class TcgResult:
    """A clique-graph factorization: per-clique probability factors plus the
    rewrite trace that derives them.

    Every clique c that ``is_tcg(graph)`` eliminates contributes
    P(V(c)) / P(V(c) ∩ V(maxadj(c))); its root clique contributes
    P(V(root)). No factor carries a pinned binding. `trace` rewrites
    ``singleton_cr(table.names)`` into the equivalent CR-level product.
    """

    factors: dict[tuple[str, ...], FactorExpr]
    expr: FactorExpr
    trace: OperationTrace


def factorize_tcg(table: JointTable, graph: ModelGraph, tol: float = REL_TOL) -> TcgResult:
    """Factorize a model over a tree-reducible clique graph.

    For each elimination step the separator (the intersection with the
    dominating neighbor) is duplicated, the clique is split off, and the cut
    collapses to 1/P(separator) because the separator disconnects the clique
    from everything still in play. Grouping each CR(V(c)) with its node
    marginals gives the factor P(V(c)) / P(separator); the final clique
    keeps P(V(root)). The table must pass the numeric Markov check.
    """
    if set(table.names) != set(graph.nodes):
        raise ModelError("graph nodes do not match table variables")
    check = is_tcg(graph)
    if not check.ok:
        raise PreconditionError("not a TCG: the clique graph is not tree-reducible")
    ctx = Context(graph=graph, table=table, tol=tol)  # a bad tol is a ModelError here
    rec = _Recorder(singleton_cr(table.names))
    factors: dict[tuple[str, ...], FactorExpr] = {}
    rem_path: tuple[int, ...] = ()
    rem = list(table.names)
    for clique, maxadj in check.elimination:
        sep = [n for n in table.names if n in set(clique) & set(maxadj)]
        factors[clique] = Product((PTerm(Block(clique)), PTerm(Block(sep), exponent=-1)))
        for v in sep:
            rec.apply(apply_duplicate, rem_path, rem.index(v))
            rem.insert(rem.index(v) + 1, v)
            rem_path = _split_part(rem_path, 0)
        left = sorted(rem.index(v) for v in clique)  # each clique variable's first position
        right = [p for p in range(len(rem)) if p not in left]
        rec.apply(apply_bipartition, rem_path, left, right)
        rec.apply(apply_ci_collapse, _split_part(rem_path, 1), "graph", ctx=ctx)
        rem_path = _split_part(rem_path, 2)
        rem = [rem[p] for p in right]
    factors[check.root] = PTerm(Block(check.root))
    expr = product_of(factors.values())
    _check_markov(table, tol, expr)
    return TcgResult(factors=factors, expr=expr, trace=tuple(rec.steps))
