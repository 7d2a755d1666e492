"""Independence certificates.

Graph-based tests (d-separation for DAGs, vertex separation for undirected
graphs), one numeric deviation from mutual independence given z against a
joint table (a CI query is its two-group case), and the exchange identity
satisfied by any two non-adjacent nodes of a Markov network once their
joint blanket is covered by the conditioning blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .cr import Block, _repeated, cr_value
from .errors import ModelError, PreconditionError
from .model import Assignment, JointTable, ModelGraph, REL_TOL, _check_tol


@dataclass(frozen=True)
class CIQuery:
    """A conditional-independence statement (x ⊥ y | z) over node names."""

    x: tuple[str, ...]
    y: tuple[str, ...]
    z: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))
        object.__setattr__(self, "z", tuple(self.z))
        if not self.x or not self.y:
            raise ModelError("a CI query needs non-empty x and y sets")
        sx, sy, sz = set(self.x), set(self.y), set(self.z)
        if sx & sy or sx & sz or sy & sz:
            raise ModelError("CI query sets must be pairwise disjoint")


def d_separated(dag: ModelGraph, query: CIQuery) -> bool:
    """Whether every path between x and y is blocked given z, by Bayes-Ball
    (Shachter 1998): chain and fork nodes block when observed, and a
    collider passes the ball only when it or a descendant is observed. The
    query's names are checked once; the walk reads the graph's own parent
    and child lists."""
    if dag.kind != "directed":
        raise ModelError("d-separation requires a directed graph")
    for n in query.x + query.y + query.z:
        dag.declaration_index(n)
    parents, children = dag._parents, dag._children
    z, y = set(query.z), set(query.y)
    # An unobserved node entered from a child (each node of x to start with)
    # passes the ball to its parents and children, one entered from a parent
    # to its children. An observed node entered from a parent bounces it
    # back to its parents, which opens every collider above it; entered
    # from a child, it blocks.
    up: set[str] = set()
    down: set[str] = set()
    balls = [(n, True) for n in query.x]
    while balls:
        node, from_child = balls.pop()
        seen = up if from_child else down
        if node in seen:
            continue
        seen.add(node)
        if node not in z:
            if node in y:
                return False
            if from_child:
                for p in parents[node]:
                    balls.append((p, True))
            for c in children[node]:
                balls.append((c, False))
        elif not from_child:
            for p in parents[node]:
                balls.append((p, True))
    return True


def u_separated(graph: ModelGraph, query: CIQuery) -> bool:
    """Whether removing z disconnects x from y in an undirected graph. The
    query's names are checked once; the walk reads the graph's own
    neighbour lists."""
    if graph.kind != "undirected":
        raise ModelError("vertex separation requires an undirected graph")
    for n in query.x + query.y + query.z:
        graph.declaration_index(n)
    adj = graph._adj
    y = set(query.y)
    seen = set(query.x)
    seen.update(query.z)  # z is never entered
    frontier = list(query.x)
    while frontier:
        n = frontier.pop()
        if n in y:
            return False
        for m in adj[n]:
            if m not in seen:
                seen.add(m)
                frontier.append(m)
    return True


def separated(graph: ModelGraph, query: CIQuery) -> bool:
    """Dispatch to d-separation or vertex separation by graph kind."""
    if graph.kind == "directed":
        return d_separated(graph, query)
    return u_separated(graph, query)


def _deviation(table: JointTable, groups: tuple[tuple[str, ...], ...], z: tuple[str, ...]) -> float:
    """Worst-case |P(z, g_1..g_k) P(z)^(k-1) / prod_i P(z, g_i) - 1|, i.e.
    |CR(g_1, ..., g_k | z) - 1|, over the rows where every P(z, g_i) > 0;
    0 exactly when the groups are mutually independent given z. Elsewhere
    both sides of the factorization are 0, so those rows are skipped.

    The ratio is taken as P(z, g) / P(z, g_1), then times P(z) and over
    P(z, g_i) for each further group, left to right. On a defined row every
    partial value lies between P(z, g) and the result, so none underflows
    unless P(z, g) does or overflows unless the result does, and no row
    reads 0/0. Two products of small marginals, as in the textbook form,
    can both underflow to 0 with every marginal positive.

    Each P is the table's cached marginal, transposed and reshaped onto one
    axis per part (z, g_1, ..., g_k), never gathered: a row is one state of
    every part. Within a part, names keep table order; the largest part is
    the last axis. Names shared by several parts get an axis of their own."""
    for n in itertools.chain(*groups, z):
        table.cardinality(n)  # an unknown name raises ModelError
    parts, parts_of = (z, *groups), {}
    for i, part in enumerate(parts):
        if (twice := _repeated(part)) is not None:
            raise ModelError(f"variable {twice!r} appears twice in one block")
        for n in part:
            parts_of[n] = parts_of.get(n, frozenset()) | {i}
    if not groups:
        raise ModelError("mutual independence needs at least one group")
    if not parts_of:
        raise ModelError("mutual independence needs at least one variable")
    axes: dict[frozenset[int], list[str]] = {}  # the parts a name is in -> the names of its axis
    for n in table.names:
        if n in parts_of:
            axes.setdefault(parts_of[n], []).append(n)
    size = {owners: math.prod(map(table.cardinality, names)) for owners, names in axes.items()}
    order = sorted(axes, key=size.__getitem__)

    def p(*which):  # P(the parts `which`) over the axes, 1.0 for the empty event
        names = {n for i in which for n in parts[i]}
        if not names:
            return 1.0
        kept, arr = table._marginal(names)
        perm, shape = [], []
        for owners in order:
            if owners.isdisjoint(which):
                shape.append(1)
            else:
                perm += [kept.index(n) for n in axes[owners]]
                shape.append(size[owners])
        return arr.transpose(perm).reshape(shape)

    pz, first = p(0), p(0, 1)
    defined = first > 0.0
    with np.errstate(all="ignore"):
        dev = p(*range(len(parts)))
        dev = np.divide(dev, first, out=dev if dev.flags.writeable else None)  # reuse a copy the reshape made
        for i in range(2, len(parts)):
            pg = p(0, i)
            defined = defined & (pg > 0.0)  # broadcasts up to the shape of dev
            dev *= pz  # in place: dev has every axis
            dev /= pg
    dev -= 1.0
    return float(np.max(np.abs(dev, out=dev), where=defined, initial=0.0))


def ci_deviation(table: JointTable, query: CIQuery) -> float:
    """Worst-case deviation from P(x,y|z) = P(x|z) P(y|z) across assignments:
    |CR(x, y | z) - 1| where P(x,z) and P(y,z) are positive."""
    return _deviation(table, (query.x, query.y), query.z)


def mutual_independence_deviation(table: JointTable, groups: Iterable[tuple[str, ...]], z: Iterable[str] = ()) -> float:
    """Worst-case |CR(g_1, ..., g_k | z) - 1| over the assignments where
    every P(z, g_i) is positive; 0 exactly when the groups are mutually
    independent given z. ModelError without a group or a variable."""
    return _deviation(table, tuple(map(tuple, groups)), tuple(z))


def is_markov(table: JointTable, graph: ModelGraph, tol: float = REL_TOL) -> bool:
    """Numeric pairwise Markov check: every pair of non-adjacent nodes is
    conditionally independent given all remaining nodes. For strictly
    positive tables this is equivalent to the global Markov property."""
    _check_tol(tol)
    if graph.kind != "undirected":
        raise ModelError("the Markov check requires an undirected graph")
    if set(graph.nodes) != set(table.names):
        raise ModelError("graph nodes do not match table variables")
    for u, v in itertools.combinations(graph.nodes, 2):
        if graph.has_edge(u, v):
            continue
        rest = tuple(n for n in graph.nodes if n not in (u, v))
        if ci_deviation(table, CIQuery((u,), (v,), rest)) > tol:
            return False
    return True


def unconnected_nodes_check(
    table: JointTable,
    graph: ModelGraph,
    a: str,
    b: str,
    w_vars: Iterable[str],
    x_vars: Iterable[str],
    assignment: Assignment,
    default: Mapping[str, int] | None = None,
) -> tuple[float, float]:
    """Both sides of the exchange identity for two non-adjacent nodes a, b:

        CR(W, a=0, b=0, X=0) CR(W, a, b, X=0)
          = CR(W, a=0, b, X=0) CR(W, a, b=0, X=0)

    W is a free block, X is pinned to the default configuration, and W ∪ X
    must cover the Markov blanket of {a, b} (which gives (a ⊥ b | W, X)).
    The caller asserts equality of the returned pair.
    """
    if graph.kind != "undirected":
        raise ModelError("the identity is about undirected graphs")
    w = graph.sort_nodes(w_vars)
    x = graph.sort_nodes(x_vars)
    if a == b:
        raise ModelError("the two nodes must be distinct")
    for n in (a, b):
        graph.declaration_index(n)
    if graph.has_edge(a, b):
        raise PreconditionError(f"nodes {a!r} and {b!r} are adjacent")
    if set(w) & set(x):
        raise PreconditionError("W and X must be disjoint")
    if {a, b} & (set(w) | set(x)):
        raise PreconditionError("W and X must not contain a or b")
    blanket = set(graph.markov_blanket((a, b)))
    if not blanket <= set(w) | set(x):
        raise PreconditionError("W and X do not cover the Markov blanket of {a, b}")

    default = default or {}
    pin = {n: default.get(n, 0) for n in x}

    def blocks(a_pinned: bool, b_pinned: bool) -> tuple[Block, ...]:
        parts: list[Block] = []
        if w:
            parts.append(Block(w))
        parts.append(Block([(a, default.get(a, 0))]) if a_pinned else Block([a]))
        parts.append(Block([(b, default.get(b, 0))]) if b_pinned else Block([b]))
        if x:
            parts.append(Block([(n, pin[n]) for n in x]))
        return tuple(parts)

    lhs = cr_value(table, blocks(True, True), assignment) * cr_value(table, blocks(False, False), assignment)
    rhs = cr_value(table, blocks(True, False), assignment) * cr_value(table, blocks(False, True), assignment)
    return lhs, rhs
