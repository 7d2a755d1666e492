"""Independence certificates.

Graph-based tests (d-separation for DAGs, vertex separation for undirected
graphs), and one numeric deviation from mutual independence given z against
a joint table (a CI query is its two-group case).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ModelError
from .model import JointTable, ModelGraph, REL_TOL, _check_tol, _repeated


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
        for part in (self.x, self.y, self.z):
            if (twice := _repeated(part)) is not None:
                raise ModelError(f"variable {twice!r} appears twice in one block")
        if _repeated(self.x + self.y + self.z) is not None:  # a name in two sets, as none repeats within one
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
    """Whether removing z disconnects x from y in an undirected graph: no
    node of y is reachable from x without entering z."""
    if graph.kind != "undirected":
        raise ModelError("vertex separation requires an undirected graph")
    for n in query.x + query.y + query.z:
        graph.declaration_index(n)
    return graph._reach(query.x, query.z).isdisjoint(query.y)


def separated(graph: ModelGraph, query: CIQuery) -> bool:
    """Dispatch to d-separation or vertex separation by graph kind."""
    if graph.kind == "directed":
        return d_separated(graph, query)
    return u_separated(graph, query)


def _deviation(table: JointTable, groups: tuple[tuple[str, ...], ...], z: tuple[str, ...]) -> float:
    """Worst-case |P(z, g_1..g_k) P(z)^(k-1) / prod_i P(z, g_i) - 1|, i.e.
    |CR(g_1, ..., g_k | z) - 1|, over the rows where every P(z, g_i) > 0;
    0 exactly when the groups are mutually independent given z. Elsewhere
    P(z, g_1..g_k) is 0 too, so the row reads nan (0/0, or 0·P(z)/0), which
    the maximum skips: both sides of the factorization are 0 there.

    The ratio is taken as P(z, g) / P(z, g_1), then times P(z) and over
    P(z, g_i) for each further group, left to right. On a defined row every
    partial value lies between P(z, g) and the result, so none underflows
    unless P(z, g) does or overflows unless the result does, and none is
    nan. Two products of small marginals, as in the textbook form,
    can both underflow to 0 with every marginal positive.

    Each P is ``event_prob`` with every name at its axis of the table's
    grid, so it has length 1 where a name is summed out and is never
    gathered or copied: a row is one state of every name, which a name in
    several parts takes in all of them."""
    for n in itertools.chain(*groups, z):
        table.cardinality(n)  # an unknown name raises ModelError
    parts = (z, *groups)
    for part in parts:
        if (twice := _repeated(part)) is not None:
            raise ModelError(f"variable {twice!r} appears twice in one block")
    if not groups:
        raise ModelError("mutual independence needs at least one group")
    if not any(parts):
        raise ModelError("mutual independence needs at least one variable")

    def p(*which):  # P(the parts `which`) on the table's axes, 1.0 for the empty event
        return table.event_prob({n: table._grid[n] for i in which for n in parts[i]})

    pz = p(0)
    with np.errstate(all="ignore"):
        dev = p(*range(len(parts))) / p(0, 1)
        for i in range(2, len(parts)):
            dev *= pz  # in place: dev has every axis
            dev /= p(0, i)
    dev -= 1.0
    return float(np.fmax.reduce(np.abs(dev, out=dev), axis=None, initial=0.0))  # fmax skips nan


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
    _check_markov_inputs(table, graph, tol)
    for u, v in itertools.combinations(graph.nodes, 2):
        if graph.has_edge(u, v):
            continue
        rest = tuple(n for n in graph.nodes if n not in (u, v))
        if ci_deviation(table, CIQuery((u,), (v,), rest)) > tol:
            return False
    return True


def _check_markov_inputs(table: JointTable, graph: ModelGraph, tol: float) -> None:
    """A Markov check's argument checks, in the order they are reported."""
    _check_tol(tol)
    if graph.kind != "undirected":
        raise ModelError("the Markov check requires an undirected graph")
    if set(graph.nodes) != set(table.names):
        raise ModelError("graph nodes do not match table variables")
