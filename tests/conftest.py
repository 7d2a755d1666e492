"""Shared fixtures: small hand-checkable tables, the five-node study-network
DAG, an oracle that computes event probabilities by explicit summation,
independent of the library's marginalization code, its exact counterpart
over Fraction tables for products of CR and P terms, and the two sides of
the exchange identity as CR expressions."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crfactor import (
    Block,
    Certificate,
    CRTerm,
    JointTable,
    ModelGraph,
    Product,
    TraceStep,
    Variable,
    build_joint_from_cpts,
)

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Independent oracle: explicit sums over a {states: prob} dict.


def assignments(table: JointTable):
    """Every full assignment of a table, row-major over its variables."""
    states = itertools.product(*(range(v.cardinality) for v in table.variables))
    return (dict(zip(table.names, s)) for s in states)


def oracle_event_prob(probs: dict[tuple[int, ...], float], names: tuple[str, ...], event: dict[str, int]) -> float:
    pos = {n: i for i, n in enumerate(names)}
    total = 0.0
    for states, p in probs.items():
        if all(states[pos[k]] == v for k, v in event.items()):
            total += p
    return total


def oracle_cr(probs, names, block_events: list[dict[str, int]]) -> float:
    """CR from the definition: joint event over product of block events."""
    union: dict[str, int] = {}
    for ev in block_events:
        for k, v in ev.items():
            assert union.setdefault(k, v) == v
    denom = 1.0
    for ev in block_events:
        denom *= oracle_event_prob(probs, names, ev)
    return oracle_event_prob(probs, names, union) / denom


def exact_gibbs_table(nodes, potentials, cardinality: int = 2) -> dict[tuple[int, ...], Fraction]:
    """The exact joint {states: Fraction} over `nodes`, row-major: the
    normalized product of integer `potentials`, each a scope (a tuple of
    nodes) mapped to {states over the scope: weight}. With a potential on
    every node and edge of a graph and none on other scopes, the table is
    Markov for that graph by construction."""
    weights = {}
    for states in itertools.product(range(cardinality), repeat=len(nodes)):
        at = dict(zip(nodes, states))
        weights[states] = math.prod(table[tuple(at[n] for n in scope)] for scope, table in potentials.items())
    z = sum(weights.values())
    return {states: Fraction(w, z) for states, w in weights.items()}


def exact_bn_table(nodes, parents, weights, cardinality: int = 2) -> dict[tuple[int, ...], Fraction]:
    """The exact joint {states: Fraction} over `nodes`, row-major, of a
    Bayesian network: `parents` maps each node to a tuple of its parents and
    `weights` maps it to {states over (*parents, node): integer weight}. A
    CPT row is its weights over their sum."""
    joint = {}
    for states in itertools.product(range(cardinality), repeat=len(nodes)):
        at = dict(zip(nodes, states))
        p = Fraction(1)
        for n in nodes:
            pa = tuple(at[q] for q in parents[n])
            p *= Fraction(weights[n][(*pa, at[n])], sum(weights[n][(*pa, s)] for s in range(cardinality)))
        joint[states] = p
    return joint


def exact_evaluator(probs: dict[tuple[int, ...], Fraction], names: tuple[str, ...]):
    """value(expr, row): the exact value at a full assignment `row` of an
    expression over the exact table `probs`, by explicit sums. A CR term is
    read from its definition, P(b_1..b_n | c) / prod_i P(b_i | c), a P term
    as P(b | c), a constant as its value and a sum as its child summed over
    every state of its variable, which shadows the row's. Of the expression
    it reads only a constant's `value`, a sum's `over` and `child`, a
    product's `children` and a term's `blocks` or `block`, each block's
    `members`, and its `condition` and `exponent`. A row where a term
    divides by zero raises ZeroDivisionError."""
    pos = {n: i for i, n in enumerate(names)}
    cards = {n: 1 + max(row[i] for row in probs) for n, i in pos.items()}
    marginals: dict[tuple[str, ...], dict[tuple[int, ...], Fraction]] = {}

    def event(pairs) -> Fraction:
        """P of the event that every (name, state) pair holds."""
        states = dict(pairs)
        if len(states) < len(set(pairs)):  # one name in two states
            return Fraction(0)
        key = tuple(sorted(states))
        if key not in marginals:
            marginal = marginals[key] = {}
            for row, p in probs.items():
                cell = tuple(row[pos[n]] for n in key)
                marginal[cell] = marginal.get(cell, 0) + p
        return marginals[key].get(tuple(states[n] for n in key), Fraction(0))

    def value(expr, row: dict[str, int]) -> Fraction:
        if hasattr(expr, "value"):  # a constant
            return Fraction(expr.value)
        if hasattr(expr, "over"):  # a sum
            return sum((value(expr.child, {**row, expr.over: s}) for s in range(cards[expr.over])), Fraction(0))
        children = getattr(expr, "children", None)
        if children is not None:  # a product: multiply numerators and denominators, reduce once
            num = den = 1
            for child in children:
                v = value(child, row)
                num, den = num * v.numerator, den * v.denominator
            return Fraction(num, den)

        def bound(members) -> list[tuple[str, int]]:
            return [(n, row[n] if s is None else s) for n, s in members]

        cr_blocks = getattr(expr, "blocks", None)  # a P term has one `block` instead
        given = bound(() if expr.condition is None else expr.condition.members)
        blocks = [bound(b.members) for b in cr_blocks or (expr.block,)]
        p_given = event(given)
        v = event([*given, *itertools.chain(*blocks)]) / p_given
        if cr_blocks is not None:  # over each block's conditional probability
            for b in blocks:
                v /= event([*given, *b]) / p_given
        return v**expr.exponent

    return value


def oracle_d_separated(nodes, edges, x, y, z) -> bool:
    """d-separation by the moralized ancestral graph (Lauritzen et al. 1990):
    keep x, y, z and their ancestors, marry the parents of each kept node,
    drop directions and z; x and y are separated iff no path joins them.
    `edges` are (parent, child) pairs over `nodes`."""
    parents = {n: {a for a, b in edges if b == n} for n in nodes}
    keep, stack = set(x) | set(y) | set(z), list(set(x) | set(y) | set(z))
    while stack:
        for p in parents[stack.pop()]:
            if p not in keep:
                keep.add(p)
                stack.append(p)
    moral = {(a, b) for a, b in edges if b in keep}
    for n in keep:
        moral |= set(itertools.combinations(sorted(parents[n]), 2))
    return oracle_u_separated(keep, moral, x, y, z)


def oracle_u_separated(nodes, edges, x, y, z) -> bool:
    """Vertex separation: no path from x to y avoids z. `edges` are
    unordered pairs over `nodes`."""
    adj = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = set(x), list(x)
    while stack:
        for m in adj[stack.pop()] - set(z) - seen:
            seen.add(m)
            stack.append(m)
    return not seen & set(y)


# ---------------------------------------------------------------------------
# The exchange identity of two non-adjacent nodes a, b of a Markov network.


def exchange_sides(a: str, b: str, w, x, default=None) -> tuple[Product, Product]:
    """CR(W, a=0, b=0, X=0)·CR(W, a, b, X=0) and CR(W, a=0, b, X=0)·CR(W, a, b=0, X=0)
    as expressions: W is a free block, X is pinned to the default states (0
    unless `default` names another). They are equal when W ∪ X covers the
    Markov blanket of {a, b}, which gives (a ⊥ b | W, X)."""
    default = default or {}

    def cr(a_pinned: bool, b_pinned: bool) -> CRTerm:
        blocks = [Block(w)] if w else []
        blocks.append(Block([(a, default.get(a, 0)) if a_pinned else a]))
        blocks.append(Block([(b, default.get(b, 0)) if b_pinned else b]))
        if x:
            blocks.append(Block([(n, default.get(n, 0)) for n in x]))
        return CRTerm(tuple(blocks))

    return Product((cr(True, True), cr(False, False))), Product((cr(True, False), cr(False, True)))


# ---------------------------------------------------------------------------
# Two-variable table with attraction on the diagonal.

D2_PROBS = {(0, 0): 0.4, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 0.4}
D2_NAMES = ("A", "B")


@pytest.fixture(scope="session")
def d2_table() -> JointTable:
    arr = np.zeros((2, 2))
    for states, p in D2_PROBS.items():
        arr[states] = p
    return JointTable([Variable("A", 2), Variable("B", 2)], arr)


# Three-variable chain: uniform A, P(B = A) = 0.9, P(C = B) = 0.8.

D3_NAMES = ("A", "B", "C")
D3_PROBS = {
    (a, b, c): 0.5 * (0.9 if b == a else 0.1) * (0.8 if c == b else 0.2)
    for a, b, c in itertools.product(range(2), repeat=3)
}


@pytest.fixture(scope="session")
def d3_table() -> JointTable:
    arr = np.zeros((2, 2, 2))
    for states, p in D3_PROBS.items():
        arr[states] = p
    return JointTable([Variable(n, 2) for n in D3_NAMES], arr)


@pytest.fixture(scope="session")
def coins_table() -> JointTable:
    """Two independent fair coins."""
    return JointTable([Variable("A", 2), Variable("B", 2)], np.full((2, 2), 0.25))


# ---------------------------------------------------------------------------
# The five-node study network: D -> G <- I, I -> S, G -> L. Its skeleton
# D-G-I-S, G-L is a tree; the G-rooted orientation of that tree
# (G -> D, G -> I, I -> S, G -> L) has no collider.


STUDENT_NODES = ("D", "I", "G", "S", "L")
STUDENT_EDGES = (("D", "G"), ("I", "G"), ("I", "S"), ("G", "L"))
STUDENT_G_ROOTED_EDGES = (("G", "D"), ("G", "I"), ("I", "S"), ("G", "L"))


@pytest.fixture(scope="session")
def student_graph() -> ModelGraph:
    return ModelGraph("directed", STUDENT_NODES, STUDENT_EDGES)


@pytest.fixture(scope="session")
def student_g_rooted_graph() -> ModelGraph:
    return ModelGraph("directed", STUDENT_NODES, STUDENT_G_ROOTED_EDGES)


def student_table(graph: ModelGraph, seed: int) -> JointTable:
    from crfactor.randgen import random_cpts

    cpts = random_cpts(graph, seed=seed)
    return build_joint_from_cpts(graph, cpts, [Variable(n, 2) for n in graph.nodes])


# ---------------------------------------------------------------------------
# A five-node undirected fixture: a four-cycle A-B-D-C-A with a pendant E on
# B. Satisfies (C ⊥ B | A,D), (A ⊥ D | B,C) and (E ⊥ A,D | B).

FIG4_NODES = ("A", "B", "C", "D", "E")
FIG4_EDGES = (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("B", "E"))


@pytest.fixture(scope="session")
def fig4_graph() -> ModelGraph:
    return ModelGraph("undirected", FIG4_NODES, FIG4_EDGES)


# ---------------------------------------------------------------------------
# A table a little off the Markov property, for the checks' tolerance
# boundaries: each check measures its own deviation on it, then runs at half
# and at twice that tolerance.


@pytest.fixture(scope="session")
def nearly_markov() -> tuple[JointTable, ModelGraph]:
    """A path:4 Gibbs table mixed at weight 1e-6 with a generic table, and
    the path graph a - b - c - d."""
    from crfactor.randgen import make_graph, random_gibbs_model, random_joint_table

    path = make_graph("path:4")
    markov = random_gibbs_model(path, seed=3).to_joint()
    generic = random_joint_table(path.nodes, seed=4)
    return JointTable(markov.variables, (1 - 1e-6) * markov.probs + 1e-6 * generic.probs), path


# ---------------------------------------------------------------------------
# Hand-written rewrite traces reproducing the two four-factor reductions of
# CR(D,I,G,S,L) to CR(D,G)·CR(S,I)·CR(I,G)·CR(G,L) (one by repeated splits,
# one by merges). The certificates are recorded exactly as claimed by the
# derivation being reproduced. All of them hold in the tree skeleton of the
# study network and in its G-rooted orientation. The D certificates,
# (D ⊥ I S L | G) and (D ⊥ I L | G), are false in the study DAG itself: G is
# a collider there (D -> G <- I), so conditioning on G couples D and I.


def f1_partition_trace() -> tuple:
    g = Certificate("graph", x=("D",), y=("I", "S", "L"), z=("G",))
    s = Certificate("graph", x=("S",), y=("G", "L"), z=("I",))
    i = Certificate("graph", x=("I",), y=("L",), z=("G",))
    return (
        TraceStep("bipartition", (), {"left": [0], "right": [1, 2, 3, 4]}),
        TraceStep("single_block", (0,), {}),
        TraceStep("ci_reduce", (0,), {"keep": 0, "y": ["I", "S", "L"], "w": ["G"]}, g),
        TraceStep("bipartition", (1,), {"left": [2], "right": [0, 1, 3]}),
        TraceStep("single_block", (1,), {}),
        TraceStep("ci_reduce", (1,), {"keep": 0, "y": ["G", "L"], "w": ["I"]}, s),
        TraceStep("bipartition", (2,), {"left": [0], "right": [1, 2]}),
        TraceStep("single_block", (2,), {}),
        TraceStep("ci_reduce", (2,), {"keep": 0, "y": ["L"], "w": ["G"]}, i),
    )


def f1_merge_trace() -> tuple:
    i = Certificate("graph", x=("I",), y=("L",), z=("G",))
    d = Certificate("graph", x=("D",), y=("I", "L"), z=("G",))
    s = Certificate("graph", x=("S",), y=("D", "G", "L"), z=("I",))
    return (
        TraceStep("merge", (), {"i": 2, "j": 4}),
        TraceStep("merge", (0,), {"i": 1, "j": 2}),
        TraceStep("ci_reduce", (1,), {"keep": 0, "y": ["L"], "w": ["G"]}, i),
        TraceStep("merge", (0,), {"i": 0, "j": 1}),
        TraceStep("ci_reduce", (1,), {"keep": 0, "y": ["I", "L"], "w": ["G"]}, d),
        TraceStep("ci_reduce", (0,), {"keep": 1, "y": ["D", "G", "L"], "w": ["I"]}, s),
    )
