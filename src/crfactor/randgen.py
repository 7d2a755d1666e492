"""Seeded random models and graphs for tests and the gen-random command.

Everything here is deterministic for a fixed seed: graphs come from small
textual specs (``path:4``, ``cycle:5``, ``complete:3``, ``star:4``,
``tree:6``, ``er:5:0.4``, ``triangles:3``, ``chain:4``, ``dag:5:0.5``,
``student``), node names are letters in declaration order, and rendered
model files are byte-identical across runs with the same inputs.
"""

from __future__ import annotations

import itertools
import math
import random
import string
from typing import Sequence

import numpy as np

from .errors import ModelError
from .model import CPT, GibbsModel, JointTable, ModelGraph, Variable, _check_cells, _scoped_product
from .modelfile import ParsedModel

POTENTIAL_RANGE = (0.1, 10.0)


def _names(n: int) -> tuple[str, ...]:
    if n > len(string.ascii_lowercase):
        raise ModelError(f"at most {len(string.ascii_lowercase)} generated nodes supported")
    return tuple(string.ascii_lowercase[:n])


# The shapes a spec may name, with the default edge probability of the
# random ones (None: the shape takes no probability).
_SHAPES = {"chain": None, "dag": 0.4, "path": None, "cycle": None, "complete": None,
           "star": None, "tree": None, "er": 0.5, "triangles": None}


def _spec_numbers(spec: str) -> tuple[str, int, float | None]:
    """The shape, count and edge probability of a spec `shape:N[:P]`; the
    count is at least 1 (3 for a cycle) and P lies in [0, 1]."""
    head, *args = spec.strip().split(":")
    if head not in _SHAPES:
        raise ModelError(f"unknown graph spec {spec!r}")
    p = _SHAPES[head]
    if not 1 <= len(args) <= (1 if p is None else 2):
        raise ModelError(f"graph spec {spec!r} is not of the form {head}:N{'' if p is None else '[:P]'}")
    try:
        n, p = int(args[0]), float(args[1]) if len(args) > 1 else p
    except ValueError:
        raise ModelError(f"graph spec {spec!r} has a non-numeric count or edge probability") from None
    if n < 1:
        raise ModelError(f"graph spec {spec!r}: the count must be at least 1")
    if head == "cycle" and n < 3:
        raise ModelError(f"graph spec {spec!r}: a cycle needs at least 3 nodes")
    if p is not None and not 0.0 <= p <= 1.0:
        raise ModelError(f"graph spec {spec!r}: the edge probability must lie in [0, 1]")
    return head, n, p


def make_graph(spec: str, seed: int = 0) -> ModelGraph:
    """Build a graph from a spec string; random shapes draw from the seed.
    A malformed spec raises ModelError."""
    if spec.strip() == "student":
        return ModelGraph(
            "directed",
            ("D", "I", "G", "S", "L"),
            (("D", "G"), ("I", "G"), ("I", "S"), ("G", "L")),
        )
    head, n, p = _spec_numbers(spec)
    rng = random.Random(seed)
    names = _names(1 + 2 * n if head == "triangles" else n)
    if head in ("chain", "path"):
        edges = list(zip(names, names[1:]))
    elif head == "dag":
        edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < p]
    elif head == "cycle":
        edges = list(zip(names, names[1:])) + [(names[-1], names[0])]
    elif head == "complete":
        edges = list(itertools.combinations(names, 2))
    elif head == "star":
        edges = [(names[0], m) for m in names[1:]]
    elif head == "tree":
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    elif head == "er":
        edges = [e for e in itertools.combinations(names, 2) if rng.random() < p]
    else:
        # n triangles sharing one hub vertex: the clique graph is a complete
        # graph on n nodes (a cycle for n >= 3) yet still tree-reducible.
        hub, rims = names[0], [names[1 + 2 * t : 3 + 2 * t] for t in range(n)]
        edges = [e for u, v in rims for e in ((hub, u), (hub, v), (u, v))]
    return ModelGraph("directed" if head in ("chain", "dag") else "undirected", names, edges)


def _draw(rng: random.Random, shape: tuple[int, ...], lo: float, hi: float) -> np.ndarray:
    """An array of this shape, its entries drawn uniformly in [lo, hi] in row-major order."""
    return np.array([rng.uniform(lo, hi) for _ in range(math.prod(shape))]).reshape(shape)


def random_gibbs_model(graph: ModelGraph, seed: int, cardinality: int = 2) -> GibbsModel:
    """Positive potentials over every maximal clique, entries uniform in
    [0.1, 10]."""
    rng = random.Random(seed)
    variables = [Variable(n, cardinality) for n in graph.nodes]
    potentials = {c: _draw(rng, (cardinality,) * len(c), *POTENTIAL_RANGE) for c in graph.maximal_cliques()}
    return GibbsModel(variables, graph, potentials)


def random_cpts(dag: ModelGraph, seed: int, cardinality: int = 2) -> dict[str, CPT]:
    """One strictly positive CPT per node, rows normalized."""
    rng = random.Random(seed)
    cpts = {}
    for node in dag.nodes:
        parents = dag.parents(node)
        raw = _draw(rng, (cardinality,) * (len(parents) + 1), 0.05, 1.0)
        cpts[node] = CPT(node, parents, raw / raw.sum(axis=-1, keepdims=True))
    return cpts


def random_joint_table(names: Sequence[str], seed: int, cardinality: int = 2) -> JointTable:
    """A strictly positive joint table with entries drawn uniformly and
    normalized; independent of any graph."""
    rng = random.Random(seed)
    variables = [Variable(n, cardinality) for n in names]
    raw = _draw(rng, (cardinality ** len(variables),), 0.05, 1.0)
    return JointTable(variables, raw / raw.sum())


def random_chain_conditional_table(
    y_names: Sequence[str], x_names: Sequence[str], seed: int, cardinality: int = 2
) -> JointTable:
    """A table where, given the x-variables, the y-variables form a chain:
    P(y, x) = P(x) P(y_1 | x) prod_i P(y_{i+1} | y_i, x), the product of
    these factors in this order. P(x) is drawn first; then, for each x
    configuration in row-major order, the row of P(y_1 | x) and the
    cardinality rows of each transition."""
    y_names, x_names, k = tuple(y_names), tuple(x_names), cardinality
    if not y_names:
        raise ModelError("need at least one chain variable")
    rng = random.Random(seed)
    variables = [Variable(n, k) for n in y_names + x_names]
    px = _draw(rng, (k,) * len(x_names), 0.05, 1.0)
    rows = _draw(rng, (k,) * len(x_names) + (1 + (len(y_names) - 1) * k, k), 0.05, 1.0)
    rows /= rows.sum(axis=-1, keepdims=True)
    factors = [(x_names, px / px.sum()), ((*x_names, y_names[0]), rows[..., 0, :])]
    for i, pair in enumerate(zip(y_names, y_names[1:])):
        factors.append(((*x_names, *pair), rows[..., 1 + i * k : 1 + (i + 1) * k, :]))
    return JointTable(variables, _scoped_product(variables, factors))


def random_model(kind: str, spec: str, seed: int, cardinality: int = 2) -> ParsedModel:
    """A parsed model ready for rendering: kind "gibbs" (undirected graph
    spec, maximal-clique potentials) or "bn" (DAG spec, CPTs)."""
    graph = make_graph(spec, seed)
    _check_cells([cardinality] * len(graph.nodes))
    variables = tuple(Variable(n, cardinality) for n in graph.nodes)
    if kind == "gibbs":
        if graph.kind != "undirected":
            raise ModelError(f"spec {spec!r} is directed; gibbs models need an undirected graph")
        gm = random_gibbs_model(graph, seed, cardinality)
        potentials = [(scope, gm.potentials[scope]) for scope in graph.maximal_cliques()]
        return ParsedModel("potential", variables, graph, {}, potentials=potentials)
    if kind == "bn":
        if graph.kind != "directed":
            raise ModelError(f"spec {spec!r} is undirected; bn models need a DAG")
        cpts = random_cpts(graph, seed, cardinality)
        return ParsedModel("cpt", variables, graph, {}, cpts=cpts)
    raise ModelError(f"unknown random model kind {kind!r}")
