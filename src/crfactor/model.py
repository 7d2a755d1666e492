"""Discrete variables, joint probability tables, and model graphs.

The joint table is the brute-force ground truth of the whole package:
every factorization and every symbolic rewrite is ultimately checked by
evaluating probabilities as explicit sums over a table's entries.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ModelError, PreconditionError

# Package-wide comparison tolerances: relative, with an absolute floor for
# values near zero.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Joint tables must sum to one within this absolute slack.
SUM_TOL = 1e-12

# Largest table (joint, CPT, potential or their product) the package
# allocates: 20 binary variables. Checked before allocating, by _check_cells.
MAX_TABLE_CELLS = 2**20

Assignment = Mapping[str, int]


def _check_tol(tol: float) -> float:
    """`tol` if it is a finite, non-negative number; ModelError otherwise
    (with nan, no `dev > tol` test could fail)."""
    if not (isinstance(tol, numbers.Real) and 0.0 <= tol < math.inf):
        raise ModelError(f"tolerance must be finite and non-negative, got {tol!r}")
    return tol


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with states 0 .. cardinality-1."""

    name: str
    cardinality: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise ModelError(f"variable name must be an identifier, got {self.name!r}")
        if not isinstance(self.cardinality, int) or self.cardinality < 2:
            raise ModelError(f"variable {self.name!r} needs cardinality >= 2, got {self.cardinality!r}")


def _check_cells(shape: Sequence[int]) -> None:
    """Refuse a table of this shape before it is allocated."""
    cells = math.prod(shape)
    if cells > MAX_TABLE_CELLS:
        raise PreconditionError(f"a table of {cells} cells exceeds the cap of {MAX_TABLE_CELLS} cells")


def _float_array(values, what: str) -> np.ndarray:
    """`values` as a new float array, held by no caller; ModelError unless they are real numbers."""
    try:
        arr = np.array(values)  # a copy, also of an array
        kind = arr.dtype.kind
        if kind not in "biufO" or (kind == "O" and not all(isinstance(v, numbers.Real) for v in arr.flat)):
            raise TypeError  # complex numbers, text, other objects
        return arr.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ModelError(f"{what} must be real numbers") from None


def _repeated(names: Iterable[str]) -> str | None:
    """The first name that occurs earlier in `names`, or None."""
    seen: set[str] = set()
    for n in names:
        if n in seen:
            return n
        seen.add(n)
    return None


class JointTable:
    """Explicit probability table over an ordered tuple of discrete variables.

    Entries are indexed by one state per variable, in declaration order
    (row-major enumeration). Entries are non-negative and sum to one within
    1e-12 absolute. Instances are immutable; their caches hand out read-only arrays.
    """

    def __init__(self, variables: Iterable[Variable], probs):
        variables = tuple(variables)
        if not variables:
            raise ModelError("a joint table needs at least one variable")
        self.names = tuple(v.name for v in variables)
        if (twice := _repeated(self.names)) is not None:
            raise ModelError(f"duplicate variable {twice!r}")
        shape = tuple(v.cardinality for v in variables)
        arr = _float_array(probs, "probabilities")
        try:
            arr = arr.reshape(shape)
        except ValueError:
            raise ModelError(f"probability array shape {arr.shape} does not match {shape}") from None
        lo, hi = arr.min(), arr.max()
        if not (lo >= 0.0 and hi < math.inf):  # nan fails both
            raise ModelError("probabilities must be finite and non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ModelError(f"probabilities sum to {total!r}, not 1")
        arr.setflags(write=False)
        self.variables = variables
        self.probs = arr
        self.strictly_positive = bool(lo > 0.0)
        self._axis = {v.name: i for i, v in enumerate(self.variables)}
        self._card = {v.name: v.cardinality for v in self.variables}
        self._marginal_cache: dict[frozenset[str], tuple[tuple[str, ...], np.ndarray]] = {}
        axes = np.indices(shape, sparse=True)  # the table's own grid, see crfactor.cr.grid
        for axis in axes:
            axis.setflags(write=False)
        self._grid: dict[str, np.ndarray] = dict(zip(self.names, axes))
        self._memo: dict = {}  # expression evaluated over `_grid` -> (value, causes)

    def cardinality(self, name: str) -> int:
        try:
            return self._card[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def prob(self, assignment: Assignment):
        """P at a full assignment, or at a batch of them (see event_prob)."""
        for n in self.names:
            if n not in assignment:
                raise ModelError(f"assignment does not bind variable {n!r}")
        return self.event_prob({n: assignment[n] for n in self.names})

    def _marginal(self, names: Iterable[str]) -> tuple[tuple[str, ...], np.ndarray]:
        key = frozenset(names)
        cached = self._marginal_cache.get(key)
        if cached is not None:
            return cached
        for n in key:
            if n not in self._axis:
                raise ModelError(f"unknown variable {n!r}")
        kept = tuple(v.name for v in self.variables if v.name in key)
        drop_axes = tuple(i for i, v in enumerate(self.variables) if v.name not in key)
        arr = np.asarray(self.probs.sum(axis=drop_axes) if drop_axes else self.probs)
        arr.setflags(write=False)  # event_prob may return a view of it
        result = (kept, arr)
        self._marginal_cache[key] = result
        return result

    def event_prob(self, event: Assignment):
        """P of a partial assignment (the event that each listed variable
        takes its listed state); the empty event has probability 1. A state
        is a plain int, or the variable's own axis of the table's grid (see
        ``crfactor.cr.grid``): plain ints give one P, own axes one P per row."""
        if not event:
            return 1.0
        kept, arr = self._marginal(event.keys())
        own = self._grid  # over the table's own axes, read the marginal by basic indexing
        index, shape = [], [1] * len(self.variables)
        for n in kept:
            s = event[n]
            if type(s) is int:  # a plain int (a pinned state, or one row) needs no array to check
                if not 0 <= s < self._card[n]:
                    raise ModelError(f"state {s} out of range for variable {n!r}")
                index.append(s)
            elif s is own[n]:
                index.append(slice(None))
                shape[self._axis[n]] = self._card[n]
            else:
                got = np.asarray(s).dtype.name
                raise ModelError(f"state of variable {n!r} must be an int or the table's own grid axis, got {got}")
        value = arr[tuple(index)]
        return value.reshape(shape) if isinstance(value, np.ndarray) else value


def _row(table: JointTable, flat: int) -> dict[str, int]:
    """The assignment at a row-major row of the table."""
    return {n: int(s) for n, s in zip(table.names, np.unravel_index(flat, table.probs.shape))}


class ModelGraph:
    """Directed or undirected graph over named nodes.

    Nodes keep their declaration order (used for deterministic rendering and
    tie-breaking). Directed graphs must be acyclic. No self-loops.
    """

    def __init__(self, kind: str, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        if kind not in ("directed", "undirected"):
            raise ModelError(f"graph kind must be 'directed' or 'undirected', got {kind!r}")
        self.kind = kind
        self.nodes = tuple(nodes)
        if (twice := _repeated(self.nodes)) is not None:
            raise ModelError(f"duplicate node {twice!r}")
        self._order = {n: i for i, n in enumerate(self.nodes)}
        edge_list = []
        seen = set()
        for a, b in edges:
            if a not in self._order or b not in self._order:
                raise ModelError(f"edge ({a!r}, {b!r}) references an undeclared node")
            if a == b:
                raise ModelError(f"self-loop on node {a!r}")
            key = (a, b) if kind == "directed" else tuple(sorted((a, b), key=self._order.__getitem__))
            if key in seen:
                raise ModelError(f"duplicate edge ({a!r}, {b!r})")
            seen.add(key)
            edge_list.append(key)
        self.edges = tuple(edge_list)
        self._maximal: tuple[tuple[str, ...], ...] | None = None  # maximal_cliques(), once found
        self._adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        self._parents: dict[str, list[str]] = {n: [] for n in self.nodes}
        self._children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            self._adj[a].append(b)
            self._adj[b].append(a)
            if kind == "directed":
                self._parents[b].append(a)
                self._children[a].append(b)
        for n in self.nodes:
            self._adj[n].sort(key=self._order.__getitem__)
            self._parents[n].sort(key=self._order.__getitem__)
            self._children[n].sort(key=self._order.__getitem__)
        if kind == "directed":
            self.topological_order()  # raises on cycles

    def declaration_index(self, node: str) -> int:
        try:
            return self._order[node]
        except KeyError:
            raise ModelError(f"unknown node {node!r}") from None

    def sort_nodes(self, nodes: Iterable[str]) -> tuple[str, ...]:
        """Sort a node subset by declaration order."""
        return tuple(sorted(nodes, key=self.declaration_index))

    def neighbors(self, node: str) -> tuple[str, ...]:
        self.declaration_index(node)
        return tuple(self._adj[node])

    def parents(self, node: str) -> tuple[str, ...]:
        if self.kind != "directed":
            raise ModelError("parents() requires a directed graph")
        self.declaration_index(node)
        return tuple(self._parents[node])

    def has_edge(self, a: str, b: str) -> bool:
        self.declaration_index(a)
        self.declaration_index(b)
        if self.kind == "directed":
            return b in self._children[a]
        return b in self._adj[a]

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm; within a round, nodes come out in declaration
        order. Raises on cycles."""
        if self.kind != "directed":
            raise ModelError("topological order requires a directed graph")
        indeg = {n: len(self._parents[n]) for n in self.nodes}
        ready = [n for n in self.nodes if indeg[n] == 0]
        out = []
        while ready:
            n = ready.pop(0)
            out.append(n)
            for c in self._children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
            ready.sort(key=self._order.__getitem__)
        if len(out) != len(self.nodes):
            raise ModelError("directed graph contains a cycle")
        return tuple(out)

    def markov_blanket(self, nodes: Iterable[str]) -> tuple[str, ...]:
        """Neighbors of a node set, excluding the set itself (undirected)."""
        if self.kind != "undirected":
            raise ModelError("markov_blanket() requires an undirected graph")
        s = set(nodes)
        for n in s:
            self.declaration_index(n)
        blanket = {b for n in s for b in self._adj[n]} - s
        return self.sort_nodes(blanket)

    def maximal_cliques(self) -> tuple[tuple[str, ...], ...]:
        """All maximal cliques, via Bron-Kerbosch with pivoting.

        Each clique is a tuple in declaration order; the list is sorted
        lexicographically by sorted member names for reproducibility. The
        search runs once per graph: later calls return the same tuple.
        """
        if self.kind != "undirected":
            raise ModelError("maximal cliques require an undirected graph")
        if self._maximal is not None:
            return self._maximal
        adj = {n: set(self._adj[n]) for n in self.nodes}
        found: list[set[str]] = []

        def expand(r: set[str], p: set[str], x: set[str]) -> None:
            if not p and not x:
                found.append(set(r))
                return
            pivot = max(p | x, key=lambda n: (len(adj[n] & p), -self._order[n]))
            for n in sorted(p - adj[pivot], key=self._order.__getitem__):
                expand(r | {n}, p & adj[n], x & adj[n])
                p.remove(n)
                x.add(n)

        expand(set(), set(self.nodes), set())
        cliques = [self.sort_nodes(c) for c in found]
        cliques.sort(key=lambda c: tuple(sorted(c)))
        self._maximal = tuple(cliques)
        return self._maximal

    def all_cliques(self) -> tuple[tuple[str, ...], ...]:
        """Every clique of the graph, including the empty clique, ordered by
        (size, sorted names). Exponential in clique size; intended for small
        models."""
        subsets = {frozenset(c) for mc in self.maximal_cliques() for r in range(len(mc) + 1)
                   for c in itertools.combinations(mc, r)}  # r = 0 gives the empty clique
        return tuple(self.sort_nodes(s) for s in sorted(subsets, key=lambda s: (len(s), tuple(sorted(s)))))

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            for m in self._adj[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return len(seen) == len(self.nodes)

    def is_tree(self) -> bool:
        return (
            self.kind == "undirected"
            and self.is_connected()
            and len(self.edges) == len(self.nodes) - 1
        )

    def __repr__(self):
        return f"ModelGraph({self.kind!r}, nodes={self.nodes!r}, edges={self.edges!r})"


@dataclass(frozen=True)
class TcgCheck:
    """Outcome of the clique-graph reduction test.

    ok is True when repeatedly removing cliques that have a dominating
    neighbor (one whose intersection contains every other neighbor's
    intersection) reduces the clique graph to one node, `root` (None when
    ok is False). The removal order performed is kept for the factorization
    step.
    """

    ok: bool
    elimination: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    root: tuple[str, ...] | None

    def __bool__(self):
        return self.ok


def is_tcg(graph: ModelGraph) -> TcgCheck:
    """Test whether the clique graph is tree-reducible.

    Scan order and dominating-neighbor ties are both broken
    lexicographically (by sorted clique member names), which makes the
    removal order deterministic. A clique with no remaining neighbor is
    never removable, so disconnected clique graphs with more than one node
    are not tree-reducible. The clique graph is read off the maximal cliques:
    a clique's neighbors are the remaining cliques it intersects.
    """
    cliques = graph.maximal_cliques()
    members = {c: set(c) for c in cliques}
    alive = list(cliques)
    elim: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    while len(alive) > 1:
        for c in alive:
            inter = {d: shared for d in alive if d != c and (shared := members[c] & members[d])}
            dominating = [d for d in inter if all(s <= inter[d] for s in inter.values())]
            if dominating:
                maxadj = min(dominating, key=lambda d: tuple(sorted(d)))
                elim.append((c, maxadj))
                alive.remove(c)
                break
        else:
            return TcgCheck(False, tuple(elim), None)
    return TcgCheck(True, tuple(elim), alive[0])  # never empty: a graph without nodes has the clique ()


@dataclass(frozen=True)
class CPT:
    """Conditional probability table P(node | parents).

    `probs` is a read-only array of shape (*parent cardinalities, node
    cardinality); every row (one parent configuration) sums to one.
    """

    node: str
    parents: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        arr = _float_array(self.probs, f"CPT entries for {self.node!r}")
        if arr.ndim != len(self.parents) + 1:
            raise ModelError(
                f"CPT for {self.node!r} has {arr.ndim} axes, expected {len(self.parents) + 1}: "
                "one for each parent and one for the node"
            )
        if arr.size == 0:
            raise ModelError(f"CPT for {self.node!r} has no entries")
        lo, hi = arr.min(), arr.max()
        if not (lo > -math.inf and hi < math.inf):  # nan fails both
            raise ModelError(f"CPT for {self.node!r} has non-finite entries")
        if lo < 0.0:
            raise ModelError(f"CPT for {self.node!r} has negative entries")
        sums = arr.sum(axis=-1, keepdims=True)
        bad = np.abs(sums - 1.0) > 1e-9
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            raise ModelError(
                f"cpt rows for {self.node!r} (parent configuration index {index}) "
                f"sum to {float(sums.flat[index])!r}, not 1"
            )
        arr = arr / sums  # each row exactly normalized
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


def build_joint_from_cpts(
    dag: ModelGraph, cpts: Mapping[str, CPT], variables: Sequence[Variable]
) -> JointTable:
    """Joint table as the product of one CPT per node of a DAG."""
    if dag.kind != "directed":
        raise ModelError("CPT models require a directed graph")
    var_by_name = {v.name: v for v in variables}
    if set(var_by_name) != set(dag.nodes):
        raise ModelError("variables do not match graph nodes")
    _check_cells(tuple(v.cardinality for v in variables))
    for node in dag.nodes:
        cpt = cpts.get(node)
        if cpt is None:
            raise ModelError(f"missing CPT for node {node!r}")
        if tuple(cpt.parents) != dag.parents(node):
            raise ModelError(
                f"CPT scope mismatch for {node!r}: parents {cpt.parents!r} vs graph {dag.parents(node)!r}"
            )
        expected = tuple(var_by_name[n].cardinality for n in (*cpt.parents, node))
        if cpt.probs.shape != expected:
            raise ModelError(f"CPT for {node!r} has shape {cpt.probs.shape}, expected {expected}")
    factors = (((*cpts[n].parents, n), cpts[n].probs) for n in dag.nodes)
    return JointTable(variables, _scoped_product(variables, factors))


def _scoped_product(variables: Sequence[Variable], factors: Iterable[tuple[Sequence[str], np.ndarray]]) -> np.ndarray:
    """The product of the factors, in order, over the variables' axes: a new
    array, its size checked before it is allocated. Each factor is a scope
    of variable names and an array with one axis per name, in scope order.
    A product past the float range reads inf or 0 without a warning. It
    grows from 1.0 over the union of the scopes so far, each cell multiplied
    as in a grid of ones, and in place once it spans every axis."""
    names = tuple(v.name for v in variables)
    shape = tuple(v.cardinality for v in variables)
    _check_cells(shape)
    arr = np.ones(())
    with np.errstate(over="ignore", under="ignore"):
        for scope, factor in factors:
            factor = np.transpose(factor, [scope.index(n) for n in names if n in scope])
            factor = factor.reshape([c if n in scope else 1 for n, c in zip(names, shape)])
            arr = np.multiply(arr, factor, out=arr if arr.shape == shape else None)
    return arr if arr.shape == shape else np.broadcast_to(arr, shape).copy()  # a variable in no factor


class GibbsModel:
    """Strictly positive distribution given as a normalized product of
    positive potentials over cliques of an undirected graph."""

    def __init__(
        self,
        variables: Sequence[Variable],
        graph: ModelGraph,
        potentials: Mapping[tuple[str, ...], np.ndarray],
    ):
        if graph.kind != "undirected":
            raise ModelError("Gibbs models require an undirected graph")
        self.variables = tuple(variables)
        var_by_name = {v.name: v for v in self.variables}
        if set(var_by_name) != set(graph.nodes):
            raise ModelError("variables do not match graph nodes")
        self.graph = graph
        checked: dict[tuple[str, ...], np.ndarray] = {}
        for scope, table in potentials.items():
            scope = tuple(scope)
            if not scope:
                raise ModelError("potential with empty scope")
            for n in scope:
                graph.declaration_index(n)
            for a, b in itertools.combinations(scope, 2):
                if not graph.has_edge(a, b):
                    raise ModelError(f"potential scope {scope!r} is not a clique")
            arr = _float_array(table, f"potential entries over {scope!r}")
            expected = tuple(var_by_name[n].cardinality for n in scope)
            try:
                arr = arr.reshape(expected)
            except ValueError:
                raise ModelError(f"potential over {scope!r} has wrong shape") from None
            if not np.all((arr > 0) & (arr < math.inf)):
                raise ModelError(f"potential over {scope!r} has a non-positive or non-finite entry")
            arr.setflags(write=False)
            checked[scope] = arr
        self.potentials = checked

    def to_joint(self) -> JointTable:
        """Materialize the full joint table, a new one on each call."""
        arr = _scoped_product(self.variables, self.potentials.items())
        with np.errstate(over="ignore"):
            z = float(arr.sum())
        if not 0.0 < z < math.inf:
            raise PreconditionError(f"the potentials' normalizer is {z!r}: their product leaves the float range")
        return JointTable(self.variables, arr / z)
