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


def _check_unique_names(names: Sequence[str], what: str) -> None:
    seen = set()
    for n in names:
        if n in seen:
            raise ModelError(f"duplicate {what} {n!r}")
        seen.add(n)


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
        _check_unique_names([v.name for v in variables], "variable")
        shape = tuple(v.cardinality for v in variables)
        arr = np.asarray(probs, dtype=float)
        if arr.shape != shape:
            try:
                arr = arr.reshape(shape)
            except ValueError:
                raise ModelError(f"probability array shape {arr.shape} does not match {shape}") from None
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ModelError("probabilities must be finite and non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ModelError(f"probabilities sum to {total!r}, not 1")
        self._fill(variables, arr.copy())

    @classmethod
    def _of(cls, variables: tuple[Variable, ...], arr: np.ndarray) -> "JointTable":
        """A table over distinct variables from an array of their shape that
        the caller owns and has already checked: finite, non-negative and
        summing to one within SUM_TOL. Nothing is checked again."""
        table = object.__new__(cls)
        table._fill(variables, arr)
        return table

    def _fill(self, variables: tuple[Variable, ...], arr: np.ndarray) -> None:
        arr.setflags(write=False)
        self.variables = variables
        self.probs = arr
        self.strictly_positive = bool(np.all(arr > 0))
        self._axis = {v.name: i for i, v in enumerate(self.variables)}
        self._card = {v.name: v.cardinality for v in self.variables}
        self._marginal_cache: dict[frozenset[str], tuple[tuple[str, ...], np.ndarray]] = {}
        self._grid: dict[str, np.ndarray] | None = None  # see _own_grid
        self._term_memo: dict = {}  # a term's (kind, blocks, cond, exponent), or a Product -> (value, causes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def cardinality(self, name: str) -> int:
        try:
            return self._card[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._axis

    def prob(self, assignment: Assignment):
        """P at a full assignment, or at a batch of them (see event_prob)."""
        for n in self.names:
            if n not in assignment:
                raise ModelError(f"assignment does not bind variable {n!r}")
        return self.event_prob({n: assignment[n] for n in self.names})

    def _own_grid(self) -> dict[str, np.ndarray]:
        """The table's own grid (see ``crfactor.cr.grid``), built once; its
        axes are read-only, and terms evaluated over them are memoized."""
        if self._grid is None:
            axes = np.indices(self.probs.shape, sparse=True)
            for axis in axes:
                axis.setflags(write=False)
            self._grid = dict(zip(self.names, axes))
        return self._grid

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
        takes its listed state); the empty event has probability 1. States
        are integer arrays that broadcast together, one P per row; plain ints
        give one P."""
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
            elif own is not None and s is own[n]:
                index.append(slice(None))
                shape[self._axis[n]] = self._card[n]
            else:
                return self._gather(kept, arr, event)
        value = arr[tuple(index)]
        return value.reshape(shape) if isinstance(value, np.ndarray) else value

    def _gather(self, kept: tuple[str, ...], arr: np.ndarray, event: Assignment):
        """event_prob's rows through a row-major flat index into the marginal
        `arr` over `kept`, for states other than plain ints and own axes."""
        flat = 0
        for n in kept:
            s, card = event[n], self._card[n]
            if type(s) is int:
                bad = () if 0 <= s < card else (s,)
            else:
                s = np.asarray(s)
                bad = s[(s < 0) | (s >= card)].flat
            if len(bad):
                raise ModelError(f"state {bad[0]} out of range for variable {n!r}")
            flat = flat * card + s
        return arr.reshape(-1)[flat]


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
        _check_unique_names(self.nodes, "node")
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

    def children(self, node: str) -> tuple[str, ...]:
        if self.kind != "directed":
            raise ModelError("children() requires a directed graph")
        self.declaration_index(node)
        return tuple(self._children[node])

    def has_edge(self, a: str, b: str) -> bool:
        self.declaration_index(a)
        self.declaration_index(b)
        if self.kind == "directed":
            return (a, b) in set(self.edges)
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

    def is_topological(self, order: Sequence[str]) -> bool:
        if tuple(sorted(order)) != tuple(sorted(self.nodes)):
            return False
        pos = {n: i for i, n in enumerate(order)}
        return all(pos[a] < pos[b] for a, b in self.edges)

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
        lexicographically by sorted member names for reproducibility.
        """
        if self.kind != "undirected":
            raise ModelError("maximal cliques require an undirected graph")
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
        return tuple(cliques)

    def all_cliques(self) -> tuple[tuple[str, ...], ...]:
        """Every clique of the graph, including the empty clique, ordered by
        (size, sorted names). Exponential in clique size; intended for small
        models."""
        subsets: set[frozenset[str]] = {frozenset()}
        for mc in self.maximal_cliques():
            for r in range(1, len(mc) + 1):
                for combo in itertools.combinations(mc, r):
                    subsets.add(frozenset(combo))
        ordered = sorted(subsets, key=lambda s: (len(s), tuple(sorted(s))))
        return tuple(self.sort_nodes(s) for s in ordered)

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
class CliqueGraph:
    """Graph whose nodes are the maximal cliques of an undirected graph, with
    edges between cliques whose vertex sets intersect."""

    cliques: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, int], ...]  # index pairs, i < j

    def adjacent(self, i: int) -> tuple[int, ...]:
        out = [b if a == i else a for a, b in self.edges if i in (a, b)]
        return tuple(sorted(out))


@dataclass(frozen=True)
class CPT:
    """Conditional probability table P(node | parents).

    `probs` has shape (*parent cardinalities, node cardinality); every row
    (one parent configuration) sums to one.
    """

    node: str
    parents: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ModelError(f"CPT for {self.node!r} has non-finite entries")
        if np.any(arr < 0):
            raise ModelError(f"CPT for {self.node!r} has negative entries")
        rows = arr.reshape(-1, arr.shape[-1])
        bad = np.abs(rows.sum(axis=1) - 1.0) > 1e-9
        if bad.any():
            raise ModelError(f"CPT for {self.node!r}: row {int(np.flatnonzero(bad)[0])} does not sum to 1")
        object.__setattr__(self, "probs", _normalized(arr))

    @classmethod
    def _of(cls, node: str, parents: tuple[str, ...], probs: np.ndarray) -> "CPT":
        """A CPT from a float array whose entries and row sums the caller
        has already checked; only the exact row normalization is done."""
        cpt = object.__new__(cls)
        object.__setattr__(cpt, "node", node)
        object.__setattr__(cpt, "parents", parents)
        object.__setattr__(cpt, "probs", _normalized(probs))
        return cpt


def _normalized(arr: np.ndarray) -> np.ndarray:
    return arr / arr.sum(axis=-1, keepdims=True)


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
    A product past the float range reads inf or 0 without a warning."""
    names = tuple(v.name for v in variables)
    shape = tuple(v.cardinality for v in variables)
    _check_cells(shape)
    arr = np.ones(shape)
    with np.errstate(over="ignore", under="ignore"):
        for scope, factor in factors:
            scope = list(scope)
            factor = np.transpose(factor, [scope.index(n) for n in names if n in scope])
            arr *= np.expand_dims(factor, [i for i, n in enumerate(names) if n not in scope])
    return arr


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
            arr = np.asarray(table, dtype=float)
            expected = tuple(var_by_name[n].cardinality for n in scope)
            if arr.shape != expected:
                try:
                    arr = arr.reshape(expected)
                except ValueError:
                    raise ModelError(f"potential over {scope!r} has wrong shape") from None
            if not np.all((arr > 0) & (arr < math.inf)):
                raise ModelError(f"potential over {scope!r} has a non-positive or non-finite entry")
            checked[scope] = arr
        self.potentials = checked
        self.normalizer: float | None = None
        self._joint: JointTable | None = None

    def to_joint(self) -> JointTable:
        """Materialize the full joint table (records the normalizer)."""
        if self._joint is not None:
            return self._joint
        arr = _scoped_product(self.variables, self.potentials.items())
        with np.errstate(over="ignore"):
            z = float(arr.sum())
        if not 0.0 < z < math.inf:
            raise PreconditionError(f"the potentials' normalizer is {z!r}: their product leaves the float range")
        self.normalizer = z
        self._joint = JointTable(self.variables, arr / z)
        return self._joint


def build_clique_graph(graph: ModelGraph) -> CliqueGraph:
    """Clique graph: one node per maximal clique, edges between cliques with
    non-empty vertex intersection."""
    cliques = graph.maximal_cliques()
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(cliques)), 2)
        if set(cliques[i]) & set(cliques[j])
    ]
    return CliqueGraph(cliques=cliques, edges=tuple(edges))
