"""Line-oriented model file format: parsing and canonical rendering.

A model file is UTF-8 text; `#` starts a comment. The header declares the
graph, its variables and edges, and optional default states:

    graph directed|undirected
    var <name> <cardinality>
    edge <a> <b>              # directed: a -> b
    default <name> <state>    # overrides the all-zeros default configuration

followed by exactly one distribution block:

    joint                     # rows: <one state per variable> <probability>
    cpt <node>                # rows: <parent states> <node state> <probability>
    potential <n1> <n2> ...   # rows: <states> <positive weight>

`cpt` and `potential` blocks may repeat (one cpt per node; several
potentials). Unlisted joint rows default to zero; cpt and potential tables
must be complete. Parse errors carry 1-based line numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ModelError, ModelParseError
from .model import (
    CPT,
    GibbsModel,
    JointTable,
    ModelGraph,
    Variable,
    _check_cells,
    build_joint_from_cpts,
)


@dataclass
class ParsedModel:
    """A fully validated model file: graph, variables, default states and
    one distribution payload (kind "joint", "cpt" or "potential")."""

    kind: str
    variables: tuple[Variable, ...]
    graph: ModelGraph
    defaults: dict[str, int] = field(default_factory=dict)
    joint_probs: np.ndarray | None = None
    cpts: dict[str, CPT] = field(default_factory=dict)
    potentials: list[tuple[tuple[str, ...], np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        self._joint: JointTable | None = None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def default_assignment(self) -> dict[str, int]:
        out = {v.name: 0 for v in self.variables}
        out.update(self.defaults)
        return out

    def gibbs(self) -> GibbsModel:
        if self.kind != "potential":
            raise ModelError("not a potential model")
        return GibbsModel(self.variables, self.graph, dict(self.potentials))

    def joint(self) -> JointTable:
        """Materialize the joint table (cached)."""
        if self._joint is None:
            if self.kind == "joint":
                self._joint = JointTable(self.variables, self.joint_probs)
            elif self.kind == "cpt":
                self._joint = build_joint_from_cpts(self.graph, self.cpts, self.variables)
            else:
                self._joint = self.gibbs().to_joint()
        return self._joint


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ModelParseError(f"{what} must be an integer, got {token!r}", lineno) from None


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ModelParseError(f"{what} must be a number, got {token!r}", lineno) from None


class _Builder:
    def __init__(self):
        self.graph_kind: str | None = None
        self.variables: list[Variable] = []
        self.index: dict[str, int] = {}
        self.edges: list[tuple[str, str]] = []
        self.defaults: dict[str, int] = {}
        self.dist_kind: str | None = None
        # current block: ("joint",) | ("cpt", node, lineno) | ("potential", scope, lineno)
        self.block = None
        self.joint_rows: dict[tuple[int, ...], float] = {}
        self.joint_line: int | None = None
        self.cpt_rows: dict[str, tuple[int, dict[tuple[int, ...], float]]] = {}
        self.pot_rows: list[tuple[tuple[str, ...], int, dict[tuple[int, ...], float]]] = []

    def card(self, name: str) -> int:
        return self.variables[self.index[name]].cardinality

    def require_var(self, name: str, lineno: int) -> None:
        if name not in self.index:
            raise ModelParseError(f"unknown variable {name!r}", lineno)

    def directive(self, lineno: int, tokens: list[str]) -> None:
        head = tokens[0]
        if head == "graph":
            if self.graph_kind is not None:
                raise ModelParseError("duplicate graph line", lineno)
            if len(tokens) != 2 or tokens[1] not in ("directed", "undirected"):
                raise ModelParseError("expected 'graph directed' or 'graph undirected'", lineno)
            self.graph_kind = tokens[1]
            return
        if self.graph_kind is None:
            raise ModelParseError("the first directive must be the graph line", lineno)
        if head == "var":
            if self.dist_kind is not None:
                raise ModelParseError("variable declared after the distribution block", lineno)
            if len(tokens) != 3:
                raise ModelParseError("expected 'var <name> <cardinality>'", lineno)
            name = tokens[1]
            if name in self.index:
                raise ModelParseError(f"duplicate variable {name!r}", lineno)
            card = _parse_int(tokens[2], lineno, "cardinality")
            try:
                var = Variable(name, card)
            except ModelError as exc:
                raise ModelParseError(str(exc), lineno) from None
            self.index[name] = len(self.variables)
            self.variables.append(var)
        elif head == "edge":
            if self.dist_kind is not None:
                raise ModelParseError("edge declared after the distribution block", lineno)
            if len(tokens) != 3:
                raise ModelParseError("expected 'edge <a> <b>'", lineno)
            a, b = tokens[1], tokens[2]
            self.require_var(a, lineno)
            self.require_var(b, lineno)
            if a == b:
                raise ModelParseError(f"self-loop on {a!r}", lineno)
            self.edges.append((a, b))
        elif head == "default":
            if len(tokens) != 3:
                raise ModelParseError("expected 'default <name> <state>'", lineno)
            name = tokens[1]
            self.require_var(name, lineno)
            state = _parse_int(tokens[2], lineno, "state")
            if not 0 <= state < self.card(name):
                raise ModelParseError(f"default state {state} out of range for {name!r}", lineno)
            self.defaults[name] = state
        elif head == "joint":
            self.open_block("joint", lineno)
            if len(tokens) != 1:
                raise ModelParseError("'joint' takes no arguments", lineno)
            if self.joint_line is not None:
                raise ModelParseError("duplicate joint block", lineno)
            self.joint_line = lineno
            self.block = ("joint",)
        elif head == "cpt":
            self.open_block("cpt", lineno)
            if len(tokens) != 2:
                raise ModelParseError("expected 'cpt <node>'", lineno)
            node = tokens[1]
            self.require_var(node, lineno)
            if node in self.cpt_rows:
                raise ModelParseError(f"duplicate cpt block for {node!r}", lineno)
            self.cpt_rows[node] = (lineno, {})
            self.block = ("cpt", node)
        elif head == "potential":
            self.open_block("potential", lineno)
            scope = tuple(tokens[1:])
            if not scope:
                raise ModelParseError("a potential needs at least one variable", lineno)
            for n in scope:
                self.require_var(n, lineno)
            if len(set(scope)) != len(scope):
                raise ModelParseError("duplicate variable in potential scope", lineno)
            self.pot_rows.append((scope, lineno, {}))
            self.block = ("potential", len(self.pot_rows) - 1)
        else:
            raise ModelParseError(f"unknown directive {head!r}", lineno)

    def open_block(self, kind: str, lineno: int) -> None:
        if not self.variables:
            raise ModelParseError("distribution block before any variable", lineno)
        if self.dist_kind is None:
            self.dist_kind = kind
        elif self.dist_kind != kind:
            raise ModelParseError(
                f"model already has a {self.dist_kind!r} distribution; cannot mix with {kind!r}",
                lineno,
            )

    def row(self, lineno: int, tokens: list[str]) -> None:
        if self.block is None:
            if not tokens[0].lstrip("-").isdigit():
                raise ModelParseError(f"unknown directive {tokens[0]!r}", lineno)
            raise ModelParseError("data row outside a distribution block", lineno)
        if self.block[0] == "joint":
            names = [v.name for v in self.variables]
            if len(tokens) != len(names) + 1:
                raise ModelParseError(
                    f"joint row needs {len(names)} states and a probability", lineno
                )
            states = self.states(tokens[: len(names)], names, lineno)
            prob = _parse_float(tokens[-1], lineno, "probability")
            if not 0.0 <= prob <= 1.0 + 1e-9:
                raise ModelParseError(f"probability {prob!r} out of range", lineno)
            if states in self.joint_rows:
                raise ModelParseError(f"duplicate joint row {states!r}", lineno)
            self.joint_rows[states] = prob
        elif self.block[0] == "cpt":
            node = self.block[1]
            parents = self.cpt_parents(node)
            scope = parents + (node,)
            if len(tokens) != len(scope) + 1:
                raise ModelParseError(
                    f"cpt row for {node!r} needs {len(scope)} states and a probability", lineno
                )
            states = self.states(tokens[: len(scope)], scope, lineno)
            prob = _parse_float(tokens[-1], lineno, "probability")
            if not 0.0 <= prob <= 1.0 + 1e-9:
                raise ModelParseError(f"probability {prob!r} out of range", lineno)
            rows = self.cpt_rows[node][1]
            if states in rows:
                raise ModelParseError(f"duplicate cpt row {states!r}", lineno)
            rows[states] = prob
        else:
            idx = self.block[1]
            scope, _, rows = self.pot_rows[idx]
            if len(tokens) != len(scope) + 1:
                raise ModelParseError(
                    f"potential row needs {len(scope)} states and a weight", lineno
                )
            states = self.states(tokens[: len(scope)], scope, lineno)
            weight = _parse_float(tokens[-1], lineno, "weight")
            if weight <= 0.0:
                raise ModelParseError(f"potential weight must be positive, got {weight!r}", lineno)
            if states in rows:
                raise ModelParseError(f"duplicate potential row {states!r}", lineno)
            rows[states] = weight

    def states(self, tokens: list[str], scope, lineno: int) -> tuple[int, ...]:
        out = []
        for token, name in zip(tokens, scope):
            s = _parse_int(token, lineno, f"state of {name!r}")
            if not 0 <= s < self.card(name):
                raise ModelParseError(f"state {s} out of range for {name!r}", lineno)
            out.append(s)
        return tuple(out)

    def cpt_parents(self, node: str) -> tuple[str, ...]:
        order = {v.name: i for i, v in enumerate(self.variables)}
        return tuple(sorted((a for a, b in self.edges if b == node), key=order.__getitem__))

    def finish(self) -> ParsedModel:
        if self.graph_kind is None:
            raise ModelParseError("empty model: missing graph line", None)
        if not self.variables:
            raise ModelParseError("model declares no variables", None)
        try:
            graph = ModelGraph(self.graph_kind, [v.name for v in self.variables], self.edges)
        except ModelError as exc:
            raise ModelParseError(str(exc), None) from None
        if self.dist_kind is None:
            raise ModelParseError("model has no distribution block", None)

        if self.dist_kind == "joint":
            shape = tuple(v.cardinality for v in self.variables)
            _check_cells(shape)
            arr = np.zeros(shape)
            for states, prob in self.joint_rows.items():
                arr[states] = prob
            total = float(arr.sum())
            if abs(total - 1.0) > 1e-9:
                raise ModelParseError(
                    f"joint probabilities sum to {total!r}, not 1", self.joint_line
                )
            return ParsedModel(
                "joint", tuple(self.variables), graph, self.defaults, joint_probs=arr / total
            )

        if self.dist_kind == "cpt":
            if graph.kind != "directed":
                raise ModelParseError("cpt models require a directed graph", None)
            missing = [v.name for v in self.variables if v.name not in self.cpt_rows]
            if missing:
                raise ModelParseError(f"missing cpt blocks for {missing!r}", None)
            cpts = {}
            for node, (lineno, rows) in self.cpt_rows.items():
                parents = self.cpt_parents(node)
                scope = parents + (node,)
                shape = tuple(self.card(n) for n in scope)
                _check_cells(shape)
                arr = np.zeros(shape)
                for states, prob in rows.items():
                    arr[states] = prob
                flat = arr.reshape(-1, shape[-1])
                sums = flat.sum(axis=1)
                bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
                if bad.size:
                    raise ModelParseError(
                        f"cpt rows for {node!r} (parent configuration index {int(bad[0])}) "
                        f"sum to {float(sums[bad[0]])!r}, not 1",
                        lineno,
                    )
                cpts[node] = CPT(node, parents, arr)  # CPT normalizes the rows exactly
            return ParsedModel("cpt", tuple(self.variables), graph, self.defaults, cpts=cpts)

        if graph.kind != "undirected":
            raise ModelParseError("potential models require an undirected graph", None)
        pots: list[tuple[tuple[str, ...], np.ndarray]] = []
        for scope, lineno, rows in self.pot_rows:
            shape = tuple(self.card(n) for n in scope)
            _check_cells(shape)
            expected = int(np.prod(shape))
            if len(rows) != expected:
                raise ModelParseError(
                    f"potential over {scope!r} lists {len(rows)} of {expected} entries", lineno
                )
            arr = np.empty(shape)
            for states, weight in rows.items():
                arr[states] = weight
            for a, b in itertools.combinations(scope, 2):
                if not graph.has_edge(a, b):
                    raise ModelParseError(f"potential scope {scope!r} is not a clique", lineno)
            pots.append((scope, arr))
        return ParsedModel(
            "potential", tuple(self.variables), graph, self.defaults, potentials=pots
        )


def parse_model(text: str) -> ParsedModel:
    """Parse and validate a model file."""
    builder = _Builder()
    keywords = {"graph", "var", "edge", "default", "joint", "cpt", "potential"}
    for lineno, tokens in _content_lines(text):
        if tokens[0] in keywords:
            builder.directive(lineno, tokens)
        else:
            builder.row(lineno, tokens)
    return builder.finish()


def render_model(model: ParsedModel) -> str:
    """Canonical text for a parsed model; parse_model inverts it and the
    output is byte-stable for identical models."""
    lines = [f"graph {model.graph.kind}"]
    for v in model.variables:
        lines.append(f"var {v.name} {v.cardinality}")
    for a, b in model.graph.edges:
        lines.append(f"edge {a} {b}")
    for name in model.names:
        if model.defaults.get(name, 0) != 0:
            lines.append(f"default {name} {model.defaults[name]}")
    if model.kind == "joint":
        lines.append("joint")
        arr = model.joint_probs
        for states in np.ndindex(arr.shape):
            p = float(arr[states])
            if p != 0.0:
                lines.append(" ".join(str(s) for s in states) + f" {p!r}")
    elif model.kind == "cpt":
        for name in model.names:
            cpt = model.cpts[name]
            lines.append(f"cpt {name}")
            for states in np.ndindex(cpt.probs.shape):
                lines.append(
                    " ".join(str(s) for s in states) + f" {float(cpt.probs[states])!r}"
                )
    else:
        for scope, arr in model.potentials:
            lines.append("potential " + " ".join(scope))
            for states in np.ndindex(arr.shape):
                lines.append(" ".join(str(s) for s in states) + f" {float(arr[states])!r}")
    return "\n".join(lines) + "\n"
