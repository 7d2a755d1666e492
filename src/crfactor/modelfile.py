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
    potential <n1> <n2> ...   # rows: <states> <positive finite weight>

`cpt` and `potential` blocks may repeat (one cpt per node; several
potentials, and potentials over one scope multiply). Unlisted joint rows
default to zero; cpt and potential tables must be complete. Parse errors
carry 1-based line numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, ModelParseError, PreconditionError
from .model import (
    CPT,
    GibbsModel,
    JointTable,
    ModelGraph,
    Variable,
    _check_cells,
    _scoped_product,
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
        self._parsed = False  # set by parse_model, whose rows are checked once

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
        merged: dict[tuple[str, ...], np.ndarray] = {}
        for scope, table in self.potentials:  # blocks over one scope multiply, in file order
            if scope in merged:
                with np.errstate(over="ignore", under="ignore"):
                    table = merged[scope] * table
                if not np.all((table > 0) & (table < math.inf)):
                    raise PreconditionError(f"the potentials over {scope!r} multiply out of the float range")
            merged[scope] = table
        return GibbsModel(self.variables, self.graph, merged)

    def joint(self) -> JointTable:
        """Materialize the joint table (cached). The table of a model from
        parse_model is built from its checked rows without checking them
        again; any other model goes through the public constructors."""
        if self._joint is None:
            if self.kind == "joint":
                if self._parsed:
                    self._joint = JointTable._of(self.variables, self.joint_probs.copy())
                else:
                    self._joint = JointTable(self.variables, self.joint_probs)
            elif self.kind == "cpt":
                if self._parsed:
                    factors = (((*self.cpts[n].parents, n), self.cpts[n].probs) for n in self.graph.nodes)
                    self._joint = JointTable._of(self.variables, _scoped_product(self.variables, factors))
                else:
                    self._joint = build_joint_from_cpts(self.graph, self.cpts, self.variables)
            else:
                self._joint = self.gibbs().to_joint()
        return self._joint


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
        # (kind, scope, cardinalities, header line, rows); the model's kind is its first block's
        self.blocks: list[tuple[str, tuple[str, ...], tuple[int, ...], int, dict[tuple[int, ...], float]]] = []

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
            if self.blocks:
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
            if self.blocks:
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
        elif head in ("joint", "cpt", "potential"):
            self.open_block(lineno, *tokens)
        else:
            raise ModelParseError(f"unknown directive {head!r}", lineno)

    def open_block(self, lineno: int, kind: str, *args: str) -> None:
        if not self.variables:
            raise ModelParseError("distribution block before any variable", lineno)
        if self.blocks and self.blocks[0][0] != kind:
            raise ModelParseError(
                f"model already has a {self.blocks[0][0]!r} distribution; cannot mix with {kind!r}",
                lineno,
            )
        if kind == "joint":
            if args:
                raise ModelParseError("'joint' takes no arguments", lineno)
            if self.blocks:
                raise ModelParseError("duplicate joint block", lineno)
            scope = tuple(v.name for v in self.variables)
        elif kind == "cpt":
            if len(args) != 1:
                raise ModelParseError("expected 'cpt <node>'", lineno)
            node = args[0]
            self.require_var(node, lineno)
            if any(scope[-1] == node for _, scope, *_ in self.blocks):
                raise ModelParseError(f"duplicate cpt block for {node!r}", lineno)
            parents = sorted((a for a, b in self.edges if b == node), key=self.index.__getitem__)
            scope = (*parents, node)
        else:
            scope = args
            if not scope:
                raise ModelParseError("a potential needs at least one variable", lineno)
            for n in scope:
                self.require_var(n, lineno)
            if len(set(scope)) != len(scope):
                raise ModelParseError("duplicate variable in potential scope", lineno)
        self.blocks.append((kind, scope, tuple(map(self.card, scope)), lineno, {}))

    def row(self, lineno: int, tokens: list[str]) -> None:
        """A row that parse_model's one-pass test did not take, checked
        token by token: stored, or refused at its first fault."""
        if not self.blocks:
            if not tokens[0].lstrip("-").isdigit():
                raise ModelParseError(f"unknown directive {tokens[0]!r}", lineno)
            raise ModelParseError("data row outside a distribution block", lineno)
        kind, scope, _, _, rows = self.blocks[-1]
        noun = "weight" if kind == "potential" else "probability"
        if len(tokens) != len(scope) + 1:
            what = f"cpt row for {scope[-1]!r}" if kind == "cpt" else f"{kind} row"
            raise ModelParseError(f"{what} needs {len(scope)} states and a {noun}", lineno)
        states = []
        for token, name in zip(tokens, scope):
            state = _parse_int(token, lineno, f"state of {name!r}")
            if not 0 <= state < self.card(name):
                raise ModelParseError(f"state {state} out of range for {name!r}", lineno)
            states.append(state)
        states = tuple(states)
        value = _parse_float(tokens[-1], lineno, noun)
        if kind != "potential" and not 0.0 <= value <= 1.0 + 1e-9:
            raise ModelParseError(f"probability {value!r} out of range", lineno)
        if kind == "potential" and value <= 0.0:
            raise ModelParseError(f"potential weight must be positive, got {value!r}", lineno)
        if kind == "potential" and not value < math.inf:  # inf or nan
            raise ModelParseError(f"potential weight must be positive and finite, got {value!r}", lineno)
        if states in rows:
            raise ModelParseError(f"duplicate {kind} row {states!r}", lineno)
        rows[states] = value

    def finish(self) -> ParsedModel:
        if self.graph_kind is None:
            raise ModelParseError("empty model: missing graph line", None)
        if not self.variables:
            raise ModelParseError("model declares no variables", None)
        try:
            graph = ModelGraph(self.graph_kind, [v.name for v in self.variables], self.edges)
        except ModelError as exc:
            raise ModelParseError(str(exc), None) from None
        if not self.blocks:
            raise ModelParseError("model has no distribution block", None)
        kind = self.blocks[0][0]
        if kind == "cpt":
            if graph.kind != "directed":
                raise ModelParseError("cpt models require a directed graph", None)
            missing = [n for n in graph.nodes if not any(s[-1] == n for _, s, *_ in self.blocks)]
            if missing:
                raise ModelParseError(f"missing cpt blocks for {missing!r}", None)
        if kind == "potential" and graph.kind != "undirected":
            raise ModelParseError("potential models require an undirected graph", None)

        tables = []
        for _, scope, shape, lineno, rows in self.blocks:
            _check_cells(shape)
            arr = np.zeros(shape)
            for states, value in rows.items():
                arr[states] = value
            if kind == "joint":
                total = float(arr.sum())
                if abs(total - 1.0) > 1e-9:
                    raise ModelParseError(f"joint probabilities sum to {total!r}, not 1", lineno)
                arr = arr / total
            elif kind == "cpt":
                sums = arr.reshape(-1, shape[-1]).sum(axis=1)
                bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
                if bad.size:
                    raise ModelParseError(
                        f"cpt rows for {scope[-1]!r} (parent configuration index {int(bad[0])}) "
                        f"sum to {float(sums[bad[0]])!r}, not 1",
                        lineno,
                    )
                arr = CPT._of(scope[-1], scope[:-1], arr)  # normalizes the rows exactly
            else:
                if len(rows) != arr.size:
                    raise ModelParseError(
                        f"potential over {scope!r} lists {len(rows)} of {arr.size} entries", lineno
                    )
                for a, b in itertools.combinations(scope, 2):
                    if not graph.has_edge(a, b):
                        raise ModelParseError(f"potential scope {scope!r} is not a clique", lineno)
            tables.append((scope, arr))

        head = (kind, tuple(self.variables), graph, self.defaults)
        if kind == "joint":
            model = ParsedModel(*head, joint_probs=tables[0][1])
        elif kind == "cpt":
            model = ParsedModel(*head, cpts={scope[-1]: cpt for scope, cpt in tables})
        else:
            model = ParsedModel(*head, potentials=tables)
        model._parsed = True
        return model


_KEYWORDS = frozenset({"graph", "var", "edge", "default", "joint", "cpt", "potential"})
# The single-digit states of a variable by its cardinality (all of them up
# to 10), spelt the usual way; _Builder.row reads any other spelling with int().
_STATE_TOKENS = [{str(s): s for s in range(min(card, 10))} for card in range(11)]


def parse_model(text: str) -> ParsedModel:
    """Parse and validate a model file, one line at a time. A row of
    single-digit states in range, a value in range and no repeat is taken
    here; `_Builder.row` takes any other row."""
    builder = _Builder()
    rows = None  # the open block's rows; with its width, state tokens per column and kind
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] in _KEYWORDS:
            builder.directive(lineno, tokens)
            if builder.blocks:
                kind, _, cards, _, rows = builder.blocks[-1]
                width, potential = len(cards) + 1, kind == "potential"
                columns = [_STATE_TOKENS[min(card, 10)] for card in cards]
            continue
        if rows is not None and len(tokens) == width:
            try:  # map stops at the last column, before the value
                states, value = tuple(map(dict.__getitem__, columns, tokens)), float(tokens[-1])
            except (KeyError, ValueError):
                pass
            else:
                in_range = (0.0 < value < math.inf) if potential else (0.0 <= value <= 1.0 + 1e-9)
                if in_range and states not in rows:
                    rows[states] = value
                    continue
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
        blocks = [("joint", model.joint_probs)]
    elif model.kind == "cpt":
        blocks = [(f"cpt {name}", model.cpts[name].probs) for name in model.names]
    else:
        blocks = [("potential " + " ".join(scope), arr) for scope, arr in model.potentials]
    for header, arr in blocks:
        lines.append(header)
        for states in np.ndindex(arr.shape):
            value = float(arr[states])
            if value != 0.0 or model.kind != "joint":  # unlisted joint rows are zero
                lines.append(" ".join(str(s) for s in states) + f" {value!r}")
    return "\n".join(lines) + "\n"
