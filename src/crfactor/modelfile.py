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
carry the 1-based number of the offending line; a fault of the whole file
(a missing line or block, a directed cycle) carries none.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, ModelParseError, PreconditionError
from .model import (
    CPT,
    MAX_TABLE_CELLS,
    GibbsModel,
    JointTable,
    ModelGraph,
    Variable,
    _check_cells,
    build_joint_from_cpts,
)


@dataclass
class ParsedModel:
    """A model file's graph, variables, default states and one distribution
    payload (kind "joint", "cpt" or "potential"); a plain record."""

    kind: str
    variables: tuple[Variable, ...]
    graph: ModelGraph
    defaults: dict[str, int] = field(default_factory=dict)
    joint_probs: np.ndarray | None = None
    cpts: dict[str, CPT] = field(default_factory=dict)
    potentials: list[tuple[tuple[str, ...], np.ndarray]] = field(default_factory=list)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def default_assignment(self) -> dict[str, int]:
        out = {v.name: 0 for v in self.variables}
        out.update(self.defaults)
        return out

    def joint(self) -> JointTable:
        """Build the joint table, through the checked constructors, on each call."""
        if self.kind == "joint":
            return JointTable(self.variables, self.joint_probs)
        if self.kind == "cpt":
            return build_joint_from_cpts(self.graph, self.cpts, self.variables)
        _check_kind(self.kind)
        merged: dict[tuple[str, ...], np.ndarray] = {}
        for scope, table in self.potentials:  # blocks over one scope multiply, in file order
            if scope in merged:
                with np.errstate(over="ignore", under="ignore"):
                    table = merged[scope] * table
                if not np.all((table > 0) & (table < math.inf)):
                    raise PreconditionError(f"the potentials over {scope!r} multiply out of the float range")
            merged[scope] = table
        return GibbsModel(self.variables, self.graph, merged).to_joint()


def _check_kind(kind: str) -> None:
    if kind not in ("joint", "cpt", "potential"):
        raise ModelError(f"model kind must be 'joint', 'cpt' or 'potential', got {kind!r}")


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


class _Block:
    """A distribution block as read so far. A block within MAX_TABLE_CELLS
    owns its table from the start, row-major, nan in each cell no row has
    listed (no row's value is nan); a block over the cap keeps only the set
    of the flat indices its rows listed, so its row faults come before
    finish's cap error and nothing table-sized is allocated."""

    def __init__(self, kind: str, scope: tuple[str, ...], cards: tuple[int, ...], lineno: int):
        self.kind, self.scope, self.cards, self.lineno = kind, scope, cards, lineno
        size = math.prod(cards)
        # no spellings for a table over the cap: _Builder.row takes each of its rows
        self.spelt = _spellings(cards) if size <= MAX_TABLE_CELLS else None
        self.cells = set() if self.spelt is None else array("d", [math.nan]) * size
        # a value in range: a probability, or a positive finite weight
        self.bounds = (math.ulp(0.0), sys.float_info.max) if kind == "potential" else (0.0, 1.0 + 1e-9)

    def take(self, line: str) -> bool:
        """Store `line` if it is a canonical row whose value is in range and
        whose cell holds no value yet; return whether it did. A canonical row
        is single-digit states in range, each followed by one space, then the
        value."""
        if self.spelt is None:
            return False
        head, cut, tail, width = self.spelt
        flat = head.get(line[:cut], -math.inf) + tail.get(line[cut:width], -math.inf)  # -inf: not canonical
        if flat < 0 or not math.isnan(self.cells[flat]):
            return False
        try:
            value = float(line[width:])  # the builder's float() of the same text
        except ValueError:
            return False
        lo, hi = self.bounds
        if not lo <= value <= hi:  # nan fails both
            return False
        self.cells[flat] = value
        return True

    def add(self, lineno: int, states: tuple[int, ...], value: float) -> None:
        """Store a row that _Builder.row checked, unless its cell holds a value."""
        flat = 0
        for state, card in zip(states, self.cards):
            flat = flat * card + state
        if self.spelt is None:
            listed = flat in self.cells
            self.cells.add(flat)
        else:
            listed = not math.isnan(self.cells[flat])
            self.cells[flat] = value
        if listed:
            raise ModelParseError(f"duplicate {self.kind} row {states!r}", lineno)

    def table(self) -> np.ndarray:
        """The block's table, zero where no row is listed, once its size
        passes the cap."""
        _check_cells(self.cards)
        arr = np.frombuffer(self.cells).reshape(self.cards)
        arr[np.isnan(arr)] = 0.0
        return arr


_SPELT_CELLS = 1024  # the most state rows in one spelling table of _spellings


@functools.lru_cache(maxsize=32)
def _spellings(cards: tuple[int, ...]) -> tuple[dict[str, int], int, dict[str, int], int]:
    """How _Block.take reads the states of a canonical row over these
    cardinalities: (head, cut, tail, width). The row's first `width`
    characters hold its states; they split at `cut` into a head and a tail,
    and the table of each maps every spelling of its states (single digits
    in range, each followed by one space) to its share of the flat index.
    The tables are cached and shared: callers only read them."""
    cut, tail = len(cards), 1
    while cut and tail * min(cards[cut - 1], 10) <= _SPELT_CELLS:
        cut -= 1
        tail *= min(cards[cut], 10)

    def spelt(part: tuple[int, ...], scale: int) -> dict[str, int]:
        table = {"": 0}
        for card in part:
            table = {key + f"{s} ": flat * card + s for key, flat in table.items() for s in range(min(card, 10))}
        return {key: flat * scale for key, flat in table.items()}

    return spelt(cards[:cut], math.prod(cards[cut:])), 2 * cut, spelt(cards[cut:], 1), 2 * len(cards)


class _Builder:
    def __init__(self):
        self.graph_kind: str | None = None
        self.variables: list[Variable] = []
        self.index: dict[str, int] = {}
        self.edges: dict[object, tuple[str, str]] = {}  # (a, b), or {a, b} when undirected -> (a, b)
        self.parents: dict[str, list[str]] = {}  # b -> each a of an edge a b, in file order
        self.defaults: dict[str, int] = {}
        self.blocks: list[_Block] = []  # the model's kind is its first block's
        self.cpt_nodes: set[str] = set()

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
            key = (a, b) if self.graph_kind == "directed" else frozenset((a, b))
            if key in self.edges:
                raise ModelParseError(f"duplicate edge ({a!r}, {b!r})", lineno)
            self.edges[key] = (a, b)
            self.parents.setdefault(b, []).append(a)
        elif head == "default":
            if len(tokens) != 3:
                raise ModelParseError("expected 'default <name> <state>'", lineno)
            name = tokens[1]
            self.require_var(name, lineno)
            state = _parse_int(tokens[2], lineno, "state")
            if not 0 <= state < self.card(name):
                raise ModelParseError(f"default state {state} out of range for {name!r}", lineno)
            self.defaults[name] = state
        else:  # parse_model passes keyword lines only: joint, cpt or potential
            self.open_block(lineno, *tokens)

    def open_block(self, lineno: int, kind: str, *args: str) -> None:
        if not self.variables:
            raise ModelParseError("distribution block before any variable", lineno)
        if self.blocks and self.blocks[0].kind != kind:
            raise ModelParseError(
                f"model already has a {self.blocks[0].kind!r} distribution; cannot mix with {kind!r}",
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
            if node in self.cpt_nodes:
                raise ModelParseError(f"duplicate cpt block for {node!r}", lineno)
            self.cpt_nodes.add(node)
            scope = (*sorted(self.parents.get(node, ()), key=self.index.__getitem__), node)
        else:
            scope = args
            if not scope:
                raise ModelParseError("a potential needs at least one variable", lineno)
            for n in scope:
                self.require_var(n, lineno)
            if len(set(scope)) != len(scope):
                raise ModelParseError("duplicate variable in potential scope", lineno)
        self.blocks.append(_Block(kind, scope, tuple(map(self.card, scope)), lineno))

    def row(self, lineno: int, tokens: list[str]) -> None:
        """A row that _Block.take did not take, checked token by token:
        stored, or refused at its first fault."""
        if not self.blocks:
            if not tokens[0].lstrip("-").isdigit():
                raise ModelParseError(f"unknown directive {tokens[0]!r}", lineno)
            raise ModelParseError("data row outside a distribution block", lineno)
        block = self.blocks[-1]
        kind, scope = block.kind, block.scope
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
        value = _parse_float(tokens[-1], lineno, noun)
        lo, hi = block.bounds
        if not lo <= value <= hi:  # nan fails both
            if kind != "potential":
                raise ModelParseError(f"probability {value!r} out of range", lineno)
            finite = "" if value < lo else " and finite"
            raise ModelParseError(f"potential weight must be positive{finite}, got {value!r}", lineno)
        block.add(lineno, tuple(states), value)

    def finish(self) -> ParsedModel:
        if self.graph_kind is None:
            raise ModelParseError("empty model: missing graph line", None)
        if not self.variables:
            raise ModelParseError("model declares no variables", None)
        try:
            graph = ModelGraph(self.graph_kind, [v.name for v in self.variables], self.edges.values())
        except ModelError as exc:
            raise ModelParseError(str(exc), None) from None
        if not self.blocks:
            raise ModelParseError("model has no distribution block", None)
        kind = self.blocks[0].kind
        if kind == "cpt":
            if graph.kind != "directed":
                raise ModelParseError("cpt models require a directed graph", None)
            missing = [n for n in graph.nodes if n not in self.cpt_nodes]
            if missing:
                raise ModelParseError(f"missing cpt blocks for {missing!r}", None)
        if kind == "potential" and graph.kind != "undirected":
            raise ModelParseError("potential models require an undirected graph", None)

        tables = []
        for block in self.blocks:
            scope, lineno, arr = block.scope, block.lineno, block.table()
            if kind == "joint":
                total = float(arr.sum())
                if abs(total - 1.0) > 1e-9:
                    raise ModelParseError(f"joint probabilities sum to {total!r}, not 1", lineno)
                arr = arr / total
            elif kind == "cpt":
                try:
                    arr = CPT(scope[-1], scope[:-1], arr)  # checks the row sums and normalizes each row exactly
                except ModelError as exc:
                    raise ModelParseError(str(exc), lineno) from None
            else:
                listed = np.count_nonzero(arr)  # every weight is positive: the listed cells
                if listed != arr.size:
                    raise ModelParseError(f"potential over {scope!r} lists {listed} of {arr.size} entries", lineno)
                for a, b in itertools.combinations(scope, 2):
                    if not graph.has_edge(a, b):
                        raise ModelParseError(f"potential scope {scope!r} is not a clique", lineno)
            tables.append((scope, arr))

        head = (kind, tuple(self.variables), graph, self.defaults)
        if kind == "joint":
            return ParsedModel(*head, joint_probs=tables[0][1])
        if kind == "cpt":
            return ParsedModel(*head, cpts={scope[-1]: cpt for scope, cpt in tables})
        return ParsedModel(*head, potentials=tables)


_KEYWORDS = frozenset({"graph", "var", "edge", "default", "joint", "cpt", "potential"})


def parse_model(text: str) -> ParsedModel:
    """Parse and validate a model file in one pass over its lines. Each
    block's table is allocated when the block opens, and every row is
    stored into it as it is read. Inside a block, `_Block.take` stores a
    canonical row (single-digit states in range, each followed by one
    space, then the value): its cell comes from one lookup of its state
    text, and its value from `float` of the rest. It takes no row whose
    value is out of range or whose cell already holds a value. Every line
    it does not take is split into tokens: a directive goes to
    `_Builder.directive`, and a row to `_Builder.row`, which stores it or
    raises at its first fault. Rows are seen in file order, so the first
    fault in the file is the one reported."""
    builder = _Builder()
    for lineno, line in enumerate(text.splitlines(), 1):
        if builder.blocks and builder.blocks[-1].take(line):
            continue
        tokens = line.split("#", 1)[0].split()
        if tokens and tokens[0] in _KEYWORDS:
            builder.directive(lineno, tokens)
        elif tokens:
            builder.row(lineno, tokens)
    return builder.finish()


def render_model(model: ParsedModel) -> str:
    """Canonical text for a parsed model; parse_model inverts it and the
    output is byte-stable for identical models."""
    _check_kind(model.kind)
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
