"""Factor expressions: products and sums of CR-terms and P-terms.

An expression tree built from five node kinds:

    Const(v)                  a literal constant
    CRTerm(blocks | cond)^k   a (conditional) co-occurrence rate
    PTerm(block | cond)^k     a (conditional) probability
    Product(children)         pointwise product
    Sum(var, child)           sum of the child over all states of one variable

Every factorization produced by this package is such a tree, and every
theorem rewrite transforms one tree into another of equal value.

The textual grammar (used by the CLI) renders blocks with spaces between
members and commas between blocks: ``CR(D,G)``, ``CR(D I,G)``, ``P(G|D I)``,
``P(B=0)``, exponents as ``^-1``, sums as ``sum_C[ ... ]`` and products with
a ``·`` separator (``*`` is accepted on input).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ExprParseError, ModelError
from .cr import Block, _remember, evaluate, settle, term_text
from .model import Assignment, JointTable

FactorExpr = Union["Const", "CRTerm", "PTerm", "Product", "Sum"]


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self):
        value = float(self.value)
        if not 0.0 <= value < np.inf:
            raise ModelError(f"a constant must be finite and non-negative, got {value!r}")
        object.__setattr__(self, "value", abs(value))  # -0.0 is stored as 0.0, which renders as "0"


ONE = Const(1.0)


@dataclass(frozen=True)
class CRTerm:
    blocks: tuple[Block, ...]
    condition: Block | None = None
    exponent: int = 1

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ModelError("a CR term needs at least one block")
        _check_exponent(self.exponent)

    @property
    def variables(self) -> set[str]:
        out = {n for b in self.blocks for n in b.vars}
        if self.condition is not None:
            out |= set(self.condition.vars)
        return out


@dataclass(frozen=True)
class PTerm:
    block: Block
    condition: Block | None = None
    exponent: int = 1

    def __post_init__(self):
        _check_exponent(self.exponent)

    @property
    def variables(self) -> set[str]:
        out = set(self.block.vars)
        if self.condition is not None:
            out |= set(self.condition.vars)
        return out


@dataclass(frozen=True)
class Product:
    children: tuple[FactorExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Sum:
    over: str
    child: FactorExpr

    def __post_init__(self):
        if not isinstance(self.over, str) or not self.over.isidentifier():
            raise ModelError(f"sum variable must be an identifier, got {self.over!r}")


def _check_exponent(exp) -> None:
    if not isinstance(exp, int) or exp == 0:
        raise ModelError(f"exponent must be a nonzero integer, got {exp!r}")


def cr_term(*blocks, condition=None, exponent: int = 1) -> CRTerm:
    """Convenience constructor accepting loose block specs.

    Each block may be a Block, a member spec, or a list of member specs:
    ``cr_term("A", ["B", ("C", 0)])`` is CR(A, B C=0).
    """
    return CRTerm(tuple(_as_block(b) for b in blocks), _as_block_opt(condition), exponent)


def p_term(blk, condition=None, exponent: int = 1) -> PTerm:
    return PTerm(_as_block(blk), _as_block_opt(condition), exponent)


def _as_block(spec) -> Block:
    if isinstance(spec, Block):
        return spec
    if isinstance(spec, str) or (isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[1], (int, type(None)))):
        return Block([spec])
    return Block(spec)


def _as_block_opt(spec) -> Block | None:
    return None if spec is None else _as_block(spec)


# ---------------------------------------------------------------------------
# Evaluation


def eval_expr(expr: FactorExpr, table: JointTable, assignment: Assignment):
    """Evaluate an expression at a full (or sufficient) assignment.

    Products multiply, sums range over all states of their variable
    (shadowing any outer binding), CR-terms and P-terms evaluate from the
    table and are raised to their exponents. States may be arrays, such as
    ``crfactor.cr.grid(table)``, giving one value per row. An undefined row
    raises UndefinedCRError (see ``crfactor.cr.settle``).

    Over ``grid(table)`` a term's or a product's value is memoized with the
    table and returned read-only; copy it before writing into it.
    """
    with np.errstate(all="ignore"):  # an undefined or overflowing row is a cause, not a warning
        value, causes = _evaluate(expr, table, assignment)
    return settle(value, causes, assignment)


def _evaluate(expr: FactorExpr, table: JointTable, assignment: Assignment):
    if isinstance(expr, Const):
        return expr.value, []
    if isinstance(expr, Product):
        # Over the table's own grid a product is memoized like its terms (see
        # crfactor.cr.evaluate).
        own = table._grid
        memoize = own is not None and all(assignment.get(n) is axis for n, axis in own.items())
        if memoize:
            memoized = table._term_memo.get(expr)
            if memoized is not None:
                return memoized
        out, causes = 1.0, []
        for child in expr.children:
            value, more = _evaluate(child, table, assignment)
            out = out * value
            causes += more
        return _remember(table, expr, out, causes) if memoize else (out, causes)
    if isinstance(expr, Sum):
        total, causes = 0.0, []
        inner = dict(assignment)
        for s in range(table.cardinality(expr.over)):
            inner[expr.over] = s
            value, more = _evaluate(expr.child, table, inner)
            total = total + value
            causes += more
        return total, causes
    if isinstance(expr, CRTerm):
        return evaluate(table, "CR", expr.blocks, expr.condition, assignment, expr.exponent)
    if isinstance(expr, PTerm):
        return evaluate(table, "P", (expr.block,), expr.condition, assignment, expr.exponent)
    raise ModelError(f"not a factor expression: {expr!r}")


def expr_variables(expr: FactorExpr) -> set[str]:
    """All variable names mentioned anywhere in the expression."""
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, (CRTerm, PTerm)):
        return set(expr.variables)
    if isinstance(expr, Product):
        out: set[str] = set()
        for child in expr.children:
            out |= expr_variables(child)
        return out
    if isinstance(expr, Sum):
        return expr_variables(expr.child) | {expr.over}
    raise ModelError(f"not a factor expression: {expr!r}")


def free_variables(expr: FactorExpr) -> set[str]:
    """Variables whose value must come from the evaluation assignment."""
    if isinstance(expr, Sum):
        return free_variables(expr.child) - {expr.over}
    if isinstance(expr, Product):
        out: set[str] = set()
        for child in expr.children:
            out |= free_variables(child)
        return out
    return expr_variables(expr)


def validate_scoping(expr: FactorExpr) -> None:
    """Reject expressions where a summed variable also occurs free outside
    its sum (the bound name would be ambiguous)."""

    def walk(e: FactorExpr) -> set[str]:
        # returns the free variables of e, checking sums on the way
        if isinstance(e, Sum):
            inner = walk(e.child)
            return inner - {e.over}
        if isinstance(e, Product):
            frees = [walk(c) for c in e.children]
            for i, c in enumerate(e.children):
                for v in _bound_vars(c):
                    for j, other in enumerate(frees):
                        if j != i and v in other:
                            raise ModelError(f"sum variable {v!r} also occurs free outside its sum")
            out: set[str] = set()
            for f in frees:
                out |= f
            return out
        return free_variables(e)

    walk(expr)


def _bound_vars(expr: FactorExpr) -> set[str]:
    if isinstance(expr, Sum):
        return {expr.over} | _bound_vars(expr.child)
    if isinstance(expr, Product):
        out: set[str] = set()
        for c in expr.children:
            out |= _bound_vars(c)
        return out
    return set()


# ---------------------------------------------------------------------------
# Rendering


def render(expr: FactorExpr) -> str:
    """Deterministic textual form; ``parse_expr`` inverts it."""
    if isinstance(expr, Const):
        text = f"{expr.value:g}"
        return text if float(text) == expr.value else repr(expr.value)
    if isinstance(expr, CRTerm):
        return term_text("CR", expr.blocks, expr.condition, expr.exponent)
    if isinstance(expr, PTerm):
        return term_text("P", (expr.block,), expr.condition, expr.exponent)
    if isinstance(expr, Product):
        if not expr.children:
            return "1"
        parts = []
        for child in expr.children:
            text = render(child)
            if isinstance(child, Product):
                text = f"({text})"
            parts.append(text)
        return "·".join(parts)
    if isinstance(expr, Sum):
        return f"sum_{expr.over}[{render(expr.child)}]"
    raise ModelError(f"not a factor expression: {expr!r}")


def product_of(exprs) -> FactorExpr:
    """Flat product of the given expressions (nested products are inlined,
    literal ones dropped)."""
    flat: list[FactorExpr] = []
    for e in exprs:
        if isinstance(e, Product):
            flat.extend(c for c in e.children if c != ONE)
        elif e != ONE:
            flat.append(e)
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+)
      | (?P<name>[A-Za-z_]\w*)
      | (?P<punct>[(),|\[\]=^·*-])
    )""",
    re.VERBOSE,
)

# Parentheses and sums nested deeper than this are refused before they exhaust the stack.
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExprParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, off = self.next()
        if val != value:
            raise ExprParseError(f"expected {value!r} at offset {off}, got {val!r}")

    def parse(self) -> FactorExpr:
        expr = self.product()
        kind, val, off = self.peek()
        if kind is not None:
            raise ExprParseError(f"unexpected trailing {val!r} at offset {off}")
        return expr

    def product(self) -> FactorExpr:
        factors = [self.factor()]
        while True:
            kind, val, _ = self.peek()
            if val in ("·", "*"):
                self.next()
                factors.append(self.factor())
            else:
                break
        flat: list[FactorExpr] = []
        for f in factors:
            if isinstance(f, Product):
                flat.extend(f.children)
            else:
                flat.append(f)
        return flat[0] if len(flat) == 1 else Product(tuple(flat))

    def factor(self) -> FactorExpr:
        kind, val, off = self.next()
        if kind == "number":
            if not np.isfinite(float(val)):
                raise ExprParseError(f"number {val!r} at offset {off} is out of the float range")
            return Const(float(val))
        if val == "(":
            return self.nested(off, ")")
        if kind == "name":
            if val in ("CR", "P"):
                self.expect("(")
                node = self.cr_or_p(val)
                self.expect(")")
                return self.with_exponent(node)
            if val.startswith("sum_") and len(val) > 4:
                self.expect("[")
                return Sum(val[4:], self.nested(off, "]"))
        raise ExprParseError(f"unexpected token {val!r} at offset {off}")

    def nested(self, off: int, close: str) -> FactorExpr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprParseError(f"parentheses and sums nest deeper than {MAX_NESTING} at offset {off}")
        inner = self.product()
        self.expect(close)
        self.depth -= 1
        return inner

    def cr_or_p(self, head: str) -> FactorExpr:
        blocks = [self.block()]
        while self.peek()[1] == ",":
            self.next()
            blocks.append(self.block())
        condition = None
        if self.peek()[1] == "|":
            self.next()
            condition = self.block()
        if head == "P":
            if len(blocks) != 1:
                raise ExprParseError("P takes exactly one block")
            return PTerm(blocks[0], condition)
        return CRTerm(tuple(blocks), condition)

    def block(self) -> Block:
        members: list[str | tuple[str, int]] = []
        while True:
            kind, val, off = self.peek()
            if kind != "name":
                break
            self.next()
            if self.peek()[1] == "=":
                self.next()
                skind, sval, soff = self.next()
                if skind != "number" or "." in sval or "e" in sval.lower():
                    raise ExprParseError(f"pinned state must be an integer at offset {soff}")
                members.append((val, int(sval)))
            else:
                members.append(val)
        if not members:
            kind, val, off = self.peek()
            raise ExprParseError(f"expected a block at offset {off}")
        try:
            return Block(members)
        except ModelError as exc:
            raise ExprParseError(str(exc)) from None

    def with_exponent(self, node: FactorExpr) -> FactorExpr:
        if self.peek()[1] != "^":
            return node
        self.next()
        sign = 1
        kind, val, off = self.next()
        if val == "-":
            sign = -1
            kind, val, off = self.next()
        if kind != "number" or "." in val or "e" in val.lower():
            raise ExprParseError(f"exponent must be an integer at offset {off}")
        exp = sign * int(val)
        if isinstance(node, CRTerm):
            return CRTerm(node.blocks, node.condition, exp)
        if isinstance(node, PTerm):
            return PTerm(node.block, node.condition, exp)
        raise ExprParseError("exponents apply to CR and P terms only")


def parse_expr(text: str) -> FactorExpr:
    """Parse the textual grammar back into an expression tree."""
    expr = _Parser(text).parse()
    validate_scoping(expr)
    return expr
