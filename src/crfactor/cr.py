"""Numeric co-occurrence rate evaluation straight from the definition.

The co-occurrence rate of a list of blocks b_1, ..., b_n is

    CR(b_1, ..., b_n) = P(b_1, ..., b_n) / (P(b_1) ... P(b_n)),

where each block is a group of variables treated as a single joint event.
The grouping matters: CR(A,B,C) and CR(A,BC) differ, although the numerator
event is the same. A block member is either free (its state is read from the
evaluation assignment) or pinned to a fixed state.

One kernel, ``evaluate``, computes the value of every CR and P term, at one
assignment or over the table's grid. It is the semantic ground truth that
the symbolic layer in ``expr``/``rewrites`` is tested against. (The numeric
independence deviation in ``separation`` reads the table's cached marginals
directly.)

The kernel runs under its caller's ``np.errstate(all="ignore")`` (held by
``eval_expr``, ``cr_value`` and ``conditional_cr_value``), so an undefined row
is a cause, never a warning. A power is Python's float power at each row: for
some doubles ``x ** -1`` differs from ``1 / x`` and ``np.power(x, -1)``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ModelError, UndefinedCRError
from .model import Assignment, JointTable

BlockMemberSpec = Union[str, tuple[str, int]]


class Block:
    """An ordered group of variables forming one joint event.

    Members are (name, state) pairs; state ``None`` marks a free variable
    whose value comes from the evaluation assignment. A variable may appear
    at most once within a block. The hash is computed on first use and kept;
    a pickled block is rebuilt from its members, so it hashes anew.
    """

    __slots__ = ("members", "_hash")

    def __init__(self, members: Iterable[BlockMemberSpec]):
        norm: list[tuple[str, int | None]] = []
        seen = set()
        for m in members:
            if isinstance(m, str):
                name, state = m, None
            else:
                name, state = m
                if state is not None and (type(state) is not int or state < 0):  # a bool would render as A=True
                    raise ModelError(f"pinned state for {name!r} must be a non-negative integer")
            _check_name(name)
            if name in seen:
                raise ModelError(f"variable {name!r} appears twice in one block")
            seen.add(name)
            norm.append((name, state))
        if not norm:
            raise ModelError("a block needs at least one member")
        self.members = tuple(norm)
        self._hash = None

    @classmethod
    def _of(cls, members: tuple[tuple[str, int | None], ...]) -> "Block":
        """A block of members taken from valid blocks, no variable twice: not checked again."""
        if not members:
            raise ModelError("a block needs at least one member")
        block = object.__new__(cls)
        block.members = members
        block._hash = None
        return block

    @property
    def vars(self) -> tuple[str, ...]:
        return tuple([name for name, _ in self.members])

    def restrict(self, names: Iterable[str]) -> "Block":
        keep = set(names)
        return Block._of(tuple([m for m in self.members if m[0] in keep]))

    def __eq__(self, other):
        return isinstance(other, Block) and self.members == other.members

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.members)
        return self._hash

    def __reduce__(self):
        return Block, (self.members,)

    def __str__(self):
        return " ".join([n if s is None else f"{n}={s}" for n, s in self.members])

    def __repr__(self):
        return f"Block({list(self.members)!r})"


def _check_name(name) -> str:
    """`name` if it is an identifier, the only valid block member name."""
    if not isinstance(name, str) or not name.isidentifier():
        raise ModelError(f"block member name must be an identifier, got {name!r}")
    return name


def block(*members: BlockMemberSpec) -> Block:
    """Convenience constructor: ``block("A", ("B", 0))``."""
    return Block(members)


BlockList = Sequence[Block]


def grid(table: JointTable) -> dict[str, np.ndarray]:
    """Every assignment of the table's variables as the table's own
    read-only sparse axes, which broadcast together row-major in table
    order. The arrays are the same on every call, and an expression
    evaluated over them is memoized (see ``crfactor.expr.eval_expr``)."""
    return dict(table._grid)


def _prob(table: JointTable, event: dict, blocks: BlockList, assignment: Assignment):
    """P of `event` with the blocks' members added to it, as one event; 0
    where two occurrences of a variable disagree."""
    conflict = False
    for b in blocks:
        for name, state in b.members:
            if state is None:
                if name not in assignment:
                    raise ModelError(f"free variable {name!r} is not bound by the assignment")
                state = assignment[name]
            first = event.setdefault(name, state)
            if first is not state:
                conflict = conflict | (first != state)
    p = table.event_prob(event)
    return p if conflict is False else np.where(conflict, 0.0, p)


def _div(num, den):
    """num / den, or num when den is None; rows where den is zero carry a cause."""
    return num if den is None else np.divide(num, den)


def _pow(base: float, exponent: int) -> float:
    """Python's float power; rows where it fails carry a cause."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf
    except ZeroDivisionError:
        return math.nan


def _holds(mask) -> bool:
    """Whether a bool mask, an array or a scalar, holds at some row."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _note(causes: list, mask, message: str, *args) -> None:
    """Record a cause if it holds at some row."""
    if _holds(mask):
        causes.append((mask, message.format(*args)))


def term_text(kind: str, blocks: BlockList, cond: Block | None = None, exponent: int = 1) -> str:
    """Textual form of a CR or P term, e.g. ``CR(A,B C|D)^-1``."""
    inner = ",".join(str(b) for b in blocks) + ("" if cond is None else f"|{cond}")
    return f"{kind}({inner})" + ("" if exponent == 1 else f"^{exponent}")


def evaluate(
    table: JointTable,
    kind: str,
    blocks: BlockList,
    cond: Block | None,
    assignment: Assignment,
    exponent: int = 1,
) -> tuple[object, Sequence]:
    """The one evaluation kernel: CR(blocks | cond)^exponent for kind "CR",
    P(blocks | cond)^exponent (blocks read as one event) for kind "P".

    Each state is a plain int or the variable's axis of ``grid(table)``
    (see ``JointTable.event_prob``): plain ints give one row, axes a batch of
    rows that broadcast over the table's shape. Also returns the causes that
    leave rows undefined, as (bool or bool array, message) pairs in the order
    one row meets them. Call it under ``np.errstate(all="ignore")``.
    """
    blocks = tuple(blocks)
    if kind == "CR" and not blocks:
        raise UndefinedCRError("CR of an empty block list is undefined")
    causes: list = []
    head, pc = {}, None  # the condition's event, walked once and copied for every other read
    if cond is not None:
        pc = _prob(table, head, (cond,), assignment)
        _note(causes, pc == 0.0, "conditioning event{} has probability zero", f" ({cond})" if kind == "CR" else "")
    value = _div(_prob(table, dict(head), blocks, assignment), pc)
    if kind == "CR":
        marginals = [_div(_prob(table, dict(head), (b,), assignment), pc) for b in blocks]
        for b, p in zip(blocks, marginals):
            _note(causes, p == 0.0, "zero {}marginal for block ({})", "" if cond is None else "conditional ", b)
        # Marginals are at most 1, so their product cannot overflow, but positive
        # ones can underflow to 0: on those rows divide by one at a time.
        denom = math.prod(marginals)
        stepwise, value = value, _div(value, denom)
        lost = denom == 0.0
        if _holds(lost):
            for p in marginals:
                lost = lost & (p > 0.0)
                stepwise = _div(stepwise, p)
            value = np.where(lost, stepwise, value)
    if exponent != 1:
        base = value
        if np.ndim(base):  # Python's float power at each row, as at one row
            values = list(map(_pow, base.ravel().tolist(), [exponent] * base.size))
            value = np.array(values).reshape(base.shape)
            finite = math.isfinite(sum(values))  # a sum that overflows only costs the checks below
        else:
            value = np.float64(_pow(float(base), exponent))
            finite = math.isfinite(value)
        if not finite:  # a zero base to a negative power reads nan, an overflow inf
            _note(causes, exponent < 0 and base == 0.0, "zero raised to a negative exponent")
            overflow = (value == math.inf) & (base != math.inf)
            if _holds(overflow):  # the term's text is built only when it is needed
                causes.append((overflow, f"{term_text(kind, blocks, cond, exponent)} overflows"))
    return value, causes


def settle(value, causes: Sequence, assignment: Assignment):
    """The value (a float for one row), or UndefinedCRError for the first
    cause holding at the first row-major row where any holds; over a batch
    it names the row."""
    if causes:
        shape = np.broadcast_shapes(*map(np.shape, assignment.values()), *(np.shape(m) for m, _ in causes))
        hit = np.zeros(shape, dtype=bool)
        for mask, _ in causes:
            hit |= mask
        if hit.any():
            row = np.unravel_index(int(np.argmax(hit)), shape)
            message = next(msg for mask, msg in causes if np.broadcast_to(mask, shape)[row])
            if shape:
                at = {n: int(np.broadcast_to(s, shape)[row]) for n, s in assignment.items()}
                message += f" (at assignment {at!r})"
            raise UndefinedCRError(message)
    return value if np.ndim(value) else float(value)


def cr_value(table: JointTable, blocks: BlockList, assignment: Assignment) -> float:
    """CR(b_1, ..., b_n) evaluated at an assignment.

    A repeated variable is counted once in the numerator event and once per
    occurrence in the denominator. With a single block the value is 1 (up to
    rounding). Raises UndefinedCRError on an empty block list or when any
    denominator marginal is zero; a zero numerator over positive denominators
    yields 0.
    """
    with np.errstate(all="ignore"):  # an undefined row is a cause, not a warning
        return settle(*evaluate(table, "CR", blocks, None, assignment), assignment)


def conditional_cr_value(
    table: JointTable, blocks: BlockList, cond: Block | None, assignment: Assignment
) -> float:
    """CR(b_1, ..., b_n | c) = P(b_1..b_n | c) / prod_i P(b_i | c).

    An absent or empty condition degenerates to the plain CR. Raises
    UndefinedCRError when P(c) = 0 or any conditional marginal P(b_i | c)
    is zero.
    """
    with np.errstate(all="ignore"):
        return settle(*evaluate(table, "CR", blocks, cond, assignment), assignment)
