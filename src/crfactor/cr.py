"""Numeric co-occurrence rate evaluation straight from the definition.

The co-occurrence rate of a list of blocks b_1, ..., b_n is

    CR(b_1, ..., b_n) = P(b_1, ..., b_n) / (P(b_1) ... P(b_n)),

where each block is a group of variables treated as a single joint event.
The grouping matters: CR(A,B,C) and CR(A,BC) differ, although the numerator
event is the same. A block member is either free (its state is read from the
evaluation assignment) or pinned to a fixed state.

One kernel, ``evaluate``, computes the value of every CR and P term, at one
assignment or at a batch of them given as state arrays. It is the semantic
ground truth that the symbolic layer in ``expr``/``rewrites`` is tested
against. (The numeric independence deviation in ``separation`` reads the
table's cached marginals directly.)
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
    at most once within a block.
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[BlockMemberSpec]):
        norm: list[tuple[str, int | None]] = []
        seen = set()
        for m in members:
            if isinstance(m, str):
                name, state = m, None
            else:
                name, state = m
                if state is not None and (not isinstance(state, int) or state < 0):
                    raise ModelError(f"pinned state for {name!r} must be a non-negative integer")
            _check_name(name)
            if name in seen:
                raise ModelError(f"variable {name!r} appears twice in one block")
            seen.add(name)
            norm.append((name, state))
        if not norm:
            raise ModelError("a block needs at least one member")
        self.members = tuple(norm)

    @classmethod
    def _of(cls, members: tuple[tuple[str, int | None], ...]) -> "Block":
        """A block of members taken from valid blocks, no variable twice:
        their names and states are not checked again."""
        if not members:
            raise ModelError("a block needs at least one member")
        block = object.__new__(cls)
        block.members = members
        return block

    @property
    def vars(self) -> tuple[str, ...]:
        return tuple([name for name, _ in self.members])

    @property
    def free_vars(self) -> tuple[str, ...]:
        return tuple(name for name, state in self.members if state is None)

    def restrict(self, names: Iterable[str]) -> "Block":
        keep = set(names)
        return Block._of(tuple([m for m in self.members if m[0] in keep]))

    def __eq__(self, other):
        return isinstance(other, Block) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __str__(self):
        return " ".join(n if s is None else f"{n}={s}" for n, s in self.members)

    def __repr__(self):
        return f"Block({list(self.members)!r})"


def _check_name(name) -> str:
    """`name` if it is an identifier, the only valid block member name."""
    if not isinstance(name, str) or not name.isidentifier():
        raise ModelError(f"block member name must be an identifier, got {name!r}")
    return name


def _repeated(names: Iterable[str]) -> str | None:
    """The first name that occurs earlier in `names`, or None."""
    seen: set[str] = set()
    for n in names:
        if n in seen:
            return n
        seen.add(n)
    return None


def block(*members: BlockMemberSpec) -> Block:
    """Convenience constructor: ``block("A", ("B", 0))``."""
    return Block(members)


BlockList = Sequence[Block]


def grid(table: JointTable, names: Iterable[str] | None = None) -> dict[str, np.ndarray]:
    """Every assignment of `names` (default: the table's variables) as sparse
    state arrays that broadcast together, row-major in the given order.

    Without `names` the arrays are the table's own read-only axes, the same
    on every call, and the terms and products evaluated over them are
    memoized (see ``evaluate``)."""
    if names is None:
        return dict(table._own_grid())
    names = tuple(dict.fromkeys(names))
    return dict(zip(names, np.indices([table.cardinality(n) for n in names], sparse=True)))


def _prob(table: JointTable, blocks: BlockList, assignment: Assignment):
    """P of the union of blocks as one event; 0 where two occurrences of a
    variable disagree."""
    event: dict = {}
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


_pow_each = np.frompyfunc(_pow, 2, 1)


def _holds(mask) -> bool:
    """Whether a bool mask holds at some row: an array's any(), a scalar's
    own truth value."""
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

    States are integer arrays that broadcast over the table's axes (a batch,
    see ``grid``); a plain int is a 0-d batch, one row. Also returns the
    causes that leave rows undefined, as (bool or bool array, message) pairs
    in the order one row meets them.

    Over the table's own grid (``grid(table)``) a term is evaluated once: its
    read-only value and its causes, as a tuple, are memoized with the table.
    """
    blocks = tuple(blocks)
    if kind == "CR" and not blocks:
        raise UndefinedCRError("CR of an empty block list is undefined")
    own, key = table._grid, None
    if own is not None and all(
        state is not None or (n in own and assignment.get(n) is own[n])
        for b in (cond, *blocks) if b for n, state in b.members
    ):
        key = (kind, blocks, cond, exponent)
        memoized = table._term_memo.get(key)
        if memoized is not None:
            return memoized
    causes: list = []
    with np.errstate(all="ignore"):  # a row that divides by zero or leaves the float range is a cause
        head, pc = (), None
        if cond is not None:
            head, pc = (cond,), _prob(table, (cond,), assignment)
            _note(causes, pc == 0.0, "conditioning event{} has probability zero", f" ({cond})" if kind == "CR" else "")
        value = _div(_prob(table, head + blocks, assignment), pc)
        if kind == "CR":
            what = "marginal" if cond is None else "conditional marginal"
            denom, marginals = 1.0, []
            for b in blocks:
                p = _div(_prob(table, head + (b,), assignment), pc)
                _note(causes, p == 0.0, "zero {} for block ({})", what, b)
                denom = denom * p
                marginals.append(p)
            quotient = _div(value, denom)
            # Marginals are at most 1, so their product cannot overflow, but positive
            # ones can underflow to 0: on those rows divide by one at a time.
            lost = denom == 0.0
            if _holds(lost):
                stepwise = value
                for p in marginals:
                    lost = lost & (p > 0.0)
                    stepwise = _div(stepwise, p)
                quotient = np.where(lost, stepwise, quotient)
            value = quotient
        if exponent != 1:
            _note(causes, exponent < 0 and value == 0.0, "zero raised to a negative exponent")
            base = value
            if np.ndim(base):
                value = np.asarray(_pow_each(base, exponent), dtype=float)
            else:  # one row: the same Python float power, without the object array
                value = np.float64(_pow(float(base), exponent))
            overflow = (value == math.inf) & (base != math.inf)
            if _holds(overflow):  # the term's text is built only when it is needed
                causes.append((overflow, f"{term_text(kind, blocks, cond, exponent)} overflows"))
    if key is None:
        return value, causes
    return _remember(table, key, value, causes)


def _remember(table: JointTable, key, value, causes: Sequence):
    """Memoize a value over the table's own grid, read-only, with its causes
    as a tuple; returns the stored pair. Terms and products are stored so."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    table._term_memo[key] = memoized = value, tuple(causes)
    return memoized


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
    return settle(*evaluate(table, "CR", blocks, None, assignment), assignment)


def conditional_cr_value(
    table: JointTable, blocks: BlockList, cond: Block | None, assignment: Assignment
) -> float:
    """CR(b_1, ..., b_n | c) = P(b_1..b_n | c) / prod_i P(b_i | c).

    An absent or empty condition degenerates to the plain CR. Raises
    UndefinedCRError when P(c) = 0 or any conditional marginal P(b_i | c)
    is zero.
    """
    return settle(*evaluate(table, "CR", blocks, cond, assignment), assignment)


def conditional_prob(table: JointTable, target: Block, given: Block | None, assignment: Assignment) -> float:
    """P(target | given) for block events at an assignment. Raises
    UndefinedCRError when P(given) = 0; a target contradicting the
    conditioning event has conditional probability 0."""
    return settle(*evaluate(table, "P", (target,), given, assignment), assignment)


def reconstruct_joint(table: JointTable, blocks: BlockList, assignment: Assignment) -> float:
    """CR(blocks) * prod_i P(b_i): equals P(assignment) whenever the blocks
    partition the table's variables."""
    value = cr_value(table, blocks, assignment)
    for b in blocks:
        value *= evaluate(table, "P", (b,), None, assignment)[0]
    return value


def marginal_cr_check(
    table: JointTable, blocks: BlockList, drop_var: str, assignment: Assignment
) -> tuple[float, float]:
    """Both sides of the marginal-elimination identity

        sum_x CR(..., x) P(x) = CR(...)

    where x ranges over the states of `drop_var`, which must occur in
    `blocks` as a singleton free block. Returns (lhs, rhs); with a single
    remaining empty list the right side is 1 by convention CR(x) = 1.
    """
    blocks = tuple(blocks)
    if Block([drop_var]) not in blocks:
        raise ModelError(f"{drop_var!r} does not occur as a singleton free block")
    target = blocks.index(Block([drop_var]))
    lhs = 0.0
    for s in range(table.cardinality(drop_var)):
        a = dict(assignment)
        a[drop_var] = s
        lhs += cr_value(table, blocks, a) * table.event_prob({drop_var: s})
    rest = blocks[:target] + blocks[target + 1 :]
    rhs = cr_value(table, rest, assignment) if rest else 1.0
    return lhs, rhs
