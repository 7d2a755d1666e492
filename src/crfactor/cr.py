"""Numeric co-occurrence rate evaluation straight from the definition.

The co-occurrence rate of a list of blocks b_1, ..., b_n is

    CR(b_1, ..., b_n) = P(b_1, ..., b_n) / (P(b_1) ... P(b_n)),

where each block is a group of variables treated as a single joint event.
The grouping matters: CR(A,B,C) and CR(A,BC) differ, although the numerator
event is the same. A block member is either free (its state is read from the
evaluation assignment) or pinned to a fixed state.

One kernel, ``evaluate``, computes every CR and P value in the package, at
one assignment or at a batch of them given as state arrays. It is the
semantic ground truth that the symbolic layer in ``expr``/``rewrites`` is
tested against.
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
            if not isinstance(name, str) or not name.isidentifier():
                raise ModelError(f"block member name must be an identifier, got {name!r}")
            if name in seen:
                raise ModelError(f"variable {name!r} appears twice in one block")
            seen.add(name)
            norm.append((name, state))
        if not norm:
            raise ModelError("a block needs at least one member")
        self.members = tuple(norm)

    @property
    def vars(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.members)

    @property
    def free_vars(self) -> tuple[str, ...]:
        return tuple(name for name, state in self.members if state is None)

    def restrict(self, names: Iterable[str]) -> "Block":
        keep = set(names)
        return Block([m for m in self.members if m[0] in keep])

    def __eq__(self, other):
        return isinstance(other, Block) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __str__(self):
        return " ".join(n if s is None else f"{n}={s}" for n, s in self.members)

    def __repr__(self):
        return f"Block({list(self.members)!r})"


def block(*members: BlockMemberSpec) -> Block:
    """Convenience constructor: ``block("A", ("B", 0))``."""
    return Block(members)


BlockList = Sequence[Block]


def grid(table: JointTable, names: Iterable[str] | None = None) -> dict[str, np.ndarray]:
    """Every assignment of `names` (default: the table's variables) as sparse
    state arrays that broadcast together, row-major in the given order."""
    names = table.names if names is None else tuple(dict.fromkeys(names))
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
    if den is None:
        return num
    with np.errstate(all="ignore"):
        return np.divide(num, den)


def _pow(base: float, exponent: int) -> float:
    """Python's float power; rows where it fails carry a cause."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf
    except ZeroDivisionError:
        return math.nan


_pow_each = np.frompyfunc(_pow, 2, 1)


def _note(causes: list, mask, message: str, *args) -> None:
    if isinstance(mask, np.ndarray) or mask:
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
) -> tuple[object, list]:
    """The one evaluation kernel: CR(blocks | cond)^exponent for kind "CR",
    P(blocks | cond)^exponent (blocks read as one event) for kind "P".

    States are integer arrays that broadcast over the table's axes (a batch,
    see ``grid``); a plain int is a 0-d batch, one row. Also returns the
    causes that leave rows undefined, as (bool or bool array, message) pairs
    in the order one row meets them.
    """
    blocks = tuple(blocks)
    if kind == "CR" and not blocks:
        raise UndefinedCRError("CR of an empty block list is undefined")
    causes: list = []
    head, pc = (), None
    if cond is not None:
        head, pc = (cond,), _prob(table, (cond,), assignment)
        _note(causes, pc == 0.0, "conditioning event{} has probability zero", f" ({cond})" if kind == "CR" else "")
    value = _div(_prob(table, head + blocks, assignment), pc)
    if kind == "CR":
        what = "marginal" if cond is None else "conditional marginal"
        denom = 1.0
        for b in blocks:
            p = _div(_prob(table, head + (b,), assignment), pc)
            _note(causes, p == 0.0, "zero {} for block ({})", what, b)
            denom = denom * p
        value = _div(value, denom)
    if exponent != 1:
        _note(causes, exponent < 0 and value == 0.0, "zero raised to a negative exponent")
        base = value
        with np.errstate(all="ignore"):  # numpy reports the flag an overflowing pow sets
            value = np.asarray(_pow_each(base, exponent), dtype=float)
        overflow = (value == math.inf) & (base != math.inf)
        _note(causes, overflow, "{} overflows", term_text(kind, blocks, cond, exponent))
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
