"""Batched evaluation against one-row evaluation and the explicit-sum oracle.

Every CR and P value comes from one kernel with one array path: it evaluates
a term at every row of a table at once (state arrays from ``grid``), and a
single assignment of plain int states is a 0-d batch of one row. These tests
check that a row and the grid agree exactly, that both agree with the oracle
in conftest, that one row gives a Python float, and that an undefined row is
reported with the same cause and assignment a row-by-row scan finds first.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

from crfactor import (
    Const,
    CRTerm,
    JointTable,
    Product,
    PTerm,
    Sum,
    UndefinedCRError,
    Variable,
    block,
    conditional_cr_value,
    conditional_prob,
    cr_value,
    eval_expr,
    parse_expr,
)
from crfactor.cli import verify_expression
from crfactor.cr import grid
from crfactor.randgen import random_joint_table
from crfactor.separation import CIQuery, ci_deviation, mutual_independence_deviation

from conftest import oracle_cr, oracle_event_prob

NAMES = ("A", "B", "C")


def zero_table() -> JointTable:
    """Seeded random table with zero entries: two of its eight rows vanish."""
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.05, 1.0, size=8)
    raw[[3, 6]] = 0.0
    return JointTable([Variable(n, 2) for n in NAMES], raw / raw.sum())


TABLES = {
    "positive": random_joint_table(NAMES, seed=11),
    "ternary": random_joint_table(NAMES, seed=12, cardinality=3),
    "zeros": zero_table(),
}

EXPRESSIONS = (
    "CR(A,B)",
    "CR(A,B C)^-1",
    "CR(A,A)",
    "CR(A=0,A)",
    "CR(A=1,A)^2",
    "CR(A B,A C)^-2",
    "CR(A,B=1,C)^3",
    "CR(A,B|C)",
    "CR(A,B|C=0)^-3",
    "CR(A C,B|C)",
    "P(A B|C)^-3",
    "P(A=1|B)^2",
    "P(A|A=0)",
    "P(A B C)",
    "sum_B[CR(A,B)·P(B)]",
    "sum_C[P(A|C)^-1·P(C)]",
    "CR(A,B,C)·P(A)·P(B)·P(C)",
    "2·CR(A,B=1)^-3·P(C)^-1",
)


def oracle_probs(table: JointTable) -> dict[tuple[int, ...], float]:
    return {states: float(table.probs[states]) for states in np.ndindex(table.probs.shape)}


def oracle_value(expr, probs, names, a: dict[str, int]) -> float:
    """Expression value from explicit sums only."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Product):
        out = 1.0
        for child in expr.children:
            out *= oracle_value(child, probs, names, a)
        return out
    if isinstance(expr, Sum):
        card = 1 + max(states[names.index(expr.over)] for states in probs)
        return sum(oracle_value(expr.child, probs, names, {**a, expr.over: s}) for s in range(card))

    def event(b):
        return {n: a[n] if s is None else s for n, s in b.members}

    def p(*events):  # P of the union of events, 0 when two of them disagree
        union: dict[str, int] = {}
        for ev in events:
            for k, v in ev.items():
                if union.setdefault(k, v) != v:
                    return 0.0
        return oracle_event_prob(probs, names, union)

    blocks = expr.blocks if isinstance(expr, CRTerm) else (expr.block,)
    events = [event(b) for b in blocks]
    c = event(expr.condition) if expr.condition is not None else {}
    if isinstance(expr, PTerm):
        base = p(c, *events) / p(c)
    elif not c:
        base = oracle_cr(probs, names, events) if p(*events) > 0.0 else 0.0
    else:
        base = p(c, *events) / p(c)
        for ev in events:
            base /= p(c, ev) / p(c)
    return base**expr.exponent


def first_undefined(expr, table):
    """(assignment, message) at the first row-major row where evaluating
    one row raises, or None."""
    for a in table.assignments():
        try:
            eval_expr(expr, table, a)
        except UndefinedCRError as exc:
            return a, str(exc)
    return None


@pytest.mark.parametrize("table_id", sorted(TABLES))
def test_grid_matches_rows_and_oracle(table_id):
    table = TABLES[table_id]
    probs = oracle_probs(table)
    rows = grid(table)
    defined = 0
    for text in EXPRESSIONS:
        expr = parse_expr(text)
        undefined = first_undefined(expr, table)
        if undefined is not None:
            a, message = undefined
            with pytest.raises(UndefinedCRError) as exc:
                eval_expr(expr, table, rows)
            assert str(exc.value) == f"{message} (at assignment {a!r})", text
            continue
        defined += 1
        batch = np.broadcast_to(eval_expr(expr, table, rows), table.probs.shape)
        for a in table.assignments():
            got = batch[tuple(a[n] for n in NAMES)]
            assert got == eval_expr(expr, table, a), (text, a)
            want = oracle_value(expr, probs, NAMES, a)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), (text, a)
    assert defined >= len(EXPRESSIONS) // 2


# Causes on the zero table ZT: only (A,B,C) = (0,0,0), (0,1,0), (1,0,0) have
# mass, so P(C=1) = 0 and P(A=1, B=1) = 0.
ZT = JointTable(
    [Variable(n, 2) for n in NAMES],
    np.array([0.2, 0.0, 0.3, 0.0, 0.5, 0.0, 0.0, 0.0]),
)


@pytest.mark.parametrize(
    "text, message, row",
    [
        # a cause that holds at every row
        ("CR(A,B|C=1)", "conditioning event (C=1) has probability zero", (0, 0, 0)),
        ("P(A|C=1)", "conditioning event has probability zero", (0, 0, 0)),
        ("CR(A,C)", "zero marginal for block (C)", (0, 0, 1)),
        ("CR(A,B|C)", "conditioning event (C) has probability zero", (0, 0, 1)),
        ("CR(A B,A|C=0)", "zero conditional marginal for block (A B)", (1, 1, 0)),
        ("P(A B)^-1", "zero raised to a negative exponent", (1, 1, 0)),
        ("CR(A=1,A)^-1", "zero raised to a negative exponent", (0, 0, 0)),
        ("CR(A,B)^2000", "CR(A,B)^2000 overflows", (0, 1, 0)),
        ("sum_C[CR(A,C)·P(C)]", "zero marginal for block (C)", (0, 0, 0)),
        # the first offending row wins over the order of the factors
        ("P(A B)^-1·CR(A,C)", "zero marginal for block (C)", (0, 0, 1)),
        # at one row, the first cause in evaluation order wins
        ("CR(A,B|C)·CR(A,C)", "conditioning event (C) has probability zero", (0, 0, 1)),
    ],
)
def test_undefined_rows_keep_their_cause(text, message, row):
    expr = parse_expr(text)
    a = dict(zip(NAMES, row))
    assert first_undefined(expr, ZT) == (a, message)
    with pytest.raises(UndefinedCRError) as exc:
        eval_expr(expr, ZT, grid(ZT))
    assert str(exc.value) == f"{message} (at assignment {a!r})"


def test_cr_value_wrappers_accept_grids():
    table = TABLES["ternary"]
    rows = grid(table)
    blocks = [block("A", ("B", 2)), block("C")]
    batch_cr = cr_value(table, blocks, rows)
    batch_ccr = conditional_cr_value(table, blocks[:1], block("C"), rows)
    batch_p = conditional_prob(table, block("A"), block("B", "C"), rows)
    for a in table.assignments():
        at = tuple(a[n] for n in NAMES)
        assert np.broadcast_to(batch_cr, table.probs.shape)[at] == cr_value(table, blocks, a)
        assert np.broadcast_to(batch_ccr, table.probs.shape)[at] == conditional_cr_value(
            table, blocks[:1], block("C"), a
        )
        assert np.broadcast_to(batch_p, table.probs.shape)[at] == conditional_prob(
            table, block("A"), block("B", "C"), a
        )


def test_grid_rows_are_row_major_in_the_given_order():
    table = TABLES["ternary"]
    rows = grid(table, ("C", "A", "C"))
    assert list(rows) == ["C", "A"]
    states = np.broadcast_arrays(rows["C"], rows["A"])
    flat = list(zip(states[0].ravel().tolist(), states[1].ravel().tolist()))
    assert flat == list(itertools.product(range(3), range(3)))


def test_batched_checks_match_row_loops():
    """Verification, the CI deviation and the mutual-independence deviation
    equal their row-by-row definitions exactly, including the choice of the
    worst row (the first with the largest absolute error)."""
    for table in TABLES.values():
        for text in ("CR(A,B)·P(A)·P(B)", "P(A)·P(B)·P(C)", "CR(A B,C)^2·P(A B)·P(C)"):
            expr = parse_expr(text)
            max_abs, max_rel, worst = 0.0, 0.0, None
            for a in table.assignments():
                err = abs(eval_expr(expr, table, a) - table.prob(a))
                max_rel = max(max_rel, err / max(abs(table.prob(a)), 1e-12))
                if worst is None or err > max_abs:
                    max_abs, worst = err, a
            report = verify_expression(expr, table)
            assert (report.max_abs_error, report.max_rel_error, report.worst_assignment) == (
                max_abs, max_rel, worst,
            )
            assert report.assignments_checked == table.probs.size

    query = CIQuery(("A",), ("C",), ("B",))
    for table in (*TABLES.values(), ZT):  # ZT has vanishing P(A, B)
        worst = 0.0
        for a in table.assignments():
            pz = table.event_prob({"B": a["B"]})
            pxz = table.event_prob({"A": a["A"], "B": a["B"]})
            pyz = table.event_prob({"B": a["B"], "C": a["C"]})
            pxyz = table.prob(a)
            if pz > 0.0:
                if pxz > 0.0 and pyz > 0.0:
                    worst = max(worst, abs(pxyz * pz / (pxz * pyz) - 1.0))
                else:
                    worst = max(worst, abs(pxyz * pz - pxz * pyz))
        assert ci_deviation(table, query) == worst

    table = TABLES["ternary"]
    worst = 0.0
    for a in table.assignments():
        pz = table.event_prob({"C": a["C"]})
        pxz = table.event_prob({"A": a["A"], "C": a["C"]})
        pyz = table.event_prob({"B": a["B"], "C": a["C"]})
        if pxz > 0.0 and pyz > 0.0:
            worst = max(worst, abs(table.prob(a) * pz / (pxz * pyz) - 1.0))
    assert mutual_independence_deviation(table, [("A",), ("B",)], ("C",)) == worst


def test_overflowing_product_is_inf_without_warning():
    # each factor is (1e-150)^-2 = 1e300; only their product leaves the float range
    table = JointTable([Variable("A", 2), Variable("B", 2)], [1e-150, 0.25, 0.25, 0.5 - 1e-150])
    expr = parse_expr("P(A=0 B=0)^-2·P(A=0 B=0)^-2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_expr(expr, table, {"A": 0, "B": 0}) == np.inf
        assert eval_expr(expr, table, grid(table)) == np.inf


def test_one_row_gives_a_float():
    """A 0-d batch must not leak out of a one-row entry point."""
    table = TABLES["ternary"]
    a = {"A": 1, "B": 2, "C": 0}
    values = [
        cr_value(table, [block("A"), block("B", "C")], a),
        conditional_cr_value(table, [block("A"), block("B")], block("C"), a),
        conditional_prob(table, block("A"), block("B"), a),
        table.prob(a),
        table.event_prob({"A": 1, "C": 0}),
        eval_expr(parse_expr("CR(A=0,A)"), table, a),
        eval_expr(parse_expr("CR(A,B)^-3"), table, a),
        eval_expr(parse_expr("sum_B[CR(A,B)·P(B)]"), table, a),
    ]
    for v in values:
        assert isinstance(v, float), type(v)
    assert values[5] == 0.0
