"""Batched evaluation against one-row evaluation and the explicit-sum oracle.

Every CR and P value comes from one kernel with one array path: it evaluates
a term at every row of a table at once (state arrays from ``grid``), and a
single assignment of plain int states is a 0-d batch of one row. These tests
check that a row and the grid agree exactly, that both agree with the oracle
in conftest, that one row gives a Python float, and that an undefined row is
reported with the same cause and assignment a row-by-row scan finds first.
A term evaluated over a table's own grid is memoized with the table; the
last tests check that a memo hit changes no value, no error and no array.
"""

from __future__ import annotations

import contextlib
import itertools
import warnings

import numpy as np
import pytest

from crfactor import (
    Block,
    Const,
    CRTerm,
    GibbsModel,
    JointTable,
    Product,
    PTerm,
    Sum,
    UndefinedCRError,
    Variable,
    block,
    conditional_cr_value,
    cr_value,
    eval_expr,
    factorize_tcg,
    is_tcg,
    mrf_factorize,
    parse_expr,
    product_of,
    rmrf_factorize,
)
from crfactor import expr as expr_module
from crfactor.cli import verify_expression
from crfactor.cr import evaluate, grid, settle
from crfactor.randgen import make_graph, random_gibbs_model, random_joint_table
from crfactor.separation import CIQuery, ci_deviation, mutual_independence_deviation

from conftest import assignments, oracle_cr, oracle_event_prob

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
    for a in assignments(table):
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
        for a in assignments(table):
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
    batch_p = eval_expr(PTerm(block("A"), block("B", "C")), table, rows)
    for a in assignments(table):
        at = tuple(a[n] for n in NAMES)
        assert np.broadcast_to(batch_cr, table.probs.shape)[at] == cr_value(table, blocks, a)
        assert np.broadcast_to(batch_ccr, table.probs.shape)[at] == conditional_cr_value(
            table, blocks[:1], block("C"), a
        )
        assert np.broadcast_to(batch_p, table.probs.shape)[at] == eval_expr(
            PTerm(block("A"), block("B", "C")), table, a
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
            for a in assignments(table):
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
        for a in assignments(table):
            pz = table.event_prob({"B": a["B"]})
            pxz = table.event_prob({"A": a["A"], "B": a["B"]})
            pyz = table.event_prob({"B": a["B"], "C": a["C"]})
            pxyz = table.prob(a)
            if pz > 0.0:
                if pxz > 0.0 and pyz > 0.0:
                    worst = max(worst, abs(pxyz / pxz * pz / pyz - 1.0))
                else:
                    worst = max(worst, abs(pxyz * pz - pxz * pyz))
        assert ci_deviation(table, query) == worst

    table = TABLES["ternary"]
    worst = 0.0
    for a in assignments(table):
        pz = table.event_prob({"C": a["C"]})
        pxz = table.event_prob({"A": a["A"], "C": a["C"]})
        pyz = table.event_prob({"B": a["B"], "C": a["C"]})
        if pxz > 0.0 and pyz > 0.0:
            worst = max(worst, abs(table.prob(a) / pxz * pz / pyz - 1.0))
    assert mutual_independence_deviation(table, [("A",), ("B",)], ("C",)) == worst


def _deviation_case(seed: int):
    """5-7 variables of cardinality 2-3 with cells of 0 and of 1e-120 (each
    both scattered and over a whole two-variable slice, so that some group
    marginals vanish or are tiny), and 2-4 disjoint groups plus a z drawn as
    random subsets (so groups interleave in table order), each listed in a
    shuffled order."""
    rng = np.random.default_rng(seed)
    n = 5 + seed % 3
    names = [f"v{i}" for i in range(n)]
    cards = rng.integers(2, 4, size=n).tolist()
    arr = rng.uniform(0.05, 1.0, size=cards)
    cell = rng.uniform(size=cards)
    arr[cell < 0.15] = 0.0
    arr[cell > 0.85] = 1e-120
    for fill in (0.0, 1e-120):
        a, b = rng.choice(n, size=2, replace=False)
        index = [slice(None)] * n
        index[a], index[b] = rng.integers(cards[a]), rng.integers(cards[b])
        arr[tuple(index)] = fill
    table = JointTable([Variable(v, c) for v, c in zip(names, cards)], arr / arr.sum())
    k = 2 + seed % 3
    role = rng.permutation(list(range(k)) + rng.integers(-2, k, size=n - k).tolist())  # -2: z, -1: unused
    members = {r: [v for v, rv in zip(names, role) if rv == r] for r in range(-2, k)}
    groups = [tuple(rng.permutation(members[r]).tolist()) for r in range(k)]
    return table, groups, tuple(rng.permutation(members[-2]).tolist())


def _row_loop_deviation(table, groups, z):
    """max |P(z, g_1..g_k) / P(z, g_1) · P(z) / P(z, g_2) ... - 1|, left to
    right, over the rows of the named variables where every P(z, g_i) > 0."""
    names = list(dict.fromkeys([*z, *itertools.chain(*groups)]))
    worst = 0.0
    for states in itertools.product(*(range(table.cardinality(v)) for v in names)):
        row = dict(zip(names, states))

        def p(*parts):
            return table.event_prob({v: row[v] for part in parts for v in part})

        pz, marginals = p(z), [p(z, g) for g in groups]
        if all(m > 0.0 for m in marginals):
            dev = p(z, *groups) / marginals[0]
            for m in marginals[1:]:
                dev = dev * pz / m
            worst = max(worst, abs(dev - 1.0))
    return worst


def test_deviations_match_row_loops_on_interleaved_groups():
    """Both deviations equal, with ==, a row loop doing the same operations
    in the same order, on tables with vanishing and 1e-120 cells, groups
    that interleave in table order, a z out of table order, and names that
    two groups, or a group and z, share: such a name takes one state in all
    of them (ci_reduce on CR(A B,A C) cites x = (A, B), y = (C,), z = (A,);
    independence on CR(A,A) cites the groups (A,) and (A,))."""
    cases = [_deviation_case(seed) for seed in range(30)]
    shared = [
        ([("v0", "v1"), ("v2",)], ("v0",)),
        ([("v3",), ("v3",)], ()),
        ([("v4", "v1"), ("v1", "v0"), ("v2",)], ("v2", "v0")),
    ]
    cases += [(table, groups, z) for table, _, _ in cases[:10] for groups, z in shared]
    for table, groups, z in cases:
        worst = _row_loop_deviation(table, groups, z)
        assert mutual_independence_deviation(table, groups, z) == worst
        names = [*itertools.chain(*groups), *z]
        if len(groups) == 2 and len(set(names)) == len(names):
            assert ci_deviation(table, CIQuery(*groups, z)) == worst
    # the cases cover what they claim
    order = {f"v{i}": i for i in range(7)}
    spans = [[(order[min(g, key=order.get)], order[max(g, key=order.get)]) for g in groups] for _, groups, _ in cases]
    assert any(lo1 < hi2 and lo2 < hi1 for s in spans for (lo1, hi1), (lo2, hi2) in itertools.combinations(s, 2))
    assert any(list(z) != sorted(z, key=order.get) for _, _, z in cases)
    assert {len(groups) for _, groups, _ in cases} == {2, 3, 4}
    assert any((t.probs == 0.0).any() and (t.probs < 1e-100).any() for t, _, _ in cases)


def test_overflowing_product_is_inf_without_warning():
    # each factor is (1e-150)^-2 = 1e300; only their product leaves the float range
    table = JointTable([Variable("A", 2), Variable("B", 2)], [1e-150, 0.25, 0.25, 0.5 - 1e-150])
    expr = parse_expr("P(A=0 B=0)^-2·P(A=0 B=0)^-2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_expr(expr, table, {"A": 0, "B": 0}) == np.inf
        assert eval_expr(expr, table, grid(table)) == np.inf


def test_underflowing_marginal_product_divides_one_marginal_at_a_time():
    # P(0,0,0) = 1e-150, P(0,1,0) = 1e-200, P(0,1,1) = 1e-300, the rest at (1,1,1):
    # at A=0, B=1 the marginals P(A B) and P(A C) are positive, but their product
    # (1e-350 at C=0, 1e-500 at C=1) underflows to 0
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0], probs[0, 1, 0], probs[0, 1, 1] = 1e-150, 1e-200, 1e-300
    probs[1, 1, 1] = 1.0 - probs.sum()
    table = JointTable([Variable(n, 2) for n in NAMES], probs)
    cr, inverse_square = parse_expr("CR(A B,A C)"), parse_expr("CR(A B,A C)^-2")
    rows = {"A": 0, "B": 1, "C": np.array([0, 1])}  # every row of the grid is defined here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at = {"A": 0, "B": 1, "C": 0}
        assert eval_expr(cr, table, at) == pytest.approx(1e150, rel=1e-12)
        assert eval_expr(inverse_square, table, at) == pytest.approx(1e-300, rel=1e-12)
        for expr in (cr, inverse_square):
            batch = eval_expr(expr, table, rows)
            for c in (0, 1):
                assert batch[c] == eval_expr(expr, table, {"A": 0, "B": 1, "C": c})
        assert eval_expr(cr, table, {"A": 0, "B": 1, "C": 1}) == pytest.approx(1e200, rel=1e-12)


def test_one_row_gives_a_float():
    """A 0-d batch must not leak out of a one-row entry point."""
    table = TABLES["ternary"]
    a = {"A": 1, "B": 2, "C": 0}
    values = [
        cr_value(table, [block("A"), block("B", "C")], a),
        conditional_cr_value(table, [block("A"), block("B")], block("C"), a),
        eval_expr(PTerm(block("A"), block("B")), table, a),
        table.prob(a),
        table.event_prob({"A": 1, "C": 0}),
        eval_expr(parse_expr("CR(A=0,A)"), table, a),
        eval_expr(parse_expr("CR(A,B)^-3"), table, a),
        eval_expr(parse_expr("sum_B[CR(A,B)·P(B)]"), table, a),
    ]
    for v in values:
        assert isinstance(v, float), type(v)
    assert values[5] == 0.0


# ---------------------------------------------------------------------------
# The term memo over a table's own grid


def subnormal_path6() -> JointTable:
    """A path:6 Gibbs table whose default row P(a..f = 0) is below 1e-310:
    the mrf and rmrf products overflow there, tcg's stays in range."""
    g = make_graph("path:6")
    tiny = np.array([[1e-155, 1.0], [1.0, 1.0]])
    potentials = {**random_gibbs_model(g, seed=16).potentials, ("a", "b"): tiny, ("b", "c"): tiny}
    return GibbsModel([Variable(n, 2) for n in g.nodes], g, potentials).to_joint()


MEMO_CASES = [f"{spec}/{card}" for spec in ("er:7:0.4", "path:7", "cycle:6") for card in (2, 3)]


def memo_case(case: str) -> tuple[JointTable, object]:
    """A Gibbs table and its graph: `spec/card`, or the subnormal path:6 table."""
    if case == "path:6/subnormal":
        return subnormal_path6(), make_graph("path:6")
    spec, card = case.split("/")
    g = make_graph(spec, seed=0)
    return random_gibbs_model(g, seed=int(card), cardinality=int(card)).to_joint(), g


def memo_expressions(table, g):
    # The products depend only on the graph and the default, so they are
    # built on the uniform table over the same variables: on the subnormal
    # table the mrf and rmrf products overflow, and their factorizers raise.
    uniform = JointTable(table.variables, np.full(table.probs.shape, 1.0 / table.probs.size))
    exprs = [product_of(mrf_factorize(uniform, g).values()), rmrf_factorize(uniform, g)]
    if is_tcg(g).ok:
        exprs.append(factorize_tcg(uniform, g).expr)
    for u, v in g.edges[:4]:
        rest = [n for n in table.names if n not in (u, v)]
        exprs.append(CRTerm((Block([u]), Block([v])), Block(rest)))
        exprs.append(CRTerm((Block([u, (rest[0], 1)]), Block([v])), Block([(n, 0) for n in rest[1:]]), -2))
    return exprs


def outcome(expr, table, rows):
    """The value's bytes over the whole grid, or the error's class and message."""
    try:
        value = eval_expr(expr, table, rows)
    except UndefinedCRError as exc:
        return type(exc).__name__, str(exc)
    return np.broadcast_to(value, table.probs.shape).tobytes()


@pytest.mark.parametrize("case", [*MEMO_CASES, "path:6/subnormal"])
def test_memo_hits_equal_fresh_evaluation_bit_for_bit(case):
    """The mrf, rmrf and (on a TCG) tcg products and conditional CR terms,
    over grid(table) (filled, then hit) and over grid(twin, twin.names) of a
    twin table that never hands out its own grid, so nothing is memoized.
    The memo then holds each distinct term and each distinct product."""
    built, g = memo_case(case)
    exprs = memo_expressions(built, g)
    table = JointTable(built.variables, built.probs)  # nothing memoized yet
    twin = JointTable(built.variables, built.probs)
    for expr in exprs:
        for term in (expr.children if isinstance(expr, Product) else (expr,)):
            first = outcome(term, table, grid(table))
            assert outcome(term, table, grid(table)) == first
            assert outcome(term, twin, grid(twin, twin.names)) == first, (case, term)
    memoized = len(table._term_memo)
    assert memoized > 0
    for expr in exprs:
        first = outcome(expr, table, grid(table))
        assert outcome(expr, table, grid(table)) == first
        assert outcome(expr, twin, grid(twin, twin.names)) == first, (case, expr)
    products = {expr for expr in exprs if isinstance(expr, Product)}
    assert products and all(expr in table._term_memo for expr in products)
    assert len(table._term_memo) == memoized + len(products)  # the products reuse their terms' values
    assert twin._term_memo == {}


def term_outcome(term, table, rows):
    """`outcome` of one CR or P term straight from the kernel, with no
    eval_expr around it."""
    kind, blocks = ("CR", term.blocks) if isinstance(term, CRTerm) else ("P", (term.block,))
    try:
        value = settle(*evaluate(table, kind, blocks, term.condition, rows, term.exponent), rows)
    except UndefinedCRError as exc:
        return type(exc).__name__, str(exc)
    return np.broadcast_to(value, np.broadcast_shapes(*map(np.shape, rows.values()))).tobytes()


ZT_TEXTS = (  # EXPRESSIONS and the texts of test_undefined_rows_keep_their_cause
    *EXPRESSIONS,
    "CR(A,B|C=1)", "P(A|C=1)", "CR(A,C)", "CR(A,B|C)", "CR(A B,A|C=0)", "P(A B)^-1", "CR(A=1,A)^-1",
    "CR(A,B)^2000", "sum_C[CR(A,C)·P(C)]", "P(A B)^-1·CR(A,C)", "CR(A,B|C)·CR(A,C)",
)


@pytest.mark.parametrize("case", [*MEMO_CASES, "path:6/subnormal", "ZT"])
def test_no_floating_point_error_escapes_the_kernel(case):
    """Under an outer np.errstate(all="raise"), every expression and each of
    its terms, over the grid and at the first row, gives the same bytes or
    the same UndefinedCRError as under the default error state."""
    if case == "ZT":
        built, exprs = ZT, [parse_expr(text) for text in ZT_TEXTS]
    else:
        built, g = memo_case(case)
        exprs = memo_expressions(built, g)
    first_row = {n: 0 for n in built.names}
    outcomes = []
    for strict in (False, True):
        table = JointTable(built.variables, built.probs)  # nothing memoized yet
        got = []
        with np.errstate(all="raise") if strict else contextlib.nullcontext():
            for expr in exprs:
                for rows in (grid(table), first_row):
                    got.append(outcome(expr, table, rows))
                    for term in (expr.children if isinstance(expr, Product) else (expr,)):
                        if isinstance(term, (CRTerm, PTerm)):
                            got.append(term_outcome(term, table, rows))
        outcomes.append(got)
    assert outcomes[0] == outcomes[1]
    assert any(isinstance(o, tuple) for o in outcomes[0]) == (case in ("ZT", "path:6/subnormal"))


def test_memo_hit_raises_the_same_error():
    table, twin = (JointTable(ZT.variables, ZT.probs) for _ in range(2))  # nothing memoized yet
    expr = parse_expr("P(A B)^-1·CR(A,C)")
    messages = []
    for t, rows in ((table, grid(table)), (table, grid(table)), (twin, grid(twin, twin.names))):
        with pytest.raises(UndefinedCRError) as exc:
            eval_expr(expr, t, rows)
        messages.append(str(exc.value))
    assert messages == ["zero marginal for block (C) (at assignment {'A': 0, 'B': 0, 'C': 1})"] * 3
    assert len(table._term_memo) == 3 and twin._term_memo == {}  # two terms and their product


def test_cr_term_built_with_a_list_of_blocks_hits_the_memo():
    """A CR term keeps its blocks as a tuple, so one built with a list
    equals its tuple form and its product keys the memo as any other."""
    table = random_joint_table(NAMES, seed=11)
    twin = JointTable(table.variables, table.probs)
    listed = Product((CRTerm([block("A"), block("B")]), PTerm(block("C"), exponent=-1)))
    tupled = product_of([CRTerm((block("A"), block("B"))), PTerm(block("C"), exponent=-1)])
    assert listed == tupled and hash(listed) == hash(tupled)
    want = outcome(tupled, twin, grid(twin, NAMES))
    assert outcome(listed, table, grid(table)) == want
    assert listed in table._term_memo and len(table._term_memo) == 3
    assert outcome(tupled, table, grid(table)) == want
    assert len(table._term_memo) == 3


def test_memo_values_and_grid_axes_are_read_only():
    table = random_joint_table(NAMES, seed=11)
    rows = grid(table)
    assert rows is not grid(table) and all(rows[n] is grid(table)[n] for n in NAMES)
    terms = [
        ("P", (block("A", "B"),), None, 1),  # a view of the cached marginal
        ("P", (block("A", "B"),), None, -1),
        ("CR", (block("A"), block("B")), block("C"), 1),
    ]
    for kind, blocks, cond, exponent in terms:
        value, causes = evaluate(table, kind, blocks, cond, rows, exponent)
        assert isinstance(causes, tuple)
        assert evaluate(table, kind, blocks, cond, rows, exponent)[0] is value
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0.0
    for axis in rows.values():
        with pytest.raises(ValueError, match="read-only"):
            axis[...] = 0
    # a user batch is evaluated afresh, into an array of its own
    fresh = eval_expr(parse_expr("P(A B)^-1"), table, grid(table, NAMES))
    fresh[...] = 0.0


def test_mrf_then_verify_reads_each_distinct_term_once(monkeypatch):
    """mrf_factorize settles the Markov check on its own product over the
    grid, and verify_expression reads that product's value from the memo
    without calling the kernel again."""
    g = make_graph("path:10")
    table = random_gibbs_model(g, seed=1).to_joint()
    kernel_calls, reads = [], []
    kernel, event_prob = expr_module.evaluate, JointTable.event_prob

    def counting_kernel(*args, **kwargs):
        kernel_calls.append(args[1:4])
        return kernel(*args, **kwargs)

    def counting_event_prob(self, event):
        reads.append(tuple(event))
        return event_prob(self, event)

    monkeypatch.setattr(expr_module, "evaluate", counting_kernel)
    monkeypatch.setattr(JointTable, "event_prob", counting_event_prob)
    expr = product_of(mrf_factorize(table, g).values())
    assert len(kernel_calls) == len(expr.children)
    assert verify_expression(expr, table).passed
    assert len(kernel_calls) == len(expr.children)
    # each term is an unconditioned P term, which reads the table once
    distinct = {(t.block, t.condition, t.exponent) for t in expr.children}
    assert all(isinstance(t, PTerm) and t.condition is None for t in expr.children)
    assert len(reads) == len(distinct) < len(expr.children)
    assert len(table._term_memo) == len(distinct) + 1 and expr in table._term_memo
