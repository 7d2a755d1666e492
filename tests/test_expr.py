import random

import pytest
from hypothesis import given, settings, strategies as st

from crfactor import (
    Block,
    Const,
    CRTerm,
    ExprParseError,
    ModelError,
    PTerm,
    Product,
    Sum,
    UndefinedCRError,
    block,
    cr_term,
    cr_value,
    eval_expr,
    expr_variables,
    free_variables,
    p_term,
    parse_expr,
    product_of,
    render,
)
from crfactor.expr import validate_scoping
from crfactor.randgen import random_joint_table


def test_const_eval(d2_table):
    assert eval_expr(Const(1), d2_table, {}) == 1.0
    assert eval_expr(Const(0.25), d2_table, {}) == 0.25


def test_product_eval_matches_reconstruction(d2_table):
    e = product_of([cr_term("A", "B"), p_term("A"), p_term("B")])
    assert eval_expr(e, d2_table, {"A": 0, "B": 0}) == pytest.approx(0.4)


def test_sum_eval_marginalizes(d3_table):
    # sum_C CR(A,C) P(C) = CR(A) = 1
    e = Sum("C", Product((cr_term("A", "C"), p_term("C"))))
    assert eval_expr(e, d3_table, {"A": 0}) == pytest.approx(1.0)


def test_sum_shadows_outer_binding(d3_table):
    e = Sum("C", p_term("C"))
    # the outer C binding must not leak into the sum
    assert eval_expr(e, d3_table, {"C": 1}) == pytest.approx(1.0)


def test_exponent_eval(d2_table):
    e = cr_term("A", "B", exponent=-1)
    got = eval_expr(e, d2_table, {"A": 0, "B": 0})
    assert got == pytest.approx(1 / 1.6)


def test_zero_to_negative_exponent_is_undefined():
    table = random_joint_table(("A", "B"), seed=0)
    e = CRTerm((block(("A", 0)), block(("A", 1))), exponent=-1)
    with pytest.raises(UndefinedCRError):
        eval_expr(e, table, {})


def test_pterm_conditional_eval(d3_table):
    e = p_term("B", condition="A")
    assert eval_expr(e, d3_table, {"A": 0, "B": 0}) == pytest.approx(0.9)


def test_node_validation():
    with pytest.raises(ModelError):
        CRTerm(())
    with pytest.raises(ModelError):
        CRTerm((block("A"),), exponent=0)
    with pytest.raises(ModelError):
        PTerm(block("A"), exponent=0)
    # render could not write these back: the grammar has no sign and no inf
    for value in (-1.0, -1e-300, float("inf"), float("nan")):
        with pytest.raises(ModelError):
            Const(value)


@pytest.mark.parametrize(
    "expr, text",
    [
        (cr_term("D", "G"), "CR(D,G)"),
        (cr_term(["D", "I"], "G"), "CR(D I,G)"),
        (cr_term("y1", "y2", condition="X"), "CR(y1,y2|X)"),
        (p_term("G", condition=["D", "I"]), "P(G|D I)"),
        (p_term(("B", 0)), "P(B=0)"),
        (cr_term("A", "B", exponent=-1), "CR(A,B)^-1"),
        (p_term("A", exponent=2), "P(A)^2"),
        (Sum("C", Product((cr_term("A", "B", condition="C"), p_term("C")))), "sum_C[CR(A,B|C)·P(C)]"),
        (Product((p_term("D"), p_term("I"))), "P(D)·P(I)"),
        (Const(1), "1"),
        (Const(0.5), "0.5"),
        (cr_term([("W", 1), "a"], "b"), "CR(W=1 a,b)"),
        (Const(1e-5), "1e-05"),
        (Const(0.1234567), "0.1234567"),
        (Const(123456789), "123456789.0"),
        (Const(-0.0), "0"),
    ],
)
def test_render_exact(expr, text):
    assert render(expr) == text


def test_render_parse_round_trip_battery():
    exprs = [
        cr_term("D", "G"),
        cr_term(["D", "I"], "G", exponent=-2),
        p_term("G", condition=["D", "I"]),
        p_term(("B", 0), condition=[("X", 1), "Y"]),
        Product((cr_term("A", "B"), p_term("A"), p_term("B"))),
        Sum("C", Product((cr_term("A", "B", condition="C"), cr_term("A", "C"), p_term("C")))),
        Const(2.5),
        Const(-0.0),
        Product((Const(1), cr_term("A", "B"))),
    ]
    for e in exprs:
        assert parse_expr(render(e)) == e


def test_parse_accepts_whitespace_and_star():
    e = parse_expr("CR( D , G ) * P( G | D I )")
    assert e == Product((cr_term("D", "G"), p_term("G", condition=["D", "I"])))


def test_parse_flattens_nested_products():
    e = parse_expr("(P(A)·P(B))·P(C)")
    assert e == Product((p_term("A"), p_term("B"), p_term("C")))
    # nesting up to the cap parses; one level more is in test_parse_errors
    assert parse_expr("(" * 100 + "P(A)" + ")" * 100) == p_term("A")
    deep = p_term("A")
    for _ in range(100):
        deep = Sum("A", deep)
    assert parse_expr("sum_A[" * 100 + "P(A)" + "]" * 100) == deep


@pytest.mark.parametrize(
    "text",
    [
        "CR()",
        "CR(A,,B)",
        "P(A,B)",
        "CR(A,B",
        "sum_C[CR(A,B)",
        "CR(A,B)^x",
        "CR(A,B)^1.5",
        "(P(A))^2",
        "Q(A)",
        "CR(A=z,B)",
        "P(A) P(B)",
        "",
        "1e999",
        "2·CR(A,B)·1e400",
        pytest.param("(" * 101 + "P(A)" + ")" * 101, id="101 parentheses"),
        pytest.param("sum_A[" * 101 + "P(A)" + "]" * 101, id="101 sums"),
        pytest.param("(sum_A[" * 50 + "(P(A))" + "])" * 50, id="101 parentheses and sums"),
    ],
)
def test_parse_errors(text):
    with pytest.raises(ExprParseError):
        parse_expr(text)


def test_parse_rejects_ambiguous_sum_scope():
    with pytest.raises(ModelError):
        parse_expr("sum_C[P(C)]·P(C)")


def test_validate_scoping_accepts_disjoint_sums():
    validate_scoping(parse_expr("sum_C[P(C)]·sum_C[CR(A,C)·P(C)]"))


def test_expr_variables_and_free_variables():
    e = parse_expr("sum_C[CR(A,B|C)·P(C)]·P(B=0)")
    assert expr_variables(e) == {"A", "B", "C"}
    assert free_variables(e) == {"A", "B"}


def test_unknown_variable_raises(d2_table):
    with pytest.raises(ModelError):
        eval_expr(p_term("Z"), d2_table, {"Z": 0})


def test_random_round_trips():
    rng = random.Random(9)
    names = ["A", "B", "C", "x1", "y2"]

    def rand_block():
        k = rng.randint(1, 3)
        chosen = rng.sample(names, k)
        return Block([n if rng.random() < 0.7 else (n, rng.randrange(2)) for n in chosen])

    def rand_term():
        exp = rng.choice([1, 1, -1, 2])
        if rng.random() < 0.5:
            blocks = tuple(rand_block() for _ in range(rng.randint(1, 3)))
            cond = rand_block() if rng.random() < 0.3 else None
            try:
                return CRTerm(blocks, cond, exp)
            except ModelError:
                return Const(1)
        return PTerm(rand_block(), rand_block() if rng.random() < 0.3 else None, exp)

    for _ in range(60):
        e = product_of([rand_term() for _ in range(rng.randint(1, 4))])
        assert parse_expr(render(e)) == e


NAMES = st.sampled_from(["A", "B", "C", "x1"])
BLOCKS = st.lists(st.tuples(NAMES, st.none() | st.integers(0, 3)), min_size=1, max_size=3,
                  unique_by=lambda m: m[0]).map(Block)
EXPONENTS = st.integers(-4, 4).filter(bool)
CONSTS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Const)
TERMS = st.one_of(
    CONSTS,
    st.builds(CRTerm, st.lists(BLOCKS, min_size=1, max_size=3).map(tuple), st.none() | BLOCKS, EXPONENTS),
    st.builds(PTerm, BLOCKS, st.none() | BLOCKS, EXPONENTS),
)


def _expressions(inner):
    # the parser's normal form: a product has two or more children, none a product
    factor = st.one_of(TERMS, st.builds(Sum, NAMES, inner))
    return factor | st.lists(factor, min_size=2, max_size=4).map(lambda cs: Product(tuple(cs)))


def _well_scoped(e) -> bool:
    try:
        validate_scoping(e)
    except ModelError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.recursive(TERMS, _expressions, max_leaves=8).filter(_well_scoped))
def test_render_parse_round_trip_property(e):
    assert parse_expr(render(e)) == e


# Pieces of the grammar, and of its near misses, for text the parser must refuse cleanly.
_TOKENS = (
    "CR", "P", "sum_A", "sum_1", "A", "B", "x1", "(", ")", "[", "]", ",", "|", "=", "^", "-",
    "·", "*", "0", "1", "2", "1.5", "1e400", ".", " ", "!", "\n",
    "P(A)", "CR(A,B)", "CR(A B,A=1|B)", "^2", "^-1", "sum_A[", "P(A|B=0)",
)


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=40) | st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join))
def test_parse_expr_raises_only_parse_and_model_errors(text):
    """Any text parses or raises ExprParseError; ModelError comes only from a
    tree the node rules refuse (a zero exponent, a sum over a non-identifier
    or over a variable also free outside it). The CLI maps both to exit 4."""
    try:
        parse_expr(text)
    except (ExprParseError, ModelError):
        pass


def test_product_of_drops_ones_and_flattens():
    e = product_of([Const(1), Product((p_term("A"), Const(1))), p_term("B")])
    assert e == Product((p_term("A"), p_term("B")))
    assert product_of([p_term("A")]) == p_term("A")


def test_eval_matches_cr_core_on_random_tables(d3_table):
    rng = random.Random(21)
    for _ in range(20):
        names = list(d3_table.names)
        rng.shuffle(names)
        k = rng.randint(1, 3)
        groups = [names[i::k] for i in range(k) if names[i::k]]
        term = CRTerm(tuple(Block(g) for g in groups))
        for a in d3_table.assignments():
            assert eval_expr(term, d3_table, a) == pytest.approx(
                cr_value(d3_table, term.blocks, a), rel=1e-12
            )
