import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import crfactor
from crfactor import (
    Block,
    Const,
    CRTerm,
    ModelError,
    Product,
    PTerm,
    Sum,
    UndefinedCRError,
    Variable,
    JointTable,
    block,
    conditional_cr_value,
    cr_value,
    eval_expr,
)
from crfactor.randgen import random_joint_table

from conftest import D3_NAMES, D3_PROBS, assignments, oracle_cr, oracle_event_prob

A000 = {"A": 0, "B": 0, "C": 0}


def test_block_validation():
    with pytest.raises(ModelError):
        Block(["A", "A"])
    with pytest.raises(ModelError):
        Block([])
    with pytest.raises(ModelError):
        Block([("A", -1)])
    for state in (True, False):  # would render as A=True, which parse_expr refuses
        with pytest.raises(ModelError, match="pinned state for 'A' must be a non-negative integer"):
            Block([("A", state)])
    assert str(block("A", ("B", 0))) == "A B=0"


PICKLE_CHILD = """
import pickle, sys
from crfactor import block
b = block("A", ("B", 1))
if sys.argv[1] == "dump":
    hash(b)  # the block keeps this hash, which is stale under another hash seed
    with open(sys.argv[2], "wb") as f:
        pickle.dump((b, {b: "entry"}), f)
else:
    with open(sys.argv[2], "rb") as f:
        loaded, keyed = pickle.load(f)
    print({b: "fresh"}[loaded], keyed[b], loaded == b)
"""


def test_block_pickles_across_hash_seeds(tmp_path):
    """A block pickled under one hash seed and loaded under another finds
    the dict entry of an equal, freshly built block, and is found by one."""
    path = str(tmp_path / "block.pickle")
    src = str(Path(crfactor.__file__).parents[1])
    out = []
    for seed, mode in ((1, "dump"), (2, "load")):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        child = subprocess.run([sys.executable, "-c", PICKLE_CHILD, mode, path], env=env,
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        out.append(child.stdout)
    assert out == ["", "fresh entry True\n"]
    b = block("A", ("B", 1))
    hash(b)
    for twin, keyed in (copy.deepcopy((b, {b: "entry"})), pickle.loads(pickle.dumps((b, {b: "entry"})))):
        assert twin is not b and twin == b and str(twin) == "A B=1"
        assert {b: "fresh"}[twin] == "fresh" and keyed[b] == "entry"


def test_cr_independent_coins_is_one(coins_table):
    for a in assignments(coins_table):
        assert cr_value(coins_table, [block("A"), block("B")], a) == pytest.approx(1.0)


def test_cr_d2(d2_table):
    # 0.4 / (0.5 * 0.5), checked by hand
    got = cr_value(d2_table, [block("A"), block("B")], {"A": 0, "B": 0})
    assert got == pytest.approx(1.6)


def test_cr_d3_three_singletons(d3_table):
    # 0.36 / 0.125, checked by hand
    assert cr_value(d3_table, [block("A"), block("B"), block("C")], A000) == pytest.approx(2.88)


def test_cr_d3_grouping_changes_value(d3_table):
    # CR(AB, C) = 0.36 / (0.45 * 0.5): grouping A and B into one event
    got = cr_value(d3_table, [block("A", "B"), block("C")], A000)
    assert got == pytest.approx(1.6)
    assert got != pytest.approx(2.88)
    # the oracle agrees
    want = oracle_cr(D3_PROBS, D3_NAMES, [{"A": 0, "B": 0}, {"C": 0}])
    assert got == pytest.approx(want)


def test_cr_single_block_is_one(d3_table):
    for a in assignments(d3_table):
        assert cr_value(d3_table, [block("A", "B", "C")], a) == pytest.approx(1.0)


def test_cr_empty_block_list_undefined(d2_table):
    with pytest.raises(UndefinedCRError):
        cr_value(d2_table, [], {"A": 0, "B": 0})


def test_cr_zero_marginal_raises():
    table = JointTable([Variable("A", 2), Variable("B", 2)], [[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(UndefinedCRError):
        cr_value(table, [block("A"), block("B")], {"A": 1, "B": 0})


def test_cr_zero_numerator_is_zero():
    table = JointTable([Variable("A", 2), Variable("B", 2)], [[0.5, 0.0], [0.0, 0.5]])
    assert cr_value(table, [block("A"), block("B")], {"A": 0, "B": 1}) == 0.0


def test_cr_inconsistent_pins_give_zero(d2_table):
    got = cr_value(d2_table, [block(("A", 0)), block(("A", 1))], {})
    assert got == 0.0


def test_cr_repeated_variable_counts_once_in_numerator(d3_table):
    # CR(A, A) = P(A) / P(A)^2 = 1 / P(A)
    got = cr_value(d3_table, [block("A"), block("A")], A000)
    assert got == pytest.approx(2.0)


def test_unbound_free_variable_raises(d2_table):
    with pytest.raises(ModelError):
        cr_value(d2_table, [block("A"), block("B")], {"A": 0})


def test_conditional_cr_chain_independence(d3_table):
    for a in assignments(d3_table):
        got = conditional_cr_value(d3_table, [block("A"), block("C")], block("B"), a)
        assert got == pytest.approx(1.0)


def test_conditional_cr_empty_condition_degenerates(d2_table):
    a = {"A": 0, "B": 0}
    assert conditional_cr_value(d2_table, [block("A"), block("B")], None, a) == pytest.approx(
        cr_value(d2_table, [block("A"), block("B")], a)
    )


def test_conditional_cr_d3_pinned_condition(d3_table):
    # CR(A, B | C=0) at (0,0): oracle values P(AB|C=0)=0.72, P(A|C=0)=0.74,
    # P(B|C=0)=0.8, so 0.72 / (0.74 * 0.8) = 1.2162162...
    pc0 = oracle_event_prob(D3_PROBS, D3_NAMES, {"C": 0})
    pa = oracle_event_prob(D3_PROBS, D3_NAMES, {"A": 0, "C": 0}) / pc0
    pb = oracle_event_prob(D3_PROBS, D3_NAMES, {"B": 0, "C": 0}) / pc0
    pab = oracle_event_prob(D3_PROBS, D3_NAMES, {"A": 0, "B": 0, "C": 0}) / pc0
    want = pab / (pa * pb)
    assert want == pytest.approx(1.2162162162162162)
    got = conditional_cr_value(d3_table, [block("A"), block("B")], block(("C", 0)), {"A": 0, "B": 0})
    assert got == pytest.approx(want)


def test_conditional_cr_zero_condition_raises():
    table = JointTable([Variable("A", 2), Variable("B", 2)], [[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(UndefinedCRError):
        conditional_cr_value(table, [block("B")], block(("A", 1)), {"B": 0})


def test_conditional_prob_wrapper(d2_table):
    got = eval_expr(PTerm(block("B"), block("A")), d2_table, {"A": 0, "B": 0})
    assert got == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# The partition identity P = CR(b_1, ..., b_n)·P(b_1)···P(b_n) for any
# partition of the variables into blocks, and marginal elimination
# sum_x CR(..., x)·P(x) = CR(...), each side an expression.


def reconstruction(blocks) -> Product:
    """CR(blocks)·P(b_1)···P(b_n): the joint whenever the blocks partition
    the table's variables."""
    return Product((CRTerm(tuple(blocks)), *(PTerm(b) for b in blocks)))


def marginal_sides(blocks, drop: str) -> tuple[Sum, CRTerm | Const]:
    """sum_x CR(blocks)·P(x) and CR(blocks without x), where x, the
    variable `drop`, is one of the blocks; CR of no blocks is 1."""
    rest = tuple(b for b in blocks if b != Block([drop]))
    return Sum(drop, Product((CRTerm(tuple(blocks)), PTerm(Block([drop]))))), CRTerm(rest) if rest else Const(1)


def test_reconstruct_d2(d2_table):
    got = eval_expr(reconstruction([block("A"), block("B")]), d2_table, {"A": 0, "B": 0})
    assert got == pytest.approx(0.4)


def test_reconstruct_single_block_returns_entry(d3_table):
    for a in assignments(d3_table):
        got = eval_expr(reconstruction([block("A", "B", "C")]), d3_table, a)
        assert got == pytest.approx(d3_table.prob(a))


def test_reconstruct_d3(d3_table):
    got = eval_expr(reconstruction([block("A"), block("B"), block("C")]), d3_table, A000)
    assert got == pytest.approx(0.36)


def test_marginal_cr_two_vars_collapses_to_one(d2_table):
    lhs, rhs = (eval_expr(e, d2_table, {"A": 0}) for e in marginal_sides([block("A"), block("B")], "B"))
    assert rhs == pytest.approx(1.0)
    assert lhs == pytest.approx(rhs)


def test_marginal_cr_d3_drop_c(d3_table):
    sides = marginal_sides([block("A"), block("B"), block("C")], "C")
    lhs, rhs = (eval_expr(e, d3_table, {"A": 0, "B": 0}) for e in sides)
    assert rhs == pytest.approx(cr_value(d3_table, [block("A"), block("B")], {"A": 0, "B": 0}))
    assert lhs == pytest.approx(rhs)


def test_marginal_cr_independent_coins(coins_table):
    lhs, rhs = (eval_expr(e, coins_table, {"A": 1}) for e in marginal_sides([block("A"), block("B")], "B"))
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Properties on seeded random tables


def _random_partition(rng, names):
    k = rng.randint(1, len(names))
    labels = [rng.randrange(k) for _ in names]
    while len(set(labels)) != k:
        labels = [rng.randrange(k) for _ in names]
    groups = [[] for _ in range(k)]
    for n, l in zip(names, labels):
        groups[l].append(n)
    return [Block(g) for g in groups]


def test_commutativity_under_permutations():
    rng = random.Random(42)
    for trial in range(30):
        n = rng.randint(2, 4)
        names = tuple(f"v{i}" for i in range(n))
        table = random_joint_table(names, seed=trial)
        blocks = _random_partition(rng, names)
        for a in assignments(table):
            base = cr_value(table, blocks, a)
            perm = list(blocks)
            rng.shuffle(perm)
            assert cr_value(table, perm, a) == pytest.approx(base, rel=1e-12)


def test_reconstruction_property():
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(2, 4)
        names = tuple(f"v{i}" for i in range(n))
        table = random_joint_table(names, seed=1000 + trial)
        blocks = _random_partition(rng, names)
        for a in assignments(table):
            assert eval_expr(reconstruction(blocks), table, a) == pytest.approx(table.prob(a), rel=1e-9)


def test_duplicate_divides_by_marginal():
    rng = random.Random(11)
    for trial in range(20):
        names = ("x", "y", "z")
        table = random_joint_table(names, seed=2000 + trial)
        blocks = [block("x"), block("y"), block("z")]
        var = rng.choice(names)
        for a in assignments(table):
            base = cr_value(table, blocks, a)
            doubled = cr_value(table, blocks + [block(var)], a)
            assert doubled == pytest.approx(base / table.event_prob({var: a[var]}), rel=1e-9)


def test_conditional_cr_identity():
    # CR(blocks | x) * prod_b CR(b, x) == CR(blocks + [x])
    for trial in range(20):
        names = ("x", "y", "z")
        table = random_joint_table(names, seed=3000 + trial)
        blocks = [block("y"), block("z")]
        cond = block("x")
        for a in assignments(table):
            lhs = conditional_cr_value(table, blocks, cond, a)
            for b in blocks:
                lhs *= cr_value(table, [b, cond], a)
            rhs = cr_value(table, blocks + [cond], a)
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_marginal_cr_property_random_tables():
    rng = random.Random(5)
    for trial in range(20):
        names = tuple(f"v{i}" for i in range(rng.randint(2, 4)))
        table = random_joint_table(names, seed=4000 + trial)
        blocks = [Block([n]) for n in names]
        drop = rng.choice(names)
        outer = {n: rng.randrange(2) for n in names if n != drop}
        lhs, rhs = (eval_expr(e, table, outer) for e in marginal_sides(blocks, drop))
        assert lhs == pytest.approx(rhs, rel=1e-9)
