import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crfactor import (
    CPT,
    JointTable,
    ModelError,
    ModelParseError,
    ParsedModel,
    PreconditionError,
    build_joint_from_cpts,
    parse_model,
    render_model,
)
from crfactor.randgen import random_joint_table, random_model

from conftest import DATA


def test_minimal_joint_file():
    model = parse_model("graph undirected\nvar A 2\njoint\n0 0.3\n1 0.7\n")
    table = model.joint()
    assert table.prob({"A": 0}) == pytest.approx(0.3)
    assert table.prob({"A": 1}) == pytest.approx(0.7)


def test_student_file():
    model = parse_model((DATA / "student.model").read_text())
    assert model.kind == "cpt"
    assert model.graph.kind == "directed"
    assert len(model.graph.nodes) == 5
    assert len(model.graph.edges) == 4
    table = model.joint()
    assert float(table.probs.sum()) == pytest.approx(1.0, abs=1e-12)
    # spot value: P(D=0, I=0, G=0, S=0, L=0) = .6 * .7 * .3 * .95 * .1
    assert table.prob({"D": 0, "I": 0, "G": 0, "S": 0, "L": 0}) == pytest.approx(
        0.6 * 0.7 * 0.3 * 0.95 * 0.1
    )


def test_malformed_edge_has_line_number():
    with pytest.raises(ModelParseError) as err:
        parse_model((DATA / "bad_edge.model").read_text())
    assert err.value.line == 3
    assert "unknown variable" in str(err.value)


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("var A 2\n", 1, "graph line"),
        ("graph undirected\nvar A 2\nvar A 2\njoint\n0 1.0\n", 3, "duplicate variable"),
        ("graph undirected\nvar A 1\njoint\n0 1.0\n", 2, "cardinality"),
        ("graph undirected\nvar A 2\njoint\n0 1.5\n", 4, "out of range"),
        ("graph undirected\nvar A 2\njoint\n0 0.3\n1 0.3\n", 3, "sum to"),
        ("graph undirected\nvar A 2\njoint\n0 0.5\n0 0.5\n", 5, "duplicate joint row"),
        ("graph undirected\nvar A 2\nbogus stuff\n", 3, "unknown directive"),
        ("graph undirected\nvar A 2\njoint\n2 1.0\n", 4, "out of range"),
        ("graph sideways\n", 1, "graph"),
        ("graph undirected\nvar A 2\ndefault A 5\njoint\n0 1.0\n", 3, "out of range"),
        ("graph undirected\nvar A 2\npotential A\n0 1.0\n1 nan\n", 5, "positive and finite, got nan"),
        ("graph undirected\nvar A 2\npotential A\n0 inf\n1 1.0\n", 4, "positive and finite, got inf"),
        ("graph undirected\nvar a 2\nvar b 2\nedge a b\nedge b a\n", 5, "duplicate edge ('b', 'a')"),
        ("graph directed\nvar a 2\nvar b 2\nedge a b\nedge a b\n", 5, "duplicate edge ('a', 'b')"),
        ("graph directed\nvar a 2\nvar b 2\nedge a b\nedge b a\njoint\n0 0 1.0\n", None, "contains a cycle"),
        ("graph undirected\ngraph undirected\n", 2, "duplicate graph line"),
        ("graph undirected\nvar A 2\njoint\n0 1.0\nvar B 2\n", 5, "variable declared after the distribution block"),
        ("graph undirected\nvar a 2\nvar b 2\njoint\n0 0 1.0\nedge a b\n", 6, "edge declared after the distribution block"),
        ("graph undirected\nvar a 2\nedge a a\n", 3, "self-loop on 'a'"),
        ("graph undirected\nvar A 2\ndefault A\n", 3, "expected 'default <name> <state>'"),
        ("graph undirected\nvar A 2\njoint\n0 1.0\njoint\n", 5, "duplicate joint block"),
        ("graph directed\nvar A 2\ncpt A\n0 0.5\n1 0.5\ncpt A\n", 6, "duplicate cpt block for 'A'"),
        ("", None, "empty model: missing graph line"),
        ("# a comment\n\n", None, "empty model: missing graph line"),
        ("graph undirected\n", None, "model declares no variables"),
        ("graph undirected\nvar A 2\n", None, "model has no distribution block"),
        ("graph directed\nvar A 2\npotential A\n0 1.0\n1 1.0\n", None, "potential models require an undirected graph"),
        ("graph undirected\nvar A 2\ncpt A\n0 0.5\n1 0.5\n", None, "cpt models require a directed graph"),
    ],
)
def test_parse_errors(text, line, fragment):
    with pytest.raises(ModelParseError) as err:
        parse_model(text)
    assert err.value.line == line
    assert fragment in str(err.value)


ROW_HEADS = {
    "joint": "graph directed\nvar a 2\nvar b 3\nedge a b\njoint\n",
    "cpt": "graph directed\nvar a 2\nvar b 3\nedge a b\ncpt b\n",
    "potential": "graph undirected\nvar a 2\nvar b 3\nedge a b\npotential a b\n",
}


@pytest.mark.parametrize(
    "kind, rows, message",
    [
        # token count, checked before any token
        ("joint", "0 0.5", "line 6: joint row needs 2 states and a probability"),
        ("joint", "0 0 0 0.5", "line 6: joint row needs 2 states and a probability"),
        ("cpt", "0 1 0.5 0.5", "line 6: cpt row for 'b' needs 2 states and a probability"),
        ("potential", "0 1", "line 6: potential row needs 2 states and a weight"),
        ("potential", "x", "line 6: potential row needs 2 states and a weight"),
        # states, one token at a time
        ("joint", "x 0 0.5", "line 6: state of 'a' must be an integer, got 'x'"),
        ("joint", "0 1.0 0.5", "line 6: state of 'b' must be an integer, got '1.0'"),
        ("cpt", "0 b 0.5", "line 6: state of 'b' must be an integer, got 'b'"),
        ("joint", "2 0 0.5", "line 6: state 2 out of range for 'a'"),
        ("joint", "0 -1 0.5", "line 6: state -1 out of range for 'b'"),
        ("potential", "0 3 1.0", "line 6: state 3 out of range for 'b'"),
        # the value
        ("joint", "0 0 half", "line 6: probability must be a number, got 'half'"),
        ("potential", "0 0 w", "line 6: weight must be a number, got 'w'"),
        ("joint", "0 0 1.5", "line 6: probability 1.5 out of range"),
        ("joint", "0 0 -0.5", "line 6: probability -0.5 out of range"),
        ("cpt", "0 0 nan", "line 6: probability nan out of range"),
        ("cpt", "0 0 inf", "line 6: probability inf out of range"),
        ("potential", "0 0 0", "line 6: potential weight must be positive, got 0.0"),
        ("potential", "0 0 -inf", "line 6: potential weight must be positive, got -inf"),
        ("potential", "0 0 inf", "line 6: potential weight must be positive and finite, got inf"),
        ("potential", "0 0 nan", "line 6: potential weight must be positive and finite, got nan"),
        # a repeated row, after rows that are fine
        ("joint", "0 0 0.5\n1 2 0.25\n0 0 0.25", "line 8: duplicate joint row (0, 0)"),
        ("cpt", "0 1 0.5\n0 1 0.5", "line 7: duplicate cpt row (0, 1)"),
        ("potential", "1 2 3.0\n1 2 3.0", "line 7: duplicate potential row (1, 2)"),
        # two faults: the first faulty token decides
        ("joint", "x 0 0.5 0.5", "line 6: joint row needs 2 states and a probability"),
        ("joint", "x 5 half", "line 6: state of 'a' must be an integer, got 'x'"),
        ("joint", "5 x half", "line 6: state 5 out of range for 'a'"),
        ("joint", "0 x 1.5", "line 6: state of 'b' must be an integer, got 'x'"),
        ("potential", "0 3 0", "line 6: state 3 out of range for 'b'"),
        ("potential", "0 0 -1\n0 0 nan", "line 6: potential weight must be positive, got -1.0"),
        ("joint", "0 0 0.5\n0 0 1.5", "line 7: probability 1.5 out of range"),
        # data rows outside a block
        ("", "0 1.0", "line 4: data row outside a distribution block"),
        ("", "-1 1.0", "line 4: data row outside a distribution block"),
        ("", "x 1.0", "line 4: unknown directive 'x'"),
    ],
)
def test_row_errors_are_pinned(kind, rows, message):
    head = ROW_HEADS[kind] if kind else "graph directed\nvar a 2\nvar b 3\n"
    with pytest.raises(ModelParseError) as err:
        parse_model(head + rows + "\n")
    assert str(err.value) == message


def test_whole_file_errors():
    with pytest.raises(ModelParseError, match="no distribution"):
        parse_model("graph undirected\nvar A 2\n")
    with pytest.raises(ModelParseError, match="missing cpt"):
        parse_model("graph directed\nvar A 2\nvar B 2\nedge A B\ncpt A\n0 0.5\n1 0.5\n")
    with pytest.raises(ModelParseError, match="cannot mix"):
        parse_model("graph undirected\nvar A 2\njoint\n0 1.0\npotential A\n0 1.0\n1 1.0\n")
    with pytest.raises(ModelParseError, match="not a clique"):
        parse_model(
            "graph undirected\nvar A 2\nvar B 2\npotential A B\n"
            "0 0 1.0\n0 1 1.0\n1 0 1.0\n1 1 1.0\n"
        )
    with pytest.raises(ModelParseError, match="lists 3 of 4"):
        parse_model(
            "graph undirected\nvar A 2\nvar B 2\nedge A B\npotential A B\n"
            "0 0 1.0\n0 1 1.0\n1 0 1.0\n"
        )
    with pytest.raises(ModelParseError, match="require a directed graph"):
        parse_model("graph undirected\nvar A 2\ncpt A\n0 0.5\n1 0.5\n")


def test_unlisted_joint_rows_default_to_zero():
    model = parse_model("graph undirected\nvar A 2\nvar B 2\nedge A B\njoint\n0 0 0.5\n1 1 0.5\n")
    table = model.joint()
    assert table.prob({"A": 0, "B": 1}) == 0.0
    assert not table.strictly_positive


def test_comments_and_blank_lines():
    model = parse_model(
        "# heading\n\ngraph undirected  # trailing\nvar A 2\n\n# mid\njoint\n0 0.4\n1 0.6\n"
    )
    assert model.joint().prob({"A": 0}) == pytest.approx(0.4)


def test_default_directive():
    model = parse_model(
        "graph undirected\nvar A 2\nvar B 3\nedge A B\ndefault B 2\njoint\n0 0 1.0\n"
    )
    assert model.default_assignment() == {"A": 0, "B": 2}


def test_cpt_row_sum_error_names_block_line():
    text = (
        "graph directed\nvar A 2\nvar B 2\nedge A B\n"
        "cpt A\n0 0.5\n1 0.5\n"
        "cpt B\n0 0 0.9\n0 1 0.2\n1 0 0.5\n1 1 0.5\n"
    )
    with pytest.raises(ModelParseError) as err:
        parse_model(text)
    assert "sum to" in str(err.value)
    assert err.value.line == 8  # the cpt B block line


@pytest.mark.parametrize(
    "name", ["d2.model", "student.model", "path3_gibbs.model", "cycle4_gibbs.model"]
)
def test_render_round_trip(name):
    model = parse_model((DATA / name).read_text())
    text = render_model(model)
    again = parse_model(text)
    assert again.kind == model.kind
    assert again.names == model.names
    assert again.graph.edges == model.graph.edges
    assert again.defaults == model.defaults
    assert np.allclose(again.joint().probs, model.joint().probs, rtol=1e-12, atol=1e-15)
    # canonical text is a fixed point
    assert render_model(again) == text


def _block_rows(text: str) -> dict[str, list[tuple[tuple[int, ...], float]]]:
    """The rows of each block of a rendered model file, by block header."""
    blocks: dict[str, list] = {}
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] in ("joint", "cpt"):
            rows = blocks.setdefault(line, [])
        elif tokens[0].isdigit() and blocks:
            rows.append((tuple(map(int, tokens[:-1])), float(tokens[-1])))
    return blocks


@pytest.mark.parametrize("spec, card", [("dag:8:0.4", 2), ("dag:10:0.3", 2), ("student", 3), ("dag:7:0.5", 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parsed_cpt_model_matches_the_public_constructors(spec, card, seed):
    """The parser builds CPTs without checking their rows again; the bits of
    the CPTs and the joint equal what the public constructors build from the
    same rows."""
    text = render_model(random_model("bn", spec, seed, card))
    model = parse_model(text)
    cpts = {}
    for header, rows in _block_rows(text).items():
        node = header.split()[1]
        parents = model.graph.parents(node)
        arr = np.zeros([card] * (len(parents) + 1))
        for states, value in rows:
            arr[states] = value
        cpts[node] = CPT(node, parents, arr)
        assert model.cpts[node].parents == parents
        assert model.cpts[node].probs.tobytes() == cpts[node].probs.tobytes()
    public = build_joint_from_cpts(model.graph, cpts, model.variables)
    joint = model.joint()
    assert joint.probs.tobytes() == public.probs.tobytes()
    assert joint.strictly_positive == public.strictly_positive
    assert not joint.probs.flags.writeable


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parsed_joint_model_matches_the_public_constructor(seed):
    table = random_joint_table(["a", "b", "c"], seed, 3)
    text = "graph undirected\nvar a 3\nvar b 3\nvar c 3\njoint\n" + "".join(
        " ".join(map(str, states)) + f" {float(p)!r}\n" for states, p in np.ndenumerate(table.probs)
    )
    model = parse_model(text)
    public = JointTable(model.variables, model.joint_probs)
    assert model.joint().probs.tobytes() == public.probs.tobytes()
    assert model.joint_probs.flags.writeable  # the table holds its own copy


def test_rows_the_one_pass_test_leaves_to_the_builder():
    # "10" is no single-digit state and "01", "03" are not spelt as the
    # one-pass test knows them, so _Builder.row stores those rows
    head = "graph undirected\nvar a 11\nvar b 2\nedge a b\njoint\n"
    spelt = parse_model(head + "10 01 0.5\n03 0 0.25\n0 0 0.25\n")
    canonical = parse_model(head + "10 1 0.5\n3 0 0.25\n0 0 0.25\n")
    assert spelt.joint_probs[10, 1] == 0.5 and spelt.joint_probs[3, 0] == 0.25
    assert spelt.joint_probs.tobytes() == canonical.joint_probs.tobytes()
    assert spelt.joint().probs.tobytes() == canonical.joint().probs.tobytes()


@pytest.mark.parametrize("name", ["d2.model", "student.model"])
def test_hand_built_model_joint_equals_the_parsed_one(name):
    parsed = parse_model((DATA / name).read_text())
    built = ParsedModel(parsed.kind, parsed.variables, parsed.graph, joint_probs=parsed.joint_probs, cpts=parsed.cpts)
    assert built.joint().probs.tobytes() == parsed.joint().probs.tobytes()


def test_hand_built_cpt_model_checks_the_parents():
    parsed = parse_model((DATA / "student.model").read_text())
    g = parsed.cpts["G"]
    assert g.parents == ("D", "I")
    cpts = {**parsed.cpts, "G": CPT("G", ("D",), g.probs[:, 0, :])}
    with pytest.raises(ModelError, match="CPT scope mismatch for 'G'"):
        ParsedModel("cpt", parsed.variables, parsed.graph, cpts=cpts).joint()
    parsed.cpts["G"] = cpts["G"]  # a parsed model edited in place is checked the same way
    with pytest.raises(ModelError, match="CPT scope mismatch for 'G'"):
        parsed.joint()


def test_edited_parsed_joint_model_is_checked():
    parsed = parse_model((DATA / "d2.model").read_text())
    parsed.joint_probs[0, 0] = -0.25
    with pytest.raises(ModelError, match="probabilities must be finite and non-negative"):
        parsed.joint()


def test_hand_built_model_of_unknown_kind_is_refused():
    parsed = parse_model((DATA / "d2.model").read_text())
    hand_built = ParsedModel("jiont", parsed.variables, parsed.graph, joint_probs=parsed.joint_probs)
    for use in (ParsedModel.joint, render_model):
        with pytest.raises(ModelError, match="model kind must be 'joint', 'cpt' or 'potential', got 'jiont'"):
            use(hand_built)


def test_repeated_potential_scopes_multiply():
    rows = "0 0 {}\n0 1 1\n1 0 1\n1 1 {}\n"
    head = "graph undirected\nvar A 2\nvar B 2\nedge A B\n"
    for second in ("potential A B", "potential B A"):
        model = parse_model(head + "potential A B\n" + rows.format(1, 9) + second + "\n" + rows.format(1, 1))
        assert model.joint().prob({"A": 1, "B": 1}) == pytest.approx(0.75, rel=1e-12)
    model = parse_model(head + ("potential A B\n" + rows.format(2, 3)) * 2)
    assert model.joint().prob({"A": 0, "B": 0}) == pytest.approx(4 / 15, rel=1e-12)


MUTATION_FILES = ["d2.model", "student.model", "path3_gibbs.model", "cycle4_gibbs.model"]
MUTATION_TOKENS = [
    "nan", "inf", "-inf", "1e400", "1e200", "1e-200", "\n",
    "0", "1", "2", "-1", "0.5", "a", "b", "potential",
]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(MUTATION_FILES), st.data())
def test_mutated_model_files_end_in_a_documented_error(name, data):
    tokens = re.findall(r"\S+|\n", (DATA / name).read_text())
    for _ in range(data.draw(st.integers(0, 3))):
        token = data.draw(st.sampled_from(MUTATION_TOKENS))
        if data.draw(st.booleans()):
            # any token, or the last of a line: mostly a probability or a weight
            line_ends = [i for i, t in enumerate(tokens[:-1]) if t != "\n" and tokens[i + 1] == "\n"]
            where = st.integers(0, len(tokens) - 1) | st.sampled_from(line_ends)
            tokens[data.draw(where)] = token
        else:
            tokens.insert(data.draw(st.integers(0, len(tokens))), token)
    try:
        model = parse_model(" ".join(tokens))
    except (ModelParseError, PreconditionError):
        return
    text = render_model(model)
    assert render_model(parse_model(text)) == text
    try:
        model.joint()
    except PreconditionError:
        pass


@st.composite
def potential_files(draw):
    """Potential files over a complete graph on A, B, C: cardinalities 2-3,
    1-4 blocks whose scopes may repeat or list one clique in either order."""
    cards = {n: draw(st.integers(2, 3)) for n in "ABC"}
    scope_lists = st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True)
    blocks = []
    for scope in draw(st.lists(scope_lists, min_size=1, max_size=4)):
        states = itertools.product(*(range(cards[n]) for n in scope))
        blocks.append((tuple(scope), {s: draw(st.integers(1, 9)) for s in states}))
    return cards, blocks


@settings(max_examples=150, deadline=None)
@given(potential_files())
def test_potential_joint_is_the_normalized_product(case):
    cards, blocks = case
    lines = ["graph undirected"] + [f"var {n} {cards[n]}" for n in "ABC"]
    lines += ["edge A B", "edge B C", "edge A C"]
    for scope, weights in blocks:
        lines.append("potential " + " ".join(scope))
        lines += [" ".join(map(str, s)) + f" {w}" for s, w in weights.items()]
    probs = parse_model("\n".join(lines) + "\n").joint().probs

    expected = {}
    for a in range(cards["A"]):
        for b in range(cards["B"]):
            for c in range(cards["C"]):
                value = {"A": a, "B": b, "C": c}
                product = 1.0
                for scope, weights in blocks:
                    product *= weights[tuple(value[n] for n in scope)]
                expected[a, b, c] = product
    total = sum(expected.values())
    for states, product in expected.items():
        assert probs[states] == pytest.approx(product / total, rel=1e-12, abs=0)
