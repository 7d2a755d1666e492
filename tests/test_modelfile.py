import hashlib
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crfactor import (
    CPT,
    JointTable,
    ModelError,
    ModelGraph,
    ModelParseError,
    ParsedModel,
    PreconditionError,
    build_joint_from_cpts,
    modelfile,
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
        ("graph directed\nvar A 2\ncpt A\n0 1.000000001\n1 0.0\n", 3,
         "line 3: cpt rows for 'A' (parent configuration index 0) sum to 1.000000001, not 1"),
        ("graph directed\nvar A 2\nvar B 2\nedge A B\ncpt B\n0 0 1\n0 1 0\n1 0 0.3\n1 1 0.3\ncpt A\n0 0.5\n1 0.5\n", 5,
         "line 5: cpt rows for 'B' (parent configuration index 1) sum to 0.6, not 1"),
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
    assert str(err.value) == "line 8: cpt rows for 'B' (parent configuration index 0) sum to 1.1, not 1"
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
    """The bits of the parsed CPTs and joint equal what the public
    constructors build from the same rows, and each CPT holds its own
    read-only copy."""
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
        assert not model.cpts[node].probs.flags.writeable and arr.flags.writeable
    public = build_joint_from_cpts(model.graph, cpts, model.variables)
    joint = model.joint()
    assert joint.probs.tobytes() == public.probs.tobytes()
    assert joint.strictly_positive == public.strictly_positive
    assert not joint.probs.flags.writeable


MODEL_BYTES = {  # sha256 of the rendering, the joint's probs and each CPT's probs
    "d2.model": "e48f0b2ab37cb16177793d7f4a2d3b93c119b297e2f589d2d49960a2a42de964",
    "student.model": "00a3df003ec89a85bfdd6ff2469eb421fa1aee4c5682910a000f0b47f359a765",
    "path3_gibbs.model": "8a2aeabe9ffea47c1efa8791c5bd4aeb9a4cc79575b366df782d299bb0597339",
    "cycle4_gibbs.model": "0c8e1c190af1a97d1d3292f2e0b8f3a512c521f2c838bf1f0863fa69224d4fea",
    "student/2": "06d2d144277c186bc4c46c121d67a34209dc2fe45d829ea800b7199911a4a2da",
    "student/3": "f67ec5b4900589324076f0f9a0e44a7a6fd380007bd524c390dd08e17c330c6f",
    "chain:6/3": "562a15bcb1a8d83d8deb3cb56e74d813ddbb5442c6377cc8b507afc2899bfcd9",
    "dag:8:0.4/3": "df053f5688fc431a81cc3d5349ffc35732aaf4e23aafdbc1d5eea8f9336c79bb",
    "dag:12:0.3/3": "1ad5bde3d5e907eee30991b5387005283b7e22fc35cf130cd44923e49f2d32b6",
    "dag:16:0.3/2": "f3433f07450c326b549b0558b338dbacebf3be9d1c40320d819641581c678de5",
    "dag:20:0.3/2": "bd81b20542e385951d407dfc50f2166adc29f9b5f7d4fe332678566938dcdd85",
}


@pytest.mark.parametrize("case", list(MODEL_BYTES))
def test_parsed_models_keep_their_bytes(case):
    """The test data files and seed-0 BN models (spec/cardinality), parsed
    from their renderings, keep every byte of rendering, joint and CPTs."""
    if case.endswith(".model"):
        text = (DATA / case).read_text()
    else:
        spec, card = case.split("/")
        text = render_model(random_model("bn", spec, 0, int(card)))
    model = parse_model(text)
    digest = hashlib.sha256(render_model(model).encode())
    digest.update(model.joint().probs.tobytes())
    for name in model.names if model.kind == "cpt" else ():
        digest.update(model.cpts[name].probs.tobytes())
    assert digest.hexdigest() == MODEL_BYTES[case]


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


def test_rows_the_block_decoder_leaves_to_the_builder():
    # "10" is no single-digit state and "01", "03" are not spelt as the
    # block decoder knows them, so _Builder.row stores those rows
    head = "graph undirected\nvar a 11\nvar b 2\nedge a b\njoint\n"
    spelt = parse_model(head + "10 01 0.5\n03 0 0.25\n0 0 0.25\n")
    canonical = parse_model(head + "10 1 0.5\n3 0 0.25\n0 0 0.25\n")
    assert spelt.joint_probs[10, 1] == 0.5 and spelt.joint_probs[3, 0] == 0.25
    assert spelt.joint_probs.tobytes() == canonical.joint_probs.tobytes()
    assert spelt.joint().probs.tobytes() == canonical.joint().probs.tobytes()


def joint_text(n: int, seed: int) -> str:
    """The rendering of a random joint model over n binary variables v0, v1, ...:
    one block of 2**n rows, on lines n + 3 onwards."""
    names = [f"v{i}" for i in range(n)]
    table = random_joint_table(names, seed, 2)
    graph = ModelGraph("undirected", names, ())
    return render_model(ParsedModel("joint", table.variables, graph, joint_probs=table.probs))


JOINT_1024 = joint_text(10, 0)  # rows 0-1023 on lines 13-1036, row r spelling r in binary
JOINT_1024_ROWS = JOINT_1024.splitlines()[12:]
RESPELT_TEXTS = [
    render_model(random_model("bn", "student", 0, 3)),
    render_model(random_model("bn", "dag:8:0.4", 1)),
    render_model(random_model("gibbs", "cycle:5", 0, 3)),
    JOINT_1024,
]


def _payload_bytes(model: ParsedModel) -> list:
    """The bytes of what a parse produced: its arrays, its CPTs and its joint."""
    out = [model.kind, model.joint().probs.tobytes()]
    if model.joint_probs is not None:
        out.append(model.joint_probs.tobytes())
    out += [(name, cpt.parents, cpt.probs.tobytes()) for name, cpt in model.cpts.items()]
    out += [(scope, arr.tobytes()) for scope, arr in model.potentials]
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(RESPELT_TEXTS))), st.data())
def test_respelt_rows_parse_to_the_same_bytes(which, data):
    """Rows respelt so that the block decoder refuses them (a tab for a
    space, a leading zero on a state, a trailing comment) go to
    _Builder.row, and the parse keeps every byte of the canonical text's."""
    text = RESPELT_TEXTS[which]
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line[0].isdigit()]
    chosen = data.draw(st.sets(st.sampled_from(rows), min_size=1, max_size=8))
    for i in chosen:
        tokens = lines[i].split(" ")
        state = data.draw(st.integers(0, len(tokens) - 2))
        how = data.draw(st.sampled_from(["tab", "zero", "comment"]))
        if how == "tab":
            lines[i] = " ".join(tokens[: state + 1]) + "\t" + " ".join(tokens[state + 1 :])
        elif how == "zero":
            tokens[state] = "0" + tokens[state]
            lines[i] = " ".join(tokens)
        else:
            lines[i] += "  # respelt"
    built = []
    row = modelfile._Builder.row

    def counted_row(builder, lineno, tokens):
        built.append(lineno)
        row(builder, lineno, tokens)

    with mock.patch.object(modelfile._Builder, "row", counted_row):
        respelt = parse_model("\n".join(lines) + "\n")
        canonical = parse_model(text)
    assert built == sorted(i + 1 for i in chosen)
    assert _payload_bytes(respelt) == _payload_bytes(canonical)


def _edit_rows(text: str, edits: dict[int, str], comments: tuple[int, ...] = ()) -> str:
    """`text` with the data rows at the given 0-based indices replaced, and
    a comment line before each row index in `comments`."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if line[0].isdigit())
    for row, line in edits.items():
        lines[first + row] = line
    for row in sorted(comments, reverse=True):
        lines.insert(first + row, "# a comment line")
    return "\n".join(lines) + "\n"


def _states(row: int, n: int = 10) -> str:
    return " ".join(format(row, f"0{n}b"))


@pytest.mark.parametrize(
    "edits, comments, message",
    [
        # each block holds a second fault further on, which is never reached
        ({700: _states(300) + " 0.001", 900: _states(900) + " 1.5"}, (),
         "line 713: duplicate joint row (0, 1, 0, 0, 1, 0, 1, 1, 0, 0)"),
        ({500: "2" + _states(500)[1:] + " 0.001", 900: _states(100) + " 0.001"}, (),
         "line 513: state 2 out of range for 'v0'"),
        ({500: _states(500) + " 1.5", 900: _states(900) + " nan"}, (), "line 513: probability 1.5 out of range"),
        ({500: _states(500) + " nan", 900: _states(900) + " 1.5"}, (), "line 513: probability nan out of range"),
        ({500: _states(500), 900: _states(900) + " 1.5"}, (), "line 513: joint row needs 10 states and a probability"),
        ({500: JOINT_1024_ROWS[500] + "  # a trailing comment", 800: _states(100) + " 0.001"}, (400,),
         "line 814: duplicate joint row (0, 0, 0, 1, 1, 0, 0, 1, 0, 0)"),
        ({1023: _states(1022) + " 0.001"}, (), "line 1036: duplicate joint row (1, 1, 1, 1, 1, 1, 1, 1, 1, 0)"),
    ],
)
def test_first_fault_in_a_large_block_is_pinned(edits, comments, message):
    with pytest.raises(ModelParseError) as err:
        parse_model(_edit_rows(JOINT_1024, edits, comments))
    assert str(err.value) == message


def test_block_over_the_cap_reports_its_rows_first_and_allocates_no_table():
    # 21 binary variables: 2**21 cells, over MAX_TABLE_CELLS (2**20)
    head = "graph undirected\n" + "".join(f"var v{i} 2\n" for i in range(21)) + "joint\n"
    rows = [_states(r, 21) + " 0.125" for r in range(8)]
    bad = rows[:3] + [_states(3, 21) + " 1.5"] + rows[4:]
    for text, error, message in [
        (head + "\n".join(bad) + "\n", ModelParseError, "line 27: probability 1.5 out of range"),
        (head + "\n".join(rows) + "\n", PreconditionError, "a table of 2097152 cells exceeds the cap of 1048576 cells"),
    ]:
        tracemalloc.start()
        try:
            with pytest.raises(error) as err:
                parse_model(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == message
        assert peak < 2**20  # a table of 2**21 floats would take 16 MiB


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


MUTATION_FILES = ["d2.model", "student.model", "path3_gibbs.model", "cycle4_gibbs.model", "joint over 10 variables"]
MUTATION_TEXTS = {name: (DATA / name).read_text() for name in MUTATION_FILES[:-1]}
MUTATION_TEXTS["joint over 10 variables"] = JOINT_1024  # a block of 1,024 canonical rows
MUTATION_TOKENS = [
    "nan", "inf", "-inf", "1e400", "1e200", "1e-200", "\n",
    "0", "1", "2", "-1", "0.5", "a", "b", "potential",
]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(MUTATION_FILES), st.data())
def test_mutated_model_files_end_in_a_documented_error(name, data):
    tokens = re.findall(r"\S+|\n", MUTATION_TEXTS[name])
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
        # rows away from a mutation keep their canonical spelling: no space next to a newline
        model = parse_model(re.sub(" ?\n ?", "\n", " ".join(tokens)))
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
