"""The corpus runner and the report of tools/differential.py, in process."""

import hashlib
import importlib.util
from pathlib import Path

from crfactor.modelfile import parse_model, render_model

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("differential", ROOT / "tools" / "differential.py")
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)


def test_the_runner_records_each_outcome_and_the_report_groups_the_differences(monkeypatch):
    monkeypatch.chdir(ROOT)
    cases = [
        ["factorize", "--method", "bn", "--model", "tests/data/student.model"],
        ["verify", "--model", "tests/data/d2.model", "--expr", "tests/data/expr_d2_bad.txt"],
        ["istcg", "--model", "tests/data/student.model"],
    ]
    outcomes = differential.run_cases(cases)
    assert [code for *_, code in outcomes] == [0, 2, 3]
    assert outcomes[0][0].splitlines()[-1].startswith("verification: pass  assignments=32")
    assert outcomes[1][1] == "" and outcomes[1][0].startswith("verification: FAIL")
    assert outcomes[2] == ["", "error: command 'istcg' requires an undirected graph\n", 3]
    assert differential.differences(cases, outcomes, outcomes) == {}
    changed = [outcomes[0], [outcomes[1][0].replace("FAIL", "pass"), "", 0], ["", "raised KeyError: 'x'\n", None]]
    groups = differential.differences(cases, outcomes, changed)
    assert {key: [argv for argv, *_ in items] for key, items in groups.items()} == {
        ("verification", "verification: FAIL  …=#  …=#  …=#  …=…=#,…=#", "ok", "verification: pass  …=#  …=#  …=#  …=…=#,…=#"):
            [cases[1]],
        ("precondition", "error: command '…' requires an undirected graph", "escaped KeyError", "raised KeyError: '…'"):
            [cases[2]],
    }


def test_a_mutated_model_file_is_a_case_of_its_own(tmp_path):
    text = (ROOT / "tests" / "data" / "d2.model").read_text()
    assert differential.mutate(text, "d2.model/0") == differential.mutate(text, "d2.model/0") != text
    respelt, bad = tmp_path / "respelt.model", tmp_path / "bad.model"
    respelt.write_text(text.replace("1 0 0.1", "1 0 0.1  # respelt").replace("1 1 0.4", "01\t1 0.4"))
    bad.write_text(text.replace("0 1 0.1", "0 1 nan"))
    cases = [[differential.PARSE, str(respelt)], [differential.PARSE, str(bad)]]
    outcomes = differential.run_cases(cases)
    model = parse_model(text)  # the respelt rows parse to the canonical file's bytes
    digests = (f"render {hashlib.sha256(render_model(model).encode()).hexdigest()}\n"
               f"joint {hashlib.sha256(model.joint().probs.tobytes()).hexdigest()}\n")
    assert outcomes == [[digests, "", "ok"], ["", "line 7: probability nan out of range\n", "ModelParseError"]]
    groups = differential.differences(cases, outcomes, [outcomes[1], outcomes[1]])
    assert [(key[0], key[2]) for key in groups] == [("ok", "ModelParseError")]
