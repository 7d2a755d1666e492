"""Compare the crfactor command line of another revision with this checkout's.

    python tools/differential.py --base REV

REV's ``src`` is extracted with ``git archive`` into a temporary directory (no
worktree, no network). One corpus then runs once per tree, each in a child
interpreter with that tree's ``src`` first on ``sys.path`` and its own random
hash seed, every case in process. A command line runs through
``crfactor.cli.main``, and its outcome is its stdout, stderr and exit code. A
mutated model file runs through ``parse_model``, ``render_model`` and
``ParsedModel.joint``, and its outcome is the SHA-256 of the rendering and of
the joint's bytes, or the error class and message (a parse error's message
starts with its line). The tool prints the cases whose outcomes differ,
grouped by error class and by the message with names and numbers masked,
with a count and one example per group. It reports and does not gate: a
change may differ on purpose, so the exit status is 0 whenever both trees
ran, and a caller that wants no difference checks for "0 differing outcomes".

The corpus, read from this checkout and the same for both trees:
  - every ``tests/data`` model through every ``factorize --method``, with and
    without ``--no-verify``;
  - ``verify`` of every ``tests/data`` model against each expression file there;
  - ``istcg``, ``indep --numeric`` and ``export-dot`` (plain and
    ``--clique-graph``) on every ``tests/data`` model;
  - ``gen-random`` for gibbs and bn, seeds 0-2, cardinalities 2 and 3;
  - ``factorize --method trace`` on each ``bench/data`` trace file and on
    tampered copies of it, written to a temporary directory: one step's
    certificate removed, changed (x and y swapped) or switched to numeric,
    and one step's rule unknown;
  - 3,000 seeded mutations of each ``tests/data`` model, written to the
    temporary directory: one to three edits, each a token replaced or
    inserted, a line repeated, dropped or moved, or a data row respelt, as
    the model-file fuzz and respelt-row tests of ``tests/test_modelfile.py``
    make them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = "tests/data"
TRACES = "bench/data"
TRACE_MODEL = f"{DATA}/student.model"  # the network both bench/data traces rewrite
METHODS = ("bn", "tree", "chain-crf", "mrf", "rmrf", "tcg", "trace")
GEN_RANDOM = (("gibbs", "cycle:4"), ("gibbs", "er:5:0.5"), ("bn", "student"), ("bn", "dag:5:0.5"))
EXIT_CLASS = {0: "ok", 1: "internal", 2: "verification", 3: "precondition", 4: "parse or usage"}
PARSE = "parse_model"  # the first word of a mutated model file's case; the CLI has no such command
MUTATIONS = 3000  # per tests/data model
TOKENS = ("nan", "inf", "-inf", "1e400", "1e200", "1e-200", "\n", "0", "1", "2", "-1", "0.5", "a", "b", "potential")


def _variables(model: Path) -> list[str]:
    return [line.split()[1] for line in model.read_text("utf-8").splitlines() if line.startswith("var ")]


def _tampered(trace: dict) -> dict[str, dict]:
    """Copies of a trace, each with one step changed: the first step that
    records a certificate loses it, has x and y swapped, or turns numeric;
    the last step's rule becomes unknown."""
    steps = trace["steps"]
    n = next(i for i, s in enumerate(steps) if "x" in s.get("certificate", {}))

    def at(i: int, step: dict) -> dict:
        return {**trace, "steps": [*steps[:i], step, *steps[i + 1:]]}

    step, cert = steps[n], steps[n]["certificate"]
    return {
        "no-certificate": at(n, {k: v for k, v in step.items() if k != "certificate"}),
        "changed-certificate": at(n, {**step, "certificate": {**cert, "x": cert["y"], "y": cert["x"]}}),
        "numeric-certificate": at(n, {**step, "certificate": {**cert, "kind": "numeric"}}),
        "unknown-rule": at(len(steps) - 1, {**steps[-1], "rule": "bogus"}),
    }


def mutate(text: str, seed: str) -> str:
    """A model file after one to three edits drawn by ``random.Random(seed)``:
    a token replaced (mostly a line's last, a probability or a weight) or
    inserted, where a newline token splits its line; a line repeated,
    dropped or moved; or a data row respelt with a tab for a space, a leading
    zero on a state or a trailing comment."""
    rng, lines = random.Random(seed), text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        op, i = rng.choice(("replace", "insert", "repeat", "drop", "move", "respell")), rng.randrange(len(lines))
        if op in ("replace", "insert"):
            tokens, width = lines[i].split(" "), op == "replace"
            j = len(tokens) - 1 if width and rng.random() < 0.5 else rng.randrange(len(tokens) + 1 - width)
            tokens[j : j + width] = [rng.choice(TOKENS)]
            lines[i : i + 1] = re.sub(" ?\n ?", "\n", " ".join(tokens)).split("\n")
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "drop":
            del lines[i]
        elif op == "move":
            lines.insert(rng.randrange(len(lines)), lines.pop(i))
        elif rows := [k for k, line in enumerate(lines) if line[:1].isdigit()]:
            k = rng.choice(rows)
            tokens, how = lines[k].split(" "), rng.choice(("tab", "zero", "comment"))
            state = rng.randrange(max(len(tokens) - 1, 1))
            if how == "tab":
                lines[k] = " ".join(tokens[: state + 1]) + "\t" + " ".join(tokens[state + 1 :])
            elif how == "zero":
                lines[k] = " ".join([*tokens[:state], "0" + tokens[state], *tokens[state + 1 :]])
            else:
                lines[k] += "  # respelt"
    return "".join(line + "\n" for line in lines)


def corpus(scratch: Path) -> list[list[str]]:
    """The argvs, relative to the repository root except the tampered
    traces, which are written under `scratch`, and the mutated model files,
    written under `scratch` too, each as [PARSE, path]."""
    exprs = sorted((ROOT / DATA).glob("*.txt"))
    cases = []
    for model in sorted((ROOT / DATA).glob("*.model")):
        m, names = f"{DATA}/{model.name}", _variables(model) or ["a", "b"]
        extra = {"chain-crf": ["--y", ",".join(names[-2:])], "trace": ["--trace", f"{TRACES}/student_bn.trace.json"]}
        for method in METHODS:
            for verify in ([], ["--no-verify"]):
                cases.append(["factorize", "--method", method, "--model", m, *extra.get(method, []), *verify])
        cases += [["verify", "--model", m, "--expr", f"{DATA}/{e.name}"] for e in exprs]
        query = f"{names[0]} _|_ {names[-1]} | {' '.join(names[1:-1])}"
        cases += [["istcg", "--model", m], ["indep", "--model", m, "--query", query, "--numeric"],
                  ["export-dot", "--model", m], ["export-dot", "--model", m, "--clique-graph"]]
        for k in range(MUTATIONS):
            path = scratch / f"{model.stem}.{k}.model"
            path.write_text(mutate(model.read_text("utf-8"), f"{model.name}/{k}"), "utf-8")
            cases.append([PARSE, str(path)])
    for kind, spec in GEN_RANDOM:
        for seed in range(3):
            cases += [["gen-random", "--kind", kind, "--graph", spec, "--seed", str(seed), "--card", str(card)]
                      for card in (2, 3)]
    for path in sorted((ROOT / TRACES).glob("*.trace.json")):
        trace_files = [f"{TRACES}/{path.name}"]
        for name, trace in _tampered(json.loads(path.read_text("utf-8"))).items():
            copy = scratch / f"{path.name.removesuffix('.trace.json')}.{name}.trace.json"
            copy.write_text(json.dumps(trace), "utf-8")
            trace_files.append(str(copy))
        cases += [["factorize", "--method", "trace", "--model", TRACE_MODEL, "--trace", t] for t in trace_files]
    return cases


def _parse_outcome(path: str) -> list:
    """[digests, error message, "ok" or the error's class] of a model file
    through parse_model, render_model and ParsedModel.joint."""
    from crfactor.modelfile import parse_model, render_model

    out = ""
    try:
        model = parse_model(Path(path).read_text("utf-8"))
        out += f"render {hashlib.sha256(render_model(model).encode()).hexdigest()}\n"
        out += f"joint {hashlib.sha256(model.joint().probs.tobytes()).hexdigest()}\n"
    except Exception as exc:  # a defect's class is recorded as any other's
        return [out, f"{exc}\n", type(exc).__name__]
    return [out, "", "ok"]


def run_cases(cases: list[list[str]]) -> list[list]:
    """[stdout, stderr, exit code] of each argv through ``crfactor.cli.main``
    in this process; an exception that escapes ``main`` is recorded as exit
    code None and its class and message on stderr. A [PARSE, path] case
    gets its model file's outcome instead."""
    from crfactor.cli import main

    outcomes = []
    for argv in cases:
        if argv[0] == PARSE:
            outcomes.append(_parse_outcome(argv[1]))
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:  # a runner that stopped here would report nothing
                code = None
                print(f"raised {type(exc).__name__}: {exc}", file=err)
        outcomes.append([out.getvalue(), err.getvalue(), code])
    return outcomes


def error_class(outcome: list) -> str:
    """The exit code's meaning, or the exception class of an internal error
    or of one that escaped ``main``; a model file's "ok" or error class."""
    _, err, code = outcome
    if isinstance(code, str):
        return code
    if code is None or code == 1:
        found = re.match(r"(?:raised |error: internal error: )(\w+)", err)
        return f"{'escaped' if code is None else 'internal'} {found.group(1) if found else '?'}"
    return EXIT_CLASS.get(code, f"exit {code}")


_MASKS = (
    (re.compile(r"'[^']*'|\"[^\"]*\""), "'…'"),
    (re.compile(r"\b(?:CR|P)\([^()]*\)"), "T(…)"),
    (re.compile(r"\b\w+="), "…="),
    (re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?"), "#"),
)


def mask(text: str) -> str:
    """A message with quoted names, terms, assignments and numbers masked."""
    for pattern, repl in _MASKS:
        text = pattern.sub(repl, text)
    return text


def _message(outcome: list, other: list) -> str:
    """The first stderr line, or else the first stdout line that differs from `other`'s."""
    out, err, _ = outcome
    if err:
        return err.splitlines()[0]
    return next((a for a, b in itertools.zip_longest(out.splitlines(), other[0].splitlines(), fillvalue="") if a != b), "")


def differences(cases: list[list[str]], base: list[list], head: list[list]) -> dict[tuple, list]:
    """The argvs whose outcomes differ, by (error class, masked message) at the base and here."""
    groups: dict[tuple, list] = defaultdict(list)
    for argv, a, b in zip(cases, base, head):
        if a != b:
            key = (error_class(a), mask(_message(a, b)), error_class(b), mask(_message(b, a)))
            groups[key].append((argv, a, b))
    return groups


def _show(outcome: list) -> str:
    out, err, code = outcome
    return f"exit {code}" + "".join(f"; {name}: {v[:300]!r}" for name, v in (("stdout", out), ("stderr", err)) if v)


def _run_tree(src: Path, cases_file: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, __file__, "--runner", str(src), str(cases_file)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "random"},
    )


def _runner(src: str, cases_file: str) -> int:
    sys.path.insert(0, src)
    import crfactor

    if not Path(crfactor.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"crfactor loaded from {crfactor.__file__}, not from {src}", file=sys.stderr)
        return 1
    cases = json.loads(Path(cases_file).read_text("utf-8"))
    json.dump(run_cases(cases), sys.stdout)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--runner"]:
        return _runner(*argv[1:])
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="the revision to compare against, e.g. HEAD or a commit id")
    args = parser.parse_args(argv)
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run([*git, "rev-parse", "--short", f"{args.base}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="crfactor-differential-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run([*git, "archive", "--format=tar", commit, "src"], capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "base", filter="data")
        cases = corpus(tmp)
        cases_file = tmp / "cases.json"
        cases_file.write_text(json.dumps(cases), "utf-8")
        procs = {name: _run_tree(src, cases_file) for name, src in (("base", tmp / "base" / "src"), ("here", ROOT / "src"))}
        finished = {name: (*proc.communicate(), proc.returncode) for name, proc in procs.items()}
    for name, (_, err, code) in finished.items():
        if code != 0:
            print(f"the {name} runner failed (exit {code}):\n{err}", file=sys.stderr)
            return 1
    groups = differences(cases, json.loads(finished["base"][0]), json.loads(finished["here"][0]))
    differing = sum(map(len, groups.values()))
    print(f"differential: {len(cases)} cases, base {commit} against this checkout: "
          f"{differing} differing outcomes in {len(groups)} groups ({time.perf_counter() - start:.1f} s)")
    for (base_class, base_msg, here_class, here_msg), items in sorted(groups.items(), key=lambda g: -len(g[1])):
        argv, a, b = items[0]
        print(f"\n{len(items)} × {base_class}: {base_msg!r}  ->  {here_class}: {here_msg!r}")
        print(f"  e.g. {PARSE} {Path(argv[1]).name}" if argv[0] == PARSE else f"  e.g. crfactor {' '.join(argv)}")
        print(f"    base: {_show(a)}")
        print(f"    here: {_show(b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
