"""The package's public names, and the modules each use of the package loads."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import crfactor

DATA = Path(__file__).parent / "data"


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(crfactor.__all__)) == len(crfactor.__all__)
    for name in crfactor.__all__:
        assert not isinstance(getattr(crfactor, name), types.ModuleType), name
    public = {n for n in dir(crfactor) if not n.startswith("_")}
    modules = {n for n in public if isinstance(getattr(crfactor, n), types.ModuleType)}
    assert set(crfactor.__all__) == public - modules


def test_star_import_binds_all_and_each_name_is_its_modules_object():
    namespace = {}
    exec("from crfactor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(crfactor.__all__)
    for name in crfactor.__all__:
        module = importlib.import_module(f"crfactor.{crfactor._MODULE_OF[name]}")
        assert namespace[name] is getattr(crfactor, name) is getattr(module, name), name


# The crfactor.* modules that each command loads in a fresh interpreter.
COMMAND_LINE = {"cli", "errors", "model", "modelfile"}
EVERY_MODULE_BUT_RANDGEN = COMMAND_LINE | {"cr", "expr", "factorizers", "rewrites", "separation"}
CHILD = """
import sys
if sys.argv[1:]:
    from crfactor.cli import main
    code = main(sys.argv[1:])
else:
    import crfactor
    code = None
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("crfactor."))
print(code, " ".join(loaded), "numpy" in sys.modules, file=sys.stderr)
"""


def test_each_command_loads_only_the_modules_it_uses(tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text('{"initial": "CR(a,b,c)·P(a)·P(b)·P(c)", "steps": []}')
    path3, student = str(DATA / "path3_gibbs.model"), str(DATA / "student.model")
    cases = [
        ((), None, set(), False),
        (("export-dot", "--model", path3, "--clique-graph"), 0, COMMAND_LINE, True),
        (("istcg", "--model", path3), 0, COMMAND_LINE, True),
        (("factorize", "--method", "bn", "--model", str(DATA / "bad_edge.model")), 4, COMMAND_LINE, True),
        (("gen-random", "--kind", "bn", "--graph", "dag:4:0.5", "--seed", "1"), 0, COMMAND_LINE | {"randgen"}, True),
        (("indep", "--numeric", "--model", student, "--query", "D _|_ I"), 0, COMMAND_LINE | {"separation"}, True),
        (
            ("verify", "--model", str(DATA / "d2.model"), "--expr", str(DATA / "expr_d2_good.txt")),
            0, COMMAND_LINE | {"cr", "expr"}, True,
        ),
        (("factorize", "--method", "bn", "--model", student), 0, EVERY_MODULE_BUT_RANDGEN, True),
        (("factorize", "--method", "trace", "--model", path3, "--trace", str(trace)), 0, EVERY_MODULE_BUT_RANDGEN, True),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(crfactor.__file__).parents[1])}
    procs = [
        subprocess.Popen([sys.executable, "-c", CHILD, *argv], env=env, text=True,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        for argv, *_ in cases
    ]
    for (argv, code, modules, numpy), proc in zip(cases, procs):
        last = proc.communicate(timeout=60)[1].splitlines()[-1].split(" ")
        assert (last[0], set(last[1:-1]) - {""}, last[-1]) == (str(code), modules, str(numpy)), argv
