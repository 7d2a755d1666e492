"""The benchmark's three workloads: set-up and the requests they send.

A request is one user-level job, timed from start to verdict:

* ``undirected-mrf`` and ``directed-trace`` run in this process. Each
  request parses a generated model text, materializes the joint, factorizes
  (or replays a trace) and verifies the result against the joint.
* ``cli-small`` runs the ``crfactor`` command line in a child process per
  request, on the committed ``tests/data`` models.

The workload seed draws the potentials, CPT entries and chain tables. Graph
shapes come from the fixed ``GRAPH_SEED``, so every seed sends requests of
the same size and expression renderings do not depend on the seed.

The request list of each workload, with every request's expected verdict
(or exit code) and golden rendering digest, is read from
``known_answers.json``; ``capture.py`` writes that file.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
KNOWN_ANSWERS = HERE / "known_answers.json"
LAUNCHER = HERE / "cli_launcher.py"
TRACE_ENV = "CRFACTOR_BENCH_TRACE"

WORKLOADS = ("undirected-mrf", "directed-trace", "cli-small")

GRAPH_SEED = 0

# (graph spec, cardinality)
UNDIRECTED_MODELS = (
    ("er:8:0.4", 2),
    ("er:10:0.3", 2),
    ("path:10", 2),
    ("triangles:4", 2),
    ("cycle:6", 3),
)
DIRECTED_MODELS = (
    ("dag:10:0.3", 2),
    ("dag:12:0.3", 2),
    ("chain:12", 2),
    ("dag:14:0.3", 2),
    ("dag:8:0.4", 3),
    ("student", 3),
)
CHAIN_Y = ("y1", "y2", "y3", "y4")
CHAIN_X = ("x1", "x2", "x3", "x4", "x5", "x6")

# The four-factor reduction of the study network (see the README) with its
# node marginals: it misses generic joints of that DAG by factors of order one.
WRONG_EXPR = "CR(D,G)·CR(S,I)·CR(I,G)·CR(G,L)·P(D)·P(I)·P(G)·P(S)·P(L)"

# cli-small: request id -> argv ("{seed}" is replaced by the workload seed).
CLI_REQUESTS = {
    "factorize-bn": ["factorize", "--method", "bn", "--model", "tests/data/student.model"],
    "factorize-tree": ["factorize", "--method", "tree", "--model", "tests/data/path3_gibbs.model"],
    "factorize-mrf": ["factorize", "--method", "mrf", "--model", "tests/data/cycle4_gibbs.model"],
    "factorize-rmrf": ["factorize", "--method", "rmrf", "--model", "tests/data/cycle4_gibbs.model"],
    "factorize-tcg": ["factorize", "--method", "tcg", "--model", "tests/data/path3_gibbs.model"],
    "factorize-trace": [
        "factorize", "--method", "trace", "--model", "tests/data/student.model",
        "--trace", "bench/data/student_bn.trace.json",
    ],
    "verify-good": [
        "verify", "--model", "tests/data/d2.model", "--expr", "tests/data/expr_d2_good.txt",
    ],
    "verify-bad": [
        "verify", "--model", "tests/data/d2.model", "--expr", "tests/data/expr_d2_bad.txt",
    ],
    "indep-numeric": [
        "indep", "--model", "tests/data/student.model", "--query", "D _|_ I | G", "--numeric",
    ],
    "istcg": ["istcg", "--model", "tests/data/path3_gibbs.model"],
    "export-dot": ["export-dot", "--model", "tests/data/cycle4_gibbs.model", "--clique-graph"],
    "gen-random-gibbs": ["gen-random", "--kind", "gibbs", "--graph", "cycle:4", "--seed", "{seed}"],
    "gen-random-bn": ["gen-random", "--kind", "bn", "--graph", "student", "--seed", "{seed}"],
    "bad-edge": ["factorize", "--method", "tree", "--model", "tests/data/bad_edge.model"],
    "trace-4b": [
        "factorize", "--method", "trace", "--model", "tests/data/student.model",
        "--trace", "bench/data/student_4b_split.trace.json",
    ],
}

# Requests whose expected verdict comes from a rejected certificate.
CERTIFICATE_NEGATIVES = {"student/trace-4b", "trace-4b"}

# Files the workloads read besides the package sources.
CLI_INPUTS = ("tests/data", "bench/data")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources, no data)."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_checkout() -> None:
    """Refuse to run against anything but this checkout's own sources."""
    if not (SRC / "crfactor" / "__init__.py").is_file():
        raise SetupError(f"no package sources under {SRC}")
    for rel in CLI_INPUTS:
        if not (ROOT / rel).is_dir():
            raise SetupError(f"missing input directory {rel}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crfactor

    if Path(crfactor.__file__).resolve().parent != SRC / "crfactor":
        raise SetupError(f"crfactor imported from {crfactor.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Requests


@dataclass
class Outcome:
    verdict: str
    rendering: str | None = None
    rss_kb: int = 0
    latency: float | None = None  # set for child processes (their wall time)


@dataclass
class Request:
    id: str
    run: Callable[..., Outcome]  # run(tracer) -> Outcome
    verdict: str
    rendering: str | None  # digest of the golden rendering, if any
    sizes: dict = field(default_factory=dict)
    model: str | None = None  # id of the generated model it reads
    model_ok: bool = True  # its generated text matched the seed's digest


@dataclass
class Workload:
    name: str
    seed: int
    requests: list[Request]
    in_process: bool


def _verdict(report) -> str:
    return "pass" if report.passed else "FAIL"


def gibbs_text(spec: str, card: int, seed: int) -> str:
    from crfactor import model, modelfile, randgen

    graph = randgen.make_graph(spec, GRAPH_SEED)
    gm = randgen.random_gibbs_model(graph, seed, card)
    variables = tuple(model.Variable(n, card) for n in graph.nodes)
    potentials = [(scope, gm.potentials[scope]) for scope in graph.maximal_cliques()]
    parsed = modelfile.ParsedModel("potential", variables, graph, {}, potentials=potentials)
    return modelfile.render_model(parsed)


def bn_text(spec: str, card: int, seed: int) -> str:
    from crfactor import model, modelfile, randgen

    graph = randgen.make_graph(spec, GRAPH_SEED)
    variables = tuple(model.Variable(n, card) for n in graph.nodes)
    cpts = randgen.random_cpts(graph, seed, card)
    return modelfile.render_model(modelfile.ParsedModel("cpt", variables, graph, {}, cpts=cpts))


def chain_text(seed: int) -> str:
    from crfactor import model, modelfile, randgen

    table = randgen.random_chain_conditional_table(CHAIN_Y, CHAIN_X, seed)
    graph = model.ModelGraph("undirected", table.names, ())
    parsed = modelfile.ParsedModel("joint", table.variables, graph, {}, joint_probs=table.probs)
    return modelfile.render_model(parsed)


def model_texts(workload: str, seed: int) -> dict[str, str]:
    """Generated model texts of an in-process workload, by model id."""
    if workload == "undirected-mrf":
        return {spec: gibbs_text(spec, card, seed) for spec, card in UNDIRECTED_MODELS}
    texts = {spec: bn_text(spec, card, seed) for spec, card in DIRECTED_MODELS}
    texts["chain-crf"] = chain_text(seed)
    return texts


def undirected_request(op: str, text: str) -> Callable[..., Outcome]:
    from crfactor import cli, expr, factorizers, modelfile, randgen

    path = randgen.make_graph("path:6")  # spans the cycle:6 nodes a..f

    def run(tracer=None) -> Outcome:
        parsed = modelfile.parse_model(text)
        table = parsed.joint()
        graph = parsed.graph
        default = parsed.default_assignment()
        if op in ("mrf", "mrf-on-path"):
            target = path if op == "mrf-on-path" else graph
            phis = factorizers.mrf_factorize(table, target, default)
            result = expr.product_of(phis.values())
            lines = [f"phi({' '.join(mc)}) = {expr.render(phi)}" for mc, phi in phis.items()]
        elif op == "rmrf":
            result = factorizers.rmrf_factorize(table, graph, default)
            lines = [expr.render(result)]
        elif op == "tcg":
            tcg = factorizers.factorize_tcg(table, graph)
            result = tcg.expr
            lines = [f"phi({' '.join(mc)}) = {expr.render(phi)}" for mc, phi in tcg.factors.items()]
        elif op in ("tree", "tree-on-path"):
            result = factorizers.factorize_tree_mn(path if op == "tree-on-path" else graph)
            lines = [expr.render(result)]
        else:
            raise ValueError(f"unknown undirected request {op!r}")
        report = cli.verify_expression(result, table)
        return Outcome(_verdict(report), "\n".join(lines))

    return run


def directed_request(op: str, text: str, split_4b: list | None = None) -> Callable[..., Outcome]:
    from crfactor import cli, expr, factorizers, modelfile, rewrites

    def run(tracer=None) -> Outcome:
        parsed = modelfile.parse_model(text)
        table = parsed.joint()
        graph = parsed.graph
        if op == "bn-trace":
            result, trace = factorizers.factorize_bn(graph)
            dicts = json.loads(json.dumps(rewrites.trace_to_dicts(trace)))
            initial = rewrites.singleton_cr(graph.topological_order())
            by_graph = rewrites.replay_trace(
                initial, rewrites.trace_from_dicts(dicts), graph=graph, table=table
            )
            numeric = [
                dict(d, certificate=dict(d["certificate"], kind="numeric"))
                if d.get("certificate") else d
                for d in dicts
            ]
            by_table = rewrites.replay_trace(
                initial, rewrites.trace_from_dicts(numeric), graph=graph, table=table
            )
            lines = [expr.render(result), expr.render(by_graph), expr.render(by_table)]
            report = cli.verify_expression(result, table)
        elif op == "chain-crf":
            result = factorizers.factorize_chain_crf(table, CHAIN_Y)

            def expected(a):  # P(y | x)
                return table.prob(a) / table.event_prob({n: a[n] for n in CHAIN_X})

            lines = [expr.render(result)]
            report = cli.verify_expression(result, table, expected=expected)
        elif op == "trace-4b":
            initial = rewrites.singleton_cr(("D", "I", "G", "S", "L"))
            final = rewrites.replay_trace(
                initial, rewrites.trace_from_dicts(split_4b), graph=graph, table=table
            )
            lines = [expr.render(final)]
            report = cli.verify_expression(final, table, expected=lambda a: expr.eval_expr(initial, table, a))
        elif op == "wrong-expr":
            result = expr.parse_expr(WRONG_EXPR)
            lines = [expr.render(result)]
            report = cli.verify_expression(result, table)
        else:
            raise ValueError(f"unknown directed request {op!r}")
        return Outcome(_verdict(report), "\n".join(lines))

    return run


def _communicate(proc: subprocess.Popen) -> tuple[bytes, bytes]:
    """Read a child's stdout and stderr to the end without reaping it."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def cli_request(argv: list[str], request_id: str) -> Callable[..., Outcome]:
    import time

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop(TRACE_ENV, None)
    trace_file = HERE / ".work" / f"{request_id}.trace.json"

    def run(tracer=None) -> Outcome:
        child_env = env
        parent = -1
        if tracer is not None:
            trace_file.parent.mkdir(exist_ok=True)
            child_env = dict(env, **{TRACE_ENV: str(trace_file)})
            parent = tracer.current_span()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), *argv],
            cwd=ROOT, env=child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        out, _err = _communicate(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is not None:
            tracer.merge_child(str(trace_file), parent)
            trace_file.unlink()
        return Outcome(f"exit {proc.returncode}", out.decode("utf-8"), usage.ru_maxrss, latency)

    return run


# ---------------------------------------------------------------------------
# Set-up


def load_known() -> dict:
    with open(KNOWN_ANSWERS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def build(workload: str, seed: int, known: dict | None) -> Workload:
    """Generate a workload's inputs and its request list.

    With `known` (the parsed known-answers file) the requests come from it
    with their expected verdicts and rendering digests; without it (when
    capturing) every request of the definitions is built with no answer."""
    if workload not in WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}")
    check_checkout()
    entries = known["workloads"][workload]["requests"] if known else request_plan(workload)
    requests = []
    if workload == "cli-small":
        for e in entries:
            argv = [a.replace("{seed}", str(seed)) for a in CLI_REQUESTS[e["id"]]]
            rendering = e.get("stdout") or e.get("stdout_by_seed", {}).get(str(seed))
            requests.append(
                Request(e["id"], cli_request(argv, e["id"]), e.get("verdict"), rendering, e.get("sizes", {}))
            )
        return Workload(workload, seed, requests, in_process=False)

    texts = model_texts(workload, seed)
    split_4b = json.loads((DATA / "student_4b_split.trace.json").read_text("utf-8"))["steps"]
    for e in entries:
        text = texts[e["model"]]
        if workload == "undirected-mrf":
            run = undirected_request(e["op"], text)
        else:
            run = directed_request(e["op"], text, split_4b)
        requests.append(
            Request(e["id"], run, e.get("verdict"), e.get("rendering"), e.get("sizes", {}), e["model"])
        )
    digests = {k: digest(v) for k, v in texts.items()}
    golden = known["workloads"][workload]["model_digests_by_seed"].get(str(seed), {}) if known else {}
    for r in requests:
        r.model_ok = golden.get(r.model, digests[r.model]) == digests[r.model]
    return Workload(workload, seed, requests, in_process=True)


def request_plan(workload: str) -> list[dict]:
    """The request definitions of a workload, before capture: id, model
    and operation (in-process) or id (cli-small)."""
    if workload == "cli-small":
        return [{"id": rid} for rid in CLI_REQUESTS]
    plan = []
    if workload == "undirected-mrf":
        from crfactor import factorizers, randgen

        for spec, _card in UNDIRECTED_MODELS:
            graph = randgen.make_graph(spec, GRAPH_SEED)
            ops = ["mrf", "rmrf"]
            if factorizers.is_tcg(graph).ok:
                ops.append("tcg")
            if spec == "path:10":
                ops.append("tree")
            plan += [{"id": f"{spec}/{op}", "model": spec, "op": op} for op in ops]
        plan.append({"id": "cycle:6/mrf-on-path", "model": "cycle:6", "op": "mrf-on-path"})
        plan.append({"id": "cycle:6/tree-on-path", "model": "cycle:6", "op": "tree-on-path"})
        return plan
    for spec, _card in DIRECTED_MODELS:
        plan.append({"id": f"{spec}/bn-trace", "model": spec, "op": "bn-trace"})
    plan.append({"id": "chain-crf", "model": "chain-crf", "op": "chain-crf"})
    plan.append({"id": "student/trace-4b", "model": "student", "op": "trace-4b"})
    plan.append({"id": "student/wrong-expr", "model": "student", "op": "wrong-expr"})
    return plan


def execute(request: Request, tracer=None) -> Outcome:
    """Run one request; package errors become the verdict (their class
    name), any other exception an "unexpected" verdict."""
    from crfactor.errors import CRFactorError

    try:
        return request.run(tracer)
    except CRFactorError as exc:
        return Outcome(type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 - a wrong verdict, reported and counted
        return Outcome(f"unexpected {type(exc).__name__}: {exc}")


def matches(request: Request, outcome: Outcome) -> bool:
    """Whether an outcome agrees with the request's known answer."""
    if outcome.verdict != request.verdict or not request.model_ok:
        return False
    if request.rendering is None:
        return True
    return outcome.rendering is not None and digest(outcome.rendering) == request.rendering
