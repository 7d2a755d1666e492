"""Command-line interface.

Commands:
    factorize   --method {bn,tree,chain-crf,mrf,rmrf,tcg,trace} --model F
                [--trace T] [--tol E] [--no-verify] [--y y1,y2,...]
    verify      --model F --expr E [--tol E]
    gen-random  --kind {gibbs,bn} --graph SPEC --seed N [--card K]
    istcg       --model F
    indep       --model F --query "X _|_ Y | Z" [--numeric]
    export-dot  --model F [--clique-graph]

Exit codes: 0 success, 1 internal error (a defect in crfactor; the
traceback goes to the "crfactor" logger at DEBUG), 2 verification failure,
3 precondition failure (including failed certificates and undefined
values), 4 parse/usage error. Every command is deterministic given its
inputs.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import (
    CRFactorError,
    ExprParseError,
    ModelError,
    ModelParseError,
    PreconditionError,
    RewriteError,
)
from .model import ABS_TOL, REL_TOL, JointTable, ModelGraph, _check_tol, _row, is_tcg
from .modelfile import ParsedModel, parse_model, render_model

if TYPE_CHECKING:
    from .expr import FactorExpr
    from .separation import CIQuery

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VERIFICATION = 2
EXIT_PRECONDITION = 3
EXIT_PARSE = 4


@dataclass
class VerificationReport:
    """Outcome of evaluating an expression against the brute-force oracle at
    every full assignment."""

    assignments_checked: int
    max_abs_error: float
    max_rel_error: float
    worst_assignment: dict[str, int]
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        worst = ",".join(f"{k}={v}" for k, v in self.worst_assignment.items())
        return (
            f"verification: {status}  assignments={self.assignments_checked}"
            f"  max_rel_err={self.max_rel_error:.3e}  max_abs_err={self.max_abs_error:.3e}  worst={worst}"
        )


def verify_expression(
    expr: FactorExpr,
    table: JointTable,
    tol: float = REL_TOL,
    expected: Callable[[dict], object] | None = None,
) -> VerificationReport:
    """Compare eval_expr against `expected` (the joint entry by default) at
    every full assignment at once: `expected` gets the table's grid (see
    ``crfactor.cr.grid``). A nan row fails and is the worst row; otherwise
    the worst row is the first largest absolute error."""
    from .cr import grid
    from .expr import eval_expr

    rows = grid(table)
    shape = table.probs.shape
    actual = np.broadcast_to(eval_expr(expr, table, rows), shape).ravel()
    want = np.broadcast_to(table.probs if expected is None else expected(rows), shape).ravel()
    abs_err = np.abs(actual - want)
    with np.errstate(over="ignore"):  # an error past the float range is inf, a correct FAIL
        max_rel = float(np.max(abs_err / np.maximum(np.abs(want), ABS_TOL)))
    worst = int(np.argmax(abs_err))
    return VerificationReport(actual.size, float(abs_err[worst]), max_rel, _row(table, worst), tol)


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 4 instead of argparse's default 2
        raise _UsageError(message)


def _read_text(path: str, what: str, error_class: type[CRFactorError]) -> str:
    """The UTF-8 text of an input file; an unreadable or undecodable file is
    an `error_class` (exit 4)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error_class(f"cannot read {what} file {path!r}: {exc}") from None


def _load_model(path: str) -> ParsedModel:
    return parse_model(_read_text(path, "model", ModelParseError))


def _require_kind(model: ParsedModel, kind: str, what: str) -> None:
    """`what` names the caller, e.g. "method 'bn'" or "command 'istcg'"."""
    if model.graph.kind != kind:
        article = "an" if kind == "undirected" else "a"
        raise PreconditionError(f"{what} requires {article} {kind} graph")


def _cmd_factorize(args) -> int:
    if args.method == "trace" and not args.trace:
        raise _UsageError("--trace FILE is required with --method trace")
    if args.method != "trace" and args.trace is not None:
        raise _UsageError("--trace is read only by --method trace")
    if args.method != "chain-crf" and args.y is not None:
        raise _UsageError("--y is read only by --method chain-crf")
    model = _load_model(args.model)
    from .expr import eval_expr, product_of, render
    from .factorizers import (
        factorize_bn,
        factorize_chain_crf,
        factorize_tcg,
        factorize_tree_mn,
        mrf_factorize,
        rmrf_factorize,
    )

    table = model.joint()
    tol = args.tol
    expected = None
    lines: list[str]

    if args.method == "bn":
        _require_kind(model, "directed", "method 'bn'")
        expr, _trace = factorize_bn(model.graph)
        lines = [render(expr)]
    elif args.method == "tree":
        _require_kind(model, "undirected", "method 'tree'")
        expr = factorize_tree_mn(model.graph)
        lines = [render(expr)]
    elif args.method == "chain-crf":
        y_order = _chain_vars(args, model)
        expr = factorize_chain_crf(table, y_order)
        x_vars = tuple(n for n in table.names if n not in set(y_order))

        def expected(a, _x=x_vars):  # P(y | x)
            return table.prob(a) / table.event_prob({n: a[n] for n in _x})

        lines = [render(expr)]
    elif args.method == "mrf":
        _require_kind(model, "undirected", "method 'mrf'")
        phis = mrf_factorize(table, model.graph, model.default_assignment(), tol=tol)
        expr = product_of(phis.values())
        lines = [f"phi({' '.join(mc)}) = {render(phi)}" for mc, phi in phis.items()]
    elif args.method == "rmrf":
        _require_kind(model, "undirected", "method 'rmrf'")
        expr = rmrf_factorize(table, model.graph, model.default_assignment(), tol=tol)
        lines = [render(expr)]
    elif args.method == "tcg":
        _require_kind(model, "undirected", "method 'tcg'")
        result = factorize_tcg(table, model.graph, tol=tol)
        expr = result.expr
        lines = [
            f"phi({' '.join(mc)}) = {render(phi)}" for mc, phi in result.factors.items()
        ]
    elif args.method == "trace":
        initial, expr = _run_trace_file(args.trace, model, table, tol)
        lines = [render(expr)]

        def expected(a, _init=initial):
            return eval_expr(_init, table, a)

    else:  # unreachable; argparse limits choices
        raise _UsageError(f"unknown method {args.method!r}")

    if args.no_verify:
        print("\n".join(lines))
        return EXIT_OK
    report = verify_expression(expr, table, tol, expected)
    if not report.passed:
        print(report.line(), file=sys.stderr)
        return EXIT_VERIFICATION
    print("\n".join(lines))
    print(report.line())
    return EXIT_OK


def _chain_vars(args, model: ParsedModel) -> tuple[str, ...]:
    if args.y:
        return tuple(n.strip() for n in args.y.split(",") if n.strip())
    guessed = tuple(n for n in model.names if n.startswith("y"))
    if not guessed:
        raise PreconditionError("chain-crf needs --y or variables named y*")
    return guessed


def _run_trace_file(path: str, model: ParsedModel, table, tol):
    import json

    from .expr import parse_expr
    from .rewrites import replay_trace, trace_from_dicts

    try:
        data = json.loads(_read_text(path, "trace", ModelParseError))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelParseError(f"trace file {path!r}: {exc}") from None
    if not isinstance(data, dict) or "initial" not in data or "steps" not in data:
        raise ModelParseError(f"trace file {path!r} needs 'initial' and 'steps' fields")
    if not isinstance(data["initial"], str):
        raise ModelParseError(f"trace file {path!r}: 'initial' must be a string")
    try:
        initial = parse_expr(data["initial"])
    except (ExprParseError, ModelError) as exc:
        raise ModelParseError(f"trace file {path!r}: initial: {exc}") from None
    try:
        steps = trace_from_dicts(data["steps"])
    except RewriteError as exc:
        raise ModelParseError(f"trace file {path!r}: {exc}") from None
    final = replay_trace(initial, steps, graph=model.graph, table=table, tol=tol)
    return initial, final


def _cmd_verify(args) -> int:
    model = _load_model(args.model)
    from .expr import parse_expr, validate_scoping

    table = model.joint()
    expr = parse_expr(_read_text(args.expr, "expression", ExprParseError).strip())
    free, bound = validate_scoping(expr)
    unknown = {*free, *bound} - set(table.names)
    if unknown:
        raise PreconditionError(f"expression references unknown variables {sorted(unknown)!r}")
    report = verify_expression(expr, table, args.tol)
    print(report.line())
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_gen_random(args) -> int:
    from .randgen import random_model

    model = random_model(args.kind, args.graph, args.seed, args.card)
    sys.stdout.write(render_model(model))
    return EXIT_OK


def _cmd_istcg(args) -> int:
    model = _load_model(args.model)
    _require_kind(model, "undirected", "command 'istcg'")
    check = is_tcg(model.graph)
    print(f"TCG: {'true' if check.ok else 'false'}")
    if check.ok:
        for clique, maxadj in check.elimination:
            print(f"remove {{{' '.join(clique)}}} into {{{' '.join(maxadj)}}}")
        print(f"root {{{' '.join(check.root)}}}")
    return EXIT_OK


def _parse_ci_query(text: str) -> CIQuery:
    from .separation import CIQuery

    if "_|_" not in text:
        raise ExprParseError("query must look like 'X _|_ Y | Z'")
    lhs, rest = text.split("_|_", 1)
    if "|" in rest:
        mid, cond = rest.split("|", 1)
    else:
        mid, cond = rest, ""

    def names(part: str) -> tuple[str, ...]:
        return tuple(tok for tok in part.replace(",", " ").split() if tok)

    try:
        return CIQuery(names(lhs), names(mid), names(cond))
    except ModelError as exc:
        raise ExprParseError(str(exc)) from None


def _cmd_indep(args) -> int:
    model = _load_model(args.model)
    from .separation import ci_deviation, separated

    query = _parse_ci_query(args.query)
    label = "d-separated" if model.graph.kind == "directed" else "u-separated"
    print(f"{label}: {'true' if separated(model.graph, query) else 'false'}")
    if args.numeric:
        ok = ci_deviation(model.joint(), query) <= args.tol
        print(f"numeric-ci: {'true' if ok else 'false'}")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    model = _load_model(args.model)
    sys.stdout.write(export_dot(model.graph, clique_graph=args.clique_graph))
    return EXIT_OK


def export_dot(graph: ModelGraph, clique_graph: bool = False) -> str:
    """Deterministic DOT text for a model graph or its clique graph."""
    lines = []
    if clique_graph:
        if graph.kind != "undirected":
            raise PreconditionError("clique graphs are defined for undirected graphs")
        cliques = graph.maximal_cliques()
        lines.append("graph cliques {")
        for c in cliques:
            lines.append(f'  "{" ".join(c)}";')
        for c, d in itertools.combinations(cliques, 2):
            if set(c) & set(d):
                lines.append(f'  "{" ".join(c)}" -- "{" ".join(d)}";')
    else:
        arrow = "->" if graph.kind == "directed" else "--"
        lines.append(("digraph" if graph.kind == "directed" else "graph") + " model {")
        for n in graph.nodes:
            lines.append(f"  {n};")
        for a, b in graph.edges:
            lines.append(f"  {a} {arrow} {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tolerance(text: str) -> float:
    """A --tol value: a finite, non-negative float (see ``_check_tol``)."""
    try:
        return _check_tol(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    except ModelError:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}") from None


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="crfactor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="factorize a model and verify the result")
    p.add_argument("--method", required=True, choices=["bn", "tree", "chain-crf", "mrf", "rmrf", "tcg", "trace"])
    p.add_argument("--model", required=True)
    p.add_argument("--trace", help="trace file (JSON) for --method trace")
    p.add_argument("--tol", type=_tolerance, default=REL_TOL)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--y", help="comma-separated chain variables for chain-crf")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("verify", help="evaluate an expression file against a model's joint")
    p.add_argument("--model", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--tol", type=_tolerance, default=REL_TOL)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen-random", help="emit a seeded random model file")
    p.add_argument("--kind", required=True, choices=["gibbs", "bn"])
    p.add_argument("--graph", required=True, help="graph spec, e.g. path:3, cycle:4, dag:5:0.4")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--card", type=int, default=2)
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("istcg", help="test whether the clique graph is tree-reducible")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_istcg)

    p = sub.add_parser("indep", help="graph separation (and optional numeric) CI query")
    p.add_argument("--model", required=True)
    p.add_argument("--query", required=True, help="e.g. 'D _|_ I | G'")
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=REL_TOL)
    p.set_defaults(func=_cmd_indep)

    p = sub.add_parser("export-dot", help="export the model graph as DOT")
    p.add_argument("--model", required=True)
    p.add_argument("--clique-graph", action="store_true")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ModelError, ExprParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CRFactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # a defect in crfactor, not in the input
        import logging  # here, not at the top: every start of the CLI would pay for it

        logging.getLogger("crfactor").debug("internal error", exc_info=True)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
