"""Spans and counts around calls into crfactor, recorded from outside it.

A Tracer replaces public functions of the crfactor modules by wrappers,
under every module attribute that holds them (so ``is_markov`` is wrapped
both in ``crfactor.separation`` and where ``crfactor.factorizers`` imported
it), and methods on their classes. A span wrapper records one span per
call: name, start, end, parent span, request id and the exception class if
the call raised. A count wrapper only increments a per-request counter; it
is used for the hot scalar paths (``JointTable.event_prob`` runs hundreds of
thousands of times per pass), where a span per call would swamp the run.

Wrappers given a group are "outermost only": a call made while another call
of the same group is open passes straight through. That keeps recursive
``eval_expr`` and ``render`` to one span per top-level call, and counts
``separated`` -> ``d_separated`` as one graph-separation query.

Spans stay in memory until the run ends. ``pass_layers`` turns the spans
and counts of a set of requests into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

perf = time.perf_counter

# Span fields.
NAME, START, END, PARENT, REQUEST, ERROR = range(6)

SPAN, COUNT = "span", "count"

# (module, attribute or Class.method, kind, span or counter name, group)
TARGETS = (
    ("crfactor.modelfile", "parse_model", SPAN, "modelfile.parse_model", None),
    ("crfactor.modelfile", "render_model", SPAN, "modelfile.render_model", None),
    ("crfactor.modelfile", "ParsedModel.joint", SPAN, "model.joint", "model.joint"),
    ("crfactor.model", "JointTable.event_prob", COUNT, "model.event_prob", None),
    ("crfactor.cr", "cr_value", COUNT, "cr.cr_value", None),
    ("crfactor.cr", "conditional_cr_value", COUNT, "cr.cr_value", None),
    ("crfactor.expr", "eval_expr", SPAN, "expr.eval_expr", "expr.eval_expr"),
    ("crfactor.expr", "parse_expr", SPAN, "expr.parse_expr", None),
    ("crfactor.expr", "render", SPAN, "expr.render", "expr.render"),
    ("crfactor.rewrites", "replay_trace", SPAN, "rewrites.replay_trace", None),
    ("crfactor.rewrites", "validate_certificate", SPAN, "rewrites.validate_certificate", None),
    ("crfactor.rewrites", "trace_to_dicts", SPAN, "rewrites.trace_to_dicts", None),
    ("crfactor.rewrites", "trace_from_dicts", SPAN, "rewrites.trace_from_dicts", None),
    *(
        ("crfactor.rewrites", f"apply_{rule}", COUNT, "rewrites.step", "rewrites.step")
        for rule in (
            "bipartition", "merge", "duplicate", "condition", "ci_reduce",
            "ci_split", "ci_collapse", "independence", "single_block",
        )
    ),
    ("crfactor.separation", "is_markov", SPAN, "separation.is_markov", None),
    ("crfactor.separation", "ci_deviation", SPAN, "separation.ci_deviation", None),
    (
        "crfactor.separation", "mutual_independence_deviation", SPAN,
        "separation.mutual_independence_deviation", None,
    ),
    *(
        ("crfactor.separation", fn, COUNT, "separation.graph_sep", "separation.graph_sep")
        for fn in ("separated", "d_separated", "u_separated")
    ),
    *(
        ("crfactor.factorizers", fn, SPAN, f"factorizers.{fn}", "factorizers")
        for fn in (
            "factorize_bn", "factorize_tree_mn", "factorize_chain_crf", "hc_potential",
            "mrf_factorize", "rmrf_factorize", "is_tcg", "factorize_tcg",
        )
    ),
    ("crfactor.cli", "verify_expression", SPAN, "cli.verify_expression", None),
    ("crfactor.cli", "main", SPAN, "cli.main", None),
    *(
        ("crfactor.randgen", fn, SPAN, f"randgen.{fn}", "randgen")
        for fn in (
            "make_graph", "random_gibbs_model", "random_cpts", "random_joint_table",
            "random_chain_conditional_table", "random_model",
        )
    ),
)


def leaf_terms(expr) -> int:
    """Number of CR and P terms in an expression tree."""
    from crfactor.expr import CRTerm, Product, PTerm, Sum

    if isinstance(expr, (CRTerm, PTerm)):
        return 1
    if isinstance(expr, Product):
        return sum(leaf_terms(c) for c in expr.children)
    if isinstance(expr, Sum):
        return leaf_terms(expr.child)
    return 0


def result_terms(result) -> int:
    """Leaf terms in a factorizer's result: an expression, a dict of them
    (mrf), an (expression, trace) pair (bn), a TcgResult, or none (is_tcg)."""
    if isinstance(result, dict):
        return sum(leaf_terms(e) for e in result.values())
    if isinstance(result, tuple):
        return leaf_terms(result[0])
    return leaf_terms(getattr(result, "expr", result))


def _after_verify(counts: Counter, args, result) -> None:
    rows = result.assignments_checked
    counts["cli.verify_rows"] += rows
    counts["expr.term_evals"] += rows * leaf_terms(args[0])


def _after_factorizer(counts: Counter, args, result) -> None:
    counts["factorizers.terms"] += result_terms(result)


AFTER = {"cli.verify_expression": _after_verify}


class Tracer:
    """In-memory span and count recorder with installable wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[object, Counter] = {}
        self.request = None
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._current = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- requests and manual spans ------------------------------------

    def begin_request(self, request) -> None:
        self.request = request
        self._current = self.counts.setdefault(request, Counter())

    def open_span(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf(), 0.0, parent, self.request, None])
        self._stack.append(index)
        return index

    def close_span(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span[END] = perf()
        span[ERROR] = error
        self._stack.pop()

    def current_span(self) -> int:
        return self._stack[-1] if self._stack else -1

    def add_span(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.request, None])

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, fn, name, group):
        after = AFTER.get(name) or (_after_factorizer if group == "factorizers" else None)
        is_open = self._open

        def wrapper(*args, **kwargs):
            if group is not None and is_open[group]:
                return fn(*args, **kwargs)
            if group is not None:
                is_open[group] += 1
            index = self.open_span(name)
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self.close_span(index, error)
                if group is not None:
                    is_open[group] -= 1
            if after is not None:
                after(self._current, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name, group):
        is_open = self._open

        def wrapper(*args, **kwargs):
            if group is None:
                self._current[name] += 1
                return fn(*args, **kwargs)
            if is_open[group]:
                return fn(*args, **kwargs)
            self._current[name] += 1
            is_open[group] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                is_open[group] -= 1

        return wrapper

    def install(self) -> None:
        """Wrap every target under every crfactor module attribute that
        refers to it."""
        modules = [importlib.import_module(m) for m in sorted({t[0] for t in TARGETS})]
        modules.append(importlib.import_module("crfactor"))
        for module_name, attr, kind, name, group in TARGETS:
            module = sys.modules[module_name]
            make = self._span_wrapper if kind == SPAN else self._count_wrapper
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, make(original, name, group))
                continue
            original = getattr(module, attr)
            wrapper = make(original, name, group)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- transport between processes ----------------------------------

    def dump(self, path: str) -> None:
        data = {
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def merge_child(self, path: str, parent: int) -> None:
        """Append a child process's spans under span `parent` (perf_counter
        is the system-wide monotonic clock, so times are comparable) and add
        its counts to the current request."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        offset = len(self.spans)
        for name, start, end, par, _request, error in data["spans"]:
            self.spans.append(
                [name, start, end, parent if par < 0 else par + offset, self.request, error]
            )
        for counts in data["counts"].values():
            self._current.update(counts)


# ---------------------------------------------------------------------------
# Analysis


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with span structure: a parent that is missing, later than
    its child, of another request, or not enclosing the child in time."""
    problems = []
    for i, span in enumerate(spans):
        if span[END] < span[START]:
            problems.append(f"span {i} {span[NAME]} ends before it starts")
        parent = span[PARENT]
        if parent < 0:
            continue
        if parent >= i:
            problems.append(f"span {i} {span[NAME]} has parent {parent} recorded after it")
            continue
        p = spans[parent]
        if p[REQUEST] != span[REQUEST]:
            problems.append(f"span {i} {span[NAME]} and parent {p[NAME]} differ in request")
        if not (p[START] <= span[START] and span[END] <= p[END]):
            problems.append(f"span {i} {span[NAME]} is not inside parent {p[NAME]}")
    return problems


# Per-layer busy-time metric and the span name whose durations it sums.
BUSY = (
    ("cli.verify_s", "cli.verify_expression"),
    ("expr.eval_s", "expr.eval_expr"),
    ("separation.markov_s", "separation.is_markov"),
    ("separation.ci_s", "separation.ci_deviation"),
    ("separation.mutual_s", "separation.mutual_independence_deviation"),
    ("rewrites.replay_s", "rewrites.replay_trace"),
    ("rewrites.cert_s", "rewrites.validate_certificate"),
    ("modelfile.parse_s", "modelfile.parse_model"),
    ("expr.parse_s", "expr.parse_expr"),
    ("expr.render_s", "expr.render"),
    ("cli.import_s", "cli.import"),
    ("model.joint_s", "model.joint"),
)

# Per-layer count metric and the counter it reads.
COUNTS = (
    ("cli.verify_rows", "cli.verify_rows"),
    ("expr.term_evals", "expr.term_evals"),
    ("model.event_prob_calls", "model.event_prob"),
    ("cr.cr_value_calls", "cr.cr_value"),
    ("separation.ci_tests", "separation.ci_tests"),
    ("separation.graph_sep_calls", "separation.graph_sep"),
    ("rewrites.steps", "rewrites.step"),
    ("rewrites.cert_checks", "rewrites.cert_checks"),
    ("rewrites.cert_rejects", "rewrites.cert_rejects"),
    ("factorizers.terms", "factorizers.terms"),
)


def pass_layers(spans: list[list], counts: Counter) -> dict[str, float]:
    """Busy times, self times and counts of one set of requests.

    `spans` holds the spans of those requests only (parent indices still
    refer to the full list, so self time is computed on durations of the
    direct children found among `spans`)."""
    busy: Counter = Counter()
    child_time: Counter = Counter()
    by_index = {}
    counts = Counter(counts)
    for index, span in spans:
        dur = span[END] - span[START]
        busy[span[NAME]] += dur
        by_index[index] = span
        if span[NAME] == "rewrites.validate_certificate":
            counts["rewrites.cert_checks"] += 1
            if span[ERROR] == "CertificateError":
                counts["rewrites.cert_rejects"] += 1
        if span[NAME] == "separation.ci_deviation":
            counts["separation.ci_tests"] += 1
    for index, span in spans:
        if span[PARENT] in by_index:
            child_time[span[PARENT]] += span[END] - span[START]
    factorizers_self = sum(
        (span[END] - span[START]) - child_time[index]
        for index, span in spans
        if span[NAME].startswith("factorizers.")
    )
    out = {metric: busy[name] for metric, name in BUSY}
    out["factorizers.self_s"] = factorizers_self
    out["randgen.gen_s"] = sum(v for k, v in busy.items() if k.startswith("randgen."))
    out["trace.request_s"] = busy["request"]
    for metric, name in COUNTS:
        out[metric] = float(counts[name])
    rows = counts["cli.verify_rows"]
    out["model.event_prob_per_row"] = counts["model.event_prob"] / rows if rows else 0.0
    return out
