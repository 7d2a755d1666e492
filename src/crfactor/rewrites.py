"""Value-preserving rewrites of factor expressions, with recorded traces.

Each rewrite implements one algebraic identity of co-occurrence rates:

    single_block   CR(b) = 1
    bipartition    CR(L, R) = CR(L) CR(merge L, merge R) CR(R)
    merge          CR(.., b_i, b_j, ..) = CR(.., b_i b_j, ..) CR(b_i, b_j)
    duplicate      CR(.., b, ..) = CR(.., b, b, ..) P(b)
    condition      CR(b_1..b_n) = sum_x CR(b_1..b_n|x) CR(b_1,x)..CR(b_n,x) P(x)
    ci_reduce      (x ⊥ y | w)  =>  CR(x-block, y w-block) = CR(x-block, w-block)
    ci_split       (x ⊥ y | w)  =>  CR(w, x y) = CR(x,w) CR(y,w) CR(x,y)^-1
    ci_collapse    (x ⊥ y | w)  =>  CR(w x, w y) = 1 / P(w)
    independence   blocks mutually independent  =>  CR(b_1..b_n) = 1

The first five need no side conditions and hold on every strictly positive
table; the last four need an independence certificate, sourced either from
graph separation or from a numeric test. A rule is pure algebra: it
derives the rewritten expression and the certificate the step needs, and
checks no certificate. Whoever takes the step checks it with
`validate_certificate`: replay here, and the factorizers' recorder. A
certificate is checked against the keywords `graph=`, `table=` and `tol=`,
which `validate_certificate`, `replay_step` and `replay_trace` all take.

A rewrite targets a node by its path (child positions from the root),
returns a new tree plus a trace step, and never reorders untouched
siblings. `RULES` gives each rule's recorded params. Replaying a recorded
trace from the initial expression reproduces the final expression exactly:
each step must derive the certificate it recorded, and every certificate is
validated, failing loudly when the claimed independence does not hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cr import Block
from .errors import CertificateError, CRFactorError, RewriteError
from .expr import ONE, CRTerm, FactorExpr, PTerm, Product, Sum, validate_scoping
from .model import JointTable, ModelGraph, REL_TOL, _check_name, _check_tol, _is_name, _repeated
from .separation import CIQuery, mutual_independence_deviation, separated


_INT, _STR = frozenset({int}), frozenset({str})


def _ints(value) -> bool:
    """Whether a JSON value is a list of ints (of type int exactly, so no bool)."""
    return isinstance(value, (list, tuple)) and _INT.issuperset(map(type, value))


def _names(value) -> bool:
    """Whether a JSON value is a list of names (of type str exactly)."""
    return isinstance(value, (list, tuple)) and _STR.issuperset(map(type, value)) and all(map(_is_name, value))


def _of_kind(value, kind: str) -> bool:
    """Whether a JSON value has a param kind of `RULES`."""
    if kind == "int":
        return type(value) is int
    if kind == "name":
        return type(value) is str and _is_name(value)
    return _ints(value) if kind == "int list" else _names(value)


# rule -> ({recorded param: kind}, consumes a certificate). The params are
# the keyword parameters of apply_<rule> after (root, path), in order; a
# certificate rule also takes cert_kind.
RULES: dict[str, tuple[dict[str, str], bool]] = {
    "bipartition": ({"left": "int list", "right": "int list"}, False),
    "merge": ({"i": "int", "j": "int"}, False),
    "duplicate": ({"index": "int"}, False),
    "condition": ({"over": "name"}, False),
    "ci_reduce": ({"keep": "int", "y": "name list", "w": "name list"}, True),
    "ci_split": ({"w_index": "int", "x": "name list", "y": "name list"}, True),
    "ci_collapse": ({}, True),
    "independence": ({}, True),
    "single_block": ({}, False),
}


def _rule(rule) -> tuple[dict[str, str], bool]:
    if not isinstance(rule, str) or rule not in RULES:
        raise RewriteError(f"unknown rule {rule!r}")
    return RULES[rule]


@dataclass(frozen=True)
class Certificate:
    """An independence fact and the source that justifies it.

    kind is "graph" (separation in the model graph) or "numeric" (a CI test
    against the joint table). CI-shaped facts use (x, y, z); mutual
    independence of several groups uses `groups` (with z as the conditioning
    set, usually empty).
    """

    kind: str
    x: tuple[str, ...] = ()
    y: tuple[str, ...] = ()
    z: tuple[str, ...] = ()
    groups: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in ("graph", "numeric"):
            raise RewriteError(f"unknown certificate kind {self.kind!r}")
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))
        object.__setattr__(self, "z", tuple(self.z))
        object.__setattr__(self, "groups", tuple(tuple(g) for g in self.groups))


@dataclass(frozen=True)
class TraceStep:
    """One recorded rewrite. `step_from_dict` checks a step read from JSON
    against `RULES`; a step built in Python is taken as built."""

    rule: str
    path: tuple[int, ...]
    params: dict
    certificate: Certificate | None = None


def validate_certificate(
    cert: Certificate, *, graph: ModelGraph | None = None, table: JointTable | None = None, tol: float = REL_TOL
) -> None:
    """Raise CertificateError unless the certificate's declared source
    confirms the recorded independence fact: every pair of groups less z's
    names separated given z in `graph`, or mutual independence given z in
    `table` within `tol`. A certificate of fewer than two groups states
    nothing and is not checked; a bad `tol` raises ModelError all the same."""
    _check_tol(tol)
    groups, z = cert.groups or (cert.x, cert.y), tuple(dict.fromkeys(cert.z))  # z = w + condition may repeat a name
    if len(groups) < 2:
        return
    if cert.kind == "graph":
        if graph is None:
            raise CertificateError("graph certificate given but no graph to check it against")
        for n in itertools.chain(*groups, z):
            graph.declaration_index(n)  # an unknown name raises ModelError
        # given z, its names drop out of each group: a pair with an empty side is separated, one sharing a name not
        sides = [tuple(n for n in dict.fromkeys(g) if n not in z) for g in groups]
        for a, b in itertools.combinations(sides, 2):
            if a and b and (not set(a).isdisjoint(b) or not separated(graph, CIQuery(a, b, z))):
                raise CertificateError(f"graph separation does not hold: {cert}")
    elif table is None:
        raise CertificateError("numeric certificate given but no table to check it against")
    elif (dev := mutual_independence_deviation(table, groups, z)) > tol:
        raise CertificateError(f"numeric CI test fails (deviation {dev:.3e}): {cert}")


# ---------------------------------------------------------------------------
# Tree surgery


def get_node(root: FactorExpr, path: Sequence[int]) -> FactorExpr:
    node = root
    for idx in path:
        if isinstance(node, Product):
            if not 0 <= idx < len(node.children):
                raise RewriteError(f"no child {idx} at {path!r}")
            node = node.children[idx]
        elif isinstance(node, Sum):
            if idx != 0:
                raise RewriteError(f"a sum has a single child, got index {idx}")
            node = node.child
        else:
            raise RewriteError(f"path {path!r} descends into a leaf")
    return node


def _splice(node: FactorExpr, path: Sequence[int], replacement: Sequence[FactorExpr]) -> FactorExpr:
    """Replace the node at `path`, already resolved by _target_cr, with the
    given CR, P and Sum factors (no literal: a rule that leaves 1 gives no
    factor). Inside a product the factors are spliced in place (later
    siblings shift, order is preserved); elsewhere they are wrapped as
    needed."""
    if not path:
        return Product(tuple(replacement)) if len(replacement) > 1 else replacement[0] if replacement else ONE
    head, rest = path[0], path[1:]
    if isinstance(node, Sum):
        return Sum(node.over, _splice(node.child, rest, replacement))
    kids = list(node.children)
    if rest:
        kids[head] = _splice(kids[head], rest, replacement)
    else:
        kids[head : head + 1] = replacement
    return Product(tuple(kids))


def _target_cr(root: FactorExpr, path: Sequence[int], rule: str = "", blocks: int = 0) -> CRTerm:
    """The CR term at `path`, of exponent 1 and, when `blocks` is set, with the one or two blocks `rule` needs."""
    node = get_node(root, path)
    if not isinstance(node, CRTerm):
        raise RewriteError(f"rewrite target at {tuple(path)!r} is not a CR term")
    if node.exponent != 1:
        raise RewriteError("rewrites target CR terms with exponent 1")
    if blocks and len(node.blocks) != blocks:
        raise RewriteError(f"{rule} applies to {('one', 'two')[blocks - 1]}-block CR terms")
    return node


def _merge_blocks(blocks: Iterable[Block]) -> Block:
    members = tuple([m for b in blocks for m in b.members])
    if len({name for name, _ in members}) < len(members):
        twice = _repeated(name for name, _ in members)
        raise RewriteError(f"cannot merge blocks: variable {twice!r} appears twice in one block")
    return Block._of(members)


def _rewrite(
    root: FactorExpr, path: Sequence[int], replacement: Sequence[FactorExpr], rule: str, params: dict,
    cert: Certificate | None = None,
) -> tuple[FactorExpr, TraceStep]:
    """Finish a rewrite: splice the replacement in at `path` and record the step."""
    return _splice(root, path, replacement), TraceStep(rule, tuple(path), params, cert)


# ---------------------------------------------------------------------------
# Certificate-free rewrites


def apply_single_block(root: FactorExpr, path: Sequence[int]) -> tuple[FactorExpr, TraceStep]:
    """CR(b) = 1 for any single block b."""
    term = _target_cr(root, path, "single_block", 1)
    return _rewrite(root, path, [], "single_block", {})


def apply_bipartition(
    root: FactorExpr, path: Sequence[int], left: Sequence[int], right: Sequence[int]
) -> tuple[FactorExpr, TraceStep]:
    """Split a CR term in two: CR(L, R) = CR(L) CR(mL, mR) CR(R), where the
    cut factor treats each side as one merged block. The replacement keeps
    the order [left part, cut, right part]."""
    term = _target_cr(root, path)
    left = [int(i) for i in left]
    right = [int(i) for i in right]
    n = len(term.blocks)
    if sorted(left + right) != list(range(n)) or not left or not right:
        raise RewriteError("left/right must split the term's block indices into two non-empty parts")
    lblocks = tuple(map(term.blocks.__getitem__, left))
    rblocks = tuple(map(term.blocks.__getitem__, right))
    cut = CRTerm((_merge_blocks(lblocks), _merge_blocks(rblocks)), term.condition)
    replacement = [
        CRTerm(lblocks, term.condition),
        cut,
        CRTerm(rblocks, term.condition),
    ]
    return _rewrite(root, path, replacement, "bipartition", {"left": left, "right": right})


def apply_merge(root: FactorExpr, path: Sequence[int], i: int, j: int) -> tuple[FactorExpr, TraceStep]:
    """Merge blocks i and j into one: CR(.., b_i, b_j, ..) =
    CR(.., b_i b_j, ..) CR(b_i, b_j). The merged block takes the earlier
    position."""
    term = _target_cr(root, path)
    n = len(term.blocks)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise RewriteError("merge needs two distinct block indices")
    merged = _merge_blocks((term.blocks[i], term.blocks[j]))
    lo, hi = min(i, j), max(i, j)
    blocks = list(term.blocks)
    blocks[lo] = merged
    del blocks[hi]
    replacement = [
        CRTerm(tuple(blocks), term.condition),
        CRTerm((term.blocks[i], term.blocks[j]), term.condition),
    ]
    return _rewrite(root, path, replacement, "merge", {"i": i, "j": j})


def apply_duplicate(root: FactorExpr, path: Sequence[int], index: int) -> tuple[FactorExpr, TraceStep]:
    """Duplicate block b at `index`: CR(.., b, ..) = CR(.., b, b, ..) P(b)."""
    term = _target_cr(root, path)
    if not 0 <= index < len(term.blocks):
        raise RewriteError(f"no block at index {index}")
    dup = term.blocks[index]
    blocks = list(term.blocks)
    blocks.insert(index + 1, dup)
    replacement = [
        CRTerm(tuple(blocks), term.condition),
        PTerm(dup, term.condition),
    ]
    return _rewrite(root, path, replacement, "duplicate", {"index": index})


def apply_condition(root: FactorExpr, path: Sequence[int], over: str) -> tuple[FactorExpr, TraceStep]:
    """Expand an unconditional CR term by total probability over one fresh
    variable:

        CR(b_1..b_n) = sum_x CR(b_1..b_n|x) CR(b_1,x) .. CR(b_n,x) P(x)
    """
    term = _target_cr(root, path)
    if term.condition is not None:
        raise RewriteError("the condition rewrite applies to unconditional CR terms")
    if over in validate_scoping(term)[0]:
        raise RewriteError(f"variable {over!r} already appears in the target term")
    # A clash with an enclosing sum or a free name elsewhere would make the bound name ambiguous.
    node: FactorExpr = root
    for idx in path:
        if isinstance(node, Sum) and node.over == over:
            raise RewriteError(f"variable {over!r} is already bound by an enclosing sum")
        node = get_node(node, (idx,))
    if over in validate_scoping(root)[0]:
        raise RewriteError(f"variable {over!r} already occurs free in the expression")
    over_block = Block([over])
    factors: list[FactorExpr] = [CRTerm(term.blocks, over_block)]
    factors.extend(CRTerm((b, over_block)) for b in term.blocks)
    factors.append(PTerm(over_block))
    return _rewrite(root, path, [Sum(over, Product(tuple(factors)))], "condition", {"over": over})


# ---------------------------------------------------------------------------
# Certificate-consuming rewrites


def _cond_vars(term: CRTerm) -> tuple[str, ...]:
    return term.condition.vars if term.condition is not None else ()


def apply_ci_reduce(
    root: FactorExpr,
    path: Sequence[int],
    keep: int,
    y: Sequence[str],
    w: Sequence[str],
    cert_kind: str = "graph",
) -> tuple[FactorExpr, TraceStep]:
    """Drop variables made redundant by conditional independence:

        (x ⊥ y | w)  =>  CR(x-block, y w-block) = CR(x-block, w-block)

    `keep` names the retained block (0 or 1); the other block's members must
    split exactly into y and w, with w non-empty (an empty w is the plain
    independence rewrite)."""
    term = _target_cr(root, path, "ci_reduce", 2)
    if keep not in (0, 1):
        raise RewriteError("keep must be 0 or 1")
    kept = term.blocks[keep]
    other = term.blocks[1 - keep]
    y = tuple(y)
    w = tuple(w)
    if not w or not y:
        raise RewriteError("ci_reduce needs non-empty y and w variable sets")
    sy, sw = set(y), set(w)
    if sy | sw != set(other.vars) or sy & sw:
        raise RewriteError("y and w must partition the reduced block's variables")
    cert = Certificate(cert_kind, x=kept.vars, y=y, z=w + _cond_vars(term))
    result = CRTerm((kept, other.restrict(w)), term.condition)
    params = {"keep": keep, "y": list(y), "w": list(w)}
    return _rewrite(root, path, [result], "ci_reduce", params, cert)


def apply_ci_split(
    root: FactorExpr,
    path: Sequence[int],
    w_index: int,
    x: Sequence[str],
    y: Sequence[str],
    cert_kind: str = "graph",
) -> tuple[FactorExpr, TraceStep]:
    """Split a grouped block across a separator:

        (x ⊥ y | w)  =>  CR(w, x y) = CR(x, w) CR(y, w) CR(x, y)^-1

    `w_index` names the separator block (kept whole); the other block's
    members must split exactly into x and y."""
    term = _target_cr(root, path, "ci_split", 2)
    if w_index not in (0, 1):
        raise RewriteError("w_index must be 0 or 1")
    w_block = term.blocks[w_index]
    xy = term.blocks[1 - w_index]
    x = tuple(x)
    y = tuple(y)
    if not x or not y:
        raise RewriteError("ci_split needs non-empty x and y variable sets")
    sx, sy = set(x), set(y)
    if sx | sy != set(xy.vars) or sx & sy:
        raise RewriteError("x and y must partition the grouped block's variables")
    cert = Certificate(cert_kind, x=x, y=y, z=w_block.vars + _cond_vars(term))
    xb = xy.restrict(x)
    yb = xy.restrict(y)
    replacement = [
        CRTerm((xb, w_block), term.condition),
        CRTerm((yb, w_block), term.condition),
        CRTerm((xb, yb), term.condition, exponent=-1),
    ]
    params = {"w_index": w_index, "x": list(x), "y": list(y)}
    return _rewrite(root, path, replacement, "ci_split", params, cert)


def apply_ci_collapse(
    root: FactorExpr,
    path: Sequence[int],
    cert_kind: str = "graph",
) -> tuple[FactorExpr, TraceStep]:
    """Collapse two blocks overlapping on a shared separator:

        (x ⊥ y | w)  =>  CR(w x, w y) = 1 / P(w)

    Both blocks must carry the shared variables with identical bindings.
    When either private part is empty the identity needs no certificate
    (CR(w, w y) = 1 / P(w) holds unconditionally)."""
    term = _target_cr(root, path, "ci_collapse", 2)
    b1, b2 = term.blocks
    shared = set(b1.vars) & set(b2.vars)
    if not shared:
        raise RewriteError("ci_collapse needs a shared separator in both blocks")
    sub1 = {m for m in b1.members if m[0] in shared}
    sub2 = {m for m in b2.members if m[0] in shared}
    if sub1 != sub2:
        raise RewriteError("shared sub-blocks carry different bindings")
    x_vars = tuple(n for n in b1.vars if n not in shared)
    y_vars = tuple(n for n in b2.vars if n not in shared)
    z = tuple(sorted(shared)) + _cond_vars(term)
    cert = Certificate(cert_kind, x=x_vars, y=y_vars, z=z) if x_vars and y_vars else None
    result = PTerm(b1.restrict(shared), term.condition, exponent=-1)
    return _rewrite(root, path, [result], "ci_collapse", {}, cert)


def apply_independence(
    root: FactorExpr,
    path: Sequence[int],
    cert_kind: str = "graph",
) -> tuple[FactorExpr, TraceStep]:
    """Mutually independent blocks co-occur at rate one: the term becomes a
    literal 1 (and vanishes from an enclosing product)."""
    term = _target_cr(root, path)
    cert = Certificate(cert_kind, z=_cond_vars(term), groups=tuple(b.vars for b in term.blocks))
    return _rewrite(root, path, [], "independence", {}, cert)


# ---------------------------------------------------------------------------
# Replay

def replay_step(
    root: FactorExpr,
    step: TraceStep,
    *,
    graph: ModelGraph | None = None,
    table: JointTable | None = None,
    tol: float = REL_TOL,
) -> FactorExpr:
    """Apply one recorded step: apply_<rule> with the recorded params, whose
    derived certificate must validate against `graph`, `table` and `tol` and
    equal the recorded one."""
    _check_tol(tol)
    kwargs, cert = step.params, step.certificate
    if _rule(step.rule)[1]:
        kwargs = {**kwargs, "cert_kind": getattr(cert, "kind", "graph")}
    # Looked up at call time, so that wrappers of the module attribute see replays.
    new_root, derived = globals()[f"apply_{step.rule}"](root, step.path, **kwargs)
    if cert is not None and derived.certificate is not None:  # with none recorded, the mismatch below reports it
        validate_certificate(derived.certificate, graph=graph, table=table, tol=tol)
    if derived.certificate != cert:
        raise RewriteError(
            f"{step.rule} step at {step.path!r} records certificate {cert}, "
            f"but the rule derives {derived.certificate}"
        )
    return new_root


def replay_trace(
    initial: FactorExpr,
    trace: Iterable[TraceStep],
    *,
    graph: ModelGraph | None = None,
    table: JointTable | None = None,
    tol: float = REL_TOL,
) -> FactorExpr:
    """Re-run a recorded trace from an initial expression.

    Deterministic: the same trace on the same initial expression always
    yields the same final expression. Every certificate is checked against
    the supplied graph/table and a failing certificate raises
    CertificateError; the raw algebra of a step, certificate unchecked, is a
    direct call of its apply_<rule>. An error at step N (from 0) is
    re-raised as the same class with "step N: " in front; a bad `tol`
    raises ModelError before any step."""
    _check_tol(tol)
    expr = initial
    for n, step in enumerate(trace):
        try:
            expr = replay_step(expr, step, graph=graph, table=table, tol=tol)
        except CRFactorError as exc:
            raise type(exc)(f"step {n}: {exc}") from None
    return expr


def singleton_cr(names: Iterable[str]) -> CRTerm:
    """CR over one free singleton block per name: the usual starting point
    of a whole-model factorization."""
    return CRTerm(tuple(Block._of(((_check_name(n, "block member name"), None),)) for n in names))


# ---------------------------------------------------------------------------
# (De)serialization of traces


def step_to_dict(step: TraceStep) -> dict:
    out: dict = {"rule": step.rule, "path": list(step.path), "params": dict(step.params)}
    if step.certificate is not None:
        cert = step.certificate
        cert_dict: dict = {"kind": cert.kind}
        if cert.groups:
            cert_dict["groups"] = [list(g) for g in cert.groups]
        else:
            cert_dict["x"] = list(cert.x)
            cert_dict["y"] = list(cert.y)
        if cert.z:
            cert_dict["z"] = list(cert.z)
        out["certificate"] = cert_dict
    return out


def step_from_dict(data: dict) -> TraceStep:
    """A step from its JSON form, checked against `RULES`: the one place a step enters from outside."""
    if not isinstance(data, dict):
        raise RewriteError(f"a trace step must be an object, got {data!r}")
    cert = data.get("certificate")
    if cert is not None:
        if not isinstance(cert, dict):
            raise RewriteError(f"certificate must be an object, got {cert!r}")
        x, y, z, groups = cert.get("x", ()), cert.get("y", ()), cert.get("z", ()), cert.get("groups", ())
        if not isinstance(groups, (list, tuple)) or not all(map(_names, (x, y, z, *groups))):
            raise RewriteError(f"certificate x, y, z and each group must be name lists, got {cert!r}")
        cert = Certificate(cert.get("kind", "graph"), x, y, z, groups)
    try:
        rule, path, params = data["rule"], data["path"], data.get("params", {})
    except KeyError as exc:
        raise RewriteError(f"trace step is missing field {exc}") from None
    kinds = _rule(rule)[0]
    if not _ints(path):
        raise RewriteError(f"path must be a list of child positions, got {path!r}")
    if not isinstance(params, dict) or params.keys() != kinds.keys():
        raise RewriteError(f"{rule} takes params {list(kinds)}, got {params!r}")
    for name, kind in kinds.items():
        if not _of_kind(value := params[name], kind):
            raise RewriteError(f"{rule} param {name!r} must have kind {kind!r}, got {value!r}")
    return TraceStep(rule, tuple(path), dict(params), cert)


def trace_to_dicts(trace: Iterable[TraceStep]) -> list[dict]:
    return [step_to_dict(s) for s in trace]


def trace_from_dicts(items: Sequence[dict]) -> tuple[TraceStep, ...]:
    """Steps from their JSON form; a RewriteError names the bad step."""
    if not isinstance(items, (list, tuple)):
        raise RewriteError(f"trace steps must be a list, got {items!r}")
    steps = []
    for n, data in enumerate(items):
        try:
            steps.append(step_from_dict(data))
        except RewriteError as exc:
            raise RewriteError(f"step {n}: {exc}") from None
    return tuple(steps)
