"""Co-occurrence rate factorization of discrete graphical models.

A joint probability factors as P(x_1..x_n) = CR(x_1,..,x_n) P(x_1)..P(x_n),
where the co-occurrence rate CR is the ratio of the joint to the product of
the marginals. This package evaluates CRs numerically from explicit joint
tables, rewrites CR expressions symbolically through value-preserving
identities with recorded traces, runs whole-model factorization algorithms,
and checks every result against the brute-force table.

``import crfactor`` loads no submodule: a public name imports its module
when it is first read (PEP 562), so a command line run pays only for the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in __all__ order.
_MODULE_OF = {
    name: module
    for module, names in (
        ("cr", "Block"),
        (
            "errors",
            "CertificateError CRFactorError ExprParseError ModelError ModelParseError"
            " PreconditionError RewriteError UndefinedCRError",
        ),
        ("expr", "Const CRTerm PTerm Product Sum eval_expr parse_expr product_of render"),
        (
            "factorizers",
            "factorize_bn factorize_chain_crf factorize_tcg factorize_tree_mn mrf_factorize rmrf_factorize",
        ),
        ("model", "CPT GibbsModel JointTable ModelGraph Variable build_joint_from_cpts is_tcg"),
        ("modelfile", "ParsedModel parse_model render_model"),
        (
            "rewrites",
            "Certificate TraceStep apply_bipartition apply_ci_collapse apply_ci_reduce apply_ci_split"
            " apply_condition apply_duplicate apply_independence apply_merge apply_single_block"
            " replay_trace singleton_cr trace_from_dicts trace_to_dicts",
        ),
        ("separation", "CIQuery ci_deviation d_separated mutual_independence_deviation separated u_separated"),
    )
    for name in names.split()
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
