"""Co-occurrence rate factorization of discrete graphical models.

A joint probability factors as P(x_1..x_n) = CR(x_1,..,x_n) P(x_1)..P(x_n),
where the co-occurrence rate CR is the ratio of the joint to the product of
the marginals. This package evaluates CRs numerically from explicit joint
tables, rewrites CR expressions symbolically through value-preserving
identities with recorded traces, runs whole-model factorization algorithms,
and checks every result against the brute-force table.
"""

from .cr import (
    Block,
    block,
    conditional_cr_value,
    conditional_prob,
    cr_value,
    marginal_cr_check,
    reconstruct_joint,
)
from .errors import (
    CertificateError,
    CRFactorError,
    ExprParseError,
    ModelError,
    ModelParseError,
    PreconditionError,
    RewriteError,
    UndefinedCRError,
)
from .expr import (
    Const,
    CRTerm,
    FactorExpr,
    PTerm,
    Product,
    Sum,
    cr_term,
    eval_expr,
    expr_variables,
    free_variables,
    p_term,
    parse_expr,
    product_of,
    render,
)
from .factorizers import (
    TcgCheck,
    TcgResult,
    factorize_bn,
    factorize_chain_crf,
    factorize_tcg,
    factorize_tree_mn,
    hc_potential,
    is_tcg,
    mrf_factorize,
    rmrf_factorize,
)
from .model import (
    CPT,
    CliqueGraph,
    GibbsModel,
    JointTable,
    ModelGraph,
    Variable,
    build_clique_graph,
    build_joint_from_cpts,
    close,
)
from .modelfile import ParsedModel, parse_model, render_model
from .rewrites import (
    Certificate,
    Context,
    OperationTrace,
    TraceStep,
    apply_bipartition,
    apply_ci_collapse,
    apply_ci_reduce,
    apply_ci_split,
    apply_condition,
    apply_duplicate,
    apply_independence,
    apply_merge,
    apply_single_block,
    replay_trace,
    singleton_cr,
    trace_from_dicts,
    trace_to_dicts,
)
from .separation import (
    CIQuery,
    ci_deviation,
    d_separated,
    is_markov,
    mutual_independence_deviation,
    separated,
    u_separated,
    unconnected_nodes_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
