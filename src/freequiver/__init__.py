"""Free noncommutative function theory over quivers.

Symbolic free maps between representation categories of quivers, evaluation on
matrix representations, block-trick directional derivatives, inverse-function
certificates, named block-matrix formulas, and a seeded freeness conformance
harness.
"""

from .errors import (
    BlockMismatchError,
    FreeQuiverError,
    ParseError,
    RegularityError,
    TypecheckError,
)
from .quivers import (
    Arc,
    Path,
    Quiver,
    RelationPresentation,
    classical_embed,
    compose_paths,
    enumerate_paths,
    identity_path,
    is_parallel,
    path_of,
    render_path,
    validate_quiver,
)
from .reps import (
    NatAuto,
    NatTrans,
    Rep,
    check_nat_trans,
    check_relations,
    conjugate,
    direct_sum,
    eval_path,
    intertwiner_space,
    random_auto,
    random_rep,
    rep_distance,
    rep_residual,
)
from .exprs import (
    Add,
    Atom,
    Expr,
    FreeMapDef,
    Id,
    Inv,
    Mul,
    ProductSpec,
    Scale,
    add,
    add_maps,
    compose_maps,
    degree,
    eval_expr,
    eval_map,
    ident,
    identity_map,
    inv,
    is_regular,
    mul,
    normalize,
    pair_rep,
    product_maps,
    random_polynomial_map,
    render_expr,
    scale,
    sub,
    to_monomials,
    typecheck,
    union_quiver,
)
from .calculus import (
    DirectionField,
    IFTCertificate,
    block_extend,
    chain_rule_check,
    derivative_matrix,
    directional_derivative,
    fd_errors,
    finite_difference,
    gamma_commutation_check,
    ift_certificate,
    leibniz_check,
    nilpotent_coefficients,
    nilpotent_matrix,
    observed_order,
    pair_direction,
    random_direction,
)
from .catalog import (
    block_inverse_check,
    block_inverse_map,
    cbh_defect,
    cbh_truncated,
    exp_truncated,
    matrix_exp_truncated,
    ppt_derivative,
    ppt_map,
    s3_presentation,
    s3_quiver,
    s3_standard_rep,
    sch_quiver,
    schur_derivative,
    schur_map,
    smw_check,
    smw_lhs_map,
    smw_quiver,
    smw_rhs_map,
)
from .conformance import (
    ConformanceReport,
    TrialPlan,
    run_conformance,
    trial_seed,
)
from .serialize import dump, dumps, loads, parse_definition_file

__version__ = "0.1.0"
