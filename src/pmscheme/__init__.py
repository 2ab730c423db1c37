"""Exact eigenvalue theory of the perfect matching association scheme.

Eigenvalue tables from zonal polynomials, closed-form columns, expressions
interpolated from table columns, spectral gaps, merge-ratio laws and
quotient/diameter analyses, all cross-checked against a brute-force oracle
over perfect matchings of K_{2n}.
"""

__version__ = "0.1.0"

from .errors import (
    AmbiguousRowAssignment,
    FitInconsistent,
    FitUnderdetermined,
    GuardExceeded,
    IncompleteTable,
    SchemeError,
)
from .partitions import (
    ContentVector,
    Dominance,
    Partition,
    content,
    dim_hook,
    dominance_compare,
    double_factorial,
    frobenius_dim,
    generate_partitions,
    irr_char,
    parse_partition,
    successors,
)
from .symfunc import (
    CATALOG_PREFIXES,
    PowerSumExpr,
    delta_closed_forms,
    delta_eval,
    e_catalog,
    eval_expr,
    fit_e_mu,
    monomial_basis,
    parse_power_sum_expr,
    zonal_power_sums,
)
from .matchings import (
    IntersectionData,
    Matching,
    QuotientMatrix,
    base_matching,
    degree_histogram,
    enumerate_matchings,
    intersection_numbers,
    parse_matching,
    quotient_counts_all,
    quotient_counts_from,
    rank,
    relation,
    representative,
    unrank,
)
from .spectra import (
    BelowFamilyThreshold,
    DimensionBound,
    GapReport,
    InductionReport,
    conjecture_applies,
    degbou,
    gap_report,
    eq5_holds,
    family_closed_form,
    family_mu,
    family_second_eig,
    family_threshold,
    hook_gap,
    hook_quotient_closed_forms,
    double_factorial_ratio_bound_range,
    max_min_valency,
    phi_n11,
    small_dim_cutoff,
    small_dim_eigenspaces,
    threshold_n,
    valency,
    verify_induction_step,
    zonal_check,
)
from .tables import (
    DEFAULT_ZONAL_MAX_N,
    FORMULAS_MAX_N,
    ConjectureVerdict,
    DiameterResult,
    EigTable,
    build_table_formulas,
    build_table_oracle,
    build_table_zonal,
    derangement_spectrum,
    diameter,
    gap_scan,
    intersection_matrix,
    second_largest,
    trace_identity_check,
    verify_column_orthogonality,
    verify_conjecture,
    verify_structure_constants,
)
from .ratios import (
    MergeSpec,
    RatioReport,
    all_merges,
    merge_constant,
    gap_ratio_report,
    tau_ratio,
    valency_ratio,
)
