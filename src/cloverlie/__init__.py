"""Exact computer algebra for 3-generated restricted Lie algebras of special
derivations of truncated divided power algebras over F_p.

The library constructs the generator triple (one derivation per letter family
x, y, z), closes it under bracket and p-th power, and verifies basis counts,
multidegree gradings, growth tables, Gelfand-Kirillov dimension formulas and
nil p-mapping behavior, all in exact arithmetic.
"""

from .params import (
    ParameterTuple,
    RoundingAmbiguityError,
    TupleRuleError,
    WeightVector,
    materialize,
    pivot_multidegree,
    pivot_weight,
    trusted_weight_bound,
)
from .dpalgebra import (
    AlgebraElement,
    ContextMismatchError,
    DpContext,
    DpMonomial,
    LinearCombination,
    binom_mod_p,
    dp_basis,
    dp_basis_dim,
    dp_derive,
    dp_mul,
)
from .derivations import (
    Derivation,
    ad_power,
    bracket,
    jacobson_remainder,
    p_power,
    p_power_iter,
    pivot,
)
from .monomials import (
    GrowthTable,
    MonomialDescriptor,
    count_descriptors,
    enumerate_descriptors,
    family_totals,
    growth_table,
    monomial_weight,
    realize,
)
from .closure import (
    GradedBasis,
    NilResult,
    VerificationReport,
    nil_index,
    relation_suite,
    restricted_closure,
    sample_nil_chains,
    self_similarity_decompose,
    verify_basis_theorem,
    verify_grading,
)
from .analytics import (
    AsymptoticFit,
    DensityScan,
    GKReport,
    check_cubic_bounds,
    check_growth_sandwich,
    check_quasilinear_bounds,
    estimate_exponent,
    gk_density_scan,
    gk_periodic,
    theta_bounds,
)

__version__ = "0.1.0"
