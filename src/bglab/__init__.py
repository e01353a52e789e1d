"""bglab: a workbench for finite semigroups, ai-semirings and their identities."""

from .core import (
    AxiomViolation,
    FiniteAlgebra,
    load_algebra,
    mult_reduct,
    save_algebra,
    validate,
)
from .constructions import (
    adjoin_identity,
    adjoin_zero,
    brandt_monoid_b21,
    brandt_semigroup,
    cyclic_group,
    dihedral_group,
    hall_semiring,
    induced_algebra,
    involution_power,
    kadourek_semigroup,
    make_group,
    power_semiring,
    quaternion_group,
    rees_quotient,
    subalgebra_generate,
    subset_b,
    symmetric_group,
)
from .terms import (
    BlockWord,
    InvTerm,
    PowerOf,
    Variable,
    Word,
    evaluate,
    format_term,
    parse_identity,
    parse_term,
    u_word,
    v_word,
    w_word,
)
from .analysis import (
    GroupAnalytics,
    SeriesReport,
    group_analytics,
    idempotents,
    is_block_group,
    j_trivial,
    maximal_subgroups,
    principal_series,
    unique_inverse_check,
)
from .checker import (
    CheckVerdict,
    MorphismSpec,
    check_identity_exhaustive,
    check_identity_sampled,
    check_membership_exhaustive,
    check_v_square_image,
    find_identity_violation,
    verify_morphism,
)

__version__ = "0.1.0"
