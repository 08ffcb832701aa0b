"""Desk-scale numerical laboratory for additive statistics on normed monoids.

Exact divisor-indicator expectations, Bernoulli surrogates, Mertens partial
sums, truncation diagnostics, and the Legendre transform of the limiting
log-MGF, over integers, polynomials over F_q, quadratic-field ideals, and
user-supplied Beurling norm sequences.
"""

from .additive import (
    DiscreteMeasure,
    NormResidue,
    Omega,
    exp_moment,
    rho_X,
)
from .errors import (
    BudgetExceeded,
    DegenerateGrid,
    EmptySample,
    EmptySystem,
    MonoidLdpError,
    NoConvergence,
    ParameterError,
    PrimeNotInSystem,
    SourceError,
)
from .exact import (
    DominationReport,
    GapComponents,
    TruncationSets,
    domination_report,
    expect_Y,
    expect_Z,
    log_mgf_Y,
    tail_mass,
    truncation_sets,
    truncation_threshold,
)
from .experiments import (
    ConditionReport,
    EKReport,
    GapReport,
    LDPRow,
    condition_sweep,
    ek_report,
    gap_sweep,
    ldp_scan,
)
from .gfpoly import irreducible_indices, necklace_count
from .monoid import element_counter, table_blocks
from .rate import (
    RatePoint,
    RateProfile,
    lambda_of_theta,
    lambda_prime,
    rate,
    rate_closed_form_omega,
    rate_profile,
)
from .systems import (
    Beurling,
    DensityFit,
    Integers,
    PolyOverFq,
    QuadraticField,
    density_fit,
    list_primes,
    mertens_sum,
    prime_count_check,
    prime_norms,
)

__version__ = "0.1.0"
