"""Exact-arithmetic workbench for factorial-product identities."""

from .factorint import (
    ExpVec,
    PrimeTable,
    SieveCeilingError,
    delta,
    factorial_expvec,
    largest_prime_factor,
    mertens_log_sum,
    radical,
    theta,
    vp_factorial,
)
from .equations import (
    DeltaForm,
    EquationError,
    FactorialEquation,
    Pairing,
    SolutionRecord,
    default_pairing,
    in_nc,
    residual,
    to_delta_form,
    trivial_family,
    verify,
)
from .search import (
    CensusResult,
    CensusSummary,
    DeltaSearchSpec,
    DeltaSolution,
    ResourceGuardError,
    SearchGuards,
    SearchSpec,
    census_report,
    search_delta,
    search_factorial_products,
)
from .audit import (
    AbcBlock,
    AbcTripleReport,
    AuditFinding,
    PrefixAudit,
    abc_scan,
    abc_window_report,
    audit_erdos_pdelta,
    audit_mertens,
    audit_proof_chain,
    audit_solution_window,
    audit_stirling_lower,
    audit_theta,
)
from .density import (
    DensityEstimate,
    QuadratureBudgetError,
    RegionSpec,
    analytic_density_t3s2,
    indicator,
    mc_density,
    quadrature_density,
)

__version__ = "0.1.0"
