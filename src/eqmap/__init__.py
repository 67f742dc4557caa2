"""One-cut equilibrium measures for polynomially perturbed GUE potentials,
with exact coefficient tables, loop-equation consistency checks, and the
torus map generating function cross-checked against brute-force map counts.
"""

from .algebra import (
    Jet,
    LaurentPoly,
    inv_sqrt_R_series,
    substitute_uniformizer,
)
from .endpoints import (
    EndpointSolution,
    PotentialSpec,
    endpoint_residuals,
    one_cut_certificate,
    solve_endpoints,
    uz_jets,
)
from .coefftables import (
    CoeffTable,
    build_c_table,
    check_diagonal_conjecture,
    verify_binomial_identities,
    verify_operator_closed_forms,
    verify_parity_projection,
)
from .hfunc import (
    HPoly,
    PhiPsiSequence,
    h_at_endpoints,
    h_classical,
    h_even,
    h_general,
    h_left_variant,
    phi_psi,
    verify_even_residue_formula,
    verify_residue_representation,
)
from .measure import (
    EquilibriumMeasure,
    VariationalReport,
    density,
    equilibrium_measure,
    total_mass,
    variational_report,
)
from .correlators import (
    CorrelatorContext,
    apply_K,
    correlator_context,
    w1_leading,
    w1_subleading,
    w1_subleading_antiderivative,
    w2_diag,
)
from .genfun import E1Result, SeriesInT, e1_monomial, e1_series, e1_value, verify_relations
from .oracle import MapCensus, VertexProfile, census, e1_coeff_from_census
from . import errors

__version__ = "0.1.0"
