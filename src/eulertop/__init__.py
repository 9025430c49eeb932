"""Free rigid body periods, inverse Birkhoff normal forms, and the monodromy
of the associated family of elliptic curves.

The package is organized in layers:

- ``core``: moduli-space value types and cross-ratio conventions
- ``dynamics``: the momentum equations, orbits, and measured periods
- ``special``: elliptic integrals, hypergeometric bases, continuation
- ``periods``: the closed-form period, quadrature routes, exact series
- ``monodromy``: integer monodromy matrices of moduli-space loops
- ``cli``: the ``eulertop`` command
"""

from .core import (
    CoincidentModuliError,
    DomainError,
    InertiaSpec,
    ModuliPoint,
    Permutation4,
    apply_permutation,
    lambda_proof,
    moduli_from_mechanics,
    mu_main,
)
from .dynamics import (
    Equilibrium,
    MomentumState,
    SeparatrixError,
    Trajectory,
    classify_equilibria,
    conserved,
    euler_rhs,
    integrate_orbit,
    orbit_period,
)
from .monodromy import (
    IntegerMatrix2,
    ModuliLoop,
    generator_matrix,
    loop_monodromy,
    numeric_vs_stated,
    verify_braid_relations,
    verify_confluence_product,
)
from .periods import (
    PeriodValue,
    S_closed_form,
    SeriesCoefficients,
    birkhoff_series,
    euler_period,
    phi_prime,
    quadrature_sigma_integral,
    quadrature_tau_integral,
    verify_connection_identity,
    verify_symmetries,
)
from .special import (
    ComplexPath,
    ConnectionMatrix,
    SolutionFrame,
    basis_eval,
    connection,
    continue_frame,
    elliptic_K,
    hyper_series,
)

__version__ = "0.1.0"

__all__ = [
    "CoincidentModuliError",
    "ComplexPath",
    "ConnectionMatrix",
    "DomainError",
    "Equilibrium",
    "InertiaSpec",
    "IntegerMatrix2",
    "ModuliLoop",
    "ModuliPoint",
    "MomentumState",
    "Permutation4",
    "PeriodValue",
    "S_closed_form",
    "SeparatrixError",
    "SeriesCoefficients",
    "SolutionFrame",
    "Trajectory",
    "apply_permutation",
    "basis_eval",
    "birkhoff_series",
    "classify_equilibria",
    "connection",
    "conserved",
    "continue_frame",
    "elliptic_K",
    "euler_period",
    "euler_rhs",
    "generator_matrix",
    "hyper_series",
    "integrate_orbit",
    "lambda_proof",
    "loop_monodromy",
    "moduli_from_mechanics",
    "mu_main",
    "numeric_vs_stated",
    "orbit_period",
    "phi_prime",
    "quadrature_sigma_integral",
    "quadrature_tau_integral",
    "verify_braid_relations",
    "verify_confluence_product",
    "verify_connection_identity",
    "verify_symmetries",
]
