"""Exact point counts on diagonal quadric hypersurfaces over F_q(t).

The package computes, in exact arithmetic, the number of polynomial
solutions of a nondegenerate diagonal quadratic form inside height boxes,
together with the induced counts of primitive solution classes and of
morphisms from the projective line to the quadric.  Every closed formula
is cross-checkable against independent enumeration oracles and against a
circle-method reassembly built from character sums.

Layers, bottom to top:

* :mod:`quadricpoints.field`      - arithmetic in F_q, q an odd prime power
* :mod:`quadricpoints.polyring`   - F_q[t]: factorization, phi, Jacobi symbols
* :mod:`quadricpoints.cyclotomic` - exact integer arithmetic in Z[zeta_p]
* :mod:`quadricpoints.characters` - additive characters and ball integrals
* :mod:`quadricpoints.expsums`    - Gauss sums, complete sums, arc integrals
* :mod:`quadricpoints.formulas`   - closed-form counts and classification
* :mod:`quadricpoints.oracle`     - brute-force and convolution enumerators
* :mod:`quadricpoints.verify`     - identity suites tying the layers together
* :mod:`quadricpoints.cli`        - ``quadricpoints`` command-line tool
"""

from .characters import LaurentTail, ball_integral, laurent_coefficient, psi_ratio, psi_tail
from .cyclotomic import CycInt, QScaled
from .expsums import (
    CaseTag,
    QuadForm,
    arc_integral_closed,
    arc_integral_direct,
    form_exp_sum,
    gauss_sum,
    gauss_sum_prime_power,
    local_factor_closed,
    local_factor_direct,
    local_factor_prime_power,
    twisted_gauss_sum,
    twisted_gauss_sum_prime_power,
    weyl_sum,
)
from .field import FieldCtx
from .formulas import (
    CountReport,
    classify,
    count_circle,
    count_exact,
    count_primitive,
    diagonalize,
    low_stratum_sum,
    morphism_count,
    morphism_count_from_counts,
    phi_degree_sum,
    phi_power_sum,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    brute_count,
    brute_morphism_count,
    brute_primitive_count,
    convolution_count,
)
from .polyring import (
    Factorization,
    Poly,
    enumerate_below,
    enumerate_monic,
    euler_phi,
    factorize,
    irreducibles,
    jacobi_symbol,
    moebius,
    poly_from_encoding,
    poly_gcd,
    poly_square_root,
)
from .verify import SUITES

__version__ = "0.1.0"

__all__ = [
    "FieldCtx",
    "Poly",
    "Factorization",
    "poly_gcd",
    "poly_from_encoding",
    "factorize",
    "euler_phi",
    "moebius",
    "jacobi_symbol",
    "poly_square_root",
    "enumerate_below",
    "enumerate_monic",
    "irreducibles",
    "CycInt",
    "QScaled",
    "LaurentTail",
    "laurent_coefficient",
    "psi_ratio",
    "psi_tail",
    "ball_integral",
    "QuadForm",
    "CaseTag",
    "gauss_sum",
    "gauss_sum_prime_power",
    "twisted_gauss_sum",
    "twisted_gauss_sum_prime_power",
    "form_exp_sum",
    "local_factor_direct",
    "local_factor_prime_power",
    "local_factor_closed",
    "weyl_sum",
    "arc_integral_direct",
    "arc_integral_closed",
    "classify",
    "diagonalize",
    "count_exact",
    "count_circle",
    "count_primitive",
    "morphism_count",
    "morphism_count_from_counts",
    "low_stratum_sum",
    "phi_degree_sum",
    "phi_power_sum",
    "CountReport",
    "brute_count",
    "brute_primitive_count",
    "brute_morphism_count",
    "convolution_count",
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "SUITES",
    "__version__",
]
