"""Exact point counts on diagonal quadric hypersurfaces over F_q(t).

The package computes, in exact arithmetic, the number of polynomial
solutions of a nondegenerate diagonal quadratic form inside height boxes,
together with the induced counts of primitive solution classes and of
morphisms from the projective line to the quadric.  Every closed formula
is cross-checkable against independent enumeration oracles and against a
circle-method reassembly built from character sums.

Layers, bottom to top:

* :mod:`quadricpoints.field`      - arithmetic in F_q, q an odd prime power
* :mod:`quadricpoints.polyring`   - F_q[t]: factorization, phi, Moebius
* :mod:`quadricpoints.forms`      - diagonal forms, case tags, derived counts
* :mod:`quadricpoints.cyclotomic` - exact integer arithmetic in Z[zeta_p]
* :mod:`quadricpoints.characters` - additive characters and ball integrals
* :mod:`quadricpoints.expsums`    - Gauss sums, complete sums, phi sums, arc integrals
* :mod:`quadricpoints.formulas`   - closed-form counts
* :mod:`quadricpoints.oracle`     - brute-force and convolution enumerators,
  which import only ``field`` and ``forms``, and numpy when first called
* :mod:`quadricpoints.verify`     - identity suites tying the layers together
* :mod:`quadricpoints.cli`        - ``quadricpoints`` command-line tool
"""

from .characters import ball_integral
from .cyclotomic import CycInt
from .expsums import (
    arc_integral_closed,
    arc_integral_direct,
    form_exp_sum,
    gauss_sum,
    gauss_sum_prime_power,
    local_factor_closed,
    local_factor_direct,
    phi_degree_sum,
    phi_power_sum,
    twisted_gauss_sum,
    twisted_gauss_sum_prime_power,
    weyl_sum,
)
from .field import FieldCtx
from .forms import CaseTag, QuadForm, classify, diagonalize
from .formulas import count_circle, count_exact, count_primitive, morphism_count
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    brute_count,
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
    moebius,
    poly_from_encoding,
    poly_gcd,
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
    "enumerate_below",
    "enumerate_monic",
    "irreducibles",
    "CycInt",
    "ball_integral",
    "QuadForm",
    "CaseTag",
    "gauss_sum",
    "gauss_sum_prime_power",
    "twisted_gauss_sum",
    "twisted_gauss_sum_prime_power",
    "form_exp_sum",
    "local_factor_direct",
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
    "phi_degree_sum",
    "phi_power_sum",
    "brute_count",
    "convolution_count",
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "SUITES",
    "__version__",
]
