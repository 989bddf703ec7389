"""Symmetric orthogonal polynomial classes and their verification machinery.

The generic second-order equation, its four classical weight families, the
trigonometric/algebraic Legendre-type kinds, the fractional-exponent map,
numerical orthogonality checks, and weighted expansions.
"""

from .core import (ClassParams, SymmetricPoly, eigenvalue, explicit_coeffs,
                   leading_coefficient, monic_by_recurrence, monic_coeffs,
                   ode_residual, ode_residual_rel, poly_from_params,
                   recurrence_c, weight_exponents)
from .errors import (BasisInvalid, ConstraintViolation, DegenerateDenominator,
                     DivergentMoment, MaxDepthExceeded, NonpositiveWeight,
                     NonSquareIntegrable, OutOfFiniteRange, PoleError,
                     SingularCoefficient, SingularPoint, SymOrthoError,
                     ZeroLeadingCoefficient)
from .expand import ExpansionSeries, barycentric_interpolant, expand, reconstruct
from .exponent_map import (LambdaSpec, admissible, alpha_beta,
                           generic_ode_residual, lambda_weight_and_gram,
                           signed_power, transformed_eval)
from .families import (GUP, GHP, Class, FiniteI, FiniteII, NormValue, PairValidity,
                       finite_degree_bound, generic_weight_log, make_subclass,
                       moment_zero, norm_squared, pearson_residual, valid_pair,
                       weight_at)
from .legendre import (G, JacobiParams, Pm, Q, U, V, eval_jacobi,
                       eval_legendre_fn, generalized_legendre_residual,
                       jacobi_coeffs, legendre_mu_nu, legendre_norm,
                       member_fn, orthogonality_interval)
from .quadrature import IntervalSpec, QuadResult, integrate
from .sturm import (GramEntry, GramReport, SLCoeffs, boundary_term,
                    from_params, gram_matrix, legendre_sl, parity_integral,
                    self_adjoint_factor, support_theta, weight_star)

__all__ = [name for name in dir() if not name.startswith("_")]
