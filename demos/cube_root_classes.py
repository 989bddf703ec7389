"""
Fractional-exponent relatives
=============================

Replacing x^2 by x^lambda in the coefficient pattern of the equation
produces non-polynomial eigenfunction families.  For admissible lambda
the whole theory maps back onto a quadratic-case family evaluated at a
signed power of x, and the lambda = 2/3 Gram matrix must agree entry for
entry with its quadratic twin; so must that of any admissible lambda.
"""

from fractions import Fraction

from symortho import (GUP, LambdaSpec, admissible, alpha_beta, gram_matrix,
                      generic_ode_residual, lambda_weight_and_gram,
                      signed_power, transformed_eval)

# which exponents admit the substitution trick at all
for lam in (2, Fraction(2, 3), Fraction(2, 5), 1, 4, Fraction(10, 7)):
    verdict = "admissible" if admissible(lam) else "not admissible"
    print(f"lambda = {lam}: {verdict}")
print()

spec = LambdaSpec(-1, 1, Fraction(-8, 3), Fraction(4, 3), Fraction(2, 3))
print(f"lambda = 2/3 instance maps onto {spec.mapped_params}")
print(f"which is exactly GUP(1, 1): {spec.mapped_params == GUP(1, 1).params}")
print(f"eigenvalue pair (alpha_3, beta) = {alpha_beta(spec, 3)}")
print()

# the eigenfunction is the mapped polynomial read at the signed cube root
x = 0.125
print(f"signed_power({x}, 1/3) = {signed_power(x, Fraction(1, 3))}")
print(f"y_3({x}) = {transformed_eval(spec, 3, x):.10f}")
print(f"equation residual of y_3 at x = {x}: {abs(generic_ode_residual(spec, 3, x)):.2e}")
print()

# t-space Gram of the fractional family against the quadratic x-space one
rep_t = lambda_weight_and_gram(spec, nmax=4)
rep_x = gram_matrix(GUP(1, 1), nmax=4)
print(rep_t.summary())
print("diagonal norms, mapped t-space vs quadratic x-space:")
for n in range(5):
    a = rep_t.entry(n, n).quad.value
    b = rep_x.entry(n, n).quad.value
    print(f"   n={n}:  {a:.12f}   {b:.12f}   diff {abs(a - b):.1e}")

# any admissible lambda has its t-space Gram: lambda = 2/5 maps onto GUP(1, 1) too
spec5 = LambdaSpec(-1, 1, -2, Fraction(6, 5), Fraction(2, 5))
assert spec5.mapped_params == GUP(1, 1).params
print(lambda_weight_and_gram(spec5, nmax=4).summary())
