"""Fractional-exponent generalization of the symmetric classes.

The map w = x^{lam/2} turns the generic second-order equation into

    x^2 (a x^lam + b) y'' + x (c x^lam + d) y' + (alpha_n x^lam + beta [n odd]) y = 0

whose solutions are the class polynomials composed with an odd real root.
Only exponents lam = 2(odd)/(odd) keep the composed solutions symmetric;
lam = 2 reproduces the polynomial case on the same code path.  Any
admissible lam has a weight and Gram machinery in t-space, read from the
mapped class's weight exponents (lam = 2/3 is the cube-root class).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import ClassParams, member_rows, poly_from_params
from .errors import ConstraintViolation
from .families import Class, _num
from .quadrature import IntervalSpec
from .sturm import _LOG_TINY, GramReport, _FamilyBasis, gram_matrix


def _as_fraction(lam):
    if isinstance(lam, tuple):
        return Fraction(*lam)
    return Fraction(lam)


def admissible(lam) -> bool:
    """True iff the odd-root convention makes x^{lam/2} odd and x^lam even:
    lam = 2k/den in lowest terms with k and den both odd."""
    f = _as_fraction(lam)
    if f == 0:
        raise ConstraintViolation("lambda must be nonzero")
    num, den = f.numerator, f.denominator
    return den % 2 == 1 and num % 2 == 0 and (num // 2) % 2 == 1


def signed_power(x, e):
    """sign(x) |x|^e, the canonical real branch of an odd rational power.

    e == 1 passes the input through untouched; integer e stays exact up to
    float rounding, and e == 1/3 is np.cbrt, exactly odd.  A negative
    argument with an even-denominator exponent has no real branch and is
    refused.
    """
    e = _as_fraction(e)
    if e == 1:
        return x
    arr = np.asarray(x)
    if e.denominator % 2 == 0 and np.any(arr < 0):
        raise ConstraintViolation(
            f"even root (exponent {e}) of a negative argument has no real branch")
    if e == Fraction(1, 3):
        out = np.cbrt(arr)
    elif e.denominator == 1:
        out = np.sign(arr) * np.abs(arr) ** int(e)
    else:
        out = np.sign(arr) * np.abs(arr) ** float(e)
    return out if np.ndim(x) else float(out)


@dataclass(frozen=True)
class LambdaSpec:
    """Parameter vector (a, b, c, d) of the transformed equation plus the
    exponent lam, kept as an exact reduced rational.

    The underlying polynomial class has p = a, q = b and

        r = (2/lam) c + (1 - 2/lam) a,   s = (2/lam) d + (1 - 2/lam) b.
    """
    a: object
    b: object
    c: object
    d: object
    lam: object

    def __post_init__(self):
        for f in ("a", "b", "c", "d"):
            object.__setattr__(self, f, _num(getattr(self, f)))
        lam = _as_fraction(self.lam)
        if not admissible(lam):
            raise ConstraintViolation(
                f"lambda = {lam} is not admissible (needs 2*odd/odd)")
        object.__setattr__(self, "lam", lam)

    @cached_property
    def mapped_params(self) -> ClassParams:
        """One instance per spec, so its float C_k are computed once."""
        two_over = 2 / self.lam
        r = two_over * self.c + (1 - two_over) * self.a
        s = two_over * self.d + (1 - two_over) * self.b
        return ClassParams(self.a, self.b, r, s)


def alpha_beta(spec: LambdaSpec, n: int):
    """Eigenvalue pair of the transformed equation; exact for exact inputs:
    alpha_n = -(lam/4) n (2c + (lam n - 2) a), beta = -(lam/4)(2d + (lam-2) b)."""
    lam = spec.lam
    alpha = -(lam / 4) * n * (2 * spec.c + (lam * n - 2) * spec.a)
    beta = -(lam / 4) * (2 * spec.d + (lam - 2) * spec.b)
    return alpha, beta


def transformed_eval(spec: LambdaSpec, n: int, x):
    """The transformed solution: the degree-n class polynomial of the
    mapped parameters evaluated at signed_power(x, lam/2).  lam = 2 reduces
    to the plain polynomial on the identical code path."""
    poly = poly_from_params(spec.mapped_params, n, monic=False)
    return poly(signed_power(x, spec.lam / 2))


def generic_ode_residual(spec: LambdaSpec, n: int, x):
    """Left side of the transformed equation at the transformed solution,
    for x > 0; should vanish to rounding."""
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise ConstraintViolation("the transformed residual is defined for x > 0")
    half = float(spec.lam) / 2
    poly = poly_from_params(spec.mapped_params, n, monic=False)
    w = xs ** half
    wp = half * xs ** (half - 1)
    wpp = half * (half - 1) * xs ** (half - 2)
    y, dy, ddy = poly.value_derivs(w)
    yp = dy * wp
    ypp = ddy * wp * wp + dy * wpp
    xl = w * w
    a, b, c, d = (float(v) for v in (spec.a, spec.b, spec.c, spec.d))
    al, be = (float(v) for v in alpha_beta(spec, n))
    odd = (1 - (-1) ** n) / 2
    res = (xs * xs * (a * xl + b) * ypp + xs * (c * xl + d) * yp
           + (al * xl + be * odd) * y)
    return res if np.ndim(x) else float(res)


def _t_interval(exponents, h, n, m):
    """The pair (n, m)'s interval in t, x = signed_power(t, h): +-theta^(1/h),
    and W(|t|^h) h |t|^(h-1) S_n S_m's exponents, h (e + parity or degree)
    + h - 1 at the origin and in the tails, and the weight's own at the ends."""
    theta, origin, edge, tail = exponents
    inv, shift = float(1 / h), float(1 - 1 / h)     # h (e + k) + h - 1 = (e + k + shift) / inv
    hints = [(0.0, (origin + shift + n % 2 + m % 2) / inv if origin < math.inf else None)]
    if theta < math.inf:
        end = theta ** inv
        return IntervalSpec(-end, end, tuple(hints + [(-end, edge), (end, edge)]))
    if tail > -math.inf:
        far = (tail + n + m + shift) / inv
        hints += [(-math.inf, far), (math.inf, far)]
    return IntervalSpec(-math.inf, math.inf, tuple(hints))


class _LambdaBasis(_FamilyBasis):
    """Gram adapter for an admissible lam > 0: its Class's family adapter with
    its weight, rows and intervals in t, where x = signed_power(t, lam/2)
    carries every entry onto the mapped class's own; so the closed-form norms,
    integrable pairs, cliffs and per-entry integrals are the family's, in x."""

    def __init__(self, spec):
        if spec.lam < 0:
            raise ConstraintViolation(
                f"the t-space Gram needs lambda > 0, got {spec.lam}: for lambda < 0, "
                "x = t^(lambda/2) swaps 0 and +-inf, and for a finite theta the support "
                "in t is two rays, which the t-space Gram does not handle")
        super().__init__(Class(*spec.mapped_params))
        self.h = spec.lam / 2
        self.label = "lambda" + str(spec.lam).replace("/", "")
        # rounded once from the exact h, so lam = 2/3 gives log 3 and 2/3
        self._log_inv_h, self._jac = math.log(1 / self.h), float(self.h - 1)

    def weight(self, t):
        """W(|t|^h) h |t|^(h-1), the measure dx in t."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = np.abs(t)
            return np.exp(self.spec.weight_log(signed_power(a, self.h))
                          - self._log_inv_h + self._jac * np.log(a))

    def rows(self, nmax):
        rows = member_rows(self.spec.params, nmax)
        return lambda t: rows(signed_power(t, self.h))

    @property
    def log_xw(self):
        # W(x) ~ x^g is ~ |t|^(h (g + 1) - 1) in t: it underflows at h times its log t
        h = float(self.h)
        return h * _LOG_TINY / (h * (self.spec.exponents.tail + 1) - 1)

    def tree_block(self, norms, integrable=None):
        """The family's block, ended further while it may lose mass past x_w
        (block_lost): a tail decays more slowly in t than in x for h < 1."""
        end = super().tree_block(norms, integrable)[0]
        while self.block_lost(end, norms):
            end -= 1
        return end, self.pair_interval(2 * end)

    def pair_interval(self, degree):
        return _t_interval(self.spec.exponents, self.h, 0, degree)


def lambda_weight_and_gram(spec: LambdaSpec, nmax: int, tol=1e-7) -> GramReport:
    """Gram matrix of any admissible lam's class in the substituted variable.

    With h = lam/2 and t^h the signed power, integrates int W1(t) S_n(t^h)
    S_m(t^h) dt over [-theta^(1/h), theta^(1/h)] with W1(t) = W(|t|^h) h
    |t|^(h-1) (lam = 2/3: W(|t|^{1/3}) / (3 |t|^{2/3})), where W is the
    weight of the mapped polynomial class on [-theta, theta].  x = t^h
    carries every entry onto the mapped class's own, so this is
    gram_matrix(spec, nmax, tol): the Gram of that Class, its block's tree
    in t, where every diagonal, (0, 0) too, is judged against mu_0 (-1)^n
    C_1...C_n.  The tests check the entries against the x-space machinery as
    an independent route.  A negative lam raises ConstraintViolation.
    """
    return gram_matrix(spec, nmax, tol)
