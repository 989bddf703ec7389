"""Fractional-exponent generalization of the symmetric classes.

The map w = x^{lam/2} turns the generic second-order equation into

    x^2 (a x^lam + b) y'' + x (c x^lam + d) y' + (alpha_n x^lam + beta [n odd]) y = 0

whose solutions are the class polynomials composed with an odd real root.
Only exponents lam = 2(odd)/(odd) keep the composed solutions symmetric;
lam = 2 reproduces the polynomial case on the same code path, and
lam = 2/3 is the cube-root worked class with its own weight and Gram
machinery in t-space.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ClassParams, member_rows, poly_from_params, recurrence_c
from .errors import ConstraintViolation, PoleError
from .families import _num
from .quadrature import IntervalSpec, integrate
from .sturm import GramReport, _gram_report, generic_weight_log, support_theta


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
    float rounding.  A negative argument with an even-denominator exponent
    has no real branch and is refused.
    """
    e = _as_fraction(e)
    if e == 1:
        return x
    arr = np.asarray(x)
    if e.denominator % 2 == 0 and np.any(arr < 0):
        raise ConstraintViolation(
            f"even root (exponent {e}) of a negative argument has no real branch")
    if e.denominator == 1:
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

    @property
    def mapped_params(self) -> ClassParams:
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
    dp = poly.deriv()
    ddp = dp.deriv()
    w = xs ** half
    wp = half * xs ** (half - 1)
    wpp = half * (half - 1) * xs ** (half - 2)
    y = poly(w)
    yp = dp(w) * wp
    ypp = ddp(w) * wp * wp + dp(w) * wpp
    xl = w * w
    a, b, c, d = (float(v) for v in (spec.a, spec.b, spec.c, spec.d))
    al, be = (float(v) for v in alpha_beta(spec, n))
    odd = (1 - (-1) ** n) / 2
    res = (xs * xs * (a * xl + b) * ypp + xs * (c * xl + d) * yp
           + (al * xl + be * odd) * y)
    return res if np.ndim(x) else float(res)


def _t_interval(params, theta, n, m):
    # hints for the substituted measure W(|t|^{1/3}) / (3 |t|^{2/3})
    p, q, r, s = (float(v) for v in params)
    parity = (n % 2) + (m % 2)
    if q != 0:
        origin = (s / q - 2 + parity) / 3
    else:
        origin = None          # essential zero at the origin, split only
    hints = [(0.0, origin)]
    if math.isfinite(theta):
        edge = (r - 2 * p) / (2 * p) - s / (2 * q)
        hints += [(-theta ** 3, edge), (theta ** 3, edge)]
        return IntervalSpec(-theta ** 3, theta ** 3, tuple(hints))
    if p != 0:
        tail = ((r - 2 * p) / p + n + m - 2) / 3
        hints += [(-math.inf, tail), (math.inf, tail)]
    return IntervalSpec(-math.inf, math.inf, tuple(hints))


class _LambdaBasis:
    """Gram adapter for the lam = 2/3 class in the substituted variable.

    There are no closed-form norms: norms() gives the recurrence product
    (-1)^n C_1...C_n, the ratio of the n-th diagonal to the measured (0, 0)
    entry, and the shared panel tree stops on its own running diagonal.
    A mapped class with algebraic tails has a degree bound, as the finite
    families do, and keeps per-entry integrals: their divergence evidence
    is independent, where a divergent diagonal would inflate the running
    scale of the others.
    """
    base = 0
    label = "lambda23"
    closed_norms = False
    fold = True

    def __init__(self, spec):
        self.params = spec.mapped_params
        self.theta = support_theta(self.params)
        self.tails = not (math.isfinite(self.theta) or self.params.p == 0)

    def norms(self, nmax):
        """(-1)^n C_1...C_n for n = 0..nmax, None from a pole in C_n on."""
        out = [1.0]
        try:
            for k in range(1, nmax + 1):
                out.append(-out[-1] * float(recurrence_c(self.params, k)))
        except PoleError:
            pass
        return out + [None] * (nmax + 1 - len(out))

    def weight(self, t):
        """W1(t) = W(|t|^{1/3}) / (3 |t|^{2/3})."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.exp(generic_weight_log(self.params, np.abs(t) ** (1.0 / 3.0))
                          - math.log(3.0) - (2.0 / 3.0) * np.log(np.abs(t)))

    def phi(self, n):
        return poly_from_params(self.params, n, monic=True)

    def integrable(self, n, m):
        return True         # no cliffs: a divergent entry is reported as such

    def inner(self, phi_a, phi_b, n, m):
        def f(t):
            t = np.asarray(t, dtype=float)
            u = signed_power(t, Fraction(1, 3))
            return self.weight(t) * phi_a(u) * phi_b(u)
        return integrate(f, _t_interval(self.params, self.theta, n, m),
                         on_inconclusive="return")

    def rows(self, nmax):
        rows = member_rows(self.params, nmax)
        return lambda t: rows(signed_power(t, Fraction(1, 3)))

    def interval(self):
        return _t_interval(self.params, self.theta, 0, 0)

    def tree_block(self, norms):
        end = self.base - 1 if self.tails else self.base + len(norms) - 1
        return end, self.interval()


def lambda_weight_and_gram(spec: LambdaSpec, nmax: int, tol=1e-7) -> GramReport:
    """Gram matrix of the lam = 2/3 class in the substituted variable.

    Integrates int W1(t) S_n(cbrt t) S_m(cbrt t) dt over [-theta^3, theta^3]
    with W1(t) = W(|t|^{1/3}) / (3 |t|^{2/3}), where W is the weight of the
    mapped polynomial class on [-theta, theta], on one shared panel tree.
    Diagonals are judged against the recurrence product (-1)^n C_1...C_n
    times the measured (0, 0) entry; off-diagonals against
    tol * sqrt(d_n d_m).  By the substitution t = x^3 every entry equals the
    corresponding entry of the mapped class's own Gram matrix, which the
    tests check against the x-space machinery as an independent route.
    """
    if spec.lam != Fraction(2, 3):
        raise ConstraintViolation(
            f"the substituted Gram is worked for lambda = 2/3, got {spec.lam}")
    return _gram_report(_LambdaBasis(spec), nmax, tol)
