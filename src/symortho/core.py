"""Construction of the four-parameter symmetric polynomial class.

A parameter tuple (p, q, r, s) fixes a sequence of symmetric polynomials
S_n(x), each solving the second order equation

    x^2 (p x^2 + q) y'' + x (r x^2 + s) y'
        - (n (r + (n-1) p) x^2 + (1 - (-1)^n) s / 2) y = 0.

S_n contains only the parity of n: even n gives even polynomials, odd n
odd ones.  The trailing coefficient is normalized to 1, so the leading
coefficient carries all the parameter dependence and can vanish or blow
up for special parameter values; those cases raise instead of returning
garbage.

Coefficients are computed exactly when the parameters are exact (int or
Fraction) and in floats otherwise.  Everything downstream (recurrence,
evaluation, equation residuals) shares that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import (ConstraintViolation, DegenerateDenominator, PoleError,
                     ZeroLeadingCoefficient)
from .special import binom

__all__ = [
    "ClassParams", "SymmetricPoly", "explicit_coeffs", "leading_coefficient",
    "monic_coeffs", "recurrence_c", "monic_by_recurrence", "member_rows",
    "poly_from_params", "eigenvalue", "ode_residual", "ode_residual_rel",
]


@dataclass(frozen=True)
class ClassParams:
    """The tuple (p, q, r, s) selecting one member of the class."""

    p: object
    q: object
    r: object
    s: object

    def __iter__(self):
        return iter((self.p, self.q, self.r, self.s))

    def exact(self) -> bool:
        return all(isinstance(v, Rational) for v in self)

    def promoted(self):
        """Exact parameters as Fractions, inexact ones as floats."""
        if self.exact():
            return tuple(Fraction(v) for v in self)
        return tuple(float(v) for v in self)


def _check_degree(n):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ConstraintViolation(f"degree must be a nonnegative integer, got {n!r}")
    return int(n)


def _sign_eps(n):
    # (-1)^(n+1): -1 for even n, +1 for odd n
    return 1 if n % 2 else -1


def explicit_coeffs(params: ClassParams, n):
    """Coefficients of S_n in descending-degree compressed form.

    Returns a list c with c[k] multiplying x^(n-2k), k = 0..floor(n/2).
    The last entry is always 1.  A vanishing denominator in the defining
    product raises DegenerateDenominator, since then S_n does not exist
    for these parameters.
    """
    n = _check_degree(n)
    p, q, r, s = params.promoted()
    h = n // 2
    eps = _sign_eps(n)

    dens = [(2 * i + eps + 2) * q + s for i in range(h)]
    for i, d in enumerate(dens):
        if d == 0:
            raise DegenerateDenominator(
                f"(2i+eps+2)q+s vanishes for degree {n}", index=i)

    # ratio[j] = product_{i<j} [(2i+eps+2h)p + r] / dens[i]
    ratio = [1]
    acc = 1
    for i in range(h):
        acc = acc * ((2 * i + eps + 2 * h) * p + r) / dens[i]
        ratio.append(acc)

    return [binom(h, k) * ratio[h - k] for k in range(h + 1)]


def leading_coefficient(params: ClassParams, n):
    """The coefficient of x^n in S_n (the trailing one is fixed at 1)."""
    return explicit_coeffs(params, n)[0]


def monic_coeffs(params: ClassParams, n):
    """Compressed coefficients of S_n divided by its leading coefficient."""
    coeffs = explicit_coeffs(params, n)
    lead = coeffs[0]
    if lead == 0:
        raise ZeroLeadingCoefficient(
            f"S_{n} has leading coefficient 0; no monic version exists")
    return [c / lead for c in coeffs]


def recurrence_c(params: ClassParams, n):
    """Coefficient C_n in the monic three-term recurrence.

    The monic members satisfy Sb_{n+1} = x Sb_n + C_n Sb_{n-1}; C_n also
    drives the norm products.  For n = 1 the general quotient is an exact
    0/0 whenever r = p, so the reduced form (q+s)/(p+r) is used there.
    """
    n = _check_degree(n)
    if n < 1:
        raise ConstraintViolation("recurrence coefficients start at n = 1")
    p, q, r, s = params.promoted()

    if n == 1:
        den = p + r
        if den == 0:
            raise PoleError("C_1 undefined: p + r = 0")
        return (q + s) / den

    sgn = -1 if n % 2 else 1    # (-1)^n
    half = (1 - sgn) // 2       # 0 for even n, 1 for odd
    num = (p * q * n * n
           + ((r - 2 * p) * q - sgn * p * s) * n
           + (r - 2 * p) * s * half)
    den = (2 * p * n + r - p) * (2 * p * n + r - 3 * p)
    if den == 0:
        raise PoleError(f"C_{n} has a vanishing denominator for these parameters")
    return num / den


def monic_by_recurrence(params: ClassParams, n):
    """Compressed monic coefficients built by the three-term recurrence.

    Independent of explicit_coeffs; the two must agree whenever both are
    defined, which makes this the natural cross-check path.
    """
    n = _check_degree(n)
    prev = [1]          # Sb_0
    if n == 0:
        return prev
    cur = [1]           # Sb_1 = x, compressed
    for m in range(1, n):
        c = recurrence_c(params, m)
        # x*Sb_m keeps indices; C*Sb_{m-1} lands shifted by one slot
        nxt = list(cur) + [0] * ((m + 1) // 2 + 1 - len(cur))
        for k, b in enumerate(prev):
            nxt[k + 1] += c * b
        prev, cur = cur, nxt
    return cur


def member_rows(params: ClassParams, nmax):
    """Evaluator x -> float values of the monic members Sb_0..Sb_nmax at x.

    Each call is one vectorized pass of Sb_{k+1} = x Sb_k + C_k Sb_{k-1};
    row k of the (nmax + 1, *x.shape) result is Sb_k.  The C_k are computed
    once, here; a pole in one raises PoleError.  Unlike Horner on the
    monomial coefficients, the recurrence stays accurate to rounding
    relative to max|Sb_k| at high degree.
    """
    nmax = _check_degree(nmax)
    cs = [float(recurrence_c(params, k)) for k in range(1, nmax)]

    def rows(x):
        x = np.asarray(x, dtype=float)
        out = np.empty((nmax + 1,) + x.shape)
        out[0] = 1.0
        if nmax:
            out[1] = x
        for k, c in enumerate(cs, start=1):
            out[k + 1] = x * out[k] + c * out[k - 1]
        return out
    return rows


def poly_from_params(params: ClassParams, n, monic=False) -> "SymmetricPoly":
    coeffs = monic_coeffs(params, n) if monic else explicit_coeffs(params, n)
    return SymmetricPoly(n, tuple(coeffs))


class SymmetricPoly:
    """A fixed-parity polynomial in compressed coefficient form.

    coeffs[k] multiplies x^(n-2k).  Calling evaluates in floats via Horner
    on x^2 (cheap and stable for these polynomials); eval_exact keeps the
    coefficient arithmetic, for rational spot checks.
    """

    __slots__ = ("n", "coeffs", "_fc")

    def __init__(self, n, coeffs):
        self.n = int(n)
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != self.n // 2 + 1:
            raise ConstraintViolation(
                f"degree {n} needs {n // 2 + 1} compressed coefficients, "
                f"got {len(self.coeffs)}")
        self._fc = np.array([float(c) for c in self.coeffs])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x2 = x * x
        acc = np.full_like(x2, self._fc[0])
        for c in self._fc[1:]:
            acc = acc * x2 + c
        out = acc * x if self.n % 2 else acc
        return float(out) if scalar else out

    def eval_exact(self, x):
        acc = self.coeffs[0]
        x2 = x * x
        for c in self.coeffs[1:]:
            acc = acc * x2 + c
        return acc * x if self.n % 2 else acc

    def deriv(self) -> "SymmetricPoly":
        if self.n == 0:
            return SymmetricPoly(0, (0 * self.coeffs[0],))
        new = [c * (self.n - 2 * k) for k, c in enumerate(self.coeffs)]
        if self.n % 2 == 0:
            new = new[:-1]      # the constant term drops out
        return SymmetricPoly(self.n - 1, tuple(new))

    def as_dense(self):
        """Full ascending coefficient array, numpy float."""
        out = np.zeros(self.n + 1)
        for k, c in enumerate(self.coeffs):
            out[self.n - 2 * k] = float(c)
        return out

    def __repr__(self):
        return f"SymmetricPoly(n={self.n}, coeffs={self.coeffs!r})"


def eigenvalue(params: ClassParams, n):
    """Eigenvalue -n (r + (n-1) p) attached to S_n."""
    n = _check_degree(n)
    p, q, r, s = params.promoted()
    return -n * (r + (n - 1) * p)


def _ode_pieces(params: ClassParams, n, poly, x):
    p, q, r, s = (float(v) for v in params)
    x = np.asarray(x, dtype=float)
    d1 = poly.deriv()
    d2 = d1.deriv()
    x2 = x * x
    t_second = x2 * (p * x2 + q) * d2(x)
    t_first = x * (r * x2 + s) * d1(x)
    lam = float(eigenvalue(params, n))
    odd_s = s if n % 2 else 0.0
    t_zero = (-lam * x2 + odd_s) * poly(x)
    return t_second, t_first, t_zero


def ode_residual(params: ClassParams, n, poly, x):
    """Pointwise defect of poly in the degree-n equation at points x."""
    t2, t1, t0 = _ode_pieces(params, n, poly, x)
    return t2 + t1 - t0


def ode_residual_rel(params: ClassParams, n, poly, x, floor=1e-300):
    """Residual scaled by the largest participating term, pointwise."""
    t2, t1, t0 = _ode_pieces(params, n, poly, x)
    scale = np.maximum(np.maximum(np.abs(t2), np.abs(t1)), np.abs(t0))
    return np.abs(t2 + t1 - t0) / np.maximum(scale, floor)
