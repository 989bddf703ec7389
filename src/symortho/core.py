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
evaluation, equation residuals) shares that convention.  The recurrence
coefficients C_n of exact parameters come from integers: the parameters
scaled by their common denominator (see ClassParams._scaled).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from numbers import Rational

import numpy as np

from .errors import (ConstraintViolation, DegenerateDenominator, PoleError,
                     ZeroLeadingCoefficient)
from .special import binom

__all__ = [
    "ClassParams", "weight_exponents", "SymmetricPoly", "explicit_coeffs",
    "leading_coefficient", "monic_coeffs", "recurrence_c", "monic_by_recurrence",
    "member_rows", "member_exists", "poly_from_params", "eigenvalue", "ode_residual",
    "ode_residual_rel",
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
        # the concrete types first: the Rational ABC check costs more
        return all(type(v) in (int, Fraction) or isinstance(v, Rational) for v in self)

    def promoted(self):
        """Exact parameters as Fractions, inexact ones as floats."""
        return self._promoted

    @cached_property
    def _promoted(self):
        if self.exact():
            return tuple(Fraction(v) for v in self)
        return tuple(float(v) for v in self)

    @cached_property
    def _scaled(self):
        """Exact parameters times the least common multiple of their
        denominators, as ints; inexact ones promoted to floats.  C_n's
        numerator and denominator are both of degree 2 in (p, q, r, s) (of
        degree 1 for n = 1), so the scale cancels from their ratio."""
        vals = self.promoted()
        if type(vals[0]) is float:
            return vals
        scale = math.lcm(*(v.denominator for v in vals))
        return tuple(v.numerator * (scale // v.denominator) for v in vals)

    def c(self, k):
        """recurrence_c(self, k), computed once per instance for each k up to
        the largest asked for.  A pole among C_1..C_k raises PoleError."""
        cs = self._c
        while len(cs) < k:
            cs.append(recurrence_c(self, len(cs) + 1))
        return cs[k - 1]

    def float_c(self, count):
        """[C_1, ..., C_count] in floats, each c(k) rounded once and once per
        instance.  A pole among them raises PoleError."""
        cs = self._float_c
        while len(cs) < count:
            cs.append(float(self.c(len(cs) + 1)))
        return cs[:count]

    @cached_property
    def _c(self):
        return []

    @cached_property
    def _float_c(self):
        return []

    def lead(self, n):
        """S_n's leading coefficient, explicit_coeffs(self, n)[0], computed
        once per degree with no coefficient list; a vanishing denominator
        raises DegenerateDenominator with explicit_coeffs' index."""
        got = self._leads.get(n)
        if got is None:
            got = self._leads[n] = _ratios(self, n)[-1]
        return got

    @cached_property
    def _leads(self):
        return {}


WeightExponents = namedtuple("WeightExponents", "theta origin edge tail")


def weight_exponents(params: ClassParams) -> WeightExponents:
    """(theta, origin, edge, tail) of the closed-form weight |x|^(s/q)
    (px^2 + q)^e, e = (r-2p)/(2p) - s/(2q): theta is px^2 + q's positive
    zero (else inf); the exponents are s/q at 0 (for q = 0 the weight is
    |x|^((r-2p)/p) e^(-s/(2p x^2)): inf, flat, for s/p > 0, -inf for
    s/p < 0 and (r-2p)/p for s = 0), e at +-theta (nan for pq = 0), and
    (r-2p)/p at infinity if theta = inf and p != 0, else -inf.  Each is one
    formula over params.promoted(), so an exact exponent is a Fraction
    rounded once by float() (a zero one is +0.0)."""
    p, q, r, s = params.promoted()
    theta = math.sqrt(-q / p) if p and q and -q / p > 0 else math.inf
    if q:
        origin = s / q
    else:
        origin = -math.inf if s * p < 0 else (r - 2 * p) / p if p and not s else math.inf
    edge = (r - 2 * p) / (2 * p) - s / (2 * q) if p and q else math.nan
    tail = (r - 2 * p) / p if p and theta == math.inf else -math.inf
    return WeightExponents(theta, float(origin), float(edge), float(tail))


def _check_degree(n):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ConstraintViolation(f"degree must be a nonnegative integer, got {n!r}")
    return int(n)


def explicit_coeffs(params: ClassParams, n):
    """Coefficients of S_n in descending-degree compressed form.

    Returns a list c with c[k] multiplying x^(n-2k), k = 0..floor(n/2).
    The last entry is always 1.  A vanishing denominator in the defining
    product raises DegenerateDenominator, since then S_n does not exist
    for these parameters.
    """
    n = _check_degree(n)
    ratio = _ratios(params, n)
    h = n // 2
    return [binom(h, k) * ratio[h - k] for k in range(h + 1)]


def _factors(params: ClassParams, n):
    """The numerators (2i+eps+2h)p + r and denominators (2i+eps+2)q + s,
    i < h = n // 2, of S_n's coefficient ratios."""
    p, q, r, s = params.promoted()
    h, eps = n // 2, 1 if n % 2 else -1     # eps = (-1)^(n+1)
    return ([(2 * i + eps + 2 * h) * p + r for i in range(h)],
            [(2 * i + eps + 2) * q + s for i in range(h)])


def _ratios(params: ClassParams, n):
    """ratio[j] = product_{i<j} num_i / den_i (_factors), j = 0..h, the
    last one being S_n's leading coefficient."""
    nums, dens = _factors(params, n)
    for i, d in enumerate(dens):
        if d == 0:
            raise DegenerateDenominator(
                f"(2i+eps+2)q+s vanishes for degree {n}", index=i)
    return list(accumulate(zip(nums, dens), lambda acc, nd: acc * nd[0] / nd[1], initial=1))


def leading_coefficient(params: ClassParams, n):
    """The coefficient of x^n in S_n (the trailing one is fixed at 1)."""
    return params.lead(_check_degree(n))


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
    Exact parameters give a Fraction, built from the integer numerator and
    denominator of params._scaled (so float() of it is rounded once), and
    inexact ones a float.
    """
    n = _check_degree(n)
    if n < 1:
        raise ConstraintViolation("recurrence coefficients start at n = 1")
    p, q, r, s = params._scaled

    if n == 1:
        num, den = q + s, p + r
        if den == 0:
            raise PoleError("C_1 undefined: p + r = 0")
    else:
        sgn = -1 if n % 2 else 1    # (-1)^n
        half = (1 - sgn) // 2       # 0 for even n, 1 for odd
        num = (p * q * n * n
               + ((r - 2 * p) * q - sgn * p * s) * n
               + (r - 2 * p) * s * half)
        den = (2 * p * n + r - p) * (2 * p * n + r - 3 * p)
        if den == 0:
            raise PoleError(f"C_{n} has a vanishing denominator for these parameters")
    return Fraction(num, den) if type(den) is int else num / den


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


# points per block of a member call: its four block-sized arrays stay in
# cache, and at 1e5 points (five blocks) take less memory than the output
_CHUNK = 20_000
# points per block of a pass over all rows (expand.reconstruct)
ROWS_CHUNK = 8192


def blockwise(fn, x, chunk=None):
    """fn(x) for a pointwise fn of flat arrays, taken a block of chunk
    (default _CHUNK) points at a time, so that fn's temporaries take
    O(chunk) memory."""
    chunk = chunk or _CHUNK
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if flat.size <= chunk:
        return fn(flat).reshape(x.shape)
    out = np.empty_like(flat)
    for i in range(0, flat.size, chunk):
        out[i:i + chunk] = fn(flat[i:i + chunk])
    return out.reshape(x.shape)


def _rescale(stack, e):
    """The running arrays of a scaled pass, one row each, divided per point
    by the power of 2 of the largest, and e plus that power.  Where a row
    is infinite (|x| at or near the float max), the infinite rows keep
    their sign and the rest become 0, with a power past 1024 + 1074, beyond
    any float and any scale; inf * 0 (at x = +-inf) is read as 0."""
    stack[np.isnan(stack)] = 0.0
    inf = np.isinf(stack)
    top = inf.any(axis=0)
    stack[:, top] = np.where(inf[:, top], np.sign(stack[:, top]), 0.0)
    f = np.frexp(np.abs(stack).max(axis=0))[1]
    return np.ldexp(stack, -f), e + f + 2100 * top


class Recurrence:
    """Float members p_0..p_d of the three-term recurrence

        p_{k+1} = (x - b_k) p_k + c_k p_{k-1},   p_0 = 1,  c_0 = 0,

    member k scaled by scale[k], in three modes: rows (all members), a call
    (member d) and triple (member d and two derivatives).  Unlike Horner on
    monomial coefficients it stays accurate to rounding relative to
    max|p_k| at high degree.  Every recurrence here has b_k = 0 for k >= 1
    (V alone has b_0 != 0).  Rows and a call take the points where member
    d comes out nan at a non-nan x (inf - inf in a step, a nan carrying to
    every later step) again by _scaled, and triple its nan values by its
    own scaled pass: +-inf past the float range.
    """

    def __init__(self, scale, b, c):
        self.scale = np.array(scale, dtype=float)
        self.b, self.c = [float(v) for v in b], [float(v) for v in c]
        d = len(b)
        # a call runs the recurrence to degree head, then two degrees per
        # step in y = x^2: p_{k+2} = (y + c_{k+1} + c_k) p_k - c_k c_{k-1}
        # p_{k-2}, from k = d % 2 if b_0 = 0 and k = d % 2 + 2 otherwise
        self._head = min(d, d % 2 + (2 if d and self.b[0] else 0))
        self._steps = [(self.c[k + 1] + self.c[k], self.c[k] * self.c[k - 1] if k else 0.0)
                       for k in range(self._head, d - 1, 2)]

    def rows(self, x):
        """(d + 1, *x.shape) array, row k being member k at x; +-inf where
        a member overflows."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._rows(x)
            if np.isnan(out[-1].min(initial=0.0)):      # min is nan if any value is
                bad = np.isnan(out[-1]) & ~np.isnan(x)
                if bad.any():
                    out[:, bad] = self._scaled(x[bad], True)
        return out

    def _rows(self, x):
        out = np.empty((len(self.b) + 1,) + x.shape)
        out[0] = 1.0
        term = np.empty_like(x)
        for k, (bk, ck) in enumerate(zip(self.b, self.c)):
            # in place, one temporary for every row (views stay arrays at 0-d x)
            nxt = np.multiply(x - bk if bk else x, out[k], out=out[k + 1, ...])
            if k:
                nxt += np.multiply(ck, out[k - 1], out=term)
        if self._row_scale is not None:
            out *= self._row_scale.reshape((-1,) + (1,) * x.ndim)
        return out

    @cached_property
    def _row_scale(self):
        """scale, or None when every member is unscaled (rows mode)."""
        return None if (self.scale == 1.0).all() else self.scale

    def __call__(self, x):
        """Member d at x, blockwise; +-inf where it overflows."""
        # x^2 itself overflows past |x| ~ 1.3e154
        with np.errstate(over="ignore", invalid="ignore"):
            return blockwise(self.block, x)

    def block(self, x):
        """Member d at a flat array x, in a new array; the caller silences
        overflow and invalid."""
        out = self._member(x)
        if np.isnan(out.min(initial=0.0)):      # min is nan if any value is
            bad = np.isnan(out) & ~np.isnan(x)
            if bad.any():
                out[bad] = self._scaled(x[bad], False)
        return out

    def _member(self, x):
        # at most four arrays of x's size are alive at once: y, cur, prev, nxt
        b, c, scale = self.b, self.c, self.scale[-1]
        if not b:
            return np.full_like(x, scale)
        p = [scale]         # p_0 a scalar, then arrays
        for k in range(self._head):
            nxt = x - b[k]
            nxt *= p[k]
            nxt += c[k] * p[k - 1]
            p.append(nxt)
        cur, prev = p[-1], (p[-3] if self._head >= 2 else 0.0)
        del p
        y = x * x
        nxt = np.empty_like(x)
        for s, t in self._steps:
            # in place: nxt = (y + s) cur - t prev, then the buffers rotate
            np.add(y, s, nxt)
            nxt *= cur
            if t:
                prev *= t
                nxt -= prev
            cur, prev, nxt = nxt, cur, (prev if isinstance(prev, np.ndarray)
                                        else np.empty_like(x))
        return cur

    def _scaled(self, x, rows):
        """Members 0..d at a flat x (rows) or member d alone, with p_k and
        p_{k-1} rescaled together at each step by _rescale: +-inf past the
        float range, never nan.  A power of 2 scales exactly, so where the
        one-step recurrence (the rows mode) stays in the normal range, its
        values come out bit for bit."""
        mant, power = np.frexp(self.scale)
        out, prev, cur, e = [], np.zeros_like(x), np.ones_like(x), 0
        for k, (bk, ck) in enumerate(zip(self.b, self.c)):
            if rows:
                out.append(np.ldexp(cur * mant[k], e + power[k]))
            (prev, cur), e = _rescale(np.array([cur, (x - bk) * cur + ck * prev]), e)
        out.append(np.ldexp(cur * mant[-1], e + power[-1]))
        return np.array(out) if rows else out[0]

    def triple(self, x):
        """Member d and its first two derivatives at x, by the recurrence
        differentiated once and twice.  A value that comes out nan at a
        non-nan x is taken again by the scaled pass of _triple: +-inf past
        the float range, never nan.  At x = +-inf each is its limit: +-inf
        for a derivative of order k < d, k! times the lead for k = d, else 0."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._triple(x, False)
            bad = np.isnan(out) & ~np.isnan(x)
            if bad.any():
                cols = bad.any(axis=0)
                out[:, cols] = np.where(bad[:, cols], self._triple(x[cols], True), out[:, cols])
            far = np.isinf(x)
            if far.any():
                d, lead, sign = len(self.b), self.scale[-1], np.sign(x)
                out = np.where(far, [lead * sign ** (d - k) * math.inf if k < d else
                                     np.full_like(x, math.factorial(k) * lead if k == d else 0.0)
                                     for k in range(3)], out)
        return tuple(out)

    def _triple(self, x, scaled):
        """(3, *x.shape) array of member d and two derivatives.  Scaled, the
        six running arrays are rescaled together at each step by _rescale;
        a derivative that falls more than the float range below the largest
        (as at x = +-inf) comes out 0."""
        zero = np.zeros_like(x)
        cur, prev, e = (zero + 1, zero, zero), (zero, zero, zero), 0
        for bk, ck in zip(self.b, self.c):
            u = x - bk
            prev, cur = cur, (u * cur[0] + ck * prev[0],
                              cur[0] + u * cur[1] + ck * prev[1],
                              2 * cur[1] + u * cur[2] + ck * prev[2])
            if scaled:
                six, e = _rescale(np.array(prev + cur), e)
                prev, cur = tuple(six[:3]), tuple(six[3:])
        if scaled:
            mant, power = np.frexp(self.scale[-1])
            return np.ldexp(np.array(cur) * mant, e + power)
        return np.array([self.scale[-1] * v for v in cur])


def class_recurrence(params: ClassParams, d, scale=1.0) -> Recurrence:
    """The monic members Sb_0..Sb_d as a Recurrence (b = 0, c_k = C_k), the
    last one scaled by `scale`.  A pole in some C_k, k < d, raises
    PoleError."""
    return Recurrence([1.0] * d + [scale], [0.0] * d, [0.0] + params.float_c(max(d - 1, 0)))


def member_rows(params: ClassParams, nmax):
    """Evaluator x -> (nmax + 1, *x.shape) float values of the monic members
    Sb_0..Sb_nmax at x.  A pole in some C_k raises PoleError."""
    return class_recurrence(params, _check_degree(nmax)).rows


def member_exists(params: ClassParams, n):
    """Whether the monic S_n exists: no denominator factor of its leading
    coefficient vanishes (explicit_coeffs would raise
    DegenerateDenominator), and no numerator factor does (a float lead can
    underflow to 0 without one; then .coeffs, from monic_coeffs, raises)."""
    try:
        lead = params.lead(_check_degree(n))
    except DegenerateDenominator:
        return False
    return lead != 0 or all(_factors(params, n)[0])


def poly_from_params(params: ClassParams, n, monic=False) -> "SymmetricPoly":
    """S_n, or its monic version, raising as explicit_coeffs would; the
    monic version raises ZeroLeadingCoefficient where member_exists says
    it does not exist.  It evaluates by the class recurrence scaled by the
    leading coefficient; its exact coefficients are built on the first
    read of .coeffs."""
    n = _check_degree(n)
    lead = params.lead(n)
    if monic and not member_exists(params, n):
        raise ZeroLeadingCoefficient(
            f"S_{n} has leading coefficient 0; no monic version exists")
    poly = SymmetricPoly._lazy(n, lambda: (monic_coeffs if monic else explicit_coeffs)(params, n))
    if monic or lead != 0:
        try:
            poly._rec = class_recurrence(params, n, 1.0 if monic else lead)
        except PoleError:
            pass
    return poly


class SymmetricPoly:
    """A fixed-parity polynomial in compressed coefficient form.

    coeffs[k] multiplies x^(n-2k); eval_exact and deriv keep the coefficient
    arithmetic.  A call evaluates in floats, and value_derivs adds two
    derivatives: by the class recurrence for a member from poly_from_params,
    else by Horner on x^2, whose error grows fast with the degree (a
    hand-built polynomial, a non-monic member with leading coefficient 0, a
    member above a pole in some C_k).
    """

    __slots__ = ("n", "_coeffs", "_rec")

    def __init__(self, n, coeffs):
        self.n = int(n)
        self._coeffs = tuple(coeffs)
        if len(self._coeffs) != self.n // 2 + 1:
            raise ConstraintViolation(
                f"degree {n} needs {n // 2 + 1} compressed coefficients, "
                f"got {len(self._coeffs)}")
        self._rec = None

    @classmethod
    def _lazy(cls, n, make_coeffs):
        """A degree-n polynomial whose coeffs are make_coeffs(), called on
        the first read."""
        poly = cls.__new__(cls)
        poly.n, poly._coeffs, poly._rec = n, make_coeffs, None
        return poly

    @property
    def coeffs(self):
        if callable(self._coeffs):
            self._coeffs = tuple(self._coeffs())
        return self._coeffs

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self._rec is not None:
            out = self._rec(x)
        else:
            x2 = x * x
            acc = np.full_like(x2, float(self.coeffs[0]))
            for c in self.coeffs[1:]:
                acc = acc * x2 + float(c)
            out = acc * x if self.n % 2 else acc
        return float(out) if x.ndim == 0 else out

    def value_derivs(self, x):
        """(S, S', S'') in floats at x."""
        if self._rec is not None:
            return self._rec.triple(x)
        d1 = self.deriv()
        return self(x), d1(x), d1.deriv()(x)

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
    v0, v1, v2 = poly.value_derivs(x)
    x2 = x * x
    t_second = x2 * (p * x2 + q) * v2
    t_first = x * (r * x2 + s) * v1
    lam = float(eigenvalue(params, n))
    odd_s = s if n % 2 else 0.0
    t_zero = (-lam * x2 + odd_s) * v0
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
