"""Independent references for integrals that symortho also takes: mpmath's
tanh-sinh quadrature (mpmath.quad), with each algebraic singularity taken
out by a change of variable.

An integrand is smooth(x) times prod |x - c|^e over its powers (c, e).
smooth gets x as an mpf and may read it in floats where rounding x does
no harm (a polynomial on [-1, 1]).  The singular factors are taken from the
exact distance to their point: each piece between the interval's ends and
the points is halved, and a half that ends at a point with e < 0 is
integrated in v, x = c +- v^(1/(e + 1)), where the integrand is smooth(x)
times the other factors over e + 1.  mpmath.quad alone misses the mass
within its nodes' reach of such a point: 7e-4 of int_0^1 u^-0.8 at 15
digits.  An infinite end is integrated from X = 1 + the largest finite
|point| outward, and a tail whose integrand decays like |x|^sigma in w,
x = X w^(1/(sigma + 1)), where it is bounded.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from symortho.core import poly_from_params
from symortho.legendre import V


def mpf(v):
    """v as an mpf; a Fraction exactly up to the working precision."""
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / v.denominator
    return mp.mpf(v)


def quad(smooth, lo, hi, powers=(), tail=None):
    """int_lo^hi smooth(x) prod |x - c|^e dx over the powers (c, e), as a
    float; tail, where given, is the integrand's exponent sigma < -1 in an
    infinite end (else the end decays fast enough as it is)."""
    at = {}
    for c, e in powers:
        at[float(c)] = at.get(float(c), 0) + mpf(e)

    def rest(x, skip=None):
        out = mpf(smooth(x))
        for c, e in at.items():
            if c != skip and e != 0:
                out *= abs(x - c) ** e
        return out

    def half(c, mid):
        """int from c to mid, in the distance from c."""
        sign, h = (1 if mid > c else -1), abs(mpf(mid) - c)
        e = at.get(c, 0)
        if e < 0:
            m = 1 / (e + 1)
            return mp.quad(lambda v: m * rest(c + sign * v ** m, skip=c), [0, h ** (e + 1)])
        return mp.quad(lambda u: rest(c + sign * u), [0, h])

    def outward(x0, sign):
        """int from x0 to sign * inf."""
        if tail is None:
            return mp.quad(lambda u: rest(x0 + sign * u), [0, mp.inf])
        k = 1 / (mpf(tail) + 1)
        return mp.quad(lambda w: rest(sign * abs(x0) * w ** k) * abs(x0 * k) * w ** (k - 1),
                       [0, 1])

    inner = sorted(c for c in at if lo < c < hi)
    X = 1 + max([abs(c) for c in inner] + [abs(v) for v in (lo, hi) if math.isfinite(v)],
                default=0.0)
    points = [lo if math.isfinite(lo) else -X] + inner + [hi if math.isfinite(hi) else X]
    total = mp.mpf(0)
    for a, b in zip(points, points[1:]):
        mid = (a + b) / 2
        total += half(a, mid) + half(b, mid)
    if not math.isfinite(lo):
        total += outward(-X, -1)
    if not math.isfinite(hi):
        total += outward(X, 1)
    return float(total)


def class_weight(params):
    """(smooth, powers) of the closed-form weight |x|^(s/q) |p x^2 + q|^e of
    a class (|x|^(s/q) e^(r x^2 / 2q) for p = 0, |x|^((r-2p)/p)
    e^(-s / 2p x^2) for q = 0), with its singular factors at 0 and at the
    zeros +-theta of p x^2 + q as powers."""
    p, q, r, s = (mpf(v) for v in params.promoted())
    if q == 0:
        return (lambda x: abs(x) ** ((r - 2 * p) / p) * mp.exp(-s / (2 * p * x * x))), ()
    powers = [(0.0, s / q)]
    if p == 0:
        return (lambda x: mp.exp(r * x * x / (2 * q))), powers
    e = (r - 2 * p) / (2 * p) - s / (2 * q)
    if -q / p > 0:
        theta = float(mp.sqrt(-q / p))
        return (lambda x: abs(p) ** e), powers + [(theta, e), (-theta, e)]
    return (lambda x: (p * x * x + q) ** e), powers


def family_product(basis, n, m, factor=lambda x: 1, power=0):
    """int W P_n P_m x^power factor over a family's or a class's support,
    P monic, the members exactly in mpmath; factor must be bounded, and the
    tail's exponent is the interval's hint for n + m + power."""
    smooth_w, powers = class_weight(basis.params)
    pn, pm = (poly_from_params(basis.params, k, monic=True) for k in (n, m))
    interval = basis.interval(origin_power=0, tail_power=n + m + power)
    return quad(lambda x: smooth_w(x) * pn.eval_exact(x) * pm.eval_exact(x) * x ** power
                * factor(x), interval.lo, interval.hi, powers,
                tail=dict(interval.singularities).get(math.inf))


def kind_member(kind, n):
    """(sign, poly, powers) of member n of a Legendre kind: its prefactor
    as sign(x) prod |x - c|^e over powers (the kind's hints), and the
    polynomial factor, both read in floats."""
    rows = kind.recurrence(n).rows

    def poly(x):
        return float(rows(np.array([float(x)]))[n - kind.base, 0])
    odd = not isinstance(kind, V) and float(kind.a) != 0 and (
        not float(kind.a).is_integer() or int(kind.a) % 2)
    return (lambda x: mp.sign(x) if odd else 1), poly, tuple(kind.hints())


def kind_product(kind, n, m, factor=lambda x: 1):
    """int phi_n phi_m factor over (-1, 1) of a Legendre kind (unit weight);
    m None takes phi_n factor alone."""
    sign, pn, powers = kind_member(kind, n)
    if m is None:
        return quad(lambda x: sign(x) * pn(x) * factor(x), -1.0, 1.0, powers)
    pm = kind_member(kind, m)[1]
    return quad(lambda x: pn(x) * pm(x) * factor(x), -1.0, 1.0,
                [(c, 2 * e) for c, e in powers])
