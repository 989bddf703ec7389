"""Weight families: Class(p, q, r, s) and the four canonical families.

Each named family fixes (p, q, r, s) in terms of one or two shape parameters:

    GUP(u, v)      |x|^{2u} (1-x^2)^v        on [-1, 1]
    GHP(u)         |x|^{2u} e^{-x^2}         on (-inf, inf)
    FiniteI(u, v)  |x|^{-2u} (1+x^2)^{-v}    on (-inf, inf), finitely many
    FiniteII(u)    |x|^{-2u} e^{-1/x^2}      on (-inf, inf), finitely many

Weights use |x| powers throughout so every real shape parameter gives a
real weight.  The two finite families are orthogonal only up to a
degree bound; beyond it the defining integrals diverge, and the API
reports that instead of integrating nonsense.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import NamedTuple

import numpy as np

from .core import ClassParams, WeightExponents, weight_exponents
from .errors import (ConstraintViolation, DivergentMoment, OutOfFiniteRange,
                     PoleError, SingularCoefficient, SingularPoint)
from .quadrature import IntervalSpec, divergent
from .special import beta_fn, gamma_fn

__all__ = [
    "Class", "GUP", "GHP", "FiniteI", "FiniteII", "NormValue", "PairValidity",
    "make_subclass", "weight_at", "moment_zero", "norm_squared", "norms_squared",
    "valid_pair", "integrable_pairs", "pair_integrable", "generic_weight_log",
    "finite_degree_bound", "pearson_residual",
]


class NormValue(NamedTuple):
    n: int
    value: float


class PairValidity(NamedTuple):
    """Two verdicts on a degree pair: the certified degree bound and raw exponent
    counting.  They can disagree; both are reported, neither is silently
    preferred."""
    certified: bool
    reason: str
    integrable: bool


def _num(x):
    # keep exact rationals exact; everything else becomes float
    if isinstance(x, Rational):
        return Fraction(x)
    return float(x)


def generic_weight_log(params, x):
    """log of the closed-form self-adjoint weight of the generic class.

    The defining integrand ((r-2p)x^2 + s)/(x(px^2+q)) splits by partial
    fractions into three parameter cases; each is validated against the
    per-family weight formulas in the tests.
    """
    p, q, r, s = (float(v) for v in params)
    x = np.asarray(x, dtype=float)
    t = x * x
    if p == 0 and q == 0:
        raise SingularCoefficient("leading coefficient vanishes identically (p = q = 0)")
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.log(np.abs(x))
        if p == 0:
            return (s / q) * la + (r / (2 * q)) * t
        if q == 0:
            return ((r - 2 * p) / p) * la - s / (2 * p * t)
        return (s / q) * la + ((r - 2 * p) / (2 * p) - s / (2 * q)) * np.log(p * t + q)


@dataclass(frozen=True)
class _Family:
    """A weight family defines label and params; a named one also its printed
    constraint, its closed-form weight_log and any printed degree bound (and
    bound_text or _certificate).  The rest follows from the weight's
    exponents, which (p, q, r, s) fix."""
    bound_text = "the last integrable degree"

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _num(getattr(self, f.name)))

    def __iter__(self):
        raise TypeError("family specs are not iterable; use .params")

    def weight_log(self, x):
        return generic_weight_log(self.params, x)

    @cached_property
    def exponents(self) -> WeightExponents:
        return weight_exponents(self.params)

    @property
    def support(self):
        return (-self.theta, self.theta)

    @property
    def theta(self):
        return self.exponents.theta

    def interval(self, origin_power=0, tail_power=0) -> IntervalSpec:
        lo, hi = self.support
        return IntervalSpec(lo, hi, self.hints(origin_power, tail_power))

    def hints(self, origin_power=0, tail_power=0):
        """(point, exponent) of the weight times |x|^origin_power near 0, at
        +-theta, and times |x|^tail_power at infinity; None: a flat origin."""
        theta, origin, edge, tail = self.exponents
        out = ((0.0, origin + origin_power if origin < math.inf else None),)
        if theta < math.inf:
            out += ((-theta, edge), (theta, edge))
        if tail > -math.inf:
            out += ((math.inf, tail + tail_power), (-math.inf, tail + tail_power))
        return out

    def moment_zero(self):
        """The bare weight's integral over the support, from its exponents
        (theta, a, e, g).  |x|^a (px^2 + q)^e is a Beta integral, |q/p|^z
        q^e B(z, w) with z = (a + 1)/2, on a finite theta (w = e + 1) and for
        p, q > 0 (w = -(g + 1)/2); |x|^a e^(-c x^2) (p = 0, c = -r/(2q)) and
        |x|^g e^(-c/x^2) (q = 0, c = s/(2p)) are Gamma integrals, c^-z
        Gamma(z), with z = -(g + 1)/2 for q = 0.  DivergentMoment names what
        fails: origin, edge or tail."""
        theta, origin, edge, tail = self.exponents
        p, q, r, s = self.params.promoted()
        c = q if p and q else -r / (2 * q) if q else s / (2 * p) if p else 0  # > 0, or no weight
        bad = {"origin": divergent(0, origin), "edge": theta < math.inf and divergent(theta, edge),
               "tail": divergent(math.inf, tail) or q and not c > 0}  # c <= 0: p = 0, growing
        if any(bad.values()) or not c > 0:
            fails = " and ".join(k for k, v in bad.items() if v) or "p = q = 0"
            raise DivergentMoment(f"{fails}: the weight of {self.params} is not integrable "
                                  f"(exponents {tuple(self.exponents)})")
        z = (origin + 1) / 2 if q else -(tail + 1) / 2
        if p == 0 or q == 0:
            return float(c) ** -z * gamma_fn(z)
        w = edge + 1 if theta < math.inf else -(tail + 1) / 2
        return math.exp(z * math.log(float(abs(q / p))) + edge * math.log(float(q))) * beta_fn(z, w)

    def finite_degree_bound(self):
        """The last degree whose diagonal is integrable; inf with no tail."""
        tail = self.exponents.tail
        return math.inf if tail == -math.inf else math.ceil(-(tail + 1) / 2) - 1

    def _certificate(self, big):
        """(whether the degree bound certifies degrees up to big, why)."""
        bound = self.finite_degree_bound()
        ok = big <= bound
        return ok, "infinite family" if bound == math.inf else (
            f"max(n,m) = {big} {'<=' if ok else '>'} {self.bound_text} = {bound}")

    def log_deriv(self, x):
        """(log W)' from the exponents at 0, +-theta and (q = 0) infinity, plus
        e^(r x^2/(2q))'s for p = 0 and e^(-s/(2p x^2))'s for q = 0."""
        _, origin, edge, tail = self.exponents
        p, q, r, s = (float(v) for v in self.params)
        if p and q:
            return origin / x + edge * 2 * p * x / (p * x * x + q)
        return origin / x + r / q * x if q else tail / x + s / (p * x * x * x)

    def valid_pair(self, n, m) -> PairValidity:
        """Published validity condition plus independent exponent counting
        (pair_integrable): the product of members n and m is integrable at
        the origin, at +-theta and in the tails."""
        n, m = int(n), int(m)
        return PairValidity(*self._certificate(max(n, m)), pair_integrable(self, n, m))


@dataclass(frozen=True)
class GUP(_Family):
    """Generalized ultraspherical family, weight |x|^{2u}(1-x^2)^v."""

    u: object
    v: object
    label = "gup"

    def __post_init__(self):
        super().__post_init__()
        if not 2 * self.u + 1 > 0:
            raise ConstraintViolation(f"gup needs u + 1/2 > 0, got u = {self.u}")
        if not self.v + 1 > 0:
            raise ConstraintViolation(f"gup needs v + 1 > 0, got v = {self.v}")

    @cached_property
    def params(self) -> ClassParams:
        return ClassParams(-1, 1, -2 * self.u - 2 * self.v - 2, 2 * self.u)

    def weight_log(self, x):
        u, v = float(self.u), float(self.v)
        return 2 * u * np.log(np.abs(x)) + v * np.log1p(-x * x)


@dataclass(frozen=True)
class GHP(_Family):
    """Generalized Hermite family, weight |x|^{2u} e^{-x^2}."""

    u: object
    label = "ghp"

    def __post_init__(self):
        super().__post_init__()
        if not 2 * self.u + 1 > 0:
            raise ConstraintViolation(f"ghp needs u + 1/2 > 0, got u = {self.u}")

    @cached_property
    def params(self) -> ClassParams:
        return ClassParams(0, 1, -2, 2 * self.u)

    def weight_log(self, x):
        u = float(self.u)
        return 2 * u * np.log(np.abs(x)) - x * x


@dataclass(frozen=True)
class FiniteI(_Family):
    """First finite family, weight |x|^{-2u}(1+x^2)^{-v}.

    No inequality is enforced at construction; which degree pairs are
    usable depends on (u, v) and is answered by valid_pair.
    """

    u: object
    v: object
    label = "finite1"

    @cached_property
    def params(self) -> ClassParams:
        return ClassParams(1, 1, -2 * self.u - 2 * self.v + 2, -2 * self.u)

    def weight_log(self, x):
        u, v = float(self.u), float(self.v)
        return -2 * u * np.log(np.abs(x)) - v * np.log1p(x * x)

    def _branches(self):
        """The two certifying conditions: (holds, degree bound, statement)."""
        u, v = float(self.u), float(self.v)
        return ((v >= 1, u + 0.5, "v >= 1 and max(n,m) <= u + 1/2"),
                (u >= 1, v + 0.5, "u >= 1 and max(n,m) <= v + 1/2"))

    def finite_degree_bound(self):
        return max((bound for ok, bound, _ in self._branches() if ok), default=-math.inf)

    def _certificate(self, big):
        why = [text for ok, bound, text in self._branches() if ok and big <= bound]
        return bool(why), why[0] if why else "neither certifying condition holds"


@dataclass(frozen=True)
class FiniteII(_Family):
    """Second finite family, weight |x|^{-2u} e^{-1/x^2}."""

    u: object
    label = "finite2"
    bound_text = "u - 1/2"

    def __post_init__(self):
        super().__post_init__()
        if not 2 * self.u - 1 > 0:
            raise ConstraintViolation(
                f"finite2 needs u - 1/2 > 0 for a finite base moment, got u = {self.u}")

    @cached_property
    def params(self) -> ClassParams:
        return ClassParams(1, 0, -2 * self.u + 2, 2)

    def weight_log(self, x):
        u = float(self.u)
        return -2 * u * np.log(np.abs(x)) - 1.0 / (x * x)

    def finite_degree_bound(self):
        return float(self.u) - 0.5


@dataclass(frozen=True)
class Class(_Family):
    """Any tuple (p, q, r, s) as a family of its generic weight.  params takes
    the sign that makes px^2 + q > 0 on the support; the equation is
    homogeneous, so C_k, the exponents and the members do not change."""

    p: object
    q: object
    r: object
    s: object
    label = "custom"

    @cached_property
    def params(self) -> ClassParams:
        sign = -1 if self.q < 0 or self.q == 0 and self.p < 0 else 1
        return ClassParams(*(sign * v for v in (self.p, self.q, self.r, self.s)))


_FAMILIES = (GUP, GHP, FiniteI, FiniteII, Class)


def _family(spec):
    if not isinstance(spec, _FAMILIES):
        raise ConstraintViolation(f"not a family spec: {spec!r}")
    return spec


def make_subclass(spec):
    """Parameter vector and support interval for a family spec."""
    return _family(spec).params, spec.support


def weight_at(spec, x):
    """Weight function value(s); raises SingularPoint where it is +inf.
    At a hinted point it is the limit of |x - point|^exponent (of
    |x|^exponent at +-inf): 1 for exponent 0, else 0 or +inf; 0 at a flat
    point and at +-inf when the weight has no algebraic tail."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    lo, hi = spec.support
    if np.any(arr < lo) or np.any(arr > hi):
        raise ConstraintViolation(f"{spec.label} weight evaluated outside support")
    out = np.empty(arr.shape)
    inner = ~np.isinf(arr)
    out[~inner] = 0.0
    for point, g in spec.hints():
        at = arr == point
        if not at.any():
            continue
        if g is not None and (g > 0 if math.isinf(point) else g < 0):
            raise SingularPoint(f"weight is +inf at x = {point:g} (exponent {g})")
        out[at] = 1.0 if g == 0 else 0.0
        inner &= ~at
    if np.any(inner):
        with np.errstate(divide="ignore"):
            out[inner] = np.exp(spec.weight_log(arr[inner]))
    return float(out[0]) if scalar else out


def moment_zero(spec):
    """Closed-form integral of the bare weight over the support."""
    return _family(spec).moment_zero()


def finite_degree_bound(spec):
    """Largest certified degree: inf with no bound, -inf when none is."""
    return spec.finite_degree_bound()


def _c_products(params):
    """(-1)^n prod_{k<=n} C_k, n = 0, 1, ..., in floats: from exact
    parameters each rounded once from integer running products of the
    Fractions' numerators and denominators, from inexact ones a running
    float product.  A pole raises PoleError when it is reached."""
    num = den = 1
    for n in itertools.count():
        if n:
            c = params.c(n)
            if isinstance(c, Fraction):
                num, den = num * c.numerator, den * c.denominator
            else:
                num *= c
        yield (-1 if n % 2 else 1) * (num / den)


def norm_squared(spec, n) -> NormValue:
    """Squared norm of the monic member: (-1)^n prod C_i times moment_zero.

    Finite families reject degrees beyond their bound with
    OutOfFiniteRange; a pole in some C_i propagates as-is, which is the
    boundary-degree signature for FiniteII.
    """
    n = int(n)
    bound = spec.finite_degree_bound()
    if n > bound:
        raise OutOfFiniteRange(n, bound)
    prod = next(itertools.islice(_c_products(spec.params), n, None))
    return NormValue(n, prod * spec.moment_zero())


def norms_squared(spec, nmax, bound=None):
    """norm_squared(spec, n).value for n = 0..nmax, None where it refuses.

    One running product of the C_k serves every degree, where nmax + 1
    calls of norm_squared would rebuild it each time; the values are
    identical.  A refusal (beyond the degree bound, spec's own unless one
    is given, a pole in some C_k, a divergent base moment) holds for every
    higher degree too.
    """
    out = []
    try:
        bound = spec.finite_degree_bound() if bound is None else bound
        m0 = spec.moment_zero()
        prods = _c_products(spec.params)
        for n in range(int(nmax) + 1):
            if n > bound:
                break
            out.append(next(prods) * m0)
    except (PoleError, DivergentMoment):
        pass
    return out + [None] * (int(nmax) + 1 - len(out))


def valid_pair(spec, n, m) -> PairValidity:
    """Published validity condition plus independent exponent counting."""
    return spec.valid_pair(n, m)


def integrable_pairs(spec, n, m):
    """Whether the weight times members n and m is absolutely integrable,
    broadcast over arrays of n and m: no exponent of the product that
    spec.hints(n % 2 + m % 2, n + m) gives (the weight's plus the pair's
    parity at the origin, the weight's at +-theta, plus its degree in the
    tails), the exponents the cliff scan judges, is quadrature.divergent.
    A tail that decays like |x|^-1 diverges.
    """
    bad = (divergent(point, e) for point, e in spec.hints(n % 2 + m % 2, n + m)
           if e is not None)
    return np.logical_not(functools.reduce(np.logical_or, bad, np.zeros(np.shape(n + m), bool)))


def pair_integrable(spec, n, m) -> bool:
    """integrable_pairs of one pair, as a bool."""
    return bool(integrable_pairs(spec, int(n), int(m)))


def pearson_residual(spec, x):
    """Relative defect of the weight in its first order equation.

    The weight satisfies x d/dx[(p x^2 + q) W] = (r x^2 + s) W; dividing
    by W turns that into a statement about the log-derivative, which every
    family takes from its weight_exponents.  Values should sit at rounding
    level.
    """
    p, q, r, s = (float(t) for t in spec.params)
    x = np.asarray(x, dtype=float)
    if np.any(x == 0):
        raise SingularPoint("pearson residual is formed away from x = 0")
    ld = spec.log_deriv(x)
    x2 = x * x
    t1 = x * (2 * p * x)
    t2 = x * (p * x2 + q) * ld
    t3 = r * x2 + s
    num = t1 + t2 - t3
    scale = np.maximum(np.abs(t1), np.maximum(np.abs(t2), np.abs(t3)))
    return num / np.maximum(scale, 1e-300)
