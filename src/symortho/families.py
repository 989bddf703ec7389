"""The four canonical families: factories, weights, moments, norms.

Each family fixes (p, q, r, s) in terms of one or two shape parameters:

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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import NamedTuple

import numpy as np

from .core import ClassParams, recurrence_c
from .errors import (ConstraintViolation, DivergentMoment, OutOfFiniteRange,
                     PoleError, SingularPoint)
from .quadrature import IntervalSpec
from .special import beta_fn, gamma_fn, log_gamma

__all__ = [
    "GUP", "GHP", "FiniteI", "FiniteII", "NormValue", "PairValidity",
    "make_subclass", "weight_at", "moment_zero", "norm_squared", "norms_squared",
    "valid_pair", "pair_integrable",
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


@dataclass(frozen=True)
class _Family:
    label = "generic"

    def __iter__(self):
        raise TypeError("family specs are not iterable; use .params")

    @property
    def support(self):
        return (-math.inf, math.inf)

    @property
    def theta(self):
        return self.support[1]

    def interval(self, origin_power=0, tail_power=0) -> IntervalSpec:
        lo, hi = self.support
        return IntervalSpec(lo, hi, self.hints(origin_power, tail_power))


@dataclass(frozen=True)
class GUP(_Family):
    """Generalized ultraspherical family, weight |x|^{2u}(1-x^2)^v."""

    u: object
    v: object
    label = "gup"

    def __post_init__(self):
        u, v = _num(self.u), _num(self.v)
        if not 2 * u + 1 > 0:
            raise ConstraintViolation(f"gup needs u + 1/2 > 0, got u = {u}")
        if not v + 1 > 0:
            raise ConstraintViolation(f"gup needs v + 1 > 0, got v = {v}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @cached_property
    def params(self) -> ClassParams:
        u, v = self.u, self.v
        return ClassParams(-1, 1, -2 * u - 2 * v - 2, 2 * u)

    @property
    def support(self):
        return (-1.0, 1.0)

    def hints(self, origin_power=0, tail_power=0):
        u, v = float(self.u), float(self.v)
        return ((0.0, 2 * u + origin_power), (-1.0, v), (1.0, v))

    def weight_log(self, x):
        u, v = float(self.u), float(self.v)
        return 2 * u * np.log(np.abs(x)) + v * np.log1p(-x * x)

    def log_deriv(self, x):
        u, v = float(self.u), float(self.v)
        return 2 * u / x - 2 * v * x / (1 - x * x)

    def origin_exponent(self):
        return 2 * float(self.u)


@dataclass(frozen=True)
class GHP(_Family):
    """Generalized Hermite family, weight |x|^{2u} e^{-x^2}."""

    u: object
    label = "ghp"

    def __post_init__(self):
        u = _num(self.u)
        if not 2 * u + 1 > 0:
            raise ConstraintViolation(f"ghp needs u + 1/2 > 0, got u = {u}")
        object.__setattr__(self, "u", u)

    @cached_property
    def params(self) -> ClassParams:
        return ClassParams(0, 1, -2, 2 * self.u)

    def hints(self, origin_power=0, tail_power=0):
        # tails decay like a Gaussian; only the origin needs care
        return ((0.0, 2 * float(self.u) + origin_power),)

    def weight_log(self, x):
        u = float(self.u)
        return 2 * u * np.log(np.abs(x)) - x * x

    def log_deriv(self, x):
        return 2 * float(self.u) / x - 2 * x

    def origin_exponent(self):
        return 2 * float(self.u)


@dataclass(frozen=True)
class FiniteI(_Family):
    """First finite family, weight |x|^{-2u}(1+x^2)^{-v}.

    No inequality is enforced at construction; which degree pairs are
    usable depends on (u, v) and is answered by valid_pair.
    """

    u: object
    v: object
    label = "finite1"

    def __post_init__(self):
        object.__setattr__(self, "u", _num(self.u))
        object.__setattr__(self, "v", _num(self.v))

    @cached_property
    def params(self) -> ClassParams:
        u, v = self.u, self.v
        return ClassParams(1, 1, -2 * u - 2 * v + 2, -2 * u)

    def hints(self, origin_power=0, tail_power=0):
        u, v = float(self.u), float(self.v)
        tail = tail_power - 2 * u - 2 * v
        return ((0.0, -2 * u + origin_power),
                (math.inf, tail), (-math.inf, tail))

    def weight_log(self, x):
        u, v = float(self.u), float(self.v)
        return -2 * u * np.log(np.abs(x)) - v * np.log1p(x * x)

    def log_deriv(self, x):
        u, v = float(self.u), float(self.v)
        return -2 * u / x - 2 * v * x / (1 + x * x)

    def origin_exponent(self):
        return -2 * float(self.u)


@dataclass(frozen=True)
class FiniteII(_Family):
    """Second finite family, weight |x|^{-2u} e^{-1/x^2}."""

    u: object
    label = "finite2"

    def __post_init__(self):
        u = _num(self.u)
        if not 2 * u - 1 > 0:
            raise ConstraintViolation(
                f"finite2 needs u - 1/2 > 0 for a finite base moment, got u = {u}")
        object.__setattr__(self, "u", u)

    @cached_property
    def params(self) -> ClassParams:
        return ClassParams(1, 0, -2 * self.u + 2, 2)

    def hints(self, origin_power=0, tail_power=0):
        u = float(self.u)
        tail = tail_power - 2 * u
        # origin is C-infinity flat: split there, no exponent to soften
        return ((0.0, None), (math.inf, tail), (-math.inf, tail))

    def weight_log(self, x):
        u = float(self.u)
        return -2 * u * np.log(np.abs(x)) - 1.0 / (x * x)

    def log_deriv(self, x):
        return -2 * float(self.u) / x + 2.0 / (x * x * x)

    def origin_exponent(self):
        # effectively +inf decay; exposed as None-like flatness marker
        return math.inf


_FAMILIES = (GUP, GHP, FiniteI, FiniteII)


def make_subclass(spec):
    """Parameter vector and support interval for a family spec."""
    if not isinstance(spec, _FAMILIES):
        raise ConstraintViolation(f"not a family spec: {spec!r}")
    return spec.params, spec.support


def weight_at(spec, x):
    """Weight function value(s); raises SingularPoint where it is +inf."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    lo, hi = spec.support
    if np.any(arr < lo) or np.any(arr > hi):
        raise ConstraintViolation(f"{spec.label} weight evaluated outside support")
    out = np.empty(arr.shape)

    at0 = arr == 0.0
    inner = ~at0
    if isinstance(spec, GUP):
        edge = np.abs(arr) == 1.0
        inner = inner & ~edge
        if np.any(edge):
            v = float(spec.v)
            if v < 0:
                raise SingularPoint(f"weight is +inf at x = +-1 (v = {v} < 0)")
            out[edge] = 0.0 if v > 0 else 1.0
    if np.any(at0):
        if isinstance(spec, FiniteII):
            out[at0] = 0.0      # continuous extension of the flat origin
        else:
            g = spec.origin_exponent()
            if g > 0:
                out[at0] = 0.0
            elif g == 0:
                out[at0] = 1.0
            else:
                raise SingularPoint(
                    f"weight is +inf at x = 0 (origin exponent {g} < 0)")
    if np.any(inner):
        with np.errstate(divide="ignore"):
            out[inner] = np.exp(spec.weight_log(arr[inner]))
    return float(out[0]) if scalar else out


def moment_zero(spec):
    """Closed-form integral of the bare weight over the support."""
    if isinstance(spec, GUP):
        u, v = float(spec.u), float(spec.v)
        return beta_fn(u + 0.5, v + 1.0)
    if isinstance(spec, GHP):
        return gamma_fn(float(spec.u) + 0.5)
    if isinstance(spec, FiniteI):
        u, v = float(spec.u), float(spec.v)
        if u >= 0.5:
            raise DivergentMoment(
                f"origin: needs u < 1/2 for |x|^(-2u) integrability, got u = {u}")
        if u + v <= 0.5:
            raise DivergentMoment(
                f"tail: needs u + v > 1/2 for decay, got u + v = {u + v}")
        return math.exp(log_gamma(0.5 - u) + log_gamma(u + v - 0.5)
                        - log_gamma(v))
    if isinstance(spec, FiniteII):
        return gamma_fn(float(spec.u) - 0.5)
    raise ConstraintViolation(f"not a family spec: {spec!r}")


def finite_degree_bound(spec):
    """Largest certified degree; inf for the infinite families.

    FiniteI uses the two-branch certification condition; -inf means neither
    branch applies and no degree is certified.
    """
    if isinstance(spec, (GUP, GHP)):
        return math.inf
    if isinstance(spec, FiniteII):
        return float(spec.u) - 0.5
    u, v = float(spec.u), float(spec.v)
    bound = -math.inf
    if v >= 1:
        bound = max(bound, u + 0.5)
    if u >= 1:
        bound = max(bound, v + 0.5)
    return bound


def norm_squared(spec, n) -> NormValue:
    """Squared norm of the monic member: (-1)^n prod C_i times moment_zero.

    Finite families reject degrees beyond their bound with
    OutOfFiniteRange; a pole in some C_i propagates as-is, which is the
    boundary-degree signature for FiniteII.
    """
    n = int(n)
    bound = finite_degree_bound(spec)
    if n > bound:
        raise OutOfFiniteRange(n, bound)
    params = spec.params
    prod = 1
    for i in range(1, n + 1):
        prod *= recurrence_c(params, i)
    sign = -1 if n % 2 else 1
    return NormValue(n, sign * float(prod) * moment_zero(spec))


def norms_squared(spec, nmax):
    """norm_squared(spec, n).value for n = 0..nmax, None where it refuses.

    One running product of the C_k serves every degree, where nmax + 1
    calls of norm_squared would rebuild it each time; the values are
    identical.  A refusal (beyond the degree bound, a pole in some C_k, a
    divergent base moment) holds for every higher degree too.
    """
    out = []
    try:
        bound = finite_degree_bound(spec)
        m0 = moment_zero(spec)
        params = spec.params
        prod = 1
        for n in range(int(nmax) + 1):
            if n > bound:
                break
            if n:
                prod *= recurrence_c(params, n)
            out.append((-1 if n % 2 else 1) * float(prod) * m0)
    except (PoleError, DivergentMoment):
        pass
    return out + [None] * (int(nmax) + 1 - len(out))


def valid_pair(spec, n, m) -> PairValidity:
    """Published validity condition plus independent exponent counting."""
    n, m = int(n), int(m)
    big = max(n, m)
    parity_low = (n % 2) + (m % 2)      # lowest power of the product at 0

    if isinstance(spec, (GUP, GHP)):
        u = float(spec.u)
        ok = 2 * u + parity_low > -1
        return PairValidity(True, "infinite family", ok)

    if isinstance(spec, FiniteII):
        u = float(spec.u)
        certified = big <= u - 0.5
        reason = (f"max(n,m) = {big} {'<=' if certified else '>'} u - 1/2 = {u - 0.5}")
        integrable = _tail_margin(spec, n, m) <= 0
        return PairValidity(certified, reason, integrable)

    u, v = float(spec.u), float(spec.v)
    opts = []
    if v >= 1 and big <= u + 0.5:
        opts.append("v >= 1 and max(n,m) <= u + 1/2")
    if u >= 1 and big <= v + 0.5:
        opts.append("u >= 1 and max(n,m) <= v + 1/2")
    certified = bool(opts)
    reason = opts[0] if opts else "neither certifying condition holds"
    origin_ok = -2 * u + parity_low > -1
    tail_ok = _tail_margin(spec, n, m) <= 0
    return PairValidity(certified, reason, origin_ok and tail_ok)


def _tail_margin(spec, n, m):
    """n + m + 1 plus the weight's exponent at infinity: the product of the
    weight and the degree-(n, m) pair decays like |x|^(margin - 1), so its
    tails converge exactly when the margin is negative.  -inf for GUP and
    GHP, which have no algebraic tail."""
    if isinstance(spec, FiniteII):
        return -2 * float(spec.u) + 2 + n + m - 1
    if isinstance(spec, FiniteI):
        return -2 * float(spec.u) - 2 * float(spec.v) + 2 + n + m - 1
    return -math.inf


def pair_integrable(spec, n, m) -> bool:
    """Whether the weight times members n and m is absolutely integrable.

    valid_pair's integrable field counts a tail that decays like |x|^-1 (a
    zero tail margin) as integrable; that tail diverges logarithmically,
    and here it counts as divergent.
    """
    return valid_pair(spec, n, m).integrable and _tail_margin(spec, n, m) < 0


def pearson_residual(spec, x):
    """Relative defect of the weight in its first order equation.

    The weight satisfies x d/dx[(p x^2 + q) W] = (r x^2 + s) W; dividing
    by W turns that into a statement about the log-derivative, which each
    family knows in closed form.  Values should sit at rounding level.
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
