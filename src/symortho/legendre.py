"""Legendre-type eigenfunctions on (-1, 1).

Three classical kinds, orthogonal there with unit weight:

    U  : (1-x^2)^(u/2) P_n^(u,u)(x)
    Pm : (1-x^2)^(m/2) (d/dx)^m P_n(x)
    V  : ((1-x)/(1+x))^(u/2) P_n^(u,-u)(x)

plus two built from the monic symmetric classes:

    G  : x^a (1-x^2)^(b/2) Sbar_n(x)
    Q  : G at a = 1.

Every kind solves an equation of the shared form

    (1-x^2) y'' - 2x y' + (mu - nu/(1-x^2) + [n odd]*E(x)) y = 0

with kind-specific (mu, nu) and E either 0 or -2/x^2; see
``generalized_legendre_residual``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational

import numpy as np

# poly_from_params is not used here, but bench/test_bench.py lists
# legendre among the modules that bind it
from .core import (ClassParams, Recurrence, blockwise,  # noqa: F401
                   class_recurrence, poly_from_params)
from .errors import ConstraintViolation, SingularPoint
from .families import GUP, norm_squared
from .quadrature import IntervalSpec
from .special import binom, gamma_fn

E_CHOICES = ("zero", "-2/x^2")


@dataclass(frozen=True)
class JacobiParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1 and self.beta > -1):
            raise ConstraintViolation("Jacobi parameters need alpha > -1 and beta > -1")


class _JacobiKind:
    """A kind whose polynomial factor is a Jacobi polynomial P^(al, be).

    Its monic recurrence coefficients (jacobi_monic) are built once per
    instance, one step per degree as higher degrees are asked for, and
    every degree is served as a prefix of them.
    """

    @cached_property
    def _jacobi(self):
        # leads, b, c, and the ratio of the last two leading coefficients
        al, be = self.jacobi_params
        ratio = (al + be + 2) / 2
        return [[1, ratio], [(be - al) / 2 / ratio], [0], ratio]

    def jacobi_monic(self, d):
        """(leads, b, c) of P_k^(al, be) = leads[k] p_k, k = 0..d, with monic
        p_k in the form of core.Recurrence: b_k = -a2/a3 and c_k = -a4/(a3
        A_{k-1}), rescaling _jacobi_step by the ratio A_k of leading
        coefficients."""
        al, be = self.jacobi_params
        state = self._jacobi
        leads, b, c, _ = state
        for k in range(len(b), d):
            a1, a2, a3, a4 = _jacobi_step(al, be, k)
            b.append(-a2 / a3)
            c.append(-a4 / (a3 * state[3]))
            state[3] = a3 / a1
            leads.append(leads[-1] * state[3])
        return leads[:d + 1], b[:d], c[:d]


@dataclass(frozen=True)
class U(_JacobiKind):
    """(1-x^2)^(alpha/2) times an ultraspherical Jacobi polynomial."""
    alpha: float

    def __post_init__(self):
        if not self.alpha > -1:
            raise ConstraintViolation("U kind needs alpha + 1 > 0")

    @property
    def jacobi_params(self):
        return self.alpha, self.alpha


@dataclass(frozen=True)
class Pm(_JacobiKind):
    """Associated Legendre branch: (1-x^2)^(m/2) d^m P_n / dx^m."""
    m: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 0):
            raise ConstraintViolation("Pm kind needs a nonnegative integer order m")

    @property
    def jacobi_params(self):
        return self.m, self.m


@dataclass(frozen=True)
class V(_JacobiKind):
    """Asymmetric-prefactor solution ((1-x)/(1+x))^(alpha/2) P_n^(alpha,-alpha)."""
    alpha: float

    def __post_init__(self):
        if not -1 < self.alpha < 1:
            raise ConstraintViolation("V kind needs -1 < alpha < 1")

    @property
    def jacobi_params(self):
        return self.alpha, -self.alpha


@dataclass(frozen=True)
class G:
    """x^a (1-x^2)^(b/2) against the monic symmetric class with that shape."""
    a: float
    b: float

    def __post_init__(self):
        if not 2 * self.a + 1 > 0:
            raise ConstraintViolation("G kind needs a + 1/2 > 0")
        if not self.b + 1 > 0:
            raise ConstraintViolation("G kind needs b + 1 > 0")

    @cached_property
    def params(self) -> ClassParams:
        """The monic class of this shape, one instance per kind."""
        return ClassParams(-1, 1, -2 * self.a - 2 * self.b - 2, 2 * self.a)


@dataclass(frozen=True)
class Q:
    """G at a = 1; picks up the extra -2/x^2 term for odd degrees."""
    b: float

    def __post_init__(self):
        if not self.b + 1 > 0:
            raise ConstraintViolation("Q kind needs b + 1 > 0")

    def as_g(self) -> G:
        return G(1, self.b)

    @cached_property
    def params(self) -> ClassParams:
        """The class of G(1, b), one instance per kind."""
        return self.as_g().params


LegendreKind = (U, Pm, V, G, Q)


def jacobi_coeffs(n, jp):
    """Dense ascending power coefficients of P_n^(alpha, beta).

    Three-term recurrence on coefficient lists; exact when alpha and beta
    are rational.
    """
    al, be = jp.alpha, jp.beta
    if isinstance(al, Rational) and isinstance(be, Rational):
        al, be = Fraction(al), Fraction(be)
    zero = 0 * al * be
    prev = [1 + zero]
    if n == 0:
        return prev
    cur = [(al - be) / 2, (al + be + 2) / 2]

    def at(seq, j):
        return seq[j] if 0 <= j < len(seq) else zero

    for k in range(1, n):
        a1, a2, a3, a4 = _jacobi_step(al, be, k)
        nxt = [(a2 * at(cur, j) + a3 * at(cur, j - 1) - a4 * at(prev, j)) / a1
               for j in range(k + 2)]
        prev, cur = cur, nxt
    return cur


def _jacobi_step(al, be, k):
    """(a1, a2, a3, a4) of a1 P_{k+1} = (a2 + a3 x) P_k - a4 P_{k-1}, k >= 1."""
    t = 2 * k + al + be
    return (2 * (k + 1) * (k + al + be + 1) * t, (t + 1) * (al * al - be * be),
            t * (t + 1) * (t + 2), 2 * (k + al) * (k + be) * (t + 2))


def eval_jacobi(n, jp, x):
    """P_n^(alpha, beta)(x) by the terminating hypergeometric sum in (x-1)/2."""
    al, be = jp.alpha, jp.beta
    terms = [binom(n + al + be + k, k) * binom(n + al, n - k) for k in range(n + 1)]
    u = (x - 1) / 2
    acc = terms[-1]
    for t in terms[-2::-1]:
        acc = acc * u + t
    return acc


def legendre_mu_nu(kind, n):
    """The (mu, nu) pair that places (kind, n) in the shared equation."""
    if isinstance(kind, U):
        return (n + kind.alpha) * (n + kind.alpha + 1), kind.alpha ** 2
    if isinstance(kind, Pm):
        return n * (n + 1), kind.m ** 2
    if isinstance(kind, V):
        return n * (n + 1), kind.alpha ** 2
    if isinstance(kind, G):
        nab = n + kind.a + kind.b
        return nab * (nab + 1), kind.b ** 2
    if isinstance(kind, Q):
        return (n + kind.b + 1) * (n + kind.b + 2), kind.b ** 2
    raise TypeError(f"not a Legendre kind: {kind!r}")


def _check_open_interval(x):
    if not np.all(np.abs(x) < 1):
        raise ConstraintViolation("evaluation needs |x| < 1")


def eval_legendre_fn(kind, n, x):
    """Evaluate the kind's degree-n member at x in (-1, 1).

    Pm with m > n is identically zero and returns 0 rather than raising.
    """
    x_arr = np.asarray(x, dtype=float)
    _check_open_interval(x_arr)
    val = member_fn(kind, n)(x_arr)
    return float(val) if np.ndim(val) == 0 else val


def member_fn(kind, n):
    """Unguarded vectorized evaluator, meant for quadrature integrands: the
    kind's recurrence (_kind_recurrence) times its prefactor, blockwise.

    No domain check: exactly at |x| = 1 the prefactor follows IEEE semantics
    (0, inf, or nan depending on the exponent), which the adaptive integrator
    treats as a resolution-limit sample rather than an error.
    """
    rec = _kind_recurrence(kind, n)

    def f(x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return blockwise(lambda xb: rec(xb) * _prefactor(kind, xb), x)
    return f


def _kind_recurrence(kind, nmax):
    """Recurrence whose members are the polynomial factors of the kind's
    members base..nmax.

    U and V: P_n^(u, +-u).  Pm: d^m P_n / dx^m = (n+m)! / (2^m n!)
    P_{n-m}^(m,m), identically zero for n < m.  G and Q: the monic class
    members, c_k = C_k of core.recurrence_c.  Both kinds of coefficients
    are built once per kind instance.
    """
    if isinstance(kind, (G, Q)):
        return class_recurrence(kind.params, nmax)
    if isinstance(kind, Pm):
        m = kind.m
        if nmax < m:
            return Recurrence([0.0], [], [])
        leads, b, c = kind.jacobi_monic(nmax - m)
        return Recurrence([lead * (math.factorial(n + m) / (2 ** m * math.factorial(n)))
                           for n, lead in enumerate(leads, start=m)], b, c)
    return Recurrence(*kind.jacobi_monic(nmax))


def kind_rows(kind, nmax):
    """Evaluator x -> members base..nmax of the kind at x, one row each:
    the rows of the kind's recurrence (_kind_recurrence) times the kind's
    prefactor.  Like member_fn, there is no domain check; nmax below the
    kind's base degree (m for Pm, else 0) raises ConstraintViolation.
    """
    base = kind.m if isinstance(kind, Pm) else 0
    if nmax < base:
        raise ConstraintViolation(f"nmax must be at least {base} for this kind")
    rec = _kind_recurrence(kind, nmax)

    def rows(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _prefactor(kind, x) * rec.rows(x)
    return rows


def legendre_norm(kind, n):
    """Closed-form squared norm of the degree-n member under unit weight."""
    if isinstance(kind, U):
        al = kind.alpha
        z = n + 2 * al + 1
        if z == 0:
            # alpha = -1/2, n = 0: (2n+2al+1)*gamma(z) -> gamma(z+1) = 1
            denom = math.factorial(n)
        else:
            denom = math.factorial(n) * (2 * n + 2 * al + 1) * gamma_fn(z)
        return 2 ** (2 * al + 1) * gamma_fn(n + al + 1) ** 2 / denom
    if isinstance(kind, Pm):
        if n < kind.m:
            raise ConstraintViolation("Pm norm needs n >= m")
        return (2 * math.factorial(n + kind.m)
                / ((2 * n + 1) * math.factorial(n - kind.m)))
    if isinstance(kind, V):
        al = kind.alpha
        return (2 * gamma_fn(n + 1 + al) * gamma_fn(n + 1 - al)
                / (math.factorial(n) ** 2 * (2 * n + 1)))
    if isinstance(kind, Q):
        # running product times the n = 0 value; independent of the
        # recurrence-product route through the weighted family norms
        b = kind.b
        acc = math.sqrt(math.pi) * gamma_fn(b + 1) / (2 * gamma_fn(b + 2.5))
        for i in range(1, n + 1):
            g = i + 1 - (-1) ** i
            acc *= g * (g + 2 * b) / ((2 * i + 2 * b + 1) * (2 * i + 2 * b + 3))
        return acc
    if isinstance(kind, G):
        return norm_squared(GUP(kind.a, kind.b), n).value
    raise TypeError(f"not a Legendre kind: {kind!r}")


def orthogonality_interval(kind, members=2):
    """Quadrature interval on (-1, 1) with hints sized for a product of
    `members` members: 2 for a Gram entry, 1 for an integrand linear in
    one member, such as a projection coefficient f phi_n.

    The hints are the exponents of one member's prefactor at 0 and +-1
    (for U, alpha/2 at +-1; V, -+alpha/2; Pm, m/2; G and Q, a at 0 and
    b/2 at +-1), times `members`.
    """
    hints = []
    if isinstance(kind, U):
        if kind.alpha != 0:
            hints = [(-1.0, kind.alpha / 2), (1.0, kind.alpha / 2)]
    elif isinstance(kind, Pm):
        if kind.m % 2:
            hints = [(-1.0, kind.m / 2), (1.0, kind.m / 2)]
    elif isinstance(kind, V):
        hints = [(-1.0, -kind.alpha / 2), (1.0, kind.alpha / 2)]
    else:
        a = 1 if isinstance(kind, Q) else kind.a
        if a:
            hints = [(0.0, a)]
        if kind.b:
            hints += [(-1.0, kind.b / 2), (1.0, kind.b / 2)]
    return IntervalSpec(-1.0, 1.0, tuple((p, members * e) for p, e in hints))


def _log_deriv_pair(kind, x):
    """(P'/P, (P'/P)') of the kind's prefactor, both vectorized."""
    one_m = 1 - x * x
    if isinstance(kind, U):
        al = float(kind.alpha)
        return -al * x / one_m, -al * (1 + x * x) / one_m ** 2
    if isinstance(kind, Pm):
        m = kind.m
        return -m * x / one_m, -m * (1 + x * x) / one_m ** 2
    if isinstance(kind, V):
        al = float(kind.alpha)
        return -al / one_m, -2 * al * x / one_m ** 2
    a = 1 if isinstance(kind, Q) else float(kind.a)
    b = float(kind.b)
    return (a / x - b * x / one_m,
            -a / x ** 2 - b * (1 + x * x) / one_m ** 2)


def _prefactor(kind, x):
    one_m = 1 - x * x
    if isinstance(kind, U):
        return one_m ** (float(kind.alpha) / 2)
    if isinstance(kind, Pm):
        return one_m ** (kind.m / 2)
    if isinstance(kind, V):
        return ((1 - x) / (1 + x)) ** (float(kind.alpha) / 2)
    # x^a as an odd map for non-integer a; exact integer powers otherwise
    a = float(1 if isinstance(kind, Q) else kind.a)
    xa = x ** int(a) if a.is_integer() else np.sign(x) * np.abs(x) ** a
    return xa * one_m ** (float(kind.b) / 2)


def generalized_legendre_residual(kind, n, x, e_choice="zero", nu=None):
    """Residual of the shared second-order equation at the (kind, n) member.

    mu comes from the kind; nu defaults to the kind's own value but can be
    overridden.  e_choice is "zero" or "-2/x^2"; the E term only acts on odd
    degrees.  Vanishes (to rounding) exactly when the kind/E pairing is the
    one the member actually solves: the classical kinds with "zero", Q with
    "-2/x^2".
    """
    if e_choice not in E_CHOICES:
        raise ConstraintViolation(f"e_choice must be one of {E_CHOICES}")
    x_arr = np.asarray(x, dtype=float)
    _check_open_interval(x_arr)
    needs_origin = isinstance(kind, (G, Q)) or e_choice == "-2/x^2"
    if needs_origin and np.any(x_arr == 0):
        raise SingularPoint("residual is undefined at x = 0 for this kind/E pairing")
    scalar = x_arr.ndim == 0
    if scalar:
        x_arr = x_arr[None]

    mu, nu_kind = legendre_mu_nu(kind, n)
    mu, nu = float(mu), float(nu_kind if nu is None else nu)
    pref = _prefactor(kind, x_arr)
    ld, ldp = _log_deriv_pair(kind, x_arr)
    v0, v1, v2 = _kind_recurrence(kind, n).triple(x_arr)

    psi = pref * v0
    dpsi = pref * (ld * v0 + v1)
    ddpsi = pref * ((ld * ld + ldp) * v0 + 2 * ld * v1 + v2)

    one_m = 1 - x_arr * x_arr
    e_term = 0.0 if e_choice == "zero" else -2 / x_arr ** 2
    odd = (1 - (-1) ** n) // 2
    res = one_m * ddpsi - 2 * x_arr * dpsi + (mu - nu / one_m + odd * e_term) * psi
    return float(res[0]) if scalar else res
