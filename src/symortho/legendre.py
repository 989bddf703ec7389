"""Legendre-type eigenfunctions on (-1, 1).

Three classical kinds, orthogonal there with unit weight:

    U  : (1-x^2)^(u/2) P_n^(u,u)(x)
    Pm : (1-x^2)^(m/2) (d/dx)^m P_n(x)
    V  : ((1-x)/(1+x))^(u/2) P_n^(u,-u)(x)

and two built from the monic symmetric classes, of which U and Pm are G at
a = 0 up to a constant per degree:

    G  : x^a (1-x^2)^(b/2) Sbar_n(x)
    Q  : G at a = 1.

Every kind solves an equation of the shared form

    (1-x^2) y'' - 2x y' + (mu - nu/(1-x^2) + [n odd]*E(x)) y = 0

with kind-specific (mu, nu) and E either 0 or -2/x^2; see
``generalized_legendre_residual``.  Each kind's formulas are its methods.
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
                   poly_from_params, weight_exponents)
from .errors import ConstraintViolation, SingularPoint
from .families import GUP, norm_squared, norms_squared
from .gauss import jacobi, pearson
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


def kind_rows(kind, nmax):
    """Evaluator x -> members base..nmax of the kind at x, one row each, with
    no domain check (as member_fn); nmax below the kind's base degree (m for
    Pm, else 0) raises ConstraintViolation."""
    if nmax < kind.base:
        raise ConstraintViolation(f"nmax must be at least {kind.base} for this kind")
    rec = kind.recurrence(nmax)

    def rows(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return kind.prefactor(x) * rec.rows(x)
    return rows


def orthogonality_interval(kind, members=2):
    """Quadrature interval on (-1, 1) with the kind's hints (one member's
    prefactor exponents) sized for a product of `members` members: 2 for a
    Gram entry, 1 for an integrand linear in one member, such as f phi_n."""
    return IntervalSpec(-1.0, 1.0, tuple((p, members * e) for p, e in kind.hints()))


class _Kind:
    """A Legendre kind defines mu_nu, norm, recurrence (of its members'
    polynomial factors), prefactor, log_derivs, hints and rule.  It is its
    own Gram adapter (sturm.gram_matrix): unit weight, closed-form norms,
    every pair integrable and every member built by recurrence, the pairs
    of mixed parity exactly 0 when its members have a parity (fold), and
    the rest from one Gauss rule of its squared prefactor."""
    base = 0
    fold = True
    rows = kind_rows
    interval = orthogonality_interval
    # whether log_derivs has an a/x term, undefined at x = 0
    origin_singular = False

    @property
    def label(self):
        return type(self).__name__.lower()

    def norms(self, nmax):
        return [legendre_norm(self, n) for n in range(self.base, nmax + 1)]

    def weight(self, x):
        return 1.0

    def integrable_mask(self, nmax):
        return np.ones((nmax - self.base + 1,) * 2, dtype=bool)

    def missing(self, nmax, lower, integrable):
        return np.zeros_like(lower)


class _ClassKind(_Kind):
    """x^a (1-x^2)^(b/2) times the members of the monic symmetric class of
    that shape, from degree base on, each scaled by its lead: the code U,
    Pm, G and Q share."""
    origin_singular = property(lambda self: self.a != 0)

    @cached_property
    def params(self) -> ClassParams:
        """The monic class of this shape, one instance per kind."""
        return ClassParams(-1, 1, -2 * self.a - 2 * self.b - 2, 2 * self.a)

    def leads(self, d):
        """The scales of class members 0..d: 1 (monic) unless the kind says."""
        return [1.0] * (d + 1)

    def recurrence(self, nmax):
        """The class members of degree 0..nmax - base, c_k = C_k of
        core.recurrence_c, scaled by leads; identically zero below base."""
        d = nmax - self.base
        if d < 0:
            return Recurrence([0.0], [], [])
        return Recurrence(self.leads(d), [0.0] * d, [0.0] + self.params.float_c(max(d - 1, 0)))

    def mu_nu(self, n):
        nab = n - self.base + self.a + self.b
        return nab * (nab + 1), self.b ** 2

    def rule(self, pairs):
        """(x, w, low, rows): the Gauss rule of x^(2a) (1-x^2)^b, the weight
        of params, for the widest of pairs (a mask over class degrees) of one
        parity, and the class members times their leads at its nodes."""
        d, e = np.nonzero(pairs)
        rule = pearson(self.params, weight_exponents(self.params), int((d + e).max()) // 2)
        return rule + (self.recurrence(int(d.max()) + self.base).rows(rule[0]),)

    def hints(self):
        edges = [(-1.0, self.b / 2), (1.0, self.b / 2)] if self.b else []
        return ([(0.0, self.a)] if self.a else []) + edges

    def prefactor(self, x):
        # x^a as an odd map for non-integer a; exact integer powers otherwise
        a = float(self.a)
        xa = x ** int(a) if a.is_integer() else np.sign(x) * np.abs(x) ** a
        return xa * (1 - x * x) ** (float(self.b) / 2)

    def log_derivs(self, x):
        one_m = 1 - x * x
        a, b = float(self.a), float(self.b)
        d1, d2 = -b * x / one_m, -b * (1 + x * x) / one_m ** 2
        return (a / x + d1, d2 - a / x ** 2) if a else (d1, d2)


def _ultraspherical_leads(al, d):
    """Leading coefficients of P_k^(al, al), k = 0..d: binom(2k + 2al, k) / 2^k
    as a running product."""
    leads = [1.0, al + 1.0]
    for k in range(1, d):
        leads.append(leads[-1] * (2 * k + 2 * al + 1) * (k + al + 1) / ((k + 1) * (k + 2 * al + 1)))
    return leads[:d + 1]


@dataclass(frozen=True)
class U(_ClassKind):
    """(1-x^2)^(alpha/2) times an ultraspherical Jacobi polynomial: G(0, alpha)
    with member n scaled by P_n^(alpha,alpha)'s leading coefficient."""
    alpha: float
    a = 0

    def __post_init__(self):
        if not self.alpha > -1:
            raise ConstraintViolation("U kind needs alpha + 1 > 0")

    @property
    def b(self):
        # float: an exact class takes 1.3-1.9x as long to build its C_k
        return float(self.alpha)

    def leads(self, d):
        return _ultraspherical_leads(float(self.alpha), d)

    def norm(self, n):
        # 2^(2al+1) gamma(n+al+1)^2 / (n! (2n+2al+1) gamma(n+2al+1)) in logs;
        # at n = 0, (2al+1) gamma(2al+1) = gamma(2al+2) also for al <= -1/2
        al = float(self.alpha)
        log = (2 * al + 1) * math.log(2) + 2 * math.lgamma(n + al + 1) - math.lgamma(n + 1)
        if n == 0:
            return math.exp(log - math.lgamma(2 * al + 2))
        return math.exp(log - math.lgamma(n + 2 * al + 1)) / (2 * n + 2 * al + 1)


@dataclass(frozen=True)
class Pm(_ClassKind):
    """Associated Legendre branch: (1-x^2)^(m/2) d^m P_n / dx^m, which is
    (n+m)! / (2^m n!) (1-x^2)^(m/2) P_{n-m}^(m,m): G(0, m) from degree m."""
    m: int
    a = 0

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 0):
            raise ConstraintViolation("Pm kind needs a nonnegative integer order m")

    @property
    def base(self):
        return self.m

    @property
    def b(self):
        return float(self.m)    # float, as U's b

    def leads(self, d):
        m = self.m
        return [lead * (math.factorial(n + m) / (2 ** m * math.factorial(n)))
                for n, lead in enumerate(_ultraspherical_leads(m, d), start=m)]

    def norm(self, n):
        if n < self.m:
            raise ConstraintViolation("Pm norm needs n >= m")
        return (2 * math.factorial(n + self.m)
                / ((2 * n + 1) * math.factorial(n - self.m)))


@dataclass(frozen=True)
class V(_Kind):
    """Asymmetric-prefactor solution ((1-x)/(1+x))^(alpha/2) P_n^(alpha,-alpha)."""
    alpha: float
    fold = False        # the prefactor has no parity

    def __post_init__(self):
        if not -1 < self.alpha < 1:
            raise ConstraintViolation("V kind needs -1 < alpha < 1")

    def recurrence(self, nmax):
        """P_n^(al, -al), n = 0..nmax: the monic Jacobi recurrence at beta =
        -alpha in closed form (DLMF 18.9), b_0 = -al, b_k = 0 and c_k =
        -(k^2 - al^2)/(4k^2 - 1), member n scaled by its leading coefficient
        binom(2n, n)/2^n."""
        al, leads = self.alpha, [1.0]
        for k in range(nmax):
            leads.append(leads[-1] * (2 * k + 1) / (k + 1))
        b = [-al] + [0.0] * nmax
        c = [0.0] + [-(k - al) * (k + al) / (4 * k * k - 1) for k in range(1, nmax)]
        return Recurrence(leads, b[:nmax], c[:nmax])

    def mu_nu(self, n):
        return n * (n + 1), self.alpha ** 2

    def rule(self, pairs):
        """(x, w, low, rows): the Gauss-Jacobi rule of (1-x)^al (1+x)^-al,
        2 z^-al (1-z)^al in z = (1 + x)/2, for the widest of pairs, and the
        members' polynomial factors at its nodes."""
        last, al = int(np.nonzero(pairs)[0].max()), float(self.alpha)
        z, lam = jacobi(-al, al, last + 2)
        x = 2 * z - 1
        return x, 2 * lam, -abs(al), self.recurrence(last).rows(x)

    def norm(self, n):
        # 2 gamma(n+1+al) gamma(n+1-al) / (n!^2 (2n+1)) in logs
        al = float(self.alpha)
        return 2 * math.exp(math.lgamma(n + 1 + al) + math.lgamma(n + 1 - al)
                            - 2 * math.lgamma(n + 1)) / (2 * n + 1)

    def hints(self):
        return [(-1.0, -self.alpha / 2), (1.0, self.alpha / 2)]

    def prefactor(self, x):
        return ((1 - x) / (1 + x)) ** (float(self.alpha) / 2)

    def log_derivs(self, x):
        one_m = 1 - x * x
        al = float(self.alpha)
        return -al / one_m, -2 * al * x / one_m ** 2


@dataclass(frozen=True)
class G(_ClassKind):
    """x^a (1-x^2)^(b/2) against the monic symmetric class with that shape."""
    a: float
    b: float

    def __post_init__(self):
        if not 2 * self.a + 1 > 0:
            raise ConstraintViolation("G kind needs a + 1/2 > 0")
        if not self.b + 1 > 0:
            raise ConstraintViolation("G kind needs b + 1 > 0")

    def norm(self, n):
        return norm_squared(GUP(self.a, self.b), n).value

    def norms(self, nmax):
        return norms_squared(GUP(self.a, self.b), nmax)


@dataclass(frozen=True)
class Q(_ClassKind):
    """G at a = 1; picks up the extra -2/x^2 term for odd degrees."""
    b: float
    a = 1

    def __post_init__(self):
        if not self.b + 1 > 0:
            raise ConstraintViolation("Q kind needs b + 1 > 0")

    def mu_nu(self, n):
        # G's n + a + b at a = 1 rounds differently from n + b + 1
        return (n + self.b + 1) * (n + self.b + 2), self.b ** 2

    def norm(self, n):
        # running product times the n = 0 value; independent of the
        # recurrence-product route through the weighted family norms
        b = self.b
        acc = math.sqrt(math.pi) * gamma_fn(b + 1) / (2 * gamma_fn(b + 2.5))
        for i in range(1, n + 1):
            g = i + 1 - (-1) ** i
            acc *= g * (g + 2 * b) / ((2 * i + 2 * b + 1) * (2 * i + 2 * b + 3))
        return acc


LegendreKind = (U, Pm, V, G, Q)


def _kind(kind):
    if not isinstance(kind, LegendreKind):
        raise TypeError(f"not a Legendre kind: {kind!r}")
    return kind


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
    return _kind(kind).mu_nu(n)


def _check_open_interval(x):
    # a nan fails the comparisons, as min and max propagate it
    if x.size and not (-1 < x.min() and x.max() < 1):
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
    kind's recurrence times its prefactor, one pass per block.

    No domain check: exactly at |x| = 1 the prefactor follows IEEE semantics
    (0, inf, or nan depending on the exponent), which the adaptive integrator
    treats as a resolution-limit sample rather than an error.
    """
    rec = kind.recurrence(n)

    def block(xb):
        out = rec.block(xb)
        out *= kind.prefactor(xb)
        return out

    def f(x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return blockwise(block, x)
    return f


def legendre_norm(kind, n):
    """Closed-form squared norm of the degree-n member under unit weight."""
    return _kind(kind).norm(n)


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
    needs_origin = _kind(kind).origin_singular or e_choice == "-2/x^2"
    if needs_origin and np.any(x_arr == 0):
        raise SingularPoint("residual is undefined at x = 0 for this kind/E pairing")
    scalar = x_arr.ndim == 0
    if scalar:
        x_arr = x_arr[None]

    mu, nu_kind = legendre_mu_nu(kind, n)
    mu, nu = float(mu), float(nu_kind if nu is None else nu)
    pref = kind.prefactor(x_arr)
    ld, ldp = kind.log_derivs(x_arr)
    v0, v1, v2 = kind.recurrence(n).triple(x_arr)

    psi = pref * v0
    dpsi = pref * (ld * v0 + v1)
    ddpsi = pref * ((ld * ld + ldp) * v0 + 2 * ld * v1 + v2)

    one_m = 1 - x_arr * x_arr
    e_term = 0.0 if e_choice == "zero" else -2 / x_arr ** 2
    odd = (1 - (-1) ** n) // 2
    res = one_m * ddpsi - 2 * x_arr * dpsi + (mu - nu / one_m + odd * e_term) * psi
    return float(res[0]) if scalar else res
