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
from numbers import Rational

import numpy as np

# poly_from_params is not used here, but bench/test_bench.py lists
# legendre among the modules that bind it
from .core import (_CHUNK, ClassParams, member_rows,  # noqa: F401
                   poly_from_params, recurrence_c)
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


@dataclass(frozen=True)
class U:
    """(1-x^2)^(alpha/2) times an ultraspherical Jacobi polynomial."""
    alpha: float

    def __post_init__(self):
        if not self.alpha > -1:
            raise ConstraintViolation("U kind needs alpha + 1 > 0")


@dataclass(frozen=True)
class Pm:
    """Associated Legendre branch: (1-x^2)^(m/2) d^m P_n / dx^m."""
    m: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 0):
            raise ConstraintViolation("Pm kind needs a nonnegative integer order m")


@dataclass(frozen=True)
class V:
    """Asymmetric-prefactor solution ((1-x)/(1+x))^(alpha/2) P_n^(alpha,-alpha)."""
    alpha: float

    def __post_init__(self):
        if not -1 < self.alpha < 1:
            raise ConstraintViolation("V kind needs -1 < alpha < 1")


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


@dataclass(frozen=True)
class Q:
    """G at a = 1; picks up the extra -2/x^2 term for odd degrees."""
    b: float

    def __post_init__(self):
        if not self.b + 1 > 0:
            raise ConstraintViolation("Q kind needs b + 1 > 0")

    def as_g(self) -> G:
        return G(1, self.b)


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


def _real_power(x, e):
    # x^e as an odd map for non-integer e; exact integer powers otherwise
    ef = float(e)
    if ef.is_integer():
        return x ** int(ef)
    return np.sign(x) * np.abs(x) ** ef


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


def _gq_params(kind):
    a = 1 if isinstance(kind, Q) else kind.a
    return ClassParams(-1, 1, -2 * a - 2 * kind.b - 2, 2 * a)


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
    """Unguarded vectorized evaluator, meant for quadrature integrands.

    The polynomial factor comes from the kind's three-term recurrence on
    values (_member_recurrence), run over blocks of _CHUNK points with two
    rows per block, so memory stays O(len x) at any degree.

    No domain check: exactly at |x| = 1 the prefactor follows IEEE semantics
    (0, inf, or nan depending on the exponent), which the adaptive integrator
    treats as a resolution-limit sample rather than an error.
    """
    values = _recurrence_values(*_member_recurrence(kind, n))

    def f(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        out = np.empty_like(flat)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i in range(0, flat.size, _CHUNK):
                xb = flat[i:i + _CHUNK]
                np.multiply(values(xb), _prefactor(kind, xb), out=out[i:i + _CHUNK])
        return out.reshape(x.shape)
    return f


def _jacobi_monic(al, be, d):
    """(lead, b, c) with P_d^(al, be) = lead * p_d, where the monic p_k
    satisfy p_{k+1} = (x - b_k) p_k + c_k p_{k-1}, p_0 = 1, c_0 = 0.

    Rescales the recurrence of _jacobi_step: with A_k the ratio of leading
    coefficients, b_k = -a2/a3 and c_k = -a4/(a3 A_{k-1}).
    """
    if d == 0:
        return 1.0, [], []
    ratio = (al + be + 2) / 2
    lead, b, c = ratio, [(be - al) / 2 / ratio], [0.0]
    for k in range(1, d):
        a1, a2, a3, a4 = _jacobi_step(al, be, k)
        b.append(-a2 / a3)
        c.append(-a4 / (a3 * ratio))
        ratio = a3 / a1
        lead *= ratio
    return lead, b, c


def _member_recurrence(kind, n):
    """The polynomial factor of the kind's degree-n member as scale * p_d,
    returned in floats as (scale, b, c) in the form of _jacobi_monic,
    d = len(b).

    U and V: P_n^(u, +-u).  Pm: d^m P_n / dx^m = (n+m)! / (2^m n!)
    P_{n-m}^(m,m), identically zero for n < m.  G and Q: the monic class
    member, c_k = C_k of core.recurrence_c.
    """
    if isinstance(kind, (G, Q)):
        params = _gq_params(kind)
        scale, b, c = 1, [0] * n, [0] + [recurrence_c(params, k) for k in range(1, n)]
    elif isinstance(kind, Pm):
        m = kind.m
        if n < m:
            return 0.0, [], []
        scale, b, c = _jacobi_monic(m, m, n - m)
        scale *= math.factorial(n + m) / (2 ** m * math.factorial(n))
    else:
        al = kind.alpha
        scale, b, c = _jacobi_monic(al, al if isinstance(kind, U) else -al, n)
    return float(scale), [float(v) for v in b], [float(v) for v in c]


def _recurrence_values(scale, b, c):
    """Evaluator xb -> scale * p_d(xb) on one block of points.

    Needs b_k = 0 for k >= 1, as every kind has (V alone has b_0 != 0).
    Then two steps at a time stay within one parity class of degrees and
    run in y = x^2, in place on two rows, two ufunc calls per degree:
    p_{k+2} = (y + c_{k+1} + c_k) p_k - c_k c_{k-1} p_{k-2}.  That holds
    from k = d % 2 (with p_{-1} = 0) when b_0 = 0, and from k = d % 2 + 2
    otherwise; the degrees before it take the plain recurrence.
    """
    d = len(b)
    head = min(d, d % 2 + (2 if d and b[0] else 0))
    steps = [(c[k + 1] + c[k], c[k] * c[k - 1] if k else 0.0)
             for k in range(head, d - 1, 2)]

    def values(xb):
        p = [np.full_like(xb, scale)]
        for k in range(head):
            p.append((xb - b[k]) * p[k] + (c[k] * p[k - 1] if k else 0))
        cur = p[-1]
        prev = p[-3] if head >= 2 else np.zeros_like(xb)
        y, tmp = xb * xb, np.empty_like(xb)
        for s, t in steps:
            np.add(y, s, out=tmp)
            tmp *= cur
            prev *= t
            np.subtract(tmp, prev, out=prev)
            cur, prev = prev, cur
        return cur
    return values


def _recurrence_triple(scale, b, c, x):
    """scale * (p_d, p_d', p_d'') at x by the differentiated recurrence:
    p'_{k+1} = p_k + (x - b_k) p'_k + c_k p'_{k-1} and
    p''_{k+1} = 2 p'_k + (x - b_k) p''_k + c_k p''_{k-1}."""
    zero = np.zeros_like(x)
    cur, prev = (zero + 1, zero, zero), (zero, zero, zero)
    for bk, ck in zip(b, c):
        u = x - bk
        prev, cur = cur, (u * cur[0] + ck * prev[0],
                          cur[0] + u * cur[1] + ck * prev[1],
                          2 * cur[1] + u * cur[2] + ck * prev[2])
    return tuple(scale * v for v in cur)


def _jacobi_rows(al, be, kmax, x):
    """P_0..P_kmax^(al, be) at x: the three-term recurrence of jacobi_coeffs
    run on values, one row per degree."""
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax:
        out[1] = (al - be) / 2 + (al + be + 2) / 2 * x
    for k in range(1, kmax):
        a1, a2, a3, a4 = _jacobi_step(al, be, k)
        out[k + 1] = ((a2 + a3 * x) * out[k] - a4 * out[k - 1]) / a1
    return out


def kind_rows(kind, nmax):
    """Evaluator x -> members base..nmax of the kind at x, one row each,
    by recurrence.

    U and V run the Jacobi recurrence on values; Pm runs it at (m, m),
    since d^m P_n / dx^m = (n+m)! / (2^m n!) P_{n-m}^(m,m); G and Q run the
    monic class recurrence (core.member_rows).  Each row carries the kind's
    prefactor.  Like member_fn, there is no domain check; nmax below the
    kind's base degree (m for Pm, else 0) raises ConstraintViolation.
    """
    base = kind.m if isinstance(kind, Pm) else 0
    if nmax < base:
        raise ConstraintViolation(f"nmax must be at least {base} for this kind")
    if isinstance(kind, (G, Q)):
        poly_rows = member_rows(_gq_params(kind), nmax)
    elif isinstance(kind, Pm):
        m = kind.m
        scale = np.array([math.factorial(n + m) / (2 ** m * math.factorial(n))
                          for n in range(m, nmax + 1)])

        def poly_rows(x):
            rows = _jacobi_rows(m, m, nmax - m, x)
            rows *= scale.reshape((-1,) + (1,) * x.ndim)
            return rows
    else:
        al = kind.alpha
        be = al if isinstance(kind, U) else -al

        def poly_rows(x):
            return _jacobi_rows(al, be, nmax, x)

    def rows(x):
        x = np.asarray(x, dtype=float)
        p = poly_rows(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _prefactor(kind, x) * p
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
    a = 1 if isinstance(kind, Q) else kind.a
    return _real_power(x, a) * one_m ** (float(kind.b) / 2)


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
    v0, v1, v2 = _recurrence_triple(*_member_recurrence(kind, n), x_arr)

    psi = pref * v0
    dpsi = pref * (ld * v0 + v1)
    ddpsi = pref * ((ld * ld + ldp) * v0 + 2 * ld * v1 + v2)

    one_m = 1 - x_arr * x_arr
    e_term = 0.0 if e_choice == "zero" else -2 / x_arr ** 2
    odd = (1 - (-1) ** n) // 2
    res = one_m * ddpsi - 2 * x_arr * dpsi + (mu - nu / one_m + odd * e_term) * psi
    return float(res[0]) if scalar else res
