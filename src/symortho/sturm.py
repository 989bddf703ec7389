"""Generalized Sturm-Liouville verification machinery.

The objects here check, numerically, the chain that makes a symmetric
sequence orthogonal: convert the defining equation to self-adjoint form
through R = (1/A) exp(int B/A), confirm the boundary bracket vanishes,
confirm the parity functional F(n, m) vanishes, and assemble full Gram
matrices against the closed-form norms.

Coefficient sets enforce the parity requirements by construction: A, C,
D, E are supplied as functions of t = x^2 and B as x times a function of
x^2, so A, C, D, E are automatically even and B odd.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ClassParams, SymmetricPoly, member_rows, poly_from_params
from .core import eigenvalue as generic_eigenvalue
from .errors import (ConstraintViolation, NonpositiveWeight, SingularCoefficient,
                     ZeroLeadingCoefficient)
from .families import _FAMILIES, GUP, norms_squared, pair_integrable
from .legendre import (G, LegendreKind, Pm, V, kind_rows, legendre_norm,
                       orthogonality_interval)
from .quadrature import IntervalSpec, QuadResult, integrate, integrate_gram


@dataclass(frozen=True)
class SLCoeffs:
    """Coefficient set for A y'' + B y' + (lam C + D + [n odd] E) y = 0."""
    a_even: Callable
    b_odd: Callable
    c_even: Callable
    d_even: Callable
    e_even: Callable
    eigenvalue: Callable
    theta: float
    params: Optional[ClassParams] = None

    def A(self, x):
        x = np.asarray(x, dtype=float)
        return self.a_even(x * x)

    def B(self, x):
        x = np.asarray(x, dtype=float)
        return x * self.b_odd(x * x)

    def C(self, x):
        x = np.asarray(x, dtype=float)
        return self.c_even(x * x)

    def D(self, x):
        x = np.asarray(x, dtype=float)
        return self.d_even(x * x)

    def E(self, x):
        x = np.asarray(x, dtype=float)
        return self.e_even(x * x)


def support_theta(params) -> float:
    """Half-width of the natural orthogonality interval: the positive zero
    of px^2 + q when one exists, else infinity."""
    p, q = float(params.p), float(params.q)
    if p != 0 and q != 0 and -q / p > 0:
        return math.sqrt(-q / p)
    return math.inf


def from_params(params: ClassParams) -> SLCoeffs:
    """Identify the generic symmetric-class equation as an SLCoeffs set:
    A = x^2(px^2+q), B = x(rx^2+s), C = x^2, D = 0, E = -s."""
    p, q, r, s = (float(v) for v in params)
    return SLCoeffs(
        a_even=lambda t: t * (p * t + q),
        b_odd=lambda t: r * t + s,
        c_even=lambda t: t,
        d_even=lambda t: 0.0 * t,
        e_even=lambda t: -s + 0.0 * t,
        eigenvalue=lambda n: generic_eigenvalue(params, n),
        theta=support_theta(params),
        params=params,
    )


def legendre_sl(nu=0.0, e_even=None) -> SLCoeffs:
    """The classical identification on (-1, 1): A = 1-x^2, B = -2x, C = 1,
    D = -nu/(1-x^2), lam_n = n(n+1)."""
    return SLCoeffs(
        a_even=lambda t: 1.0 - t,
        b_odd=lambda t: -2.0 + 0.0 * t,
        c_even=lambda t: 1.0 + 0.0 * t,
        d_even=lambda t: -nu / (1.0 - t),
        e_even=e_even if e_even is not None else (lambda t: 0.0 * t),
        eigenvalue=lambda n: n * (n + 1),
        theta=1.0,
    )


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


def _numeric_log_ar(sl, xs):
    # antiderivative of B/A from the origin; A(0) must not vanish here.
    # A divergent antiderivative (A -> 0 at the far end) is the log of a
    # vanishing or exploding bracket, so it becomes -inf/+inf by sign.
    def g(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            return sl.B(u) / sl.A(u)

    out = []
    for x in np.atleast_1d(np.asarray(xs, dtype=float)):
        if x == 0.0:
            out.append(0.0)
            continue
        lo, hi = (0.0, float(x)) if x > 0 else (float(x), 0.0)
        r = integrate(g, IntervalSpec(lo, hi), atol=1e-13, rtol=1e-12,
                      on_inconclusive="return")
        if r.converged:
            val = r.value
        else:
            val = math.copysign(math.inf, r.value if r.value != 0 else 1.0)
        out.append(val if x > 0 else -val)
    return np.array(out).reshape(np.shape(xs))


def _log_ar(sl, x):
    """log(A(x) R(x)) = the antiderivative of B/A, vectorized."""
    x = np.asarray(x, dtype=float)
    if sl.params is not None:
        p, q, r, s = (float(v) for v in sl.params)
        with np.errstate(divide="ignore", invalid="ignore"):
            return generic_weight_log(sl.params, x) + np.log(p * x * x + q)
    return _numeric_log_ar(sl, x)


def self_adjoint_factor(sl, x):
    """R(x) = (1/A) exp(int B/A); closed form for the generic class,
    numeric antiderivative otherwise."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    a = sl.A(x_arr)
    if np.any(a == 0.0):
        raise SingularCoefficient("A vanishes at a requested point")
    if sl.params is not None:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val = np.exp(generic_weight_log(sl.params, x_arr) - np.log(x_arr * x_arr))
    else:
        with np.errstate(over="ignore"):
            val = np.exp(_numeric_log_ar(sl, x_arr)) / a
    return float(val) if scalar else val


def weight_star(sl, x):
    """W*(x) = C(x) R(x), the orthogonality weight; positivity is checked."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    if sl.params is not None:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = np.exp(generic_weight_log(sl.params, x_arr))
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = np.asarray(sl.C(x_arr) * np.exp(_numeric_log_ar(sl, x_arr)) / sl.A(x_arr))
    bad = ~(w >= 0.0)     # catches negatives and nan in one test
    if np.any(bad):
        where = x_arr[bad] if x_arr.ndim else x_arr
        raise NonpositiveWeight(f"weight not positive at x = {np.atleast_1d(where)[0]!r}")
    return float(w) if scalar else w


def _fn_df(phi):
    if hasattr(phi, "deriv"):
        return phi, phi.deriv()
    f, df = phi
    return f, df


def _same_member(phi_n, phi_m):
    if phi_n is phi_m:
        return True
    if isinstance(phi_n, SymmetricPoly) and isinstance(phi_m, SymmetricPoly):
        return phi_n.n == phi_m.n and tuple(phi_n.coeffs) == tuple(phi_m.coeffs)
    return False


def boundary_term(sl, phi_n, phi_m, *, scale=1.0):
    """The self-adjoint boundary bracket, evaluated at theta minus -theta.

    For distinct members this is A R (phi_n' phi_m - phi_m' phi_n); for one
    member against itself that combination is identically zero, so the
    bracket behind the norm integral, A R phi' phi, is used instead.

    A finite theta is evaluated directly.  An infinite one is probed at
    x = 10, 10^2, 10^3: a monotone decay below 1e-10 * scale counts as
    zero, anything else is returned as the x = 10^3 value.  A nonzero
    return is a result (the finite-family failure signature), not an error.
    """
    fn, dfn = _fn_df(phi_n)
    fm, dfm = _fn_df(phi_m)
    if _same_member(phi_n, phi_m):
        def wron(x):
            return dfn(x) * fm(x)
    else:
        def wron(x):
            return dfn(x) * fm(x) - dfm(x) * fn(x)

    def bracket(x):
        with np.errstate(over="ignore", invalid="ignore"):
            ar = np.exp(_log_ar(sl, x))
        return ar * wron(x)

    if math.isfinite(sl.theta):
        th = sl.theta
        return float(bracket(np.array(th)) - bracket(np.array(-th)))
    vals = [float(bracket(np.array(10.0 ** k)) - bracket(np.array(-10.0 ** k)))
            for k in (1, 2, 3)]
    mags = [abs(v) for v in vals]
    if mags[0] >= mags[1] >= mags[2] and mags[2] <= 1e-10 * scale:
        return 0.0
    return vals[-1]


def parity_integral(sl, phi_n, phi_m):
    """F(n, m) = ((-1)^m - (-1)^n)/2 * int E R phi_n phi_m over [-theta, theta].

    Equal parities short-circuit to exactly zero (the prefactor vanishes).
    Mixed parities make the integrand odd; the integral is taken in the
    symmetric (principal-value) sense by folding x -> -x onto the right
    half-line, which still samples both members and the weight while
    letting the two sides cancel pointwise.  Families with a strong origin
    singularity make the unfolded two-sided integral divergent in the
    absolute sense, so the fold is the honest reading of the lemma.
    """
    pn, pm = phi_n.n % 2, phi_m.n % 2
    pref = ((-1) ** phi_m.n - (-1) ** phi_n.n) / 2
    if pn == pm:
        return 0.0

    def side(x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.exp(_log_ar(sl, x) - np.log(sl.A(x)))
        return sl.E(x) * r * phi_n(x) * phi_m(x)

    def folded(x):
        return side(x) + side(-x)

    hi = sl.theta
    spec = IntervalSpec(0.0, hi, ((0.0, None),))
    res = integrate(folded, spec, on_inconclusive="return")
    return pref * res.value


@dataclass(frozen=True, eq=False)
class GramEntry:
    n: int
    m: int
    quad: QuadResult
    expected: Optional[float]
    status: str          # ok | cliff | degenerate | mismatch | divergent | inconclusive


_REFUSED = ("cliff", "degenerate")


@dataclass(frozen=True, eq=False)
class GramReport:
    label: str
    base: int
    nmax: int
    tol: float
    entries: tuple
    matrix: np.ndarray
    passed: bool

    @property
    def verified(self) -> int:
        """Entries checked against their expected value (status ok)."""
        return sum(e.status == "ok" for e in self.entries)

    def entry(self, n, m):
        for e in self.entries:
            if (e.n, e.m) == (max(n, m), min(n, m)):
                return e
        raise KeyError((n, m))

    def summary(self) -> str:
        counts = {}
        for e in self.entries:
            counts[e.status] = counts.get(e.status, 0) + 1
        refused = sum(counts.get(k, 0) for k in _REFUSED)
        head = (f"gram[{self.label}] n = {self.base}..{self.nmax}, "
                f"tol {self.tol:g}: {'pass' if self.passed else 'FAIL'}, "
                f"{self.verified} verified, {refused} refused "
                f"({', '.join(f'{v} {k}' for k, v in sorted(counts.items()))})")
        lines = [head]
        for e in self.entries:
            if e.status in ("ok",) + _REFUSED:
                continue
            lines.append(f"  ({e.n},{e.m}): {e.status}, value {e.quad.value:.3e}"
                         + (f", expected {e.expected:.3e}" if e.expected is not None
                            else ""))
        return "\n".join(lines)


class _FamilyBasis:
    """Basis adapter for a family spec.  Adapters give the weight, the
    rows evaluator of members base..nmax (by recurrence), the quadrature
    interval, the closed-form norms (None where refused), whether the
    Gram tree may fold by parity, and where the tree block ends."""
    closed_norms = True
    fold = True

    def __init__(self, spec):
        self.spec = spec
        self.base = 0
        self.label = spec.label

    def phi(self, n):
        return poly_from_params(self.spec.params, n, monic=True)

    def norms(self, nmax):
        return norms_squared(self.spec, nmax)

    def weight(self, x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.exp(self.spec.weight_log(x))

    def rows(self, nmax):
        return member_rows(self.spec.params, nmax)

    def interval(self, members=2):
        # the weight's own hints: polynomial members add integer exponents
        return self.spec.interval()

    def tree_block(self, norms):
        """(K, interval) of the Gram tree block base..K: K is the largest
        degree such that every degree base..K has a closed-form norm and
        (K, K) is integrable, and so then is every pair below it; base - 1
        when there is none.  No degree bound gives K = nmax."""
        end = self.base - 1
        for n, d in enumerate(norms, start=self.base):
            if d is None or not self.integrable(n, n):
                break
            end = n
        # the widest product in the block has degree 2K
        return end, self.spec.interval(tail_power=2 * end)

    def integrable(self, n, m):
        return pair_integrable(self.spec, n, m)

    def inner(self, phi_a, phi_b, n, m):
        """One integrate call for the entry (n, m).  An absolutely integrable
        product folds by parity: an odd one is exactly 0 and an even one is
        integrated on the right half-line.  Any other product is integrated
        whole, so that its divergence shows (a fold hides that of an odd
        product, and the half-line growth of an even one can stay below the
        divergence test)."""
        parity = None
        if self.integrable(n, m):
            if (n + m) % 2:
                return QuadResult(0.0, 0.0, True, False)
            parity = "even"
        wlog = self.spec.weight_log

        def f(x):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return np.exp(wlog(x)) * phi_a(x) * phi_b(x)
        spec = self.spec.interval(origin_power=(n % 2) + (m % 2), tail_power=n + m)
        return integrate(f, spec, parity=parity, on_inconclusive="return")


class _KindBasis:
    closed_norms = True

    def __init__(self, kind):
        self.kind = kind
        self.base = kind.m if isinstance(kind, Pm) else 0
        self.label = type(kind).__name__.lower()
        # V's prefactor has no parity; every other kind folds onto [0, 1)
        self.fold = not isinstance(kind, V)

    def norms(self, nmax):
        if isinstance(self.kind, G):
            return norms_squared(GUP(self.kind.a, self.kind.b), nmax)
        return [legendre_norm(self.kind, n) for n in range(self.base, nmax + 1)]

    def weight(self, x):
        return 1.0

    def rows(self, nmax):
        return kind_rows(self.kind, nmax)

    def interval(self, members=2):
        return orthogonality_interval(self.kind, members)

    def tree_block(self, norms):
        return self.base + len(norms) - 1, self.interval()


def _adapt(basis):
    if isinstance(basis, _FAMILIES):
        return _FamilyBasis(basis)
    if isinstance(basis, LegendreKind):
        return _KindBasis(basis)
    raise TypeError(f"cannot build a basis from {basis!r}")


def _shared_tree(ad, end, interval, norms):
    """Every entry of the block base..end from one panel tree;
    (n, m) -> QuadResult."""
    rows = ad.rows(end)

    def sample(x):
        # a weight that underflows to 0 gives 0 even beside members that
        # overflow (far out in a folded infinite tail)
        w, P = ad.weight(x), rows(x)
        zero = np.asarray(w) == 0.0
        if zero.any():
            P[:, zero] = 0.0
        return w, P
    res = integrate_gram(sample, interval, norms, fold=ad.fold)

    def quad(n, m):
        i, j = n - ad.base, m - ad.base
        return QuadResult(float(res.value[i, j]), float(res.error[i, j]),
                          bool(res.converged[i, j]), False)
    return quad


def _entry_by_entry(ad):
    """One integrate call per entry; (n, m) -> QuadResult, or None when a
    member does not exist."""
    phis = {}
    done = {}

    def phi(n):
        if n not in phis:
            try:
                phis[n] = ad.phi(n)
            except ZeroLeadingCoefficient:
                phis[n] = None
        return phis[n]

    def quad(n, m):
        if phi(n) is None or phi(m) is None:
            return None
        if (n, m) not in done:
            done[n, m] = ad.inner(phis[n], phis[m], n, m)
        return done[n, m]
    return quad


def gram_matrix(basis, nmax, tol=1e-7) -> GramReport:
    """Inner-product matrix of the basis members up to degree nmax.

    The block of degrees base..K whose norms all have closed forms and
    whose every pair is integrable takes its entries from one shared panel
    tree (quadrature.integrate_gram) on members evaluated by recurrence.
    Bases with no degree bound (GUP, GHP, the Legendre kinds) have K =
    nmax.  Every entry outside the block is integrated on its own, so a
    cliff always rests on independent divergence evidence.
    Diagonals are compared with the closed-form norms; off-diagonal
    entries are then measured against tol * sqrt(d_n d_m).  Entry statuses:

      ok            matches expectation
      cliff         quadrature diverged AND the closed form refuses the
                    index (the consistent finite-family signature)
      degenerate    the member itself cannot be built (vanishing leading
                    coefficient) and the closed-form norm refuses the
                    index too, again a consistent refusal
      mismatch      converged to the wrong value, converged where the
                    closed form says divergent, or a member degenerated
                    at an index the closed forms accept
      divergent     diverged where theory says finite
      inconclusive  the integrator gave up without a verdict

    The report passes iff every entry is ok, cliff or degenerate.  Entries
    (n, m) with n >= m are computed and the matrix is mirrored.
    """
    return _gram_report(_adapt(basis), nmax, tol)


def _gram_report(ad, nmax, tol) -> GramReport:
    if nmax < ad.base:
        raise ConstraintViolation(f"nmax must be at least {ad.base} for this basis")
    idx = list(range(ad.base, nmax + 1))
    norms = ad.norms(nmax)
    end, interval = ad.tree_block(norms)
    tree = None
    if end >= ad.base:
        tree = _shared_tree(ad, end, interval, norms[:end - ad.base + 1]
                            if ad.closed_norms else None)
    single = _entry_by_entry(ad)

    def quad(n, m):
        # called with n >= m: (n, m) is in the block when n is
        return tree(n, m) if n <= end else single(n, m)
    no_quad = QuadResult(math.nan, math.inf, False, False)

    entries = []
    diag = {}
    degenerate_ok = {}
    for n, expected in zip(idx, norms):
        refused = expected is None
        if not ad.closed_norms and expected is not None:
            # a ratio to the (base, base) entry, which is measured
            first = quad(ad.base, ad.base)
            expected = expected * first.value if first.converged else None
        r = quad(n, n)
        if r is None:
            degenerate_ok[n] = refused
            entries.append(GramEntry(n, n, no_quad, expected,
                                     "degenerate" if refused else "mismatch"))
            continue
        if r.converged:
            if refused:
                status = "mismatch"
            elif expected is None:
                status = "inconclusive"
            else:
                status = ("ok" if abs(r.value - expected)
                          <= tol * max(abs(expected), 1e-300) else "mismatch")
            diag[n] = r.value
        elif r.diverged:
            status = "cliff" if refused else "divergent"
        else:
            status = "inconclusive"
        if n not in diag and expected is not None:
            diag[n] = expected
        entries.append(GramEntry(n, n, r, expected, status))

    for n in idx:
        for m in range(ad.base, n):
            r = quad(n, m)
            if r is None:
                consistent = all(degenerate_ok.get(k, True) for k in (n, m))
                entries.append(GramEntry(n, m, no_quad, 0.0,
                                         "degenerate" if consistent else "mismatch"))
                continue
            dn = abs(diag.get(n, diag.get(m, 1.0)))
            dm = abs(diag.get(m, dn))
            scale = math.sqrt(max(dn * dm, 1e-300))
            if r.converged:
                status = "ok" if abs(r.value) <= tol * scale else "mismatch"
            elif r.diverged:
                status = "cliff" if not ad.integrable(n, m) else "divergent"
            else:
                status = "inconclusive"
            entries.append(GramEntry(n, m, r, 0.0, status))

    size = len(idx)
    mat = np.full((size, size), math.nan)
    for e in entries:
        v = e.quad.value if e.quad.converged else math.nan
        mat[e.n - ad.base, e.m - ad.base] = v
        mat[e.m - ad.base, e.n - ad.base] = v
    passed = all(e.status in ("ok",) + _REFUSED for e in entries)
    return GramReport(ad.label, ad.base, nmax, tol, tuple(entries), mat, passed)
