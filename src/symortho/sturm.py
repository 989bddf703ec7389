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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ClassParams, SymmetricPoly, member_rows, poly_from_params
from .core import eigenvalue as generic_eigenvalue
from .errors import (ConstraintViolation, DegenerateDenominator, NonpositiveWeight,
                     PoleError, SingularCoefficient, ZeroLeadingCoefficient)
from .families import _FAMILIES, norms_squared, pair_integrable
from .legendre import LegendreKind
from .quadrature import (IntervalSpec, QuadResult, certifies_divergence, exponent_scan,
                         integrate, integrate_gram)


@dataclass(frozen=True)
class SLCoeffs:
    """Coefficient set for A y'' + B y' + (lam C + D + [n odd] E) y = 0,
    with log_weight the closed form of log W* = log(C R), where R = (1/A)
    exp(int B/A) makes the equation self-adjoint."""
    a_even: Callable
    b_odd: Callable
    c_even: Callable
    d_even: Callable
    e_even: Callable
    eigenvalue: Callable
    theta: float
    log_weight: Callable

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
    A = x^2(px^2+q), B = x(rx^2+s), C = x^2, D = 0, E = -s, and log W* =
    generic_weight_log(params, x)."""
    p, q, r, s = (float(v) for v in params)
    return SLCoeffs(
        a_even=lambda t: t * (p * t + q),
        b_odd=lambda t: r * t + s,
        c_even=lambda t: t,
        d_even=lambda t: 0.0 * t,
        e_even=lambda t: -s + 0.0 * t,
        eigenvalue=lambda n: generic_eigenvalue(params, n),
        theta=support_theta(params),
        log_weight=functools.partial(generic_weight_log, params),
    )


def legendre_sl(nu=0.0, e_even=None) -> SLCoeffs:
    """The classical identification on (-1, 1): A = 1-x^2, B = -2x, C = 1,
    D = -nu/(1-x^2), lam_n = n(n+1).  Here B = A', so R = 1 and W* = 1."""
    return SLCoeffs(
        a_even=lambda t: 1.0 - t,
        b_odd=lambda t: -2.0 + 0.0 * t,
        c_even=lambda t: 1.0 + 0.0 * t,
        d_even=lambda t: -nu / (1.0 - t),
        e_even=e_even if e_even is not None else (lambda t: 0.0 * t),
        eigenvalue=lambda n: n * (n + 1),
        theta=1.0,
        log_weight=np.zeros_like,
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


def _log_r(sl, x):
    """log R = log W* - log C."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return sl.log_weight(x) - np.log(sl.C(x))


def self_adjoint_factor(sl, x):
    """R(x) = (1/A) exp(int B/A), taken as W*/C from the closed-form
    log_weight; SingularCoefficient where A vanishes."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    if np.any(sl.A(x_arr) == 0.0):
        raise SingularCoefficient("A vanishes at a requested point")
    with np.errstate(over="ignore"):
        val = np.exp(_log_r(sl, x_arr))
    return float(val) if scalar else val


def weight_star(sl, x):
    """W*(x) = C(x) R(x) = exp(log_weight(x)), the orthogonality weight;
    NonpositiveWeight where it is negative or nan."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.exp(sl.log_weight(x_arr))
    bad = ~(w >= 0.0)     # catches negatives and nan in one test
    if np.any(bad):
        where = x_arr[bad] if x_arr.ndim else x_arr
        raise NonpositiveWeight(f"weight not positive at x = {np.atleast_1d(where)[0]!r}")
    return float(w) if scalar else w


def _value_slope(phi, x):
    """(phi, phi') at x: a SymmetricPoly's own, or an (f, df) pair's."""
    if hasattr(phi, "value_derivs"):
        return phi.value_derivs(x)[:2]
    f, df = phi
    return f(x), df(x)


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
    same = phi_n is phi_m or (
        isinstance(phi_n, SymmetricPoly) and isinstance(phi_m, SymmetricPoly)
        and (phi_n.n, phi_n.coeffs) == (phi_m.n, phi_m.coeffs))

    def wron(x):
        fn, dfn = _value_slope(phi_n, x)
        if same:
            return dfn * fn
        fm, dfm = _value_slope(phi_m, x)
        return dfn * fm - dfm * fn

    def bracket(x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ar = np.exp(_log_r(sl, x) + np.log(sl.A(x)))
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
        with np.errstate(over="ignore"):
            r = np.exp(_log_r(sl, x))
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
    """The entries of a Gram matrix with their statuses, the mirrored
    matrix, the verdict, and what it cost: the GK15 panels and integrand
    points of its panel tree and of every per-entry integral."""
    label: str
    base: int
    nmax: int
    tol: float
    entries: tuple
    matrix: np.ndarray
    passed: bool
    panels: int
    evals: int

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
    Gram tree may fold by parity, and where the tree block ends.  A finite
    family's tree also carries the integrable even pairs just outside its
    block (_shared_tree).  Every other integrable pair takes inner; a pair
    that is not integrable is a cliff when cliffs certifies it, and is
    left inconclusive, with no integral, when it does not."""
    closed_norms = True
    fold = True

    def __init__(self, spec):
        self.spec = spec
        self.base = 0
        self.label = spec.label
        self._integrable = {}

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
        when there is none.  No degree bound gives K = nmax.  The interval
        is hinted for the block's widest product, of degree 2K, which also
        bounds the off-block pairs the tree carries."""
        end = self.base - 1
        for n, d in enumerate(norms, start=self.base):
            if d is None or not self.integrable(n, n):
                break
            end = n
        # the widest product in the block has degree 2K
        return end, self.spec.interval(tail_power=2 * end)

    def integrable(self, n, m):
        # pair_integrable reads only the product's parity at 0 and its degree
        key = (n % 2 + m % 2, n + m)
        if key not in self._integrable:
            self._integrable[key] = pair_integrable(self.spec, n, m)
        return self._integrable[key]

    def off_block(self, end, nmax, norms):
        """The off-block pairs the tree of the block 0..end carries: the even
        integrable (n, m), m <= end < n, no wider than (end, end) (n + m <=
        2 end), with members below any pole of the recurrence.  Float
        samples of w P_n P_m are 0 past x_w, where the weight's tail
        underflows, and refining for the pairs can reach x_w.  So none is
        carried when the widest product's mass past x_w, 2 x_w^s / -s for a
        tail |x|^(s - 1), may exceed 1e-9 |d| for the block's smallest norm
        d (it cost (10, 10) of FiniteII(10.7)@20 4.5e-6), or when the top
        member overflows before x_w, where its non-finite samples would
        hold the block open."""
        pairs = {(n, m) for n in range(end + 1, min(2 * end, nmax) + 1)
                 for m in range(2 * end - n + 1)
                 if (n + m) % 2 == 0 and self.integrable(n, m)}
        if not pairs:
            return pairs
        top = _rows_below_pole(self, max(n for n, _ in pairs), end)[0]
        log_xw = _LOG_TINY / self.spec.tail_exponent()
        s = self.spec.tail_exponent(2 * end) + 1     # below 0: (end, end) is integrable
        if (2 * math.exp(s * log_xw) > -s * 1e-9 * min(map(abs, norms))
                or top * log_xw >= _LOG_HUGE):
            return set()
        return {(n, m) for n, m in pairs if n <= top}

    def cliffs(self, nmax, phi):
        """(n, m) -> whether the product of members n and m is certified
        divergent: the exact count (pair_integrable) says it is not
        integrable, and at some hinted point of the weight, on one side,
        the measured exponent of one quadrature.exponent_scan of members
        0..nmax agrees with the pair's divergent hint.  Each side is judged
        on its own, so cancelling divergent tails still show.  Members
        below a pole in the recurrence are its rows; each member from the
        pole on is phi(n), its own SymmetricPoly (None where it does not
        exist, whose pairs never certify)."""
        top, rows = _rows_below_pole(self, nmax, self.base)
        wlog = self.spec.weight_log

        def members(x):
            above = [phi(n)(x) if phi(n) else np.full_like(x, math.nan)
                     for n in range(top + 1, nmax + 1)]
            return np.vstack([rows(x)] + above) if above else rows(x)
        scan = exponent_scan(lambda x: (wlog(x), np.log(np.abs(members(x)))),
                             self.spec.interval(), nmax)
        hints = functools.lru_cache(maxsize=None)(
            lambda parity, degree: dict(self.spec.hints(parity, degree)))

        def certified(n, m):
            if self.integrable(n, m):
                return False
            hint = hints((n % 2) + (m % 2), n + m)
            return any(certifies_divergence(point, sigma[n, m], spread[n, m], hint[point])
                       for point, sigma, spread in scan)
        return certified

    def inner(self, phi_a, phi_b, n, m):
        """The entry (n, m) of an absolutely integrable pair that the tree
        does not hold: exactly 0 for an odd product, and one integrate call
        on the right half-line for an even one."""
        if (n + m) % 2:
            return QuadResult(0.0, 0.0, True, False)
        wlog = self.spec.weight_log

        def f(x):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return np.exp(wlog(x)) * phi_a(x) * phi_b(x)
        spec = self.spec.interval(origin_power=(n % 2) + (m % 2), tail_power=n + m)
        return integrate(f, spec, parity="even", on_inconclusive="return")


# the logs of the smallest and largest positive floats: a weight
# |x|^tail underflows to 0 past log|x| = _LOG_TINY / tail, and a monic
# member of degree n overflows past log|x| = _LOG_HUGE / n
_LOG_TINY = math.log(np.finfo(float).smallest_subnormal)
_LOG_HUGE = math.log(np.finfo(float).max)


def _adapt(basis):
    """The Gram adapter of a basis; a Legendre kind serves as its own."""
    if isinstance(basis, _FAMILIES):
        return _FamilyBasis(basis)
    if isinstance(basis, LegendreKind):
        return basis
    raise TypeError(f"cannot build a basis from {basis!r}")


def _rows_below_pole(ad, top, floor):
    """(t, ad.rows(t)) for the largest t in floor..top whose members have no
    pole in their recurrence; ad.rows(floor) raises if those have one."""
    for t in range(top, floor, -1):
        try:
            return t, ad.rows(t)
        except PoleError:
            pass
    return floor, ad.rows(floor)


def _shared_tree(ad, end, interval, norms, off):
    """One panel tree for the block base..end and the off-block pairs off
    (m <= end < n): rows base..top, the highest n in off, against columns
    base..end, on the block's interval.  A block entry is held to 1e-9
    sqrt|d_n| sqrt|d_m|, with d the closed-form norms or, when norms is None,
    the tree's running diagonal; an off-block pair to 1e-9 |d_m|, the scale
    _gram_report judges it by; the rest of the rows hold the tree to
    nothing.  Returns ((n, m) -> QuadResult, or None for a pair the tree
    does not hold or left open outside its block; the GramQuad)."""
    b = ad.base
    top = max([n for n, _ in off], default=end)
    rows = ad.rows(top)

    def sample(x):
        P = rows(x)
        return ad.weight(x), P, P[:end - b + 1] if off else P
    scale = None
    if norms is not None:
        d = np.abs(norms)
        root = np.sqrt(d)
        scale = np.full((top - b + 1, end - b + 1), math.inf)
        # sqrt(d_n) sqrt(d_m): the product d_n d_m can overflow a float
        scale[:end - b + 1] = np.maximum(np.outer(root, root), 1e-150)
        for n, m in off:
            scale[n - b, m - b] = d[m - b]
    res = integrate_gram(sample, interval, scale, fold=ad.fold)

    def quad(n, m):
        i, j = n - b, m - b
        if n > end and not ((n, m) in off and res.converged[i, j]):
            return None
        return QuadResult(float(res.value[i, j]), float(res.error[i, j]),
                          bool(res.converged[i, j]), False)
    return quad, res


# a divergent entry proven by its measured exponent, and a non-integrable
# entry the scan does not certify: neither takes an integral
_CERTIFIED_CLIFF = QuadResult(math.nan, math.inf, False, True)
_NO_QUAD = QuadResult(math.nan, math.inf, False, False)


def _entry_by_entry(ad, nmax):
    """ad.inner for each integrable entry; a pair that is not integrable
    is a cliff when the adapter's exponent scan certifies it
    (_FamilyBasis.cliffs, built at the first such pair) and inconclusive
    otherwise.  Returns (n, m) -> QuadResult, or None when a member does
    not exist."""
    phis = {}
    done = {}
    cliffs = []

    def phi(n):
        if n not in phis:
            try:
                phis[n] = ad.phi(n)
            except (DegenerateDenominator, ZeroLeadingCoefficient):
                phis[n] = None
        return phis[n]

    def quad(n, m):
        if phi(n) is None or phi(m) is None:
            return None
        if (n, m) not in done:
            if ad.integrable(n, m):
                done[n, m] = ad.inner(phis[n], phis[m], n, m)
            else:
                if not cliffs:
                    cliffs.append(ad.cliffs(nmax, phi))
                done[n, m] = _CERTIFIED_CLIFF if cliffs[0](n, m) else _NO_QUAD
        return done[n, m]
    return quad


def gram_matrix(basis, nmax, tol=1e-7) -> GramReport:
    """Inner-product matrix of the basis members up to degree nmax.

    The block of degrees base..K whose norms all have closed forms and
    whose every pair is integrable takes its entries from one shared panel
    tree (quadrature.integrate_gram) on members evaluated by recurrence.
    Bases with no degree bound (GUP, GHP, the Legendre kinds) have K =
    nmax.  A finite family's tree also carries its integrable even pairs
    (n, m) with m <= K < n and n + m <= 2K (FiniteII's; FiniteI has K <= 0
    and so none), held to 1e-9 |d_m|; one such pair the tree leaves open
    takes its own integral.  Every other integrable entry outside the block
    is exactly 0 (an odd pair) or one half-line integral (an even pair).
    An entry that is not integrable takes no integral: it is a cliff when
    the pair's local exponent, measured by one scan over members base..nmax,
    confirms its divergent hint, and inconclusive otherwise, so a cliff
    always rests on divergence evidence independent of the tree.
    Diagonals are compared with the closed-form norms; off-diagonal
    entries are then measured against tol * sqrt(d_n d_m).  Entry statuses:

      ok            matches expectation
      cliff         divergence certified AND the closed form refuses the
                    index (the consistent finite-family signature)
      degenerate    the member itself cannot be built (vanishing leading
                    coefficient) and the closed-form norm refuses the
                    index too, again a consistent refusal
      mismatch      converged to the wrong value, converged where the
                    closed form says divergent, or a member degenerated
                    at an index the closed forms accept
      divergent     diverged where theory says finite
      inconclusive  the integrator gave up without a verdict, or the scan
                    did not certify a pair that is not integrable

    The report passes iff every entry is ok, cliff or degenerate.  Entries
    (n, m) with n >= m are computed and the matrix is mirrored.  The
    report's panels and evals total the GK15 panels and integrand points
    of the tree and of every per-entry integral.
    """
    return _gram_report(_adapt(basis), nmax, tol)


def _gram_report(ad, nmax, tol) -> GramReport:
    if nmax < ad.base:
        raise ConstraintViolation(f"nmax must be at least {ad.base} for this basis")
    idx = list(range(ad.base, nmax + 1))
    norms = ad.norms(nmax)
    end, interval = ad.tree_block(norms)
    tree, res = None, None
    if end >= ad.base:
        block = norms[:end - ad.base + 1] if ad.closed_norms else None
        # only a finite family's block ends short of nmax with room for
        # pairs n + m <= 2 end outside it
        off = ad.off_block(end, nmax, block) if ad.base < end < nmax else ()
        tree, res = _shared_tree(ad, end, interval, block, off)
    single = _entry_by_entry(ad, nmax)

    def quad(n, m):
        # called with n >= m
        r = tree(n, m) if tree else None
        return single(n, m) if r is None else r

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
            entries.append(GramEntry(n, n, _NO_QUAD, expected,
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
                entries.append(GramEntry(n, m, _NO_QUAD, 0.0,
                                         "degenerate" if consistent else "mismatch"))
                continue
            dn = abs(diag.get(n, diag.get(m, 1.0)))
            dm = abs(diag.get(m, dn))
            scale = max(math.sqrt(dn) * math.sqrt(dm), 1e-150)
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
    panels = sum(e.quad.panels for e in entries) + (res.panels if res else 0)
    evals = sum(e.quad.evals for e in entries) + (res.evals if res else 0)
    return GramReport(ad.label, ad.base, nmax, tol, tuple(entries), mat, passed,
                      panels, evals)
