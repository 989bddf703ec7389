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
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, fields
from numbers import Rational
from typing import Callable, Optional

import numpy as np

from .core import (ClassParams, SymmetricPoly, WeightExponents, _check_degree, member_exists,
                   member_rows, poly_from_params, weight_exponents)
from .core import eigenvalue as generic_eigenvalue
from .errors import (ConstraintViolation, NonpositiveWeight, PoleError,
                     SingularCoefficient)
from .families import (_FAMILIES, Class, _Family, generic_weight_log, integrable_pairs,
                       norms_squared)
from .gauss import pearson
from .legendre import LegendreKind
from .quadrature import (_EPS, _RTOL, IntervalSpec, QuadResult, divergence_mask, entry_scale,
                         exponent_scan, integrate_gram)


@dataclass(frozen=True)
class SLCoeffs:
    """Coefficient set for A y'' + B y' + (lam C + D + [n odd] E) y = 0,
    with log_weight the closed form of log W* = log(C R), where R = (1/A)
    exp(int B/A) makes the equation self-adjoint, and exponents W*'s record;
    params are the class's, for a set from_params made (else None)."""
    a_even: Callable
    b_odd: Callable
    c_even: Callable
    d_even: Callable
    e_even: Callable
    eigenvalue: Callable
    exponents: WeightExponents
    log_weight: Callable
    params: Optional[ClassParams] = None

    @property
    def theta(self):
        return self.exponents.theta

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
    return weight_exponents(params).theta


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
        exponents=weight_exponents(params),
        log_weight=functools.partial(generic_weight_log, params),
        params=ClassParams(*params),
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
        exponents=WeightExponents(1.0, 0.0, 0.0, -math.inf),
        log_weight=np.zeros_like,
    )


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

    At a finite theta A R = (px^2 + q) W* ~ (theta - |x|)^(edge + 1), and
    A R is even, so the bracket is A R's limit at theta times the ends
    P(theta) - P(-theta) of its polynomial part P: 0.0 for edge + 1 > 0,
    evaluating nothing, and where the ends cancel, as they do by parity
    (so would a zero of P at theta).  The ends are read in floats; for
    exact parameters and members whether they are 0 is decided exactly
    (_ends_vanish), so a zero of P at theta reads 0, where float ones
    round it (2.5e-15 for Class(-1.0, 2.0, 0.0, 0.0)'s (2, 2)).  For
    edge + 1 < 0 it is +-inf with the ends' sign; for edge + 1 = 0 A R is
    read at the first float inside theta where it is finite and positive,
    since px^2 + q rounds to 0 or +-1 ulp at the float theta.  An infinite
    theta is probed at x = 10, 10^2, 10^3: a monotone decay below 1e-10 *
    scale counts as zero, anything else is returned as the x = 10^3 value,
    a result (the finite-family failure signature), not an error.  The
    probe stops at 10^3, so a slow decay reads as nonzero: the bracket of
    FiniteII(4.5)'s non-monic member 5, x - 2x^3, is 0.118 at x = 10,
    1.2e-5 at 10^3 and 1.2e-15 at 10^8."""
    same = phi_n is phi_m or (
        isinstance(phi_n, SymmetricPoly) and isinstance(phi_m, SymmetricPoly)
        and (phi_n.n, phi_n.coeffs) == (phi_m.n, phi_m.coeffs))

    def wron(x):
        fn, dfn = _value_slope(phi_n, x)
        if same:
            return dfn * fn
        fm, dfm = _value_slope(phi_m, x)
        return dfn * fm - dfm * fn

    def ar(x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.exp(_log_r(sl, x) + np.log(sl.A(x)))

    def bracket(x):
        return ar(x) * wron(x)

    th, _, edge, _ = sl.exponents
    if math.isfinite(th):
        if edge + 1 > 0:
            return 0.0
        if _ends_vanish(sl.params, phi_n, phi_m, same):
            return 0.0
        ends = float(wron(np.array(th)) - wron(np.array(-th)))
        if ends == 0.0:
            return 0.0
        if edge + 1 < 0:
            return math.copysign(math.inf, ends)
        inside = ar(th - np.spacing(th) * np.arange(1, 65))
        return float(inside[np.isfinite(inside) & (inside > 0)][0]) * ends
    vals = [float(bracket(np.array(10.0 ** k)) - bracket(np.array(-10.0 ** k)))
            for k in (1, 2, 3)]
    mags = [abs(v) for v in vals]
    if mags[0] >= mags[1] >= mags[2] and mags[2] <= 1e-10 * scale:
        return 0.0
    return vals[-1]


def _ends_vanish(params, phi_n, phi_m, same):
    """Whether boundary_term's ends P(theta) - P(-theta) are exactly 0, from
    the members' exact coefficients; False unless the parameters and both
    members' coefficients are exact.  With phi_n = sum c_k x^(n-2k),
    phi_m = sum d_l x^(m-2l) and y = theta^2 = -q/p, the Wronskian at theta
    is S / theta, S = sum c_k d_l w_kl y^((n+m)/2 - k - l) in Fractions,
    w_kl = (n - 2k) - (m - 2l) ((n - 2k) for one member against itself);
    the ends are 2 S / theta for n + m even and 0 for n + m odd, where they
    cancel by parity."""
    if params is None or not params.exact() or not all(
            isinstance(phi, SymmetricPoly) and all(isinstance(c, Rational) for c in phi.coeffs)
            for phi in (phi_n, phi_m)):
        return False
    (n, m), (p, q, _, _) = (phi_n.n, phi_m.n), params.promoted()
    y = -q / p
    return (n + m) % 2 == 1 or 0 == sum(
        c * d * ((n - 2 * k) - (0 if same else m - 2 * l)) * y ** ((n + m) // 2 - k - l)
        for k, c in enumerate(phi_n.coeffs) for l, d in enumerate(phi_m.coeffs))


def parity_integral(sl, phi_n, phi_m):
    """F(n, m) = ((-1)^m - (-1)^n)/2 * int E R phi_n phi_m over [-theta, theta].

    Equal parities short-circuit to exactly zero (the prefactor vanishes).
    Mixed parities make the integrand odd; the integral is taken in the
    symmetric (principal-value) sense by folding x -> -x onto the right
    half-line, which still samples both members and the weight while
    letting the two sides cancel pointwise.  Families with a strong origin
    singularity make the unfolded two-sided integral divergent in the
    absolute sense, so the fold is the honest reading of the lemma.  It is
    one integrate_gram entry, the folded integrand as the weight against a
    row of ones, held to an absolute 1e-10: its exact value 0 has no
    scale.  An open tree's value is returned as it stands.
    """
    pn, pm = phi_n.n % 2, phi_m.n % 2
    pref = ((-1) ** phi_m.n - (-1) ** phi_n.n) / 2
    if pn == pm:
        return 0.0

    def side(x):
        with np.errstate(over="ignore"):
            r = np.exp(_log_r(sl, x))
        return sl.E(x) * r * phi_n(x) * phi_m(x)

    def sample(x):
        return side(x) + side(-x), 1.0, np.ones((1, x.size))

    spec = IntervalSpec(0.0, sl.theta, ((0.0, None),))
    res = integrate_gram(sample, spec, 1e-10 / _RTOL)
    return pref * float(res.value[0])


@dataclass(frozen=True, eq=False)
class GramEntry:
    n: int
    m: int
    quad: QuadResult
    expected: Optional[float]
    status: str          # ok | cliff | degenerate | mismatch | inconclusive


_REFUSED = ("cliff", "degenerate")


class GramEntries(Sequence):
    """A Gram report's entries, kept as gram_matrix's arrays over the cells
    [n - base, m - base] until read.  column(name) lists one field of every
    entry (n, m, expected, status or a QuadResult field), the diagonal first
    and then the lower triangle row by row.  The GramEntry tuple is built
    from the columns once, on the first item access or iteration, and gives
    the slices and the repr; len() builds nothing, and one(k) builds entry
    k alone until the tuple is built."""
    __slots__ = ("_cells", "_built")

    def __init__(self, cells):
        self._cells, self._built = cells, None

    def __len__(self):
        return len(self._order())

    def _order(self):
        return _entry_order(len(self._cells["n"]))

    def column(self, name):
        return self._cells[name].take(self._order()).tolist()

    def _build(self, cells):
        """The GramEntry of each of the given flat cells."""
        n, m, expected, status = (self._cells[name].take(cells).tolist()
                                  for name in ("n", "m", "expected", "status"))
        quads = map(QuadResult, *(self._cells[name].take(cells).tolist() for name in _FIELDS))
        return tuple(map(GramEntry, n, m, quads, expected, status))

    def _entries(self):
        if self._built is None:
            self._built = self._build(self._order())
        return self._built

    def one(self, k):
        """Entry k, built alone unless the tuple is built."""
        if self._built is not None:
            return self._built[k]
        return self._build(self._order()[k:k + 1])[0]

    def __getitem__(self, i):
        return self._entries()[i]

    def __iter__(self):
        return iter(self._entries())

    def __repr__(self):
        return repr(self._entries())


@functools.lru_cache(maxsize=64)
def _entry_order(size):
    """The flat cells of a size x size report's entries, in their order."""
    n, m = np.tril_indices(size, -1)
    order = np.concatenate([np.arange(size) * (size + 1), n * size + m])
    order.flags.writeable = False
    return order


@dataclass(frozen=True, eq=False)
class GramReport:
    """The entries of a Gram matrix with their statuses, the mirrored
    matrix, the verdict, and what it cost: GK15 panels (0 from gram_matrix,
    whose entries come from one Gauss rule) and integrand points (the rule's
    nodes times the members evaluated there).  entries is any sequence of
    GramEntry: gram_matrix's is a GramEntries."""
    label: str
    base: int
    nmax: int
    tol: float
    entries: Sequence[GramEntry]
    matrix: np.ndarray
    passed: bool
    panels: int
    evals: int

    def _statuses(self):
        if isinstance(self.entries, GramEntries):
            return self.entries.column("status")
        return [e.status for e in self.entries]

    def _entry(self, k):
        return self.entries.one(k) if isinstance(self.entries, GramEntries) else self.entries[k]

    @property
    def verified(self) -> int:
        """Entries checked against their expected value (status ok)."""
        return self._statuses().count("ok")

    @property
    def refused(self) -> int:
        """Entries whose closed form and quadrature refuse them alike."""
        return sum(map(self._statuses().count, _REFUSED))

    def entry(self, n, m):
        hi, lo = max(n, m), min(n, m)
        if isinstance(self.entries, GramEntries):
            # the diagonal first, then the lower triangle row by row
            i, j, size = hi - self.base, lo - self.base, self.nmax - self.base + 1
            if 0 <= j <= i < size:
                return self.entries.one(i if i == j else size + i * (i - 1) // 2 + j)
        else:
            for e in self.entries:
                if (e.n, e.m) == (hi, lo):
                    return e
        raise KeyError((n, m))

    def summary(self) -> str:
        statuses = self._statuses()
        counts = Counter(statuses)
        head = (f"gram[{self.label}] n = {self.base}..{self.nmax}, "
                f"tol {self.tol:g}: {'pass' if self.passed else 'FAIL'}, "
                f"{counts['ok']} verified, {self.refused} refused "
                f"({', '.join(f'{v} {k}' for k, v in sorted(counts.items()))})")
        lines = [head]
        for k, status in enumerate(statuses):
            if status in ("ok",) + _REFUSED:
                continue
            e = self._entry(k)
            lines.append(f"  ({e.n},{e.m}): {e.status}, value {e.quad.value:.3e}"
                         + (f", expected {e.expected:.3e}" if e.expected is not None
                            else ""))
        return "\n".join(lines)


class _FamilyBasis:
    """Basis adapter for a family spec.  Adapters give expand the weight
    (and its log, on an infinite interval), the rows of members base..nmax
    (by recurrence) and the quadrature interval, and gram_matrix the
    closed-form norms (None where refused; a
    family's are its tuple's Class's), whether the members have a parity
    (fold), the integrable pairs, the pairs with a member that cannot be
    built (missing) and the Gauss rule of the pairs of one parity (rule).  A
    family's pair that is not integrable is a cliff where cliffs certifies
    it, and inconclusive elsewhere."""
    fold = True

    def __init__(self, spec):
        self.spec = spec
        self.base = 0
        self.label = spec.label
        self.phi = functools.lru_cache(maxsize=None)(self._phi)

    def _phi(self, n):
        """Member n as its own SymmetricPoly, None where it cannot be built."""
        params = self.spec.params
        return poly_from_params(params, n, monic=True) if member_exists(params, n) else None

    def norms(self, nmax):
        """The norms of the tuple's Class, to its last integrable diagonal:
        the spec's own, cut at the bound a Class takes, not a printed one."""
        return norms_squared(self.spec, nmax, _Family.finite_degree_bound(self.spec))

    def log_weight(self, x):
        return self.spec.weight_log(x)

    def weight(self, x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.exp(self.log_weight(x))

    def rows(self, nmax):
        return member_rows(self.spec.params, nmax)

    def interval(self, members=2):     # polynomial members add integer exponents
        return self.spec.interval()

    def integrable_mask(self, nmax):
        """pair_integrable(spec, n, m) at [n, m], n, m = 0..nmax
        (families.integrable_pairs)."""
        k = np.arange(nmax + 1)
        return integrable_pairs(self.spec, k[:, None], k)

    def missing(self, nmax, lower, integrable):
        """The pairs of lower, at [n, m], with a member that cannot be built:
        below any pole the rule takes the recurrence's rows; from the pole on,
        and in a pair that is not integrable, a member is its own phi(n),
        which exists where member_exists says so."""
        params = self.spec.params
        k = np.arange(nmax + 1)
        need = lower & (~integrable | (k[:, None] > _below_pole(params, nmax)))
        used = need.any(axis=0) | need.any(axis=1)
        gone = np.array([bool(u) and not member_exists(params, i) for i, u in enumerate(used)])
        return need & (gone[:, None] | gone)

    def _members(self, used):
        """x -> the rows of members 0..len(used) - 1 at x: by recurrence
        below any pole, and from it on each used member's own phi(n); nan
        where a member is unused or cannot be built."""
        params = self.spec.params
        top = _below_pole(params, len(used) - 1)
        rows = member_rows(params, top)
        above = [self.phi(n) if used[n] else None for n in range(top + 1, len(used))]
        return lambda x: np.vstack([rows(x)] + [np.full_like(x, math.nan) if f is None else f(x)
                                                for f in above])

    def rule(self, pairs):
        """(x, w, low, rows) for pairs, a mask of integrable pairs n >= m of
        one parity: the weight's Gauss rule of the widest pair
        (gauss.pearson) and members 0..N at its nodes, N the largest n, as
        missing takes them (nan where no pair needs one); None with no rule."""
        n, m = np.nonzero(pairs)
        got = pearson(self.spec.params, self.spec.exponents, int((n + m).max()) // 2)
        if got is None:
            return None
        used = (pairs.any(axis=0) | pairs.any(axis=1))[:int(n.max()) + 1]
        return got + (self._members(used)(got[0]),)

    def cliffs(self, nmax):
        """The mask, at [n, m], of the pairs (read where not integrable)
        whose measured exponent at a hinted point of the weight, on one side,
        agrees with their divergent hint (divergence_mask), from one
        quadrature.exponent_scan in x of every member's row (_members; a
        nan row never certifies).  Each side is judged on its own, so
        cancelling divergent tails still show."""
        members, wlog = self._members(np.ones(nmax + 1, dtype=bool)), self.spec.weight_log
        scan = exponent_scan(lambda x: (wlog(x), np.log(np.abs(members(x)))),
                             self.spec.interval(), nmax)
        # every pair's hints: the parity and the degree of its product
        n = np.arange(nmax + 1)[:, None]
        hint = dict(self.spec.hints(n % 2 + n.T % 2, n + n.T))
        certified = np.zeros((nmax + 1, nmax + 1), dtype=bool)
        for point, sigma, spread in scan:
            certified |= divergence_mask(point, sigma, spread, hint[point])
        return certified


def _adapt(basis):
    """The Gram adapter of a basis; a Legendre kind serves as its own."""
    if isinstance(basis, ClassParams):
        basis = Class(*basis)
    if isinstance(basis, _FAMILIES):
        return _FamilyBasis(basis)
    if isinstance(basis, LegendreKind):
        return basis
    from .exponent_map import LambdaSpec, _LambdaBasis    # which imports this module
    if isinstance(basis, LambdaSpec):
        return _LambdaBasis(basis)
    raise TypeError(f"cannot build a basis from {basis!r}")


def _below_pole(params, top):
    """The largest t in 0..top with no pole among C_1..C_(t-1), which
    member_rows(params, t) takes; the C_k are computed once per params."""
    try:
        params.float_c(max(top - 1, 0))
        return top
    except PoleError:       # float_c keeps C_1.. below the first pole
        return len(params._float_c) + 1


# an entry that takes no integral, and the QuadResult fields gram_matrix
# holds as arrays over the cells [n - base, m - base], _NO_QUAD's by default
_NO_QUAD = QuadResult(math.nan, math.inf, False, False)
_FIELDS = tuple(f.name for f in fields(QuadResult))


def gram_matrix(basis, nmax, tol=1e-7) -> GramReport:
    """Inner-product matrix of the members up to degree nmax of a basis: a
    family, a bare ClassParams (as its Class), a LambdaSpec or a Legendre kind.

    A family's norms are its tuple's Class's (norms_squared), to the last
    integrable diagonal, so a named family and its Class give one report.
    In y = x^2 each pair of one parity is a polynomial against the weight's
    Jacobi or Laguerre weight (gauss.pearson; V takes Gauss-Jacobi in x),
    so one Gauss rule, built for the widest integrable pair, gives them all
    exactly up to rounding from the members' recurrence at its nodes: reason
    rule, evals its nodes times the members evaluated, and an error of
    4 (n + m + N) eps sum_i w_i |S_n S_m|(x_i) at N nodes, over 1 + e where
    the rule's smallest exponent e is negative.  An integrable pair of mixed
    parity is exactly 0 (reason odd-parity).  A pair that is not integrable
    is a cliff when one scan of its local exponents confirms its divergent
    hint, else inconclusive; a pair with a member that cannot be built
    (missing) takes nothing.  One pass over arrays then judges every entry:
    diagonals to tol |d_n| of the closed-form norms (mu_0 (-1)^n C_1...C_n),
    off-diagonals to tol sqrt|d_n| sqrt|d_m|, d the converged diagonals (else
    the norms).  Entry statuses:

      ok            matches expectation
      cliff         divergence certified AND the closed form refuses the
                    index (the consistent finite-family signature)
      degenerate    the member itself cannot be built (vanishing leading
                    coefficient) and the closed-form norm refuses the
                    index too, again a consistent refusal
      mismatch      converged to the wrong value, converged where the
                    closed form says divergent, or a member degenerated
                    at an index the closed forms accept
      inconclusive  an integrable pair with no Gauss rule (flagged
                    diverged: a weight growing like e^(c x^2)), no finite
                    value or no finite limit (tol |d_n|, or tol
                    sqrt|d_n| sqrt|d_m|, past the float range), or a pair
                    not integrable that the scan did not certify

    The report passes iff every entry is ok, cliff or degenerate.  Entries
    (n, m) with n >= m are computed and the matrix is mirrored.
    """
    ad = _adapt(basis)
    if _check_degree(nmax) < ad.base:
        raise ConstraintViolation(f"nmax must be at least {ad.base} for this basis")
    if not 0 < tol < math.inf:
        raise ConstraintViolation(f"tol must be finite and positive, got {tol!r}")
    b, size = ad.base, nmax - ad.base + 1
    norms = ad.norms(nmax)
    integrable = ad.integrable_mask(nmax)
    cells = {name: np.full((size, size), getattr(_NO_QUAD, name)) for name in _FIELDS}
    lower = np.tri(size, dtype=bool)    # the entries (n, m), n >= m; the matrix mirrors them
    missing = ad.missing(nmax, lower, integrable)
    exact = lower & integrable & ~missing
    k = np.arange(size)
    odd = exact & ((k[:, None] + k) % 2 == 1) if ad.fold else np.zeros_like(exact)
    cells["value"][odd] = cells["abs_error_estimate"][odd] = 0.0
    cells["converged"][odd], cells["reason"][odd] = True, "odd-parity"
    pairs, evals = exact & ~odd, 0
    rule = ad.rule(pairs) if pairs.any() else None
    if rule is None:
        cells["diverged"][pairs] = True     # no rule: some exponent of the weight is -1 or less
    else:
        x, w, low, rows = rule
        top, evals = len(rows), rows.size
        held = pairs[:top, :top]
        a = rows * np.sqrt(w)
        with np.errstate(over="ignore", invalid="ignore"):
            value, mass = a @ a.T, np.abs(a) @ np.abs(a).T
            err = 4 * (k[:top, None] + k[:top] + len(x)) * _EPS / min(1.0, 1 + low) * mass
        for name, got in (("value", value), ("abs_error_estimate", err),
                          ("converged", np.isfinite(value) & np.isfinite(err))):
            cells[name][:top, :top][held] = got[held]
        cells["reason"][:top, :top][held], cells["evals"][:top, :top][held] = "rule", evals
    value, conv = cells["value"], cells["converged"]
    cliff = lower & ~integrable & ~missing
    if cliff.any():
        cliff &= ad.cliffs(nmax)
        cells["diverged"][cliff] = True     # the cells stay _NO_QUAD otherwise

    refused = np.array([d is None for d in norms])
    expected = np.array([math.nan if d is None else d for d in norms], dtype=float)
    # as plain float arithmetic: an overflow is inf, and inf - inf is nan
    with np.errstate(invalid="ignore", over="ignore"):
        # the running diagonal: each converged diagonal, else its expected value
        diag_conv, diag_missing = np.diagonal(conv), np.diagonal(missing)
        has = diag_conv | (~refused & ~diag_missing)
        d = np.abs(np.where(diag_conv, np.diagonal(value), expected))
        dn = np.where(has[:, None], d[:, None], np.where(has, d, 1.0))
        dm = np.where(has, d, dn)
        limit = tol * entry_scale(dn, dm)
        np.fill_diagonal(limit, tol * np.maximum(np.abs(expected), 1e-300))
        close = np.abs(value - np.diag(expected)) <= limit
    # an entry is judged where its limit is finite, and a diagonal whose
    # norm refuses too: there a converged value contradicts the closed form
    judged = np.isfinite(limit)
    np.fill_diagonal(judged, np.diagonal(judged) | refused)
    # a missing member is a consistent refusal when its norm refuses too;
    # a diverged diagonal is a cliff when its norm refuses
    consistent = ~diag_missing | refused
    np.fill_diagonal(cliff, refused)
    rules = ((missing & consistent[:, None] & consistent, "degenerate"), (missing, "mismatch"),
             (conv & judged & close, "ok"), (conv & judged, "mismatch"),
             (cells["diverged"] & cliff, "cliff"))
    status = cells["status"] = np.full((size, size), "inconclusive", dtype=object)
    for mask, name in reversed(rules):      # the first rule that holds wins
        status[mask] = name

    cells["n"], cells["m"] = np.indices((size, size)) + b
    cells["expected"] = np.full((size, size), 0.0, dtype=object)
    np.fill_diagonal(cells["expected"], [None if d is None else float(d) for d in norms])
    passed = set(status[lower]) <= {"ok", *_REFUSED}
    mat = np.where(conv, value, math.nan)
    mat = np.where(lower, mat, mat.T)
    return GramReport(ad.label, b, nmax, tol, GramEntries(cells), mat, passed, 0, evals)
