"""Weighted least-squares expansion of a target function in a verified basis.

The coefficients are the classical projections

    q_n = int W* f phi_n / int W* phi_n^2

with W* the orthogonality weight of the basis (identically one for the
Legendre-type kinds).  The basis is checked by gram_matrix before any
coefficient is computed; a basis that fails, or whose members are not all
genuinely square-integrable up to the requested order, is refused.  A
smooth target's integrals come from the weight's own Gauss rule, at two
sizes that must agree; any other target's from adaptive panel trees.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import ROWS_CHUNK, blockwise
from .errors import (BasisInvalid, ConstraintViolation, MaxDepthExceeded,
                     NonSquareIntegrable)
from .quadrature import (_EPS, _GROWTH_GRID, _RTOL, _SCAN_SPREAD, IntervalSpec, QuadResult,
                         certifies_divergence, divergent, entry_scale, grows_superalgebraically,
                         integrate_gram, target_exponents)
from .sturm import _adapt, gram_matrix


def barycentric_interpolant(nodes, values):
    """Polynomial interpolant through (nodes, values) in barycentric form.

    Plain Lagrange interpolation on whatever nodes the caller supplies; on
    wild node sets (many equispaced points) the underlying polynomial
    itself oscillates, and that error budget belongs to the caller.  Inside
    the node hull the second (true) barycentric form is used; outside it,
    where that form loses all accuracy a few hull widths out, the first
    (modified Lagrange) form l(x) sum_j w_j y_j / (x - x_j).
    """
    xs = np.asarray(nodes, dtype=float)
    ys = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size == 0:
        raise ConstraintViolation("need matching, nonempty node and value arrays")
    # np.unique's test, without the numpy.ma import it makes: equal
    # neighbours once sorted (0.0 and -0.0 among them), or two nans, which
    # sort last
    ordered = np.sort(xs)
    if np.any(ordered[1:] == ordered[:-1]) or xs.size > 1 and np.isnan(ordered[-2]):
        raise ConstraintViolation("interpolation nodes must be distinct")
    diff = xs[:, None] - xs[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)

    def interp(x):
        x_arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x_arr).astype(float)
        d = flat[:, None] - xs[None, :]
        exact = d == 0.0
        hit = exact.any(axis=1)
        d[hit] = 1.0           # silenced; replaced below
        kern = w[None, :] / d
        out = (kern @ ys) / kern.sum(axis=1)
        outside = (flat < xs.min()) | (flat > xs.max())
        if outside.any():
            with np.errstate(over="ignore", invalid="ignore"):
                out[outside] = np.prod(d[outside], axis=1) * (kern[outside] @ ys)
        if np.any(hit):
            out[hit] = ys[exact.argmax(axis=1)[hit]]
        return out.reshape(x_arr.shape) if x_arr.ndim else float(out[0])

    return interp


def _as_callable(f):
    if callable(f):
        return f
    if isinstance(f, tuple) and len(f) == 2:
        return barycentric_interpolant(f[0], f[1])
    pairs = np.asarray(f, dtype=float)
    if pairs.ndim == 2 and pairs.shape[1] == 2:
        return barycentric_interpolant(pairs[:, 0], pairs[:, 1])
    raise ConstraintViolation(
        "target must be callable, an (x, y) pair of arrays, or an (k, 2) sample array")


@dataclass(frozen=True, eq=False)
class ExpansionSeries:
    """Truncated expansion: coefficients index 0..nmax (entries below a
    kind's base order are structurally zero), and errors their error
    estimates, index for index.  panels and evals are what the path that
    gave the coefficients cost: on the Gauss rules no panel, and the points
    where f was read; on expand's own panel trees (the residual from its
    start panels) their GK15 panels and integrand points, counted as
    GramQuad counts them.  Neither counts the basis's Gram check, the
    target's exponent scan or a rule attempt whose two sizes disagreed."""
    basis: object
    coefficients: tuple
    nmax: int
    residual: float          # absolute L2(W*) error of the partial sum
    residual_rel: float      # residual / ||f||
    residual_converged: bool = True  # False: residual is an open tree's estimate
    panels: int = 0          # GK15 panels of expand's trees
    evals: int = 0           # integrand points they (or the rules) sampled
    errors: tuple = ()       # |q_n - exact| estimates; () in a series built by hand


def _joined(interval, exps, factors):
    """The interval with the target's measured exponents {point: e} joined
    to its hints, for a tree's most singular term: a point's hint gains
    factors[0] e at a finite point where e > 0, and factors[1] e elsewhere
    (where e < 0, and in a tail).  f phi_n takes (1, 1) and f^2 alone
    (2, 2); a tree that carries both f^2 and a cross term f s or f phi_n
    takes (1, 2), since the cross term is the worst where e > 0.  A point
    the interval does not hint counts as 0, and a None hint (a flat
    weight) stays None."""
    if not exps:
        return interval
    hints = dict(interval.singularities)
    for point, e in exps.items():
        h = hints.get(point, 0.0)
        if h is not None:
            hints[point] = h + e * factors[0 if e > 0 and not math.isinf(point) else 1]
    return IntervalSpec(interval.lo, interval.hi, tuple(hints.items()))


def _target_hints(target, ad, hinted):
    """The target's exponents that join expand's hints: one target_exponents
    scan on the interval hinted, kept in every scanned tail, and at a finite
    point when e is not within _SCAN_SPREAD of an integer and f^2 W* is
    integrable there.  NonSquareIntegrable when the scan certifies that it
    is not (certifies_divergence of 2e plus the weight's exponent, with
    twice e's spread), or when one more call of f, on _GROWTH_GRID in the
    interval's unhinted tails, finds log f^2 W* = 2 log|f| + log W* growing
    super-algebraically there (grows_superalgebraically) as far as f stays
    finite, as e^(x^2) against e^(-x^2) does."""
    squared = dict(ad.interval(0).singularities)
    tails = [end for end in (hinted.lo, hinted.hi) if math.isinf(end) and end not in squared]
    if tails:
        x = np.concatenate([np.copysign(_GROWTH_GRID, end) for end in tails])
        with np.errstate(all="ignore"):
            logs = 2 * np.log(np.abs(target(x))) + ad.log_weight(x)
        if grows_superalgebraically(logs.reshape(len(tails), -1)).any():
            raise NonSquareIntegrable(
                "int W* f^2 diverges in a tail: f^2 W* grows faster than any power "
                "along |x| = 1, 2, 4, ... as far as f is finite")
    exps = {}
    for point, (e, spread) in target_exponents(target, hinted).items():
        if math.isinf(point):
            exps[point] = e
            continue
        sigma = 2 * e + squared.get(point, 0.0)
        if certifies_divergence(point, sigma, 2 * spread, sigma):
            raise NonSquareIntegrable(
                f"int W* f^2 diverges at x = c = {point!r}: the target's measured exponent "
                f"there is {e:.6g}, so f^2 W* ~ |x - c|^{sigma:.6g}")
        if abs(e - round(e)) > _SCAN_SPREAD and not divergent(point, sigma):
            exps[point] = e
    return exps


def _memo_key(basis):
    """The basis as (type, ((field, type, value), ...)), or None when a
    field value is unhashable.  The types keep equal values of different
    types (Fraction(1, 2) and 0.5) apart."""
    named = [(f.name, getattr(basis, f.name)) for f in fields(basis)]
    key = (type(basis), tuple((name, type(v), v) for name, v in named))
    try:
        hash(key)
    except TypeError:
        return None
    return key


def _gauss_rules(ad, nmax):
    """(points, sizes): expand's two rule sizes, k = 2 nmax + 4 and 4 nmax +
    8 of the adapter's expansion_rules, each a (norm, numerators) pair of
    (w, rows, part), part the slice of points at that rule's nodes, so f
    is read at all of them in one call; None where either size has none.

    expansion_rules(nmax, k) gives (norm, numerators), each a rule (x, w,
    rows) on the whole support at pearson's degree k, or None: sum w f(x)^2
    is ||f||^2, and with the norm rule's rows (members base..nmax) sum w
    (f - q rows)^2 the squared residual; sum w f(x) rows(x) of the
    numerator rule is int W* f phi_n, n = base..nmax."""
    pairs = [ad.expansion_rules(nmax, k) for k in (2 * nmax + 4, 4 * nmax + 8)]
    if None in pairs:
        return None
    nodes, sizes, at = [], [], 0
    for (norm, num) in pairs:
        rules = []
        for x, w, rows in (norm, num) if num is not norm else (norm,):
            w.flags.writeable = rows.flags.writeable = False    # cached: one copy for all
            nodes.append(x)
            rules.append((w, rows, slice(at, at + x.size)))
            at += x.size
        sizes.append((rules[0], rules[-1]))
    points = np.concatenate(nodes)
    points.flags.writeable = False
    return points, tuple(sizes)


def _checked(basis, nmax, tol):
    """(norms, rules): the closed-form norms of members base..nmax, once the
    basis's Gram report passes with every entry ok (BasisInvalid
    otherwise), and its _gauss_rules."""
    report = gram_matrix(basis, nmax, tol)
    if not report.passed or any(s != "ok" for s in report.entries.column("status")):
        raise BasisInvalid(report)
    # the diagonal entries come first
    norms = tuple(report.entries.column("expected")[:report.nmax - report.base + 1])
    return norms, _gauss_rules(_adapt(basis), nmax)


# a few hundred bases; at nmax 64 an entry holds about 0.4 MB of member rows
@functools.lru_cache(maxsize=256, typed=True)
def _verified(kind, values, nmax, tol):
    """_checked of the basis kind(field=value, ...), memoized per process,
    nmax and tol by type too (4.0 and True are not 4 and 1); a basis that
    fails raises again, with a fresh report, on every call."""
    return _checked(kind(**{name: v for name, _, v in values}), nmax, tol)


def _on_rules(target, rules, d):
    """(q, errors, residual^2, ||f||^2) of the target on both rule sizes,
    or None where they disagree: where ||f||^2 is not finite or moves by
    more than 1e-9 ||f||^2 (checked first, before any numerator is formed),
    or a numerator by more than 1e-9 entry_scale(||f||^2, d_n), the trees'
    own bounds.  The larger size gives the values, and each error is
    |q(k) - q(2k)| plus the rounding bound gram_matrix takes for a rule
    entry, 4 (K + N) eps sum_i |w_i f(x_i) rows(x_i)| / d_n for K rows at
    N nodes.  The squared residual is the sum on the norm rule where its
    two sizes agree to 1e-9 ||f||^2, and ||f||^2 - sum q_n d_n q_n (Bessel)
    where they do not: a kind's (f - s)^2 carries the prefactor's powers,
    which Legendre's rule integrates only algebraically."""
    points, ((norm_k, num_k), (norm, num)) = rules
    fx = target(points)

    def square(rule, q=None):
        w, rows, part = rule
        g = fx[part] if q is None else fx[part] - q @ rows
        return float(w @ (g * g))

    def numerators(rule):
        w, rows, part = rule
        return rows @ (w * fx[part])

    def rounding(rule):
        w, rows, part = rule
        return 4 * (len(d) + w.size) * _EPS * (np.abs(rows) @ np.abs(w * fx[part]))

    with np.errstate(over="ignore", invalid="ignore"):     # an overflow disagrees
        f2 = square(norm)
        if not (math.isfinite(f2) and abs(square(norm_k) - f2) <= _RTOL * f2):
            return None
        got = numerators(num)
        err = np.abs(got - numerators(num_k))
        if not np.all(err <= _RTOL * entry_scale(f2, d)):
            return None
        q = got / d
        r2 = square(norm, q)
        if not abs(square(norm_k, q) - r2) <= _RTOL * f2:
            r2 = f2 - float(q @ got)
        err += rounding(num)
    return q, err / d, max(r2, 0.0), f2


def expand(f, basis, nmax, tol=1e-7) -> ExpansionSeries:
    """Project f onto the basis members up to order nmax.

    f is a callable, or sampled (x, f(x)) data which is first interpolated
    (see barycentric_interpolant; the interpolation error is the caller's).
    The basis Gram matrix must pass with every entry status "ok"; finite
    families truncated by a cliff inside the requested range are refused.
    A basis that passed is not checked again for the same nmax and tol
    (_verified keeps its norms and Gauss rules); one that failed is, every
    time.

    A target whose scan (below) measures no exponent at a finite point is
    first read on the weight's own Gauss rules at two sizes (_gauss_rules),
    and the series is theirs where the sizes agree to the trees' bounds
    (_on_rules): no panel, and residual_converged.  Anywhere else the
    trees below run as if no rule had been tried.

    Every integral of the trees is an entry of a quadrature.integrate_gram
    tree, held to 1e-9 of a scale.  One tree samples f against the rows [f,
    phi_base..phi_nmax]: ||f||^2 at entry 0 to its own running value, else
    NonSquareIntegrable (at once when that value is not finite), and the
    numerators int W* f phi_n to entry_scale(||f||^2, d_n), d_n the Gram
    report's norms, else MaxDepthExceeded.  The squared residual, held to
    ||f||^2, starts on that tree's panels and is taken as it stands if it
    stays open (residual_converged says which).

    The trees' hints are the basis's plus the target's own exponents: one
    quadrature.target_exponents scan of f, at the origin, at the basis's
    finite hinted points and in its hinted tails, measures each e of
    |f| ~ |x - c|^e (see _target_hints for which join, and _joined for
    how).  Where it certifies that f^2 W* diverges at a finite point, f is
    refused at once with NonSquareIntegrable.  A target whose scan adds
    nothing (a smooth f, whose exponents are integers) runs on the basis's
    hints alone.  Both trees take one member's hints when none is
    negative, nor any finite e (None, a bare split, is no hint): the
    softening x = c +- t^m picked for a member exponent b makes f^2, f s
    and s^2 (exponents 0, b, 2b) all smooth in t.  Below 0 the endpoint
    sliver's mass is fitted with one exponent alone, which the other terms
    break: such a basis or target keeps three cold trees, ||f||^2, the
    numerators and the residual.
    """
    fn = _as_callable(f)
    ad = _adapt(basis)
    key = _memo_key(basis)
    norms, rules = _checked(basis, nmax, tol) if key is None else _verified(*key, nmax, tol)

    def target(x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y = np.asarray(fn(x), dtype=float)
        return y if y.shape == np.shape(x) else np.broadcast_to(y, np.shape(x))

    hinted = ad.interval(members=1)
    exps = _target_hints(target, ad, hinted)
    d = np.asarray(norms)
    if rules is not None and all(math.isinf(point) for point in exps):   # no finite e
        got = _on_rules(target, rules, d)
        if got is not None:
            q, err, r2, f_norm2 = got
            residual = math.sqrt(r2)
            rel = residual / math.sqrt(f_norm2) if f_norm2 > 0 else 0.0
            return ExpansionSeries(basis, (0.0,) * ad.base + tuple(q.tolist()), nmax,
                                   residual, rel, evals=rules[0].size,
                                   errors=(0.0,) * ad.base + tuple(err.tolist()))

    def square(g):
        """The sampler of int W* g^2: g against the row set [g]."""
        def sample(x):
            w, y = ad.weight(x), g(x)
            return w, y, y[None, :]
        return sample

    cost = [0, 0]       # the panels and evals of every tree below

    def tree(sample, interval, scale, start=None):
        out = integrate_gram(sample, interval, scale, start=start)
        cost[0] += out.panels
        cost[1] += out.evals
        return out

    rows = ad.rows(nmax)
    # a hinted tail is negative already, so only a finite e can unfuse
    fused = not any(e is not None and e < 0 for _, e in hinted.singularities + tuple(exps.items()))
    crossed = _joined(hinted if fused else ad.interval(0), exps, (1, 2))
    if fused:       # f against [f, phi_base..phi_nmax]: ||f||^2 is entry 0
        def sample(x):
            y = target(x)
            return ad.weight(x), y, np.concatenate((y[None, :], rows(x)))
        ff = tree(sample, crossed, lambda t: entry_scale(t[0], np.r_[t[0], d]))
    else:
        ff = tree(square(target), _joined(ad.interval(0), exps, (2, 2)),
                  lambda t: entry_scale(t, t))
    f_norm2 = max(float(ff.value[0]), 0.0)
    if not ff.converged[0]:
        raise NonSquareIntegrable(
            "int W* f^2 did not converge (estimate {!r} +- {!r} after {} panels, {} evals)"
            .format(float(ff.value[0]), float(ff.error[0]), *cost))
    num = ff if fused else tree(lambda x: (ad.weight(x), target(x), rows(x)),
                                _joined(hinted, exps, (1, 1)), entry_scale(f_norm2, d))
    if not num.converged.all():
        k = int(np.argmin(num.converged))
        open_ = QuadResult(float(num.value[k]), float(num.error[k]), False, False, *cost,
                           "budget")        # at the cost of every tree so far
        raise MaxDepthExceeded(open_, f"int W* f phi_n, n = {ad.base + k - fused},")
    q = num.value[int(fused):] / d
    coeffs = (0.0,) * ad.base + tuple(float(c) for c in q)
    errors = (0.0,) * ad.base + tuple((num.error[int(fused):] / d).tolist())

    res = tree(square(lambda x: target(x) - q @ rows(x)), crossed,
               max(f_norm2, 1e-300), num if fused else None)  # on num's panels
    residual = math.sqrt(max(float(res.value[0]), 0.0))
    rel = residual / math.sqrt(f_norm2) if f_norm2 > 0 else 0.0
    return ExpansionSeries(basis, coeffs, nmax, residual, rel, bool(res.converged.all()),
                           *cost, errors)


def reconstruct(series: ExpansionSeries, x):
    """Partial sum of the expansion at x, a block of points at a time: the
    member rows (by recurrence) times their coefficients, summed member by
    member so that a point's value does not depend on the rest of x."""
    ad = _adapt(series.basis)
    q = np.asarray(series.coefficients[ad.base:series.nmax + 1], dtype=float)
    rows = ad.rows(series.nmax)

    def partial_sum(xb):
        r = rows(xb)
        total = q[0] * r[0]
        for k in range(1, len(q)):
            total += q[k] * r[k]
        return total
    total = blockwise(partial_sum, x, ROWS_CHUNK)
    return float(total) if total.ndim == 0 else total
