"""Weighted least-squares expansion of a target function in a verified basis.

The coefficients are the classical projections

    q_n = int W* f phi_n / int W* phi_n^2

with W* the orthogonality weight of the basis (identically one for the
Legendre-type kinds).  The basis is checked by gram_matrix before any
coefficient is computed; a basis that fails, or whose members are not all
genuinely square-integrable up to the requested order, is refused.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _CHUNK
from .errors import (BasisInvalid, ConstraintViolation, MaxDepthExceeded,
                     NonSquareIntegrable)
from .quadrature import QuadResult, integrate, integrate_gram
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
    if np.unique(xs).size != xs.size:
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
    kind's base order are structurally zero)."""
    basis: object
    coefficients: tuple
    nmax: int
    residual: float          # absolute L2(W*) error of the partial sum
    residual_rel: float      # residual / ||f||


def _intervals(ad, members):
    """The basis's distinct quadrature intervals for integrands of the
    given member counts, in order.

    A kind's hints are its members' prefactor exponents times the count:
    0 for f^2 and 1 for f phi_n suit a regular target f, while a target
    that carries the prefactor itself (a member, a partial sum) needs the
    product hints, 2, which are tried next.  A family's hints are its
    weight's, the same for every count.
    """
    out = []
    for m in members:
        interval = ad.interval(m)
        if interval not in out:
            out.append(interval)
    return out


def expand(f, basis, nmax, tol=1e-7) -> ExpansionSeries:
    """Project f onto the basis members up to order nmax.

    f is a callable, or sampled (x, f(x)) data which is first interpolated
    (see barycentric_interpolant; the interpolation error is the caller's).
    The basis Gram matrix must pass with every entry status "ok"; finite
    families truncated by a cliff inside the requested range are refused.

    int W* f^2 is an adaptive integration with divergence detection.
    Every numerator int W* f phi_n then comes from one shared panel tree
    (quadrature.integrate_gram) that samples the weight, f and all members
    once per panel.  Each entry is held to 1e-9 sqrt(||f||^2 d_n), with d_n
    the closed-form norms of the Gram report, and MaxDepthExceeded is
    raised if one is still open at the panel budget.  _intervals gives the
    hints of both integrals.
    """
    fn = _as_callable(f)
    report = gram_matrix(basis, nmax, tol)
    if not report.passed or any(e.status != "ok" for e in report.entries):
        raise BasisInvalid(report)
    ad = _adapt(basis)
    norms = [e.expected for e in report.entries if e.n == e.m]
    rows = ad.rows(nmax)

    def weighted(g):
        """w * g(x), where a weight that underflows to 0 gives 0 even
        beside an infinite g (the far tail of a folded infinite interval)."""
        def h(x):
            w = ad.weight(x)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return np.where(w == 0.0, 0.0, w * g(x))
        return h

    def target(x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.broadcast_to(np.asarray(fn(x), dtype=float), np.shape(x))

    for interval in _intervals(ad, (0, 2)):
        ff = integrate(weighted(lambda x: target(x) ** 2), interval,
                       on_inconclusive="return")
        if ff.converged or ff.diverged:
            break
    if not ff.converged:
        raise NonSquareIntegrable(
            f"int W* f^2 did not converge (estimate {ff.value!r})")
    f_norm2 = max(ff.value, 0.0)

    def sample(x):
        w = ad.weight(x)
        fx, P = np.array(target(x)), rows(x)
        zero = np.asarray(w) == 0.0
        if zero.any():
            fx[zero] = 0.0
            P[:, zero] = 0.0
        return w, fx[None, :], P

    for interval in _intervals(ad, (1, 2)):
        num = integrate_gram(sample, interval, ([f_norm2], norms))
        if num.converged.all():
            break
    else:
        k = int(np.argmin(num.converged[0]))
        raise MaxDepthExceeded(QuadResult(float(num.value[0, k]),
                                          float(num.error[0, k]), False, False))
    q = num.value[0] / np.asarray(norms)
    coeffs = (0.0,) * ad.base + tuple(float(c) for c in q)

    res = integrate(weighted(lambda x: (target(x) - q @ rows(x)) ** 2),
                    ad.interval(members=0), on_inconclusive="return")
    residual = math.sqrt(max(res.value, 0.0))
    rel = residual / math.sqrt(f_norm2) if f_norm2 > 0 else 0.0
    return ExpansionSeries(basis, coeffs, nmax, residual, rel)


def reconstruct(series: ExpansionSeries, x):
    """Partial sum of the expansion at x: the coefficients times the
    basis's member rows (by recurrence), a block of points at a time."""
    ad = _adapt(series.basis)
    x_arr = np.asarray(x, dtype=float)
    flat = x_arr.ravel()
    q = np.asarray(series.coefficients[ad.base:series.nmax + 1], dtype=float)
    rows = ad.rows(series.nmax)
    total = np.concatenate([q @ rows(flat[i:i + _CHUNK])
                            for i in range(0, max(flat.size, 1), _CHUNK)])
    return float(total[0]) if x_arr.ndim == 0 else total.reshape(x_arr.shape)
