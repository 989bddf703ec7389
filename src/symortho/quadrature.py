"""Adaptive quadrature with singularity hints and certified divergence.

One engine does every panel integral: integrate_gram, an adaptive tree of
15-point Gauss-Kronrod panels (the Kronrod extension of 7-point Gauss)
that takes one function against a row set and splits, each round, every
panel holding more than its share of some open entry's error.  integrate
is one entry of it: f against a row of ones, each panel judged by
QUADPACK's error estimate.  Three kinds of preprocessing happen before
any panel is evaluated:

* the interval is cut at hinted interior points, so singular or kinked
  points always sit on panel boundaries and are never sampled;
* an algebraic endpoint singularity |x - c|^sigma is softened by the power
  substitution x = c + tau^m, with m picked so the transformed integrand is
  smooth (or nearly so) at tau = 0;
* infinite tails are folded to (0, 1/T] by x -> 1/t, which turns algebraic
  decay at infinity into an algebraic endpoint that the same softening
  machinery handles.

Divergence is never read from the panels.  It is certified from measured
exponents: the scan of log|f| along a geometric grid at a point
(target_exponents, exponent_scan) gives the exponent e of |f| ~ |x - c|^e,
and divergent says whether that exponent is integrable there;
grows_superalgebraically reads a tail that outgrows every power.  A tree
that stays open with no certificate is inconclusive.  Everything is
deterministic: no randomness, no thread-order dependence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MaxDepthExceeded

__all__ = ["QuadResult", "IntervalSpec", "GramQuad", "integrate", "integrate_gram", "divergent",
           "entry_scale", "exponent_scan", "target_exponents", "certifies_divergence",
           "grows_superalgebraically"]

# 15-point Kronrod nodes and weights with the embedded 7-point Gauss rule,
# the QUADPACK qk15 values to full double precision.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])

_NODES = np.concatenate((-_XGK[:7], _XGK[::-1]))
_WK = np.concatenate((_WGK[:7], _WGK[::-1]))
_WGF = np.zeros(15)
_WGF[[1, 13]] = _WG[0]
_WGF[[3, 11]] = _WG[1]
_WGF[[5, 9]] = _WG[2]
_WGF[7] = _WG[3]
_WKG = _WK - _WGF       # the Kronrod weights less the Gauss ones

_EPS = np.finfo(float).eps

# the tree's refinement policy
_RTOL = 1e-9
_MAX_DEPTH = 60
_MAX_PANELS = 4000
# integrate_gram starts each finite task as this many equal panels, the ones
# its first rounds of splits would make (a power of two), at this depth
_START_PANELS = 8
_START_DEPTH = _START_PANELS.bit_length() - 1


def entry_scale(a, b):
    """The scale of an entry between diagonals a and b, broadcast:
    sqrt|a| sqrt|b|, floored at 1e-150.  The roots are taken apart, since
    the product a b can overflow a float."""
    return np.maximum(np.sqrt(np.abs(a)) * np.sqrt(np.abs(b)), 1e-150)


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one integration: value, error estimate and status flags.

    converged and diverged are mutually exclusive; both False means the
    refinement budget ran out without a determination.  reason names the
    exit taken (None where no integral was taken):

      tol          the error rule was met
      odd-parity   the odd-parity shortcut, with nothing sampled
      certified    the tree stayed open and the exponent scan certifies
                   that the integral diverges (integrate)
      budget       no verdict when the splits ran out or every panel was
                   parked at the depth limit
      rule         a Gram entry from a classical Gauss rule, with no panel
    """

    value: float
    abs_error_estimate: float
    converged: bool
    diverged: bool
    panels: int = 0     # GK15 panels evaluated
    evals: int = 0      # integrand points sampled, endpoint-sliver probes included
    reason: str | None = None


@dataclass(frozen=True)
class IntervalSpec:
    """Integration domain plus singularity hints.

    Each hint is a (point, exponent) pair.  A finite point marks an interior
    or endpoint location where the integrand behaves like |x - point|^exponent
    (exponent None means: just split there).  A point of +-inf gives the
    algebraic behavior |x|^exponent of the integrand in that tail; leave the
    tail unhinted for super-algebraic decay.
    """

    lo: float
    hi: float
    singularities: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


def _samples(g, x):
    """g at the points x as a float array of x's shape (a scalar broadcasts)."""
    fx = np.asarray(g(x), dtype=float)
    if fx.shape != x.shape:
        fx = np.broadcast_to(fx, x.shape).astype(float)
    return fx


def _needs_soften(sigma) -> bool:
    # a point that is not integrable is left raw: the softening and sliver
    # formulas never divide by sigma + 1 = 0
    if sigma is None or divergent(0, sigma):
        return False
    if sigma < 0:
        return True
    return sigma < 3 and abs(sigma - round(sigma)) > 1e-12


def _soften_m(sigma) -> int:
    # want m*(sigma+1) - 1 comfortably nonnegative, integer if cheap; m0..m0+8
    # keeps the best m when an ulp of sigma moves m0 (-0.85 and the next
    # float below it both take 20)
    if sigma is None or sigma >= 0:
        m0 = 2
    else:
        m0 = max(2, math.ceil(1.8 / (sigma + 1.0)))
    m0 = min(m0, 64)
    best, best_score = m0, math.inf
    for m in range(m0, min(m0 + 9, 65)):
        t = m * (sigma + 1.0)
        score = abs(t - round(t))
        if score < best_score - 1e-15:
            best, best_score = m, score
    return best


def _soften(c, sign, sigma):
    """Change of variable x = c + sign * t^m, which smooths |x - c|^sigma
    at t = 0; returns the map (see _plan) and m."""
    m = _soften_m(sigma)

    def xmap(t):
        return c + sign * t ** m, lambda v: v * (m * t ** (m - 1))
    return xmap, m


_CUT = 2.0 ** -27


def _power_tail_mass(point_fn, anchor, sign, sigma, span):
    """Analytic mass of f ~ A |x-anchor|^sigma within u0 of the anchor.

    For sigma in (-1, 0) the integrand carries O(eps^(sigma+1)) mass inside
    the half-ulp neighborhood of a nonzero anchor, which pointwise float
    samples can never see; softening alone stalls there.  Sampling at
    displacements ~2^-27 |anchor| keeps the recomputed distances exact
    (the subtraction is lossless for nearby floats) so a two-term power
    law fit recovers that mass analytically, entry-wise when point_fn
    returns an array.  Returns (u0, value, err) or None when the samples do
    not cooperate.
    """
    u0 = _CUT * abs(anchor)
    if not 0.0 < 2.0 * u0 < abs(span):
        return None
    us, amps = [], []
    for frac in (1.0, 0.5, 0.25):
        x = anchor + sign * u0 * frac
        u = abs(x - anchor)
        fx = point_fn(x)
        if u <= 0.0 or not np.all(np.isfinite(fx)):
            return None
        us.append(u)
        amps.append(fx * u ** -sigma)
    (u_c, u1, u2), (a_c, a1, a2) = us, amps
    slope = (a1 - a2) / (u1 - u2)
    a0 = a2 - slope * u2
    value = (a0 * u_c ** (sigma + 1) / (sigma + 1)
             + slope * u_c ** (sigma + 2) / (sigma + 2))
    if not np.all(np.isfinite(value)):
        return None
    drift = abs(a0 + slope * u_c - a_c)     # curvature of the local amplitude
    err = drift * u_c ** (sigma + 1) / abs(sigma + 1) + 4.0 * _EPS * abs(value)
    return u_c, value, err


def _edge_task(point_fn, a, b, side, sigma):
    """Softened task at a singular finite endpoint, plus the analytic mass of
    the sliver too close to the anchor to sample, and whether it was fitted."""
    anchor = a if side == "left" else b
    sign = 1.0 if side == "left" else -1.0
    corr = (sigma is not None and sigma < 0 and anchor != 0.0
            and _power_tail_mass(point_fn, anchor, sign, sigma, b - a)) or None
    u_lo, ev, ee = corr or (0.0, 0.0, 0.0)
    xmap, m = _soften(anchor, sign, sigma)
    return (xmap, u_lo ** (1.0 / m), (b - a) ** (1.0 / m)), ev, ee, corr is not None


def _tail_task(T, side, tail_exp):
    """Fold [T, inf) (side=+1) or (-inf, -T] (side=-1) onto (0, 1/T]."""

    def fold(t):
        return side / t, lambda v: v / (t * t)

    if tail_exp is not None:
        sigma_t = -tail_exp - 2.0
        if _needs_soften(sigma_t):
            inner, m = _soften(0.0, 1.0, sigma_t)

            def xmap(tau):
                t, soft = inner(tau)
                x, unfold = fold(t)
                return x, lambda v: soft(unfold(v))
            return xmap, 0.0, (1.0 / T) ** (1.0 / m)
    return fold, 0.0, 1.0 / T


def _plan(point_fn, spec: IntervalSpec):
    """Turn (interval, hints) into a list of finite smooth-ish tasks.

    A task is (xmap, a, b): the integral over [a, b] of f(x(t)) dx/dt,
    where xmap(t) returns x(t) and a function that multiplies values at
    x(t) by dx/dt; xmap None means x = t.  point_fn evaluates the
    integrand at one point, for the analytic endpoint-sliver masses, which
    are returned summed with their error, and with whether any was fitted.
    """
    finite_hints = {}
    tail_hi = tail_lo = None
    for point, exponent in spec.singularities:
        if point == math.inf:
            tail_hi = exponent
        elif point == -math.inf:
            tail_lo = exponent
        else:
            finite_hints[float(point)] = exponent

    lo, hi = spec.lo, spec.hi
    cuts = sorted(p for p in finite_hints if lo < p < hi)
    scale = max([1.0] + [abs(p) for p in cuts]
                + [abs(e) for e in (lo, hi) if math.isfinite(e)])
    T = 2.0 * scale

    points = []
    if lo == -math.inf:
        points.append(-T)
    else:
        points.append(lo)
    points.extend(c for c in cuts if points[-1] < c)
    if hi == math.inf:
        if points[-1] < T:
            points.append(T)
    elif points[-1] < hi:
        points.append(hi)

    tasks, fitted = [], False
    extra_value = extra_err = 0.0
    if lo == -math.inf:
        tasks.append(_tail_task(T, -1, tail_lo))
    for c, d in zip(points[:-1], points[1:]):
        sc = finite_hints.get(c)
        sd = finite_hints.get(d)
        pieces = [(c, d)]
        if _needs_soften(sc) and _needs_soften(sd):
            mid = 0.5 * (c + d)
            pieces = [(c, mid), (mid, d)]
        for (a, b) in pieces:
            if _needs_soften(finite_hints.get(a)):
                task, ev, ee, sliver = _edge_task(point_fn, a, b, "left", finite_hints[a])
            elif _needs_soften(finite_hints.get(b)):
                task, ev, ee, sliver = _edge_task(point_fn, a, b, "right", finite_hints[b])
            else:
                task, ev, ee, sliver = (None, a, b), 0.0, 0.0, False
            fitted |= sliver
            tasks.append(task)
            extra_value += ev
            extra_err += ee
    if hi == math.inf:
        tasks.append(_tail_task(T, +1, tail_hi))
    return tasks, extra_value, extra_err, fitted


def _mirror_hints(sings):
    out = {}
    for point, exponent in sings:
        key = math.inf if point in (math.inf, -math.inf) else abs(float(point))
        if key not in out or out[key] is None:
            out[key] = exponent
    return tuple(out.items())


def integrate(f, interval, *, atol=1e-10, rtol=_RTOL, parity=None,
              on_inconclusive="raise") -> QuadResult:
    """Integrate a vectorized callable over an interval with hints.

    f must accept an ndarray of points and return an ndarray of values.
    The integral is one integrate_gram entry, f against a row of ones, on
    a tree that starts every task as one panel and judges each panel by
    QUADPACK's error estimate (_gk_blocks), which an unhinted endpoint
    singularity keeps open where |Kronrod - Gauss| would close it.
    Refinement stops once the error estimate drops below max(atol, rtol *
    |value|), the value read from the running total.  parity may declare the integrand "odd" or
    "even" on a symmetric interval; an odd integrand returns exactly zero
    without sampling, an even one is folded onto the right half.

    A tree that stays open is diverged only where a certificate says so:
    one exponent scan of f (_certificate) at the origin, at the hinted
    points and in both tails of an infinite interval.  A converged tree
    takes no scan, so a constant on (0, 1) costs one panel and 15 points.
    Otherwise MaxDepthExceeded is raised (or, with on_inconclusive="return",
    a QuadResult with both flags False is returned).  The result counts
    the GK15 panels evaluated and the integrand points sampled (15 per
    panel, one per endpoint-sliver probe and the certificate's scan); the
    odd shortcut samples none, and an even fold reports its half-line's
    counts and reason, the exit it took (see QuadResult).
    """
    if not isinstance(interval, IntervalSpec):
        interval = IntervalSpec(*interval)

    if parity is not None:
        if interval.lo != -interval.hi:
            raise ValueError("parity shortcut needs a symmetric interval")
        if parity == "odd":
            return QuadResult(0.0, 0.0, True, False, reason="odd-parity")
        if parity == "even":
            half = IntervalSpec(0.0, interval.hi,
                                _mirror_hints(interval.singularities))
            res = integrate(f, half, atol=atol / 2, rtol=rtol, on_inconclusive=on_inconclusive)
            return QuadResult(2.0 * res.value, 2.0 * res.abs_error_estimate,
                              res.converged, res.diverged, res.panels, res.evals,
                              res.reason)
        raise ValueError(f"parity must be 'odd', 'even' or None, not {parity!r}")

    def sample(x):
        return _samples(f, x), 1.0, np.ones((1, x.size))

    tree = integrate_gram(sample, interval,
                          lambda total: np.maximum(atol, rtol * np.abs(total)) / _RTOL, _quad=True)
    value, error = float(tree.value[0]), float(tree.error[0])
    if tree.converged[0]:
        return QuadResult(value, error, True, False, tree.panels, tree.evals, "tol")
    scanned = []
    certified = _certificate(lambda x: scanned.append(x.size) or f(x), interval)
    partial = QuadResult(value, error, False, certified, tree.panels,
                         tree.evals + sum(scanned), "certified" if certified else "budget")
    if certified or on_inconclusive == "return":
        return partial
    raise MaxDepthExceeded(partial)


def _certificate(f, interval) -> bool:
    """Whether one exponent scan of f certifies that its integral over the
    interval diverges: at the origin, at the points hinted with an exponent
    and in every infinite tail, hinted or not, a side's measured exponent e
    (_measured) is divergent there, or cannot be told from -1 within its
    spread (certifies_divergence with the hint e, then -1)."""
    hinted = (p for p, e in interval.singularities if e is not None)
    tails = (end for end in (interval.lo, interval.hi) if math.isinf(end))
    points = tuple(dict.fromkeys((0.0, *hinted, *tails)))
    return any(certifies_divergence(point, e, spread, hint)
               for point, (e, spread) in _measured(f, interval, points).items()
               for hint in (e, -1.0))


# the exponent scan's grid: x = c +- 2^-k at a finite point and x = +-2^k in
# a tail, k = _SCAN_LO.._SCAN_HI (a tail's top bounded by the degree)
_SCAN_LO, _SCAN_HI = 8, 19
_SCAN_KS = np.arange(_SCAN_LO, _SCAN_HI + 1, dtype=float)
_SCAN_STEPS = 2.0 ** -_SCAN_KS
# the widest spread between the last two slopes that still tells a hinted
# exponent from -1: hints differ from -1 by 0 or by at least 0.002 when the
# shape parameters have three decimals
_SCAN_SPREAD = 1e-3
_SCAN_FLOOR = 1e-9      # rounding of the logs, in units of the exponent


@functools.lru_cache(maxsize=256)
def _scan_sides(interval, points, degree):
    """The sides of the given points (a tuple) along the exponent scan's
    grid, as (points, x, steps): a side's point, its row x of grid points,
    and the change of log|x - c| (log|x| in a tail) from one grid point to
    the next, read-only and memoized per interval.  A finite c is
    approached from each side inside the interval, x = c +- 2^-k, and a
    tail along x = +-2^k, k = 8..19.  In a tail the grid's top is lowered
    to 1000 // degree (and the grid shifted down with it), so that members
    of degree up to `degree` stay finite there."""
    top = min(_SCAN_HI, 1000 // max(int(degree), 1))
    near, tails = [], []
    for point in points:
        if math.isinf(point):
            tails.append(point)
            continue
        for sign in (1.0, -1.0):
            ends = sorted((point + sign * 2.0 ** -_SCAN_LO, point + sign * 2.0 ** -_SCAN_HI))
            if interval.lo < ends[0] and ends[1] < interval.hi:
                near.append((point, sign))
    c, s = np.array(near, dtype=float).reshape(-1, 2).T
    x = c[:, None] + s[:, None] * _SCAN_STEPS
    if tails:
        x = np.concatenate((x, np.copysign(1.0, tails)[:, None]
                            * 2.0 ** (_SCAN_KS - (_SCAN_HI - top))))
    steps = np.array([-math.log(2.0)] * len(near) + [math.log(2.0)] * len(tails))
    x.flags.writeable = steps.flags.writeable = False
    return tuple(point for point, _ in near) + tuple(tails), x, steps


def exponent_scan(log_sample, interval, degree):
    """Measured local exponents of every product w P_i P_j at the hinted
    points of an interval, from one sample of the rows per side.

    Each point with an exponent hint is approached along the scan's
    geometric grid (_scan_sides), whose tail grid `degree` bounds.
    log_sample(x) returns (log w, log|P|):
    the weight's log at the points and the (K, len(x)) logs of the members.
    The slope of log|w P_i P_j| = log w + log|P_i| + log|P_j| against
    log|x - c| (log|x| in a tail) between successive grid points estimates
    the exponent sigma of |w P_i P_j| ~ |x - c|^sigma.  Returns one
    (point, sigma, spread) per side, where sigma (K, K) is the last slope
    and spread (K, K) its distance from the slope before; both are nan for
    a pair with a sample that is not finite.
    """
    hinted = tuple(point for point, exponent in interval.singularities if exponent is not None)
    out = []
    for point, x, step in zip(*_scan_sides(interval, hinted, int(degree))):
        with np.errstate(all="ignore"):
            lw, lp = log_sample(x)
            lw = np.broadcast_to(np.asarray(lw, dtype=float), x.shape)
            lp = np.asarray(lp, dtype=float)
            sw = np.diff(lw) / step                 # (J - 1,) weight slopes
            sp = np.diff(lp, axis=1) / step         # (K, J - 1) member slopes
            sigma = sw[-1] + sp[:, -1, None] + sp[None, :, -1]
            spread = np.abs(sigma - (sw[-2] + sp[:, -2, None] + sp[None, :, -2]))
        finite = np.isfinite(lp).all(axis=1) & np.isfinite(lw).all()
        bad = ~(finite[:, None] & finite[None, :])
        sigma[bad] = spread[bad] = math.nan
        out.append((point, sigma, spread))
    return out


def target_exponents(f, interval):
    """The measured exponents e of |f| ~ |x - c|^e (|x|^e in a tail) of a
    target f at the origin, at the interval's other finite points hinted
    with an exponent and in its hinted tails (_measured): a hint softens an
    integrand only when it matches the true exponent."""
    hints = dict(interval.singularities)
    return _measured(f, interval, (0.0,) * (0.0 not in hints)
                     + tuple(p for p, e in hints.items() if e is not None))


def _measured(f, interval, points):
    """The measured exponents e of |f| ~ |x - c|^e (|x|^e in a tail) at the
    given points (a tuple), from one call of f on every side's scan grid
    (_scan_sides).  A side's spread is the distance of its last slope of
    log|f| from the slope before, as exponent_scan takes it, and its e is
    2 last - before, which cancels a term of the slopes linear in |x - c|
    (in 1/|x| in a tail).  Returns {point: (e, spread)} for the points
    whose every side is finite and nonzero on its whole grid, with a spread
    of at most _SCAN_SPREAD, and whose sides agree within their spreads; e
    is the sides' mean and spread the widest."""
    points, x, steps = _scan_sides(interval, points, 0)
    if not points:
        return {}
    with np.errstate(all="ignore"):
        logs = np.log(np.abs(_samples(f, x.ravel()))).reshape(x.shape)
        before = ((logs[:, -2] - logs[:, -3]) / steps).tolist()
        last = ((logs[:, -1] - logs[:, -2]) / steps).tolist()
    read = np.isfinite(logs).all(axis=1).tolist()
    sides = {}      # point: [(e, spread) or None] of its one or two sides
    for point, ok, s0, s1 in zip(points, read, before, last):
        sides.setdefault(point, []).append((2 * s1 - s0, abs(s1 - s0)) if ok else None)
    out = {}
    for point, reads in sides.items():
        if None not in reads:
            (e0, spread0), (e1, spread1) = reads[0], reads[-1]
            spread = max(spread0, spread1)
            if spread <= _SCAN_SPREAD and abs(e1 - e0) <= spread0 + spread1 + _SCAN_FLOOR:
                out[point] = ((e0 + e1) / 2, spread)
    return out


def divergent(point, exponent):
    """Whether |x - point|^exponent (|x|^exponent at +-inf), exponent a
    number or an array, is not integrable there: exponent >= -1 in a tail,
    <= -1 at a finite point.  Every exponent verdict reads this rule."""
    return exponent >= -1.0 if math.isinf(point) else exponent <= -1.0


# the growth scan's grid in a tail, |x| = 2^k, k = 0.._SCAN_HI, up to the top
# of the exponent scan's tail grid; a row is read at least to |x| = 2^4,
# where a Gaussian weight and a target that outgrows it are still finite
_GROWTH_GRID = 2.0 ** np.arange(_SCAN_HI + 1)
_GROWTH_REACH = 5


def grows_superalgebraically(logs):
    """Whether g grows faster than any power along _GROWTH_GRID, from one
    row of the logs of g there per tail, read up to its first sample that
    is not finite: the row is finite at least to |x| = 16, every rise of
    log g from one grid point to the next up to there is positive and at
    least twice the one before, as for e^(c |x|^a) with a >= 1, where a
    power's rises are equal, and the row ends at the grid's top or where g
    overflows to +inf.  Such a g is not integrable in its tail.  A row that
    turns down, ends before |x| = 16, or ends in a sample that underflows
    or is nan never certifies.  Returns one bool per row."""
    logs = np.asarray(logs, dtype=float)
    out = []
    for row in logs.reshape(-1, logs.shape[-1]):
        stop = np.flatnonzero(~np.isfinite(row))
        reach = stop[0] if stop.size else len(row)
        rise = np.diff(row[:reach])
        out.append(reach >= _GROWTH_REACH and (reach == len(row) or row[reach] == math.inf)
                   and rise[0] > 0 and bool((rise[1:] >= 2 * rise[:-1]).all()))
    return np.array(out).reshape(logs.shape[:-1])


def divergence_mask(point, sigma, spread, hint):
    """Where a measured exponent confirms that |f| ~ |x - point|^hint is
    not integrable at the point: hint is divergent there, the spread is
    narrow enough to tell hint from -1, and sigma agrees with hint within
    the spread.  A nan sigma or spread never certifies.  sigma and spread
    are a scan side's arrays (or scalars), hint one exponent or an array."""
    return (divergent(point, hint) & (spread <= _SCAN_SPREAD)
            & (np.abs(sigma - hint) <= spread + _SCAN_FLOOR))


def certifies_divergence(point, sigma, spread, hint):
    """divergence_mask of one exponent, as a bool; no hint never certifies."""
    return hint is not None and bool(divergence_mask(point, sigma, spread, hint))


@dataclass(frozen=True, eq=False)
class GramQuad:
    """Outcome of integrate_gram, one entry per row of its row set: K-vectors
    of values, summed errors and the entries that met the stopping rule,
    and the GK15 panels evaluated and integrand points sampled (15 per
    panel plus one per endpoint-sliver probe), as QuadResult counts them.
    mesh, for a tree started from this one: the interval, tasks and final
    panels (task, lo, hi, depth), retired ones included; None where the
    tree fitted an endpoint sliver or retired a non-finite one."""

    value: np.ndarray
    error: np.ndarray
    converged: np.ndarray
    panels: int
    evals: int
    mesh: tuple | None = field(default=None, repr=False)


def _gk_blocks(wdx, f, R, h, quadpack=False):
    """Kronrod sums and their errors on a batch of panels.

    wdx (np, 15) is weight times dx/dt at the nodes, f (np, 15) the left
    function and R (np, 15, K) the row set there, and h (np,) the
    half-widths.  The sums are (f w) R with the Kronrod weights, the
    weight taken first.  The error of each entry is |Kronrod - Gauss|,
    floored at the rounding level of its absolute mass: inf where the sums
    overflow, whose difference inf - inf is nan.  With quadpack it is
    QUADPACK's qk15 estimate before that floor: resasc min(1, (200 |Kronrod
    - Gauss| / resasc)^1.5), resasc the Kronrod sum of the integrand's
    distance from its mean, which stays large on a panel where the two
    rules agree by chance, as next to an unhinted endpoint singularity.  A
    panel with a non-finite sample gets value 0 and error inf.
    """
    finite = (np.isfinite(wdx).all(axis=1) & np.isfinite(f).all(axis=1)
              & np.isfinite(R).all(axis=(1, 2)))
    whole = finite.all()
    if not whole:
        wdx = np.where(finite[:, None], wdx, 0.0)
        f = np.where(finite[:, None], f, 0.0)
        R = np.where(finite[:, None, None], R, 0.0)
    wdx = wdx * h[:, None]
    fwk = (f * (wdx * _WK))[:, None, :]
    kron = (fwk @ R)[:, 0]
    delta = np.abs(((f * (wdx * _WKG))[:, None, :] @ R)[:, 0])
    mass = (np.abs(fwk) @ np.abs(R))[:, 0]
    if quadpack:
        resasc = np.einsum("j,njk->nk", _WK, np.abs(
            (f * wdx)[:, :, None] * R - 0.5 * kron[:, None, :]))
        with np.errstate(divide="ignore", invalid="ignore"):
            grown = resasc * np.minimum(1.0, (200.0 * delta / resasc) ** 1.5)
        delta = np.where((resasc != 0.0) & (delta != 0.0), grown, delta)
    err = np.fmax(delta, 50.0 * _EPS * mass)
    if not whole:
        err[~finite] = math.inf
    return kron, err, finite


def _halves(rows):
    """The two halves of each panel row (task, lo, hi, depth), lower first."""
    out = np.repeat(rows, 2, axis=0)
    mid = 0.5 * (rows[:, 1] + rows[:, 2])
    out[::2, 2] = mid
    out[1::2, 1] = mid
    out[:, 3] += 1
    return out


def integrate_gram(sample, interval, scale, *, start=None, _quad=False) -> GramQuad:
    """Every integral int w f R_k dx of one function against a row set, on
    one adaptive GK15 panel tree.

    sample(x) returns (w, f, R): the weight and the function at the points
    x (either may be a scalar, which broadcasts) and the (K, len(x)) values
    of the row set.  Each panel samples them once and adds the K sums
    (f w) R with the Kronrod weights: f times the weight first, so that a
    decaying weight tames a product f R_k that alone would overflow.  The
    Gauss sums give each entry's error.  Where w is 0, f and the rows count as 0, and so does
    w dx/dt, so a weight that underflows in a far tail hides members that
    overflow there and a change of variable whose dx/dt overflows.  Cuts,
    softening substitutions, tail folding and analytic endpoint slivers are
    planned once per tree (_plan).

    Each finite task starts as 8 equal panels of its own variable, at depth
    3, since the first rounds would split every panel of a smooth integrand
    anyway.  A folded tail starts whole, so the tree samples the far tail
    only where its error asks for it (farther out, the weight underflows
    while the members overflow).  Every panel splits into its two halves,
    and every round samples the new panels of all tasks in one call.

    start, a GramQuad of a tree on the same interval that fitted no
    endpoint sliver, starts the tree from its final panels and planned
    tasks instead; a start that kept no mesh (see GramQuad) or ran on
    another interval plans and starts cold.

    _quad is integrate's tree: each finite task starts as one panel, and
    each panel's error is QUADPACK's estimate (_gk_blocks).

    Entry k meets the stopping rule once its summed error is at most
    1e-9 scale[k].  scale is an array, which broadcasts to the K entries,
    or a function of the running totals that returns one.  A scale that is
    not finite is no scale: its entry neither closes nor drives splits, and
    comes back unconverged.  Each round splits every panel holding more
    than its share (1 / leaves) of some open entry's error.  The halvings
    are bounded by the panel budget _MAX_PANELS; entries still open then
    come back unconverged.  A non-finite sample in a sliver at the
    floating-point resolution limit retires the sliver with half its
    parent's error.

    A panel whose error stays below every share it could still be held to
    is folded into running totals, so only splittable panels keep their
    sums (the mesh keeps every panel's bounds); the start panels and the
    panel budget bound how many do.
    """
    def sampled(x):
        w, f, R = sample(x)
        if not np.asarray(w).all():
            zero = np.asarray(w) == 0.0
            f, R = np.where(zero, 0.0, f), np.where(zero, 0.0, R)
        return w, f, R

    probes = []

    def point_fn(x):
        probes.append(x)
        with np.errstate(all="ignore"):
            w, f, R = sampled(np.array([x]))
            return np.ravel(w)[0] * (np.ravel(f)[0] * np.asarray(R, dtype=float)[:, 0])

    mesh = start.mesh if start is not None else None
    if mesh and mesh[0] == interval:
        (_, tasks, starts), extra_value, extra_err, fitted = mesh, 0.0, 0.0, False
    else:
        (tasks, extra_value, extra_err, fitted), starts = _plan(point_fn, interval), None
    # _plan puts the lower tail first and the upper tail last, each on t in
    # (0, 1/T] with x = +-inf at t = 0
    tails = {k for k, end in ((0, interval.lo), (len(tasks) - 1, interval.hi))
             if math.isinf(end)}
    if starts is None:
        # a finite task starts as _START_PANELS equal panels by halving (as
        # one panel for _quad), a tail whole
        depth = 0 if _quad else _START_DEPTH
        starts = []
        for k, (_, a, b) in enumerate(tasks):
            if not a < b:
                continue
            if k in tails:
                starts.append((k, a, b, 0.0))
                continue
            edges = [float(a), float(b)]
            for _ in range(depth):
                edges = [y for x, z in zip(edges, edges[1:])
                         for y in (x, 0.5 * (x + z))] + edges[-1:]
            starts += [(k, x, z, depth) for x, z in zip(edges, edges[1:])]
    mapped = [(k, xmap) for k, (xmap, _, _) in enumerate(tasks) if xmap is not None]
    rule = functools.partial(_gk_blocks, quadpack=True) if _quad else _gk_blocks

    def evaluate(panels):
        """Sums, errors and finiteness of the given panels (rows of task,
        lo, hi, depth), from one sample call."""
        task, lo, hi = panels[:, 0], panels[:, 1], panels[:, 2]
        h = 0.5 * (hi - lo)
        t = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
        x = t.copy()
        jacobians = []
        with np.errstate(all="ignore"):
            for k, xmap in mapped:
                sel = task == k
                if sel.any():
                    xk, jacobian = xmap(t[sel].ravel())
                    x[sel] = xk.reshape(-1, 15)
                    jacobians.append((sel, jacobian))
            w, f, R = sampled(x.ravel())
            wdx = np.full(x.size, w, dtype=float).reshape(-1, 15)
            # where w is 0 so is w dx/dt, also where a tail's dx/dt
            # overflows (t^2m underflows to 0 in its farthest panels)
            zero = wdx == 0.0 if tails else None
            for sel, jacobian in jacobians:
                wdx[sel] = jacobian(wdx[sel].ravel()).reshape(-1, 15)
            if tails:
                wdx[zero] = 0.0
            f = np.full(x.size, f, dtype=float).reshape(-1, 15)
            R = np.asarray(R, dtype=float)      # (K, 15 np) -> (np, 15, K)
            return rule(wdx, f, R.reshape(len(R), -1, 15).transpose(1, 2, 0), h)

    # live panels: rows of (task, lo, hi, depth), their sums and errors
    meta = np.array(starts, dtype=float)
    first = len(meta)
    val, err = evaluate(meta)[:2]
    acc_val = np.full(val.shape[1], extra_value, dtype=float)
    acc_err = np.full(val.shape[1], extra_err, dtype=float)
    kept, lost = [], False      # the retired panels' rows, for the mesh
    retired = 0
    panels, splits = first, 0       # panels evaluated, halvings made
    max_leaves = first + _MAX_PANELS + 1

    # an empty sum is left out: the accumulators hold no -0.0, so its +0.0 changes no bit
    while True:
        total = acc_val + val.sum(axis=0)
        errs = acc_err + err.sum(axis=0)
        target = np.full(total.shape, _RTOL * (scale(total) if callable(scale) else scale))
        # a scale that is not finite is no scale: never met
        held = np.isfinite(target)
        target[~held] = math.nan
        every = held.all()
        open_ = held & ~(errs <= target)
        if not open_.any() or splits >= _MAX_PANELS or not len(meta):
            break
        score = (err[:, open_] / target[open_]).max(axis=1)
        if score.max() <= 0.0:
            break       # what is left open sits in retired panels
        pick = np.flatnonzero(score > 1.0 / (len(meta) + retired))
        if not pick.size:
            pick = np.array([np.argmax(score)])
        pick = pick[np.argsort(-score[pick], kind="stable")][:_MAX_PANELS - splits]
        keep = np.ones(len(meta), dtype=bool)
        keep[pick] = False
        # panels at the depth limit keep their error on the books
        deep = meta[pick, 3] >= _MAX_DEPTH
        if deep.any():
            parked, pick = pick[deep], pick[~deep]
            acc_val += val[parked].sum(axis=0)
            acc_err += err[parked].sum(axis=0)
            retired += len(parked)
            kept.append(meta[parked])

        children = _halves(meta[pick])
        if pick.size:
            c_val, c_err, c_ok = evaluate(children)
        else:
            c_val, c_err, c_ok = val[:0], err[:0], np.ones(0, dtype=bool)
        panels += len(children)
        splits += len(pick)

        if not c_ok.all():
            # a non-finite sample in a sliver at the resolution limit: retire
            # the sliver with half its parent's error
            c_lo, c_hi = children[:, 1], children[:, 2]
            parent_err = np.repeat(err[pick], 2, axis=0)
            sliver = ~c_ok & (c_hi - c_lo <= 64.0 * _EPS * np.maximum(
                1.0, np.maximum(abs(c_lo), abs(c_hi))))
            sliver &= np.isfinite(parent_err).all(axis=1)
            if sliver.any():
                acc_err += 0.5 * parent_err[sliver].sum(axis=0)
                retired += int(sliver.sum())
                lost = True     # a restart would sample the sliver again
                children, c_val, c_err = children[~sliver], c_val[~sliver], c_err[~sliver]

        meta = np.concatenate((meta[keep], children))
        val = np.concatenate((val[keep], c_val))
        err = np.concatenate((err[keep], c_err))

        # panels no share can ever reach again leave the live set; an entry
        # held to nothing counts 0 (its error can be inf)
        ratio = (err / target if every else
                 np.divide(err, target, out=np.zeros_like(err), where=held))
        done = ratio.max(axis=1) <= 1.0 / max_leaves
        if done.any():
            acc_val += val[done].sum(axis=0)
            acc_err += err[done].sum(axis=0)
            retired += np.count_nonzero(done)
            kept.append(meta[done])
            meta, val, err = meta[~done], val[~done], err[~done]

    mesh = None if lost or fitted else (interval, tasks, np.concatenate(kept + [meta]))
    return GramQuad(total, errs, errs <= target, panels, 15 * panels + len(probes), mesh)
