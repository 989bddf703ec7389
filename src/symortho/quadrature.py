"""Adaptive quadrature with singularity hints and divergence detection.

The base rule is the 15-point Kronrod extension of 7-point Gauss, applied on
a worst-panel-first refinement queue.  Three kinds of preprocessing happen
before any panel is evaluated:

* the interval is cut at hinted interior points, so singular or kinked
  points always sit on panel boundaries and are never sampled;
* an algebraic endpoint singularity |x - c|^sigma is softened by the power
  substitution x = c + tau^m, with m picked so the transformed integrand is
  smooth (or nearly so) at tau = 0;
* infinite tails are folded to (0, 1/T] by x -> 1/t, which turns algebraic
  decay at infinity into an algebraic endpoint that the same softening
  machinery handles.

A split panel's two halves are sampled together: one call of the
integrand on the 30 nodes of both children, then the 15-point rule on each
half, so the panels, their order and every value and error are those of
one call per child, at half the per-call cost.

Divergence is declared when refinement fails to bring the error estimate
down while the running total keeps growing with non-decaying increments.
Everything is deterministic: no randomness, no thread-order dependence.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MaxDepthExceeded

__all__ = ["QuadResult", "IntervalSpec", "GramQuad", "integrate", "integrate_gram",
           "exponent_scan", "certifies_divergence"]

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

_EPS = np.finfo(float).eps

# refinement policy shared by integrate and integrate_gram
_RTOL = 1e-9
_MAX_DEPTH = 60
_MAX_PANELS = 4000
# integrate_gram starts each finite task as this many equal panels, the ones
# its first rounds of splits would make (a power of two)
_START_PANELS = 8


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one integration: value, error estimate and status flags.

    converged and diverged are mutually exclusive; both False means the
    refinement budget ran out without a determination.  reason names the
    exit integrate took (None for a result it did not make):

      tol          the error rule was met
      odd-parity   the odd-parity shortcut, with nothing sampled
      runaway      the total grew past 1e12 times its first value
      growth       the growth record of the total looked divergent
      depth-chain  a panel at the depth limit was non-finite, or the growth
                   record looked divergent when one got there
      blowup       a non-finite child from depth 8 on
      budget       no verdict when the splits ran out or every panel was
                   parked at the depth limit
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


def _gk_rule(fx, a, b):
    """The 15-point rule on [a, b] from the samples fx at its nodes;
    returns (value, error, finite)."""
    if not np.all(np.isfinite(fx)):
        return 0.0, math.inf, False
    h = 0.5 * (b - a)
    resk = h * float(_WK @ fx)
    resg = h * float(_WGF @ fx)
    resabs = abs(h) * float(_WK @ np.abs(fx))
    mean = resk / (b - a)
    resasc = abs(h) * float(_WK @ np.abs(fx - mean))
    delta = abs(resk - resg)
    if resasc != 0.0 and delta != 0.0:
        err = resasc * min(1.0, (200.0 * delta / resasc) ** 1.5)
    else:
        err = delta
    err = max(err, 50.0 * _EPS * resabs)
    return resk, err, True


def _nodes(a, b):
    return 0.5 * (a + b) + 0.5 * (b - a) * _NODES


def _gk_panel(g, a, b):
    """Apply the 15-point rule on [a, b]; returns (value, error, finite)."""
    return _gk_rule(_samples(g, _nodes(a, b)), a, b)


def _gk_pair(g, a, mid, b):
    """_gk_panel on [a, mid] and on [mid, b] from one call of g on the 30
    nodes of both halves."""
    fx = _samples(g, np.concatenate((_nodes(a, mid), _nodes(mid, b))))
    return _gk_rule(fx[:15], a, mid), _gk_rule(fx[15:], mid, b)


def _needs_soften(sigma) -> bool:
    # a point with sigma <= -1 is not integrable: it is left raw, so the
    # divergence detector can see the integral grow (and the softening and
    # sliver formulas never divide by sigma + 1 = 0)
    if sigma is None or sigma <= -1.0 + 1e-12:
        return False
    if sigma < 0:
        return True
    return sigma < 3 and abs(sigma - round(sigma)) > 1e-12


def _soften_m(sigma) -> int:
    # want m*(sigma+1) - 1 comfortably nonnegative, integer if cheap
    if sigma is None or sigma >= 0:
        m0 = 2
    else:
        m0 = max(2, math.ceil(1.8 / (sigma + 1.0)))
    m0 = min(m0, 64)
    best, best_score = m0, math.inf
    for m in range(m0, min(m0 + 8, 65)):
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
    """Softened task at a singular finite endpoint, plus the analytic
    correction for the sliver too close to the anchor to sample."""
    anchor = a if side == "left" else b
    sign = 1.0 if side == "left" else -1.0
    u_lo, extra_value, extra_err = 0.0, 0.0, 0.0
    if sigma is not None and sigma < 0 and anchor != 0.0:
        corr = _power_tail_mass(point_fn, anchor, sign, sigma, b - a)
        if corr is not None:
            u_lo, extra_value, extra_err = corr
    xmap, m = _soften(anchor, sign, sigma)
    return (xmap, u_lo ** (1.0 / m), (b - a) ** (1.0 / m)), extra_value, extra_err


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
    are returned summed with their error.
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

    tasks = []
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
                task, ev, ee = _edge_task(point_fn, a, b, "left", finite_hints[a])
            elif _needs_soften(finite_hints.get(b)):
                task, ev, ee = _edge_task(point_fn, a, b, "right", finite_hints[b])
            else:
                task, ev, ee = (None, a, b), 0.0, 0.0
            tasks.append(task)
            extra_value += ev
            extra_err += ee
    if hi == math.inf:
        tasks.append(_tail_task(T, +1, tail_hi))
    return tasks, extra_value, extra_err


def _compose(f, xmap):
    """The integrand of one task in its own variable."""
    if xmap is None:
        return f

    def g(t):
        # a softened map can reach its endpoint in floats (t**m underflows
        # to 0), where x or dx/dt is inf: the panel rule reads the result as
        # a non-finite sample, as integrate_gram does, with no warning
        with np.errstate(all="ignore"):
            x, jacobian = xmap(t)
            return jacobian(f(x))
    return g


def _mirror_hints(sings):
    out = {}
    for point, exponent in sings:
        key = math.inf if point in (math.inf, -math.inf) else abs(float(point))
        if key not in out or out[key] is None:
            out[key] = exponent
    return tuple(out.items())


def integrate(f, interval, *, atol=1e-10, rtol=_RTOL, max_panels=_MAX_PANELS,
              parity=None, on_inconclusive="raise") -> QuadResult:
    """Integrate a vectorized callable over an interval with hints.

    f must accept an ndarray of points and return an ndarray of values.
    Refinement stops once the summed error estimate drops below
    max(atol, rtol * |value|).  parity may declare the integrand "odd" or
    "even" on a symmetric interval; an odd integrand returns exactly zero
    without sampling, an even one is folded onto the right half.

    Divergence is reported through the diverged flag.  If the budget runs
    out with no determination either way, MaxDepthExceeded is raised (or,
    with on_inconclusive="return", a QuadResult with both flags False is
    returned).  The result counts the GK15 panels evaluated and the
    integrand points sampled (15 per panel plus one per endpoint-sliver
    probe); the odd shortcut samples none, and an even fold reports its
    half-line's counts and reason, the exit it took (see QuadResult).
    """
    if not isinstance(interval, IntervalSpec):
        interval = IntervalSpec(*interval)

    symmetric = (interval.lo == -interval.hi)
    if parity is not None:
        if not symmetric:
            raise ValueError("parity shortcut needs a symmetric interval")
        if parity == "odd":
            return QuadResult(0.0, 0.0, True, False, reason="odd-parity")
        if parity == "even":
            half = IntervalSpec(0.0, interval.hi,
                                _mirror_hints(interval.singularities))
            res = integrate(f, half, atol=atol / 2, rtol=rtol, max_panels=max_panels,
                            on_inconclusive=on_inconclusive)
            return QuadResult(2.0 * res.value, 2.0 * res.abs_error_estimate,
                              res.converged, res.diverged, res.panels, res.evals,
                              res.reason)
        raise ValueError(f"parity must be 'odd', 'even' or None, not {parity!r}")

    probes = []

    def point_fn(x):
        probes.append(x)
        return float(np.asarray(f(np.array([x])), dtype=float)[0])

    tasks, extra_value, extra_err = _plan(point_fn, interval)
    tasks = [t for t in tasks if t[1] < t[2]]

    heap = []
    seq = 0
    total = extra_value     # analytic endpoint-sliver mass from the planner
    err_fin = extra_err     # summed finite panel errors
    n_inf = 0               # panels whose rule evaluation blew up
    for (xmap, a, b) in tasks:
        g = _compose(f, xmap)
        val, err, ok = _gk_panel(g, a, b)
        if not ok:
            err = math.inf
            n_inf += 1
        else:
            err_fin += err
        total += val
        heapq.heappush(heap, (-err, seq, g, a, b, val, err, 0))
        seq += 1

    history = [total]
    splits = 0

    def errtot():
        return math.inf if n_inf else err_fin

    def result(converged, diverged, reason):
        panels = len(tasks) + 2 * splits
        return QuadResult(total, errtot(), converged, diverged,
                          panels, 15 * panels + len(probes), reason)

    def diverging(min_k=64):
        k = len(history)
        if k < min_k:
            return False
        t0 = abs(history[k // 4])
        t1 = abs(history[k // 2])
        t2 = abs(history[3 * k // 4])
        t3 = abs(history[-1])
        if not (t3 > t2 > t1 > t0):
            return False
        i1, i2, i3 = t1 - t0, t2 - t1, t3 - t2
        if i1 <= 0 or i2 < 0.3 * i1 or i3 < 0.3 * i2:
            return False
        return t3 >= 2.0 * max(t0, 10.0 * atol)

    while True:
        if n_inf == 0 and err_fin <= max(atol, rtol * abs(total)):
            return result(True, False, "tol")
        if not heap:
            break
        if abs(total) > 1e12 * (abs(history[0]) + atol):
            return result(False, True, "runaway")
        if splits >= max_panels:
            break
        if splits and splits % 128 == 0 and diverging():
            return result(False, True, "growth")

        _, _, g, a, b, val, err, depth = heapq.heappop(heap)
        if depth >= _MAX_DEPTH:
            if not math.isfinite(err):
                return result(False, True, "depth-chain")
            # a chain that needed the whole depth budget is the signature of
            # slow (e.g. logarithmic) divergence; look at the growth record
            # now, before the remaining panels dilute it
            if diverging(min_k=48):
                return result(False, True, "depth-chain")
            # unsplittable; keep its error on the books but stop refining it
            if not heap:
                break
            continue
        mid = 0.5 * (a + b)
        (v1, e1, ok1), (v2, e2, ok2) = _gk_pair(g, a, mid, b)
        if math.isfinite(err):
            err_fin -= err
        else:
            n_inf -= 1
        genuine_blowup = False
        for child_v, child_e, child_ok, lo_c, hi_c in (
                (v1, e1, ok1, a, mid), (v2, e2, ok2, mid, b)):
            if child_ok:
                err_fin += child_e
            else:
                width = hi_c - lo_c
                res_floor = 64.0 * _EPS * max(1.0, abs(lo_c), abs(hi_c))
                if width <= res_floor and math.isfinite(err):
                    # nodes have collided with an unhinted singular point at
                    # the floating-point resolution limit; retire the sliver
                    # and let it inherit half the parent's uncertainty
                    err_fin += 0.5 * err
                    continue
                genuine_blowup = True
                child_e = math.inf
                n_inf += 1
            heapq.heappush(heap, (-child_e, seq, g, lo_c, hi_c,
                                  child_v, child_e, depth + 1))
            seq += 1
        total += (v1 + v2) - val
        splits += 1
        history.append(total)
        if genuine_blowup and depth >= 8:
            # a wide non-finite spike survives repeated localization
            return result(False, True, "blowup")

    if diverging():
        return result(False, True, "growth")
    partial = result(False, False, "budget")
    if on_inconclusive == "return":
        return partial
    raise MaxDepthExceeded(partial)


# the exponent scan's grid: x = c +- 2^-k at a finite point and x = +-2^k in
# a tail, k = _SCAN_LO.._SCAN_HI (a tail's top bounded by the degree)
_SCAN_LO, _SCAN_HI = 8, 19
# the widest spread between the last two slopes that still tells a hinted
# exponent from -1: hints differ from -1 by 0 or by at least 0.002 when the
# shape parameters have three decimals
_SCAN_SPREAD = 1e-3
_SCAN_FLOOR = 1e-9      # rounding of the logs, in units of the exponent


def exponent_scan(log_sample, interval, degree):
    """Measured local exponents of every product w P_i P_j at the hinted
    points of an interval, from one sample of the rows per side.

    Each point with an exponent hint is approached along a geometric grid:
    x = c +- 2^-k (each side of c inside the interval) or x = +-2^k in a
    tail, k = 8..19.  In a tail the grid's top is lowered to 1000 // degree
    (and the grid shifted down with it), so that members of degree up to
    `degree` stay finite there.  log_sample(x) returns (log w, log|P|):
    the weight's log at the points and the (K, len(x)) logs of the members.
    The slope of log|w P_i P_j| = log w + log|P_i| + log|P_j| against
    log|x - c| (log|x| in a tail) between successive grid points estimates
    the exponent sigma of |w P_i P_j| ~ |x - c|^sigma.  Returns one
    (point, sigma, spread) per side, where sigma (K, K) is the last slope
    and spread (K, K) its distance from the slope before; both are nan for
    a pair with a sample that is not finite.
    """
    ks = np.arange(_SCAN_LO, _SCAN_HI + 1, dtype=float)
    top = min(_SCAN_HI, 1000 // max(int(degree), 1))
    tail_ks = ks - (_SCAN_HI - top)
    sides = []
    for point, exponent in interval.singularities:
        if exponent is None:
            continue
        if math.isinf(point):
            sides.append((point, math.copysign(1.0, point) * 2.0 ** tail_ks, math.log(2.0)))
            continue
        for sign in (1.0, -1.0):
            x = point + sign * 2.0 ** -ks
            if interval.lo < x.min() and x.max() < interval.hi:
                sides.append((point, x, -math.log(2.0)))
    out = []
    for point, x, step in sides:
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


def certifies_divergence(point, sigma, spread, hint):
    """Whether a measured exponent confirms that |f| ~ |x - point|^hint
    is not integrable at the point: hint is on the divergent side of -1
    (>= -1 in a tail, <= -1 at a finite point), the spread is narrow enough
    to tell hint from -1, and sigma agrees with hint within the spread.
    A nan sigma or spread never certifies."""
    if hint is None or (hint < -1.0 if math.isinf(point) else hint > -1.0):
        return False
    return bool(spread <= _SCAN_SPREAD and abs(sigma - hint) <= spread + _SCAN_FLOOR)


# per-panel block entries integrate_gram keeps live (value and error: 4 MB)
_LIVE_ENTRIES = 2 ** 18


@dataclass(frozen=True, eq=False)
class GramQuad:
    """Entry-wise outcome of integrate_gram: (K, K) value and summed error
    matrices, the entries that met the stopping rule, and the GK15 panels
    evaluated and integrand points sampled (15 per panel plus one per
    endpoint-sliver probe), as QuadResult counts them."""

    value: np.ndarray
    error: np.ndarray
    converged: np.ndarray
    panels: int
    evals: int


def _gk_blocks(wdx, L, R, h):
    """Kronrod blocks and their errors on a batch of panels.

    wdx (np, 15) is weight times dx/dt at the nodes, L (np, 15, KL) and
    R (np, 15, KR) the two row sets there (R is L for a Gram block) and
    h (np,) the half-widths.  The error of each entry is |Kronrod - Gauss|,
    floored at the rounding level of its absolute mass; a panel with a
    non-finite sample gets value 0 and error inf.
    """
    finite = np.isfinite(wdx).all(axis=1) & np.isfinite(L).all(axis=(1, 2))
    if R is not L:
        finite &= np.isfinite(R).all(axis=(1, 2))
    wdx = np.where(finite[:, None], wdx, 0.0) * h[:, None]
    L = np.where(finite[:, None, None], L, 0.0)
    R = L if R is L else np.where(finite[:, None, None], R, 0.0)
    Lt = L.transpose(0, 2, 1)
    kron = (Lt * (wdx * _WK)[:, None, :]) @ R
    delta = np.abs((Lt * (wdx * (_WK - _WGF))[:, None, :]) @ R)
    mass = (np.abs(Lt) * np.abs(wdx * _WK)[:, None, :]) @ np.abs(R)
    err = np.maximum(delta, 50.0 * _EPS * mass)
    err[~finite] = math.inf
    return kron, err, finite


def _by_panel(rows):
    """(K, 15 np) row values at the nodes of np panels -> (np, 15, K)."""
    rows = np.asarray(rows, dtype=float)
    return rows.reshape(len(rows), -1, 15).transpose(1, 2, 0)


def integrate_gram(sample, interval, scale=None, *, fold=False) -> GramQuad:
    """Every inner product int w L_i R_j dx on one adaptive GK15 panel tree.

    sample(x) returns (w, L, R): the weight at the points x (or a scalar)
    and two row sets, the (KL, len(x)) and (KR, len(x)) values of their
    functions; R is L for a Gram block.  Each panel samples them once and
    adds the whole (KL, KR) block (L w) R^T with the Kronrod weights; the
    Gauss block gives each entry's error.  Where w is 0 the rows count as 0,
    so a weight that underflows in a far tail hides members that overflow
    there.  Cuts, softening substitutions, tail folding and analytic
    endpoint slivers are the same as integrate's.

    Each finite task starts as 8 equal panels of its own variable, at depth
    3, since the first rounds would split every panel of a smooth block
    anyway; a folded tail starts whole, so the tree samples the far tail
    only where its error asks for it (farther out, the weight underflows
    while the members overflow).  Every round samples the new panels of
    all tasks in one call.

    Entry (i, j) meets the stopping rule once its summed error is at most
    1e-9 scale[i, j].  scale None takes sqrt|d_i| sqrt|d_j| from the tree's
    own running diagonal d (a Gram block).  An entry of infinite scale is
    sampled with the rest but never holds the tree open, and so reads
    converged.  Each round splits every panel holding more than its share
    (1 / leaves) of some open entry's error.  The splits are bounded by
    integrate's panel budget; entries still open then come back
    unconverged.  A non-finite sample in a sliver at the floating-point
    resolution limit retires the sliver with half its parent's error.

    A panel whose error stays below every share it could still be held to
    is folded into running totals, so only splittable panels keep
    per-panel state.  Past a memory allowance of about 4 MB of blocks, the
    panels with the smallest share of open error are folded in too, their
    error staying on the books.

    fold=True declares the weight even and row k of each set of parity k
    on a symmetric interval: the tree runs on [0, hi), entries of mixed
    parity are exactly zero and the others are doubled.
    """
    def row_sets(x):
        w, L, R = sample(x)
        zero = np.asarray(w) == 0.0
        if zero.any():
            L = np.where(zero, 0.0, L)
            R = L if R is L else np.where(zero, 0.0, R)
        return w, L, R

    if fold:
        if interval.lo != -interval.hi:
            raise ValueError("folding needs a symmetric interval")
        interval = IntervalSpec(0.0, interval.hi,
                                _mirror_hints(interval.singularities))

    probes = []

    def point_fn(x):
        probes.append(x)
        with np.errstate(all="ignore"):
            w, L, R = row_sets(np.array([x]))
            return np.broadcast_to(w, (1,))[0] * np.outer(
                np.asarray(L, dtype=float)[:, 0], np.asarray(R, dtype=float)[:, 0])

    tasks, extra_value, extra_err = _plan(point_fn, interval)

    def folded(block):
        """In place: entries of mixed parity are zero, the others doubled."""
        if fold:
            i, j = np.ogrid[:block.shape[-2], :block.shape[-1]]
            block *= 2.0
            block[..., (i - j) % 2 == 1] = 0.0
        return block

    def evaluate(task, lo, hi):
        """Blocks, errors and finiteness of the panels [lo, hi] of the given
        tasks, from one sample call."""
        h = 0.5 * (hi - lo)
        t = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
        x = t.copy()
        jacobians = []
        with np.errstate(all="ignore"):
            for k, (xmap, _, _) in enumerate(tasks):
                if xmap is None:
                    continue
                sel = task == k
                if sel.any():
                    xk, jacobian = xmap(t[sel].ravel())
                    x[sel] = xk.reshape(-1, 15)
                    jacobians.append((sel, jacobian))
            w, L, R = row_sets(x.ravel())
            wdx = np.array(np.broadcast_to(w, x.size), dtype=float).reshape(-1, 15)
            for sel, jacobian in jacobians:
                wdx[sel] = jacobian(wdx[sel].ravel()).reshape(-1, 15)
            Lp = _by_panel(L)
            kron, err, finite = _gk_blocks(wdx, Lp, Lp if R is L else _by_panel(R), h)
        return folded(kron), folded(err), finite

    # live panels: task, lo, hi, depth, value block, error block.  _plan
    # puts the lower tail first and the upper tail last: a tail starts
    # whole, a finite task as _START_PANELS panels by repeated halving
    tails = {k for k, end in ((0, interval.lo), (len(tasks) - 1, interval.hi))
             if math.isinf(end)}
    starts = []
    for k, (_, a, b) in enumerate(tasks):
        if not a < b:
            continue
        depth = 0 if k in tails else _START_PANELS.bit_length() - 1
        edges = [float(a), float(b)]
        for _ in range(depth):
            edges = [y for x, z in zip(edges, edges[1:]) for y in (x, 0.5 * (x + z))] + edges[-1:]
        starts += [(k, x, z, depth) for x, z in zip(edges, edges[1:])]
    task, lo, hi, depth = (np.array(c) for c in zip(*starts))
    start = len(lo)
    live = (task, lo, hi, depth) + evaluate(task, lo, hi)[:2]
    shape = live[4].shape[1:]
    acc_val = folded(np.broadcast_to(extra_value, shape).astype(float))
    acc_err = folded(np.broadcast_to(extra_err, shape).astype(float))
    retired = 0
    splits = 0
    max_leaves = start + _MAX_PANELS + 1
    max_live = max(16, _LIVE_ENTRIES // live[4][0].size)
    held = True if scale is None else np.isfinite(scale)

    while True:
        task, lo, hi, depth, val, err = live
        total = acc_val + val.sum(axis=0)
        errs = acc_err + err.sum(axis=0)
        if scale is None:
            root = np.sqrt(np.abs(np.diag(total)))
            target = _RTOL * np.maximum(np.outer(root, root), 1e-150)
        else:
            target = _RTOL * scale
        open_ = ~(errs <= target)
        if not open_.any() or splits >= _MAX_PANELS or not len(lo):
            break
        score = (err[:, open_] / target[open_]).max(axis=1)
        if score.max() <= 0.0:
            break       # what is left open sits in retired panels
        pick = np.flatnonzero(score > 1.0 / (len(lo) + retired))
        if not pick.size:
            pick = np.array([np.argmax(score)])
        pick = pick[np.argsort(-score[pick], kind="stable")][
            :min(_MAX_PANELS - splits, max_live // 2)]
        gone = np.zeros(len(lo), dtype=bool)
        gone[pick] = True
        # panels at the depth limit keep their error on the books
        parked = pick[depth[pick] >= _MAX_DEPTH]
        pick = pick[depth[pick] < _MAX_DEPTH]
        acc_val += val[parked].sum(axis=0)
        acc_err += err[parked].sum(axis=0)
        retired += len(parked)

        mid = 0.5 * (lo[pick] + hi[pick])
        c_task = np.repeat(task[pick], 2)
        c_lo = np.column_stack((lo[pick], mid)).ravel()
        c_hi = np.column_stack((mid, hi[pick])).ravel()
        c_depth = np.repeat(depth[pick] + 1, 2)
        if pick.size:
            c_val, c_err, c_ok = evaluate(c_task, c_lo, c_hi)
        else:
            c_val, c_err, c_ok = val[:0], err[:0], np.ones(0, dtype=bool)
        splits += len(pick)

        # a non-finite sample in a sliver at the resolution limit: retire the
        # sliver with half its parent's error, as integrate does
        parent_err = np.repeat(err[pick], 2, axis=0)
        sliver = ~c_ok & (c_hi - c_lo <= 64.0 * _EPS * np.maximum(
            1.0, np.maximum(abs(c_lo), abs(c_hi))))
        sliver &= np.isfinite(parent_err).all(axis=(1, 2))
        acc_err += 0.5 * parent_err[sliver].sum(axis=0)
        retired += int(sliver.sum())

        children = (c_task, c_lo, c_hi, c_depth, c_val, c_err)
        live = tuple(np.concatenate((old[~gone], new[~sliver]))
                     for old, new in zip(live, children))

        # panels no share can ever reach again leave the live set, and so do
        # the least splittable ones beyond the memory allowance
        # an entry held to nothing counts 0 (its error can be inf)
        ratio = np.divide(live[5], target, out=np.zeros_like(live[5]), where=held)
        done = ratio.max(axis=(1, 2)) <= 1.0 / max_leaves
        if len(done) - done.sum() > max_live:
            rank = np.argsort(-ratio[:, open_].max(axis=1), kind="stable")
            done[rank[max_live:]] = True
        acc_val += live[4][done].sum(axis=0)
        acc_err += live[5][done].sum(axis=0)
        retired += int(done.sum())
        live = tuple(a[~done] for a in live)

    panels = start + 2 * splits
    return GramQuad(total, errs, errs <= target, panels, 15 * panels + len(probes))
