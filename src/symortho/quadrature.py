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

__all__ = ["QuadResult", "IntervalSpec", "GramQuad", "integrate", "integrate_gram"]

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


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one integration: value, error estimate and status flags.

    converged and diverged are mutually exclusive; both False means the
    refinement budget ran out without a determination.
    """

    value: float
    abs_error_estimate: float
    converged: bool
    diverged: bool


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


def _gk_panel(g, a, b):
    """Apply the 15-point rule on [a, b]; returns (value, error, finite)."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fx = np.asarray(g(c + h * _NODES), dtype=float)
    if fx.shape != (15,):
        fx = np.broadcast_to(fx, (15,)).astype(float)
    if not np.all(np.isfinite(fx)):
        return 0.0, math.inf, False
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


def _needs_soften(sigma) -> bool:
    if sigma is None:
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
        # only soften when the folded endpoint is integrable; a non-integrable
        # endpoint is left raw so the divergence detector can see it grow
        if sigma_t > -1.0 + 1e-12 and _needs_soften(sigma_t):
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


def integrate(f, interval, *, atol=1e-10, rtol=_RTOL, max_depth=_MAX_DEPTH,
              max_panels=_MAX_PANELS, parity=None, divergence_growth=2.0,
              on_inconclusive="raise") -> QuadResult:
    """Integrate a vectorized callable over an interval with hints.

    f must accept an ndarray of points and return an ndarray of values.
    Refinement stops once the summed error estimate drops below
    max(atol, rtol * |value|).  parity may declare the integrand "odd" or
    "even" on a symmetric interval; an odd integrand returns exactly zero
    without sampling, an even one is folded onto the right half.

    Divergence is reported through the diverged flag.  If the budget runs
    out with no determination either way, MaxDepthExceeded is raised (or,
    with on_inconclusive="return", a QuadResult with both flags False is
    returned).
    """
    if not isinstance(interval, IntervalSpec):
        interval = IntervalSpec(*interval)

    symmetric = (interval.lo == -interval.hi)
    if parity is not None:
        if not symmetric:
            raise ValueError("parity shortcut needs a symmetric interval")
        if parity == "odd":
            return QuadResult(0.0, 0.0, True, False)
        if parity == "even":
            half = IntervalSpec(0.0, interval.hi,
                                _mirror_hints(interval.singularities))
            res = integrate(f, half, atol=atol / 2, rtol=rtol,
                            max_depth=max_depth, max_panels=max_panels,
                            divergence_growth=divergence_growth,
                            on_inconclusive=on_inconclusive)
            return QuadResult(2.0 * res.value, 2.0 * res.abs_error_estimate,
                              res.converged, res.diverged)
        raise ValueError(f"parity must be 'odd', 'even' or None, not {parity!r}")

    def point_fn(x):
        return float(np.asarray(f(np.array([x])), dtype=float)[0])

    tasks, extra_value, extra_err = _plan(point_fn, interval)

    heap = []
    seq = 0
    total = extra_value     # analytic endpoint-sliver mass from the planner
    err_fin = extra_err     # summed finite panel errors
    n_inf = 0               # panels whose rule evaluation blew up
    for (xmap, a, b) in tasks:
        if not a < b:
            continue
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

    def result(converged, diverged):
        return QuadResult(total, errtot(), converged, diverged)

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
        return t3 >= divergence_growth * max(t0, 10.0 * atol)

    parked = []
    while True:
        if n_inf == 0 and err_fin <= max(atol, rtol * abs(total)):
            return result(True, False)
        if not heap:
            break
        if abs(total) > 1e12 * (abs(history[0]) + atol):
            return result(False, True)
        if splits >= max_panels:
            break
        if splits and splits % 128 == 0 and diverging():
            return result(False, True)

        entry = heapq.heappop(heap)
        _, _, g, a, b, val, err, depth = entry
        if depth >= max_depth:
            if not math.isfinite(err):
                return result(False, True)
            # a chain that needed the whole depth budget is the signature of
            # slow (e.g. logarithmic) divergence; look at the growth record
            # now, before the remaining panels dilute it
            if diverging(min_k=48):
                return result(False, True)
            # unsplittable; keep its error on the books but stop refining it
            parked.append(entry)
            if not heap:
                break
            continue
        mid = 0.5 * (a + b)
        v1, e1, ok1 = _gk_panel(g, a, mid)
        v2, e2, ok2 = _gk_panel(g, mid, b)
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
            return result(False, True)

    if diverging():
        return result(False, True)
    partial = result(False, False)
    if on_inconclusive == "return":
        return partial
    raise MaxDepthExceeded(partial)


# per-panel block entries integrate_gram keeps live (value and error: 4 MB)
_LIVE_ENTRIES = 2 ** 18


@dataclass(frozen=True, eq=False)
class GramQuad:
    """Entry-wise outcome of integrate_gram: (K, K) value and summed error
    matrices, the entries that met the stopping rule, and the number of GK15
    panels evaluated."""

    value: np.ndarray
    error: np.ndarray
    converged: np.ndarray
    panels: int


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


def integrate_gram(sample, interval, norms=None, *, fold=False) -> GramQuad:
    """Every inner product int w P_n P_m dx on one adaptive GK15 panel tree.

    sample(x) returns (w, P): the weight at the points x (or a scalar) and
    the (K, len(x)) member values.  Each panel samples the weight and all
    members once and adds the whole block (P w) P^T with the Kronrod
    weights; the Gauss block gives each entry's error.  Cuts, softening
    substitutions, tail folding and analytic endpoint slivers are the same
    as integrate's.  sample(x) may instead return (w, L, R), two row sets
    of KL and KR rows: the tree then integrates the (KL, KR) block
    int w L_i R_j dx, and norms is the pair (l, r) of their scales.

    Entry (n, m) meets the stopping rule once its summed error is at most
    1e-9 * sqrt(d_n d_m), with d the closed-form norms or, when norms is
    None, the tree's own running diagonal (1e-9 * sqrt(l_i r_j) for two
    row sets).  Each round splits every panel holding more than its share
    (1 / leaves) of some open entry's error and samples all new panels of
    a task in one call.  The splits are bounded by integrate's panel
    budget; entries still open then come back unconverged.  A non-finite
    sample in a sliver at the floating-point resolution limit retires the
    sliver with half its parent's error.

    A panel whose error stays below every share it could still be held to
    is folded into running totals, so only splittable panels keep
    per-panel state.  Past a memory allowance of about 4 MB of blocks, the
    panels with the smallest share of open error are folded in too, their
    error staying on the books.

    fold=True declares the weight even and row k of parity k on a
    symmetric interval: the tree runs on [0, hi), entries of mixed parity
    are exactly zero and the others are doubled.
    """
    def row_sets(x):
        out = sample(x)
        return out if len(out) == 3 else (out[0], out[1], out[1])

    if fold:
        if interval.lo != -interval.hi:
            raise ValueError("folding needs a symmetric interval")
        interval = IntervalSpec(0.0, interval.hi,
                                _mirror_hints(interval.singularities))

    def point_fn(x):
        with np.errstate(all="ignore"):
            w, L, R = row_sets(np.array([x]))
            return np.broadcast_to(w, (1,))[0] * np.outer(
                np.asarray(L, dtype=float)[:, 0], np.asarray(R, dtype=float)[:, 0])

    tasks, extra_value, extra_err = _plan(point_fn, interval)
    tasks = [t for t in tasks if t[1] < t[2]]

    def folded(block):
        """In place: entries of mixed parity are zero, the others doubled."""
        if fold:
            i, j = np.ogrid[:block.shape[-2], :block.shape[-1]]
            block *= 2.0
            block[..., (i - j) % 2 == 1] = 0.0
        return block

    def evaluate(task, lo, hi):
        """Blocks, errors and finiteness of the panels [lo, hi] of the given
        tasks: one sample call per task."""
        h = 0.5 * (hi - lo)
        t = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
        kron = err = None
        finite = np.empty(len(lo), dtype=bool)
        for k, (xmap, _, _) in enumerate(tasks):
            sel = task == k
            if not sel.any():
                continue
            tk = t[sel].ravel()
            with np.errstate(all="ignore"):
                x, jacobian = (tk, None) if xmap is None else xmap(tk)
                w, L, R = row_sets(x)
                wdx = np.broadcast_to(np.asarray(w, dtype=float), tk.shape)
                if jacobian is not None:
                    wdx = jacobian(wdx)
                Lp = _by_panel(L)
                blocks = _gk_blocks(wdx.reshape(-1, 15), Lp,
                                    Lp if R is L else _by_panel(R), h[sel])
            if kron is None:
                kron = np.empty((len(lo),) + blocks[0].shape[1:])
                err = np.empty_like(kron)
            kron[sel], err[sel], finite[sel] = blocks
        return folded(kron), folded(err), finite

    # live panels: task, lo, hi, depth, value block, error block
    lo = np.array([t[1] for t in tasks], dtype=float)
    hi = np.array([t[2] for t in tasks], dtype=float)
    task = np.arange(len(tasks))
    live = (task, lo, hi, np.zeros(len(tasks), dtype=int)) + evaluate(task, lo, hi)[:2]
    shape = live[4].shape[1:]
    acc_val = folded(np.broadcast_to(extra_value, shape).astype(float))
    acc_err = folded(np.broadcast_to(extra_err, shape).astype(float))
    retired = 0
    splits = 0
    max_leaves = len(tasks) + _MAX_PANELS + 1
    max_live = max(16, _LIVE_ENTRIES // live[4][0].size)

    while True:
        task, lo, hi, depth, val, err = live
        total = acc_val + val.sum(axis=0)
        errs = acc_err + err.sum(axis=0)
        if norms is None:
            left = right = np.diag(total)
        else:
            left, right = norms if np.ndim(norms[0]) else (norms, norms)
        target = _RTOL * np.sqrt(np.maximum(np.outer(np.abs(left), np.abs(right)), 1e-300))
        open_ = ~(errs <= target)
        if not open_.any() or splits >= _MAX_PANELS or not len(lo):
            break
        score = (err / target)[:, open_].max(axis=1)
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
        ratio = live[5] / target
        done = ratio.max(axis=(1, 2)) <= 1.0 / max_leaves
        if len(done) - done.sum() > max_live:
            rank = np.argsort(-ratio[:, open_].max(axis=1), kind="stable")
            done[rank[max_live:]] = True
        acc_val += live[4][done].sum(axis=0)
        acc_err += live[5][done].sum(axis=0)
        retired += int(done.sum())
        live = tuple(a[~done] for a in live)

    return GramQuad(total, errs, errs <= target, len(tasks) + 2 * splits)
