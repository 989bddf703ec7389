"""Adaptive quadrature: exactness, hints, tails, parity, certified divergence."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_reference
from symortho import GHP, GUP, FiniteI, FiniteII, quadrature
from symortho.legendre import U
from symortho.quadrature import (_NODES, _WGF, _WK, IntervalSpec, certifies_divergence,
                                 exponent_scan, integrate, integrate_gram)
from symortho.errors import MaxDepthExceeded


def test_rule_exact_on_low_degree():
    # the 15-point Kronrod rule of one panel integrates polynomials up to
    # degree 22
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(23)
    exact = sum(c / (k + 1) * (2.0 ** (k + 1) - (-1.0) ** (k + 1))
                for k, c in enumerate(coeffs))
    x = 0.5 + 1.5 * _NODES
    fx = np.polynomial.polynomial.polyval(x, coeffs)[None, :]
    val, err, ok = quadrature._gk_blocks(np.ones((1, 15)), fx, np.ones((1, 15, 1)),
                                         np.array([1.5]))
    assert ok.all()
    assert val[0, 0] == pytest.approx(exact, rel=1e-13)


def test_smooth_finite():
    r = integrate(np.sin, IntervalSpec(0.0, math.pi))
    assert r.converged and not r.diverged
    assert r.value == pytest.approx(2.0, abs=1e-12)


def test_oscillatory():
    r = integrate(lambda x: np.cos(40 * x), IntervalSpec(0.0, 10.0))
    assert r.converged
    assert r.value == pytest.approx(math.sin(400.0) / 40.0, abs=1e-12)


def test_gaussian_whole_line():
    r = integrate(lambda x: np.exp(-x * x), IntervalSpec(-math.inf, math.inf))
    assert r.converged
    assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_interior_hint_abs_power():
    r = integrate(lambda x: np.abs(x) ** -0.5,
                  IntervalSpec(-1.0, 1.0, ((0.0, -0.5),)))
    assert r.converged
    assert r.value == pytest.approx(4.0, rel=1e-12)


def test_endpoint_hints_arcsine():
    r = integrate(lambda x: (1.0 - x * x) ** -0.5,
                  IntervalSpec(-1.0, 1.0, ((-1.0, -0.5), (1.0, -0.5))))
    assert r.converged
    assert r.value == pytest.approx(math.pi, rel=1e-9)


def test_algebraic_tail():
    r = integrate(lambda x: x ** -2.0,
                  IntervalSpec(1.0, math.inf, ((math.inf, -2.0),)))
    assert r.converged
    assert r.value == pytest.approx(1.0, rel=1e-12)


def test_flat_origin_weight():
    # |x|^-3 exp(-1/x^2) integrates to Gamma(1) = 1 over the whole line
    def w(x):
        with np.errstate(divide="ignore", over="ignore"):
            return np.abs(x) ** -3.0 * np.exp(-1.0 / (x * x))
    spec = IntervalSpec(-math.inf, math.inf,
                        ((0.0, None), (math.inf, -3.0), (-math.inf, -3.0)))
    r = integrate(w, spec)
    assert r.converged
    assert r.value == pytest.approx(1.0, rel=1e-10)


def test_parity_odd_short_circuit():
    calls = []

    def f(x):
        calls.append(x)
        return x * np.exp(-x * x)

    r = integrate(f, IntervalSpec(-math.inf, math.inf), parity="odd")
    assert r.value == 0.0 and r.converged and not calls


def test_parity_even_matches_full():
    f = lambda x: np.exp(-x * x) * x ** 4
    full = integrate(f, IntervalSpec(-math.inf, math.inf))
    folded = integrate(f, IntervalSpec(-math.inf, math.inf), parity="even")
    assert folded.converged
    assert folded.value == pytest.approx(full.value, rel=1e-11)


def test_parity_needs_symmetric_interval():
    with pytest.raises(ValueError):
        integrate(np.exp, IntervalSpec(0.0, 1.0), parity="even")


@pytest.mark.parametrize("f,spec", [
    (lambda x: 1.0 / x, IntervalSpec(0.0, 1.0)),
    (lambda x: x ** -2.0, IntervalSpec(0.0, 1.0)),
    (lambda x: x * x / (1.0 + x * x), IntervalSpec(-math.inf, math.inf)),
])
def test_divergent_integrals_flagged(f, spec):
    r = integrate(f, spec, on_inconclusive="return")
    assert r.diverged and not r.converged
    assert r.reason == "certified"


def test_log_divergent_tails_flagged():
    # x^8 against |x|^-9 exp(-1/x^2): integrand ~ 1/|x| at infinity
    def g(x):
        with np.errstate(divide="ignore", over="ignore"):
            return x ** 8 * np.abs(x) ** -9.0 * np.exp(-1.0 / (x * x))
    spec = IntervalSpec(-math.inf, math.inf,
                        ((0.0, None), (math.inf, -1.0), (-math.inf, -1.0)))
    r = integrate(g, spec, on_inconclusive="return")
    assert r.diverged and r.reason == "certified"


def test_inconclusive_raises_with_partial(monkeypatch):
    # integrable endpoint singularity left unhinted: no determination, and
    # no certificate
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 600)
    with pytest.raises(MaxDepthExceeded) as exc:
        integrate(lambda x: (1.0 - x) ** -0.5, IntervalSpec(0.0, 1.0))
    partial = exc.value.partial
    assert not partial.converged and not partial.diverged
    assert partial.value == pytest.approx(2.0, abs=1e-4)


def test_inconclusive_return_mode(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 600)
    r = integrate(lambda x: (1.0 - x) ** -0.5, IntervalSpec(0.0, 1.0),
                  on_inconclusive="return")
    assert not r.converged and not r.diverged


def test_deterministic():
    f = lambda x: np.cos(7 * x) * np.exp(-x * x)
    spec = IntervalSpec(-math.inf, math.inf)
    first = integrate(f, spec)
    for _ in range(3):
        again = integrate(f, spec)
        assert again.value == first.value
        assert again.abs_error_estimate == first.abs_error_estimate


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        IntervalSpec(1.0, 1.0)


def test_tolerances_respected():
    r = integrate(lambda x: np.exp(-x * x), IntervalSpec(-math.inf, math.inf),
                  atol=1e-13, rtol=1e-13)
    assert r.converged
    assert abs(r.value - math.sqrt(math.pi)) < 5e-13


# ------------------------------------------------------- GK15 constants


def test_gk15_weights_sum_to_two():
    ulp = math.ulp(2.0)
    assert abs(sum(Fraction(w) for w in _WK) - 2) <= 4 * ulp
    assert abs(sum(Fraction(w) for w in _WGF) - 2) <= 4 * ulp
    assert abs(math.fsum(_WK) - 2.0) <= 4 * ulp
    assert abs(math.fsum(_WGF) - 2.0) <= 4 * ulp


@pytest.mark.parametrize("weights, degree", [(_WK, 22), (_WGF, 13)],
                         ids=["kronrod", "gauss"])
def test_gk15_rules_exact_through_their_degree(weights, degree):
    # exact rational sums of the stored doubles against int_{-1}^{1} x^k dx
    nodes = [Fraction(x) for x in _NODES]
    ws = [Fraction(w) for w in weights]
    for k in range(degree + 1):
        got = sum(w * x ** k for w, x in zip(ws, nodes))
        want = Fraction(2, k + 1) if k % 2 == 0 else 0
        assert abs(got - want) <= 8 * np.finfo(float).eps, k
    # and the next even degree is no longer exact
    k = degree + 1 if degree % 2 else degree + 2
    got = sum(w * x ** k for w, x in zip(ws, nodes))
    assert abs(got - Fraction(2, k + 1)) > 1e-9


# ------------------------------------------------------- shared panel tree


def _legendre_rows(nmax):
    return lambda x: np.array([np.polynomial.legendre.Legendre.basis(k)(x)
                               for k in range(nmax + 1)])


def _products(P):
    """The K^2 products P_i P_j of a (K, n) row set, flattened row by row:
    a Gram block as one row set, taken against f = 1."""
    return (P[:, None, :] * P[None, :, :]).reshape(-1, P.shape[1])


def _legendre_sample(nmax):
    rows = _legendre_rows(nmax)
    return lambda x: (1.0, 1.0, _products(rows(x)))


def _scale(left, right):
    """sqrt(|l_i r_j|), the per-entry scale of two sets of norms, flattened
    as _products flattens the pairs."""
    return np.sqrt(np.abs(np.outer(left, right))).ravel()


def _diagonal_scale(total):
    """entry_scale of a flattened Gram block's running diagonal."""
    d = np.diag(total.reshape(math.isqrt(total.size), -1))
    return quadrature.entry_scale(d[:, None], d).ravel()


def test_gram_tree_legendre_identity():
    nmax = 10
    norms = [2.0 / (2 * k + 1) for k in range(nmax + 1)]
    spec = IntervalSpec(-1.0, 1.0)
    res = integrate_gram(_legendre_sample(nmax), spec, _scale(norms, norms))
    assert res.converged.all()
    assert res.value.shape == res.error.shape == res.converged.shape == ((nmax + 1) ** 2,)
    assert np.allclose(res.value.reshape(nmax + 1, -1), np.diag(norms), rtol=0, atol=1e-14)


def test_gram_tree_running_diagonal_and_endpoint_sliver():
    # arcsine weight: Chebyshev polynomials, norms pi, pi/2, ...; the
    # endpoint exponent -1/2 at a nonzero anchor takes the analytic sliver
    nmax = 8

    def sample(x):
        with np.errstate(divide="ignore"):
            w = (1.0 - x * x) ** -0.5
        T = np.array([np.cos(k * np.arccos(x)) for k in range(nmax + 1)])
        return w, 1.0, _products(T)
    spec = IntervalSpec(-1.0, 1.0, ((-1.0, -0.5), (1.0, -0.5)))
    res = integrate_gram(sample, spec, _diagonal_scale)
    want = np.diag([math.pi] + [math.pi / 2] * nmax)
    assert res.converged.all()
    assert np.allclose(res.value.reshape(nmax + 1, -1), want, rtol=0, atol=1e-9)


def test_gram_tree_budget_leaves_entries_open(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 0)
    norms = [2.0 / (2 * k + 1) for k in range(31)]
    res = integrate_gram(_legendre_sample(30), IntervalSpec(-1.0, 1.0), _scale(norms, norms))
    assert res.panels == 8
    assert not res.converged.all()
    assert res.converged[0]


def test_gram_tree_unresolvable_integrand_stays_open_and_bounded(monkeypatch):
    # an unhinted oscillating singularity: the low entries cannot converge,
    # and the tree stops at the split budget
    def sample(x):
        with np.errstate(divide="ignore"):
            w = np.abs(x - 0.3) ** -0.5 + np.abs(np.sin(1.0 / (x - 0.7)))
        return w, 1.0, _products(np.array([x ** k for k in range(25)]))
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 600)
    res = integrate_gram(sample, IntervalSpec(-1.0, 1.0), np.ones(25 * 25))
    assert not res.converged.reshape(25, 25)[:4, :4].any()
    assert res.panels == 8 + 2 * 600
    assert np.all(np.isfinite(res.value))


def test_gram_tree_function_against_a_row_set():
    # int x^3 P_n over (-1, 1): 2/5 at n = 1, 4/35 at n = 3, else 0
    nmax = 6
    norms = [2.0 / (2 * k + 1) for k in range(nmax + 1)]
    want = np.zeros(nmax + 1)
    want[1], want[3] = 2 / 5, 4 / 35
    rows = _legendre_rows(nmax)
    res = integrate_gram(lambda x: (1.0, x ** 3, rows(x)), IntervalSpec(-1.0, 1.0),
                         _scale([2 / 7], norms))
    assert res.value.shape == res.converged.shape == (nmax + 1,)
    assert res.converged.all()
    assert np.allclose(res.value, want, rtol=0, atol=1e-15)


def test_gram_tree_entries_stop_on_their_own_scales(monkeypatch):
    # the function's norm enters each entry's stopping rule: a huge one
    # accepts at once what a tiny one leaves open at the budget
    def sample(x):
        return 1.0, np.abs(x - 0.3) ** 0.5, np.ones((1, x.size))
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
    spec = IntervalSpec(-1.0, 1.0)
    assert integrate_gram(sample, spec, _scale([1e16], [2.0])).converged.all()
    assert not integrate_gram(sample, spec, _scale([1e-12], [2.0])).converged.any()


def test_gram_tree_entries_of_infinite_scale_hold_nothing_open(monkeypatch):
    # row 1 cannot be resolved (an unhinted oscillating singularity) and
    # row 2 is inf past x = 0.5, so every panel there is non-finite: held
    # to an infinite scale they neither keep the tree open nor warn, and
    # come back unconverged, whether the scale is an array or a function
    def sample(x):
        with np.errstate(divide="ignore"):
            wild = np.abs(np.sin(1.0 / (x - 0.7)))
        return 1.0, 1.0, np.array([np.ones_like(x), wild])
    spec = IntervalSpec(-1.0, 1.0)
    free = integrate_gram(sample, spec, np.array([2.0, math.inf]))
    held = integrate_gram(sample, spec, np.array([2.0, 2.0]))
    assert free.converged.tolist() == [True, False] and free.panels < held.panels
    assert abs(free.value[0] - 2.0) <= 2e-9 and not held.converged[1]
    running = integrate_gram(sample, spec, lambda total: np.array([2.0, math.inf]))
    assert np.array_equal(running.value, free.value) and running.panels == free.panels
    assert running.converged.tolist() == [True, False]

    def with_inf(x):
        return 1.0, 1.0, np.array([np.ones_like(x), np.where(x > 0.5, math.inf, x)])
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 40)
    res = integrate_gram(with_inf, spec, np.array([2.0, math.inf]))
    assert not res.converged.any()
    assert res.panels == 8 + 2 * 40


def test_gram_tree_entry_whose_sums_overflow_has_error_inf():
    # w f^2 overflows at every node, so Kronrod - Gauss can be inf - inf:
    # the error is inf, not nan
    def sample(x):
        big = 1e200 * np.sin(x)
        return 1.0, big, np.vstack([big] + [x ** k for k in range(4)])
    res = integrate_gram(sample, IntervalSpec(-1.0, 1.0), np.full(5, math.inf))
    assert res.value[0] == math.inf and res.error[0] == math.inf
    assert np.isfinite(res.error[1:]).all()


def test_gram_tree_counts_its_evals():
    # the arcsine weight's endpoints -1/2 at +-1 take a 3-point sliver probe each
    sizes = []

    def sample(x):
        sizes.append(x.size)
        with np.errstate(divide="ignore"):
            w = (1.0 - x * x) ** -0.5
        return w, 1.0, _products(np.array([np.cos(k * np.arccos(x)) for k in range(5)]))
    spec = IntervalSpec(-1.0, 1.0, ((-1.0, -0.5), (1.0, -0.5)))
    res = integrate_gram(sample, spec, _diagonal_scale)
    assert sizes.count(1) == 6
    assert res.evals == 15 * res.panels + 6 == sum(sizes)


def _recording(sample, sizes):
    def recorded(x):
        sizes.append(x.size)
        return sample(x)
    return recorded


def test_gram_tree_samples_once_per_round(monkeypatch):
    # GUP(1/2, 1/2)'s tree over the whole line: a lower tail, one finite
    # task and an upper tail share every round's one sample call, and
    # every call feeds exactly one batch of panel rules
    batches = []
    real = quadrature._gk_blocks

    def counting(wdx, f, R, h):
        batches.append(len(h))
        return real(wdx, f, R, h)
    monkeypatch.setattr(quadrature, "_gk_blocks", counting)
    sizes = []

    def sample(x):
        with np.errstate(over="ignore"):
            P = np.array([np.ones_like(x), x, x * x - 0.5])
            return np.exp(-x * x), 1.0, _products(P)
    res = integrate_gram(_recording(sample, sizes), IntervalSpec(-math.inf, math.inf),
                         np.ones(9))
    assert len(sizes) == len(batches) > 1
    assert sizes == [15 * n for n in batches]
    assert sizes[0] == 15 * (8 + 2)
    assert all(n % 2 == 0 for n in batches[1:])
    assert sum(sizes) == res.evals == 15 * res.panels


def _family_tree(basis, top, sizes):
    """One tree over the products of a family's members 0..top, whose pairs
    are all integrable, each held to its Class's norms' entry scale: the
    weight, the rows by recurrence and the family's interval hinted for
    the widest product, as a Gram tree of the family took them."""
    from symortho.core import member_rows
    from symortho.families import Class, norms_squared
    rows, d = member_rows(basis.params, top), np.array(norms_squared(Class(*basis.params), top))

    def sample(x):
        sizes.append(x.size)
        P = rows(x)
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp(basis.weight_log(x)), 1.0, _products(P)
    return integrate_gram(sample, basis.interval(tail_power=2 * top), _scale(d, d))


@pytest.mark.parametrize("basis, top", [(GUP(0.612, 0.791), 24), (FiniteII(7.52), 6)], ids=repr)
def test_gram_tree_first_round_covers_eight_panels_per_finite_task(basis, top):
    # finite tasks start at 8 panels, a folded tail (FiniteII's are hinted
    # with an exponent) as one whole panel; the sliver probes of the planner
    # are single points ahead of the first round
    sizes = []
    res = _family_tree(basis, top, sizes)
    interval = basis.interval(tail_power=2 * top)
    tasks = quadrature._plan(lambda x: 0.0, interval)[0]
    tails = (interval.hi == math.inf) + (interval.lo == -math.inf)
    probes = sizes.count(1)
    assert sizes[:probes] == [1] * probes and 1 not in sizes[probes:]
    assert sizes[probes] == 15 * (8 * (len(tasks) - tails) + tails)
    assert res.evals == sum(sizes) == 15 * res.panels + probes


@pytest.mark.parametrize("basis, top", [
    (FiniteII(6.03), 5), (FiniteI(0.12, 2.47), 2), (FiniteII(5.97), 5)], ids=repr)
def test_gram_tree_bisects_a_hinted_tail_from_one_panel(basis, top):
    # a folded tail hinted with an exponent starts as one panel (0, h] and
    # every split halves, so the tail's final panels tile (0, h] with
    # widths h / 2^depth; the tree's Gram block holds the family's norms
    # on its diagonal and 0 off it, each to 1e-9 of its entry scale
    from symortho.families import Class, norms_squared
    sizes = []
    res = _family_tree(basis, top, sizes)
    assert res.converged.all()
    assert res.evals == sum(sizes) == 15 * res.panels + sizes.count(1)
    d = np.array(norms_squared(Class(*basis.params), top), dtype=float)
    assert (np.abs(res.value - np.diag(d).ravel()) <= 1e-9 * _scale(d, d)).all()
    interval, tasks, panels = res.mesh      # the final panels
    assert interval.hi == math.inf and panels[:, 3].max() <= quadrature._MAX_DEPTH
    for k in (0, len(tasks) - 1):       # the lower and the upper tail, x = -+inf at t = 0
        _, lo, h = tasks[k]
        mine = panels[panels[:, 0] == k]
        mine = mine[np.argsort(mine[:, 1])]
        assert lo == 0.0 and mine[0, 1] == 0.0 and mine[-1, 2] == h
        assert (mine[1:, 1] == mine[:-1, 2]).all()
        assert (mine[:, 2] - mine[:, 1]).tolist() == pytest.approx(h * 2.0 ** -mine[:, 3],
                                                                    rel=1e-12)


def test_halves_bisects_each_panel():
    # every panel row (task, lo, hi, depth) splits into its two halves,
    # lower first, one level deeper
    rows = np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 2.0, 4.0, 5.0]])
    assert quadrature._halves(rows).tolist() == [
        [0.0, 0.0, 0.5, 1.0], [0.0, 0.5, 1.0, 1.0], [1.0, 2.0, 3.0, 6.0], [1.0, 3.0, 4.0, 6.0]]


def test_tail_where_the_weight_underflows_stays_finite():
    # the lambda = 2/3 class of FiniteI(0.11, 2.5): its tail decays like
    # |x|^-1.07, so a Gram panel tree once reached x ~ 1e160, where
    # t^2m underflows; there the weight is 0, and so is w dx/dt, where
    # 0 / 0 once made every panel there non-finite and the tree ran its
    # whole budget (8022 panels) and failed
    from symortho import sturm
    from symortho.exponent_map import LambdaSpec
    p, q, r, s = FiniteI(0.11, 2.5).params
    h = Fraction(1, 3)
    spec = LambdaSpec(p, q, h * r - (h - 1) * p, h * s - (h - 1) * q, Fraction(2, 3))
    rep = sturm.gram_matrix(spec, 8)
    assert rep.passed and rep.verified == 9 and rep.panels < 200


def test_gram_tree_counts_no_w_dx_where_the_weight_underflows():
    # (1 + x^2)^-0.51 decays like |x|^-1.02, so its tails fold softened
    # with t = tau^64; beyond |x| = 2^512, where x^2 overflows, the weight
    # is 0, and t^2 underflows, so dx/dt is 0 / 0.  There w dx/dt counts
    # 0, and the tree converges on the weight as sampled: the whole line's
    # mass sqrt(pi) Gamma(0.01) / Gamma(0.51) less 2 (2^512)^-0.02 / 0.02
    # beyond 2^512 (mpmath)
    def sample(x):
        with np.errstate(over="ignore"):
            w = (1 + x * x) ** -0.51
        return w, 1.0, _products(np.array([np.ones_like(x), x / (1 + np.abs(x))]))
    spec = IntervalSpec(-math.inf, math.inf, ((-math.inf, -1.02), (math.inf, -1.02)))
    res = integrate_gram(sample, spec, _diagonal_scale)
    assert res.converged.all() and res.panels < 200
    assert np.isfinite(res.value).all() and np.isfinite(res.error).all()
    (w00, w01), (_, w11) = res.value.reshape(2, 2)
    assert w00 == pytest.approx(101.37951033504427 - 100 * 2.0 ** (-512 * 0.02), rel=1e-9)
    assert abs(w01) <= 1e-9 * math.sqrt(w00 * w11)


def test_softened_tail_reaching_infinity_raises_no_warning():
    # FiniteII(6.009), members 6 and 5: the tail decays like x^-1.018, so
    # its fold is softened with a high power t = tau^m that underflows to
    # 0 in the deepest panels; x = 1/t is then inf.  Pytest turns
    # RuntimeWarning into an error, so this used to raise.
    from symortho.core import poly_from_params
    from symortho.families import FiniteII
    spec = FiniteII(6.009)
    p6, p5 = (poly_from_params(spec.params, k, monic=True) for k in (6, 5))

    def f(x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.exp(spec.weight_log(x)) * p6(x) * p5(x)
    res = integrate(f, spec.interval(origin_power=1, tail_power=11),
                    on_inconclusive="return")
    assert isinstance(res, quadrature.QuadResult)


# ------------------------------------------------------ exits of integrate


def _inv_abs(x):
    with np.errstate(divide="ignore"):
        return 1.0 / np.abs(x)


def test_log_divergent_whole_line_is_certified():
    # 1/|x| on the whole line, cut at 0: the tree stays open, and the scan
    # measures exponent -1 at the origin and in both tails
    res = integrate(_inv_abs, IntervalSpec(-math.inf, math.inf, ((0.0, None),)),
                    on_inconclusive="return")
    assert res.diverged and not res.converged and res.reason == "certified"


def test_panel_at_the_depth_limit_is_parked_with_its_error():
    # |x|^-0.9 unhinted and cut at 0: the chain on each side stops at the
    # depth-60 panel next to 0, whose error stays on the books; the tree
    # ends there, before its budget, with no verdict: the origin's
    # exponent -0.9 is integrable, so nothing certifies divergence
    sampled = []

    def f(x):
        sampled.append(np.abs(x).min())
        return np.abs(x) ** -0.9
    res = integrate(f, IntervalSpec(-1.0, 1.0, ((0.0, None),)), on_inconclusive="return")
    assert not res.converged and not res.diverged and res.reason == "budget"
    assert res.panels < 2 + 2 * quadrature._MAX_PANELS and res.abs_error_estimate > 0
    assert min(sampled) == 0.5 * 2.0 ** -60 * (1.0 - _NODES[-1])


def test_live_panels_running_out_ends_the_run_with_no_verdict(monkeypatch):
    # a 64-ulp interval with an unhinted pole at the middle node of each
    # half: both halves are non-finite slivers at the resolution limit,
    # each retired with half the first panel's error, and nothing is left
    a, b = 1.0, 1.0 + 2.0 ** -46
    c1, c2 = 1.0 + 2.0 ** -48, 1.0 + 3.0 * 2.0 ** -48

    def f(x):
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(x - c1) + 1.0 / np.abs(x - c2)
    res = integrate(f, IntervalSpec(a, b), on_inconclusive="return")
    assert not res.converged and not res.diverged
    assert res.panels == 3 and res.value == 0.0
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 0)
    first = integrate(f, IntervalSpec(a, b), on_inconclusive="return")
    assert first.panels == 1 and math.isfinite(first.value)
    assert res.abs_error_estimate == first.abs_error_estimate


# ------------------------------------------------ why integrate stopped


def _power(sigma):
    return lambda x: x ** sigma


@pytest.mark.parametrize("f, spec, budget, reason", [
    (np.cos, IntervalSpec(0.0, 1.0), None, "tol"),
    (_power(-3.0), IntervalSpec(0.0, 1.0, ((0.0, -3.0),)), None, "certified"),
    (_power(-1.0), IntervalSpec(0.0, 1.0, ((0.0, -1.0),)), None, "certified"),
    (_inv_abs, IntervalSpec(-math.inf, math.inf, ((0.0, None),)), 100, "certified"),
    (lambda x: np.abs(x - 0.3) ** 0.5, IntervalSpec(-1.0, 1.0), 2, "budget"),
], ids=["tol", "certified-pole", "certified-log", "certified-after-budget", "budget"])
def test_integrate_names_its_exit(f, spec, budget, reason, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(quadrature, "_MAX_PANELS", budget)
    res = integrate(f, spec, on_inconclusive="return")
    assert res.reason == reason
    assert res.converged == (reason == "tol")
    assert res.diverged == (reason == "certified")


def test_integrate_names_its_parity_exits():
    odd = integrate(np.sin, IntervalSpec(-1.0, 1.0), parity="odd")
    assert odd.reason == "odd-parity" and odd.panels == 0 and odd.evals == 0
    even = integrate(_inv_abs, IntervalSpec(-1.0, 1.0, ((0.0, -1.0),)), parity="even",
                     on_inconclusive="return")
    assert even.reason == "certified" and even.diverged


def test_integrate_names_a_starved_run(monkeypatch):
    # the budget exit of a run with a tight budget, returned and raised
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 1)
    res = integrate(np.sin, IntervalSpec(0.0, 1e3), on_inconclusive="return")
    assert res.reason == "budget" and not (res.converged or res.diverged)
    with pytest.raises(MaxDepthExceeded) as info:
        integrate(np.sin, IntervalSpec(0.0, 1e3))
    assert info.value.partial.reason == "budget"


def test_an_unbounded_integrand_without_a_measured_exponent_is_not_certified(monkeypatch):
    # inf past x = 0.5 leaves the tree open, but the scan at the origin
    # reads the exponent 0, which is integrable: no verdict
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 40)
    res = integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), IntervalSpec(0.0, 1.0),
                    on_inconclusive="return")
    assert res.reason == "budget" and not res.diverged
    assert res.abs_error_estimate == math.inf


def test_hand_count_of_a_constant_and_an_odd_integrand():
    # a constant on (0, 1) converges on its one start panel and takes no
    # certificate scan; an odd integrand on a symmetric interval samples
    # nothing
    sizes = []

    def counted(f):
        def g(x):
            sizes.append(x.size)
            return f(x)
        return g
    one = integrate(counted(lambda x: 0 * x + 1.0), (0.0, 1.0))
    assert (one.value, one.converged, one.panels, one.evals) == (1.0, True, 1, 15)
    assert sizes == [15]
    odd = integrate(counted(lambda x: x), (-1.0, 1.0), parity="odd")
    assert odd.converged and (odd.panels, odd.evals) == (0, 0) and sizes == [15]


def test_a_certificate_scan_counts_as_evals():
    # 1/x on (0, 1): the open tree's points, then one scan of the origin's
    # right side (12 points)
    sizes = []

    def f(x):
        sizes.append(x.size)
        return 1.0 / x
    res = integrate(f, IntervalSpec(0.0, 1.0), on_inconclusive="return")
    assert res.diverged and sizes[-1] == 12
    assert res.evals == sum(sizes) == 15 * res.panels + 12


# ------------------------------------------------- non-integrable hints


@pytest.mark.parametrize("sigma", [-1.0, -1.5, -3.0])
def test_non_integrable_endpoint_hint_is_left_raw_and_diverges(sigma):
    # sigma = -1 used to divide by sigma + 1 while choosing the softening
    res = integrate(lambda x: x ** sigma, IntervalSpec(0.0, 1.0, ((0.0, sigma),)),
                    on_inconclusive="return")
    assert res.diverged and not res.converged


def test_softening_power_is_stable_under_one_ulp_of_sigma():
    # 1.8 / (sigma + 1) straddles 12 across these two floats, so the window
    # of candidate powers starts at 12 or 13; it once picked 13 and 20
    sigma = -0.85
    assert math.nextafter(sigma, -1.0) == -0.8500000000000001
    for s in (sigma, -0.8500000000000004):
        m = quadrature._soften_m(s)
        assert m == 20 and m * (s + 1.0) == pytest.approx(3.0, abs=1e-12)


def test_soften_reads_the_divergence_rule():
    # every integrable exponent below 3 that is not an integer is softened,
    # however near -1, and no divergent one is
    assert quadrature._needs_soften(math.nextafter(-1.0, 0.0))
    assert not any(quadrature._needs_soften(s) for s in (-1.0, -1.5, None, 0.0, 2.0, 3.5))


def test_non_integrable_interior_hint_never_converges(monkeypatch):
    def f(x):
        # panels at the resolution limit sample the singular point itself
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(x - 0.5)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 200)
    res = integrate(f, IntervalSpec(0.0, 1.0, ((0.5, -1.0),)), on_inconclusive="return")
    assert not res.converged and res.diverged


_GRID = quadrature._GROWTH_GRID


def _until(logs, top, end):
    """logs on _GROWTH_GRID up to |x| = top, then end."""
    return np.where(_GRID <= top, logs, end)


@pytest.mark.parametrize("logs, want", [
    (_until(_GRID ** 2, 16, math.inf), True),       # e^(x^2), overflowing past 16
    (2 * _GRID, True),                              # e^(2|x|): each rise doubles
    (3 * np.log(_GRID), False),                     # a power: equal rises
    (-_GRID ** 2, False),                           # e^(-x^2) decays
    (_until(_GRID ** 2 - _GRID ** 4 / 800, 32, -math.inf), False),  # turns down past 16
    (_until(_GRID ** 2, 16, -math.inf), False),     # underflows past 16
    (_until(_GRID ** 2, 16, math.nan), False),      # nan past 16
    (_until(_GRID ** 2, 8, math.inf), False),       # overflows before 16
])
def test_grows_superalgebraically(logs, want):
    assert bool(quadrature.grows_superalgebraically(logs)) is want
    both = quadrature.grows_superalgebraically(np.array([logs, 3 * np.log(_GRID)]))
    assert both.tolist() == [want, False]


# ------------------------------------------------------ exponent scan


def _power_rows(x, weight_exp, origin_exps):
    """log w = weight_exp log|x|, rows |x|^e (1 + x^2) for each e."""
    lx = np.log(np.abs(x))
    rows = [e * lx + np.log1p(x * x) for e in origin_exps]
    return weight_exp * lx, np.array(rows)


def test_exponent_scan_measures_every_pair_at_each_side():
    spec = IntervalSpec(-math.inf, math.inf,
                        ((0.0, -0.5), (math.inf, 0.0), (-math.inf, 0.0)))
    exps = (0.0, 1.0, 3.0)
    scan = exponent_scan(lambda x: _power_rows(x, -4.5, exps), spec, degree=5)
    points = [p for p, _, _ in scan]
    assert sorted(points) == [-math.inf, 0.0, 0.0, math.inf]
    for point, sigma, spread in scan:
        # near 0 the rows go like |x|^e, in a tail like |x|^(e + 2)
        shift = 0.0 if point == 0.0 else 2.0
        want = -4.5 + np.add.outer(exps, exps) + (2 * shift)
        assert sigma == pytest.approx(want, abs=1e-6)
        assert np.all(spread < 1e-5)
        assert np.all(np.abs(sigma - want) <= spread + 1e-9)


def test_exponent_scan_only_samples_inside_the_interval():
    spec = IntervalSpec(0.0, 1.0, ((0.0, -0.5), (1.0, None)))
    scan = exponent_scan(lambda x: (np.zeros_like(x), np.zeros((1,) + x.shape)),
                         spec, degree=0)
    assert [p for p, _, _ in scan] == [0.0]


def test_exponent_scan_tail_grid_keeps_degree_64_rows_finite():
    seen = []

    def log_sample(x):
        seen.append(x)
        with np.errstate(over="ignore"):
            return np.zeros_like(x), np.log(np.abs(np.array([x ** 64])))
    spec = IntervalSpec(-math.inf, math.inf, ((math.inf, 0.0),))
    (_, sigma, spread), = exponent_scan(log_sample, spec, degree=64)
    assert np.all(np.isfinite(seen[0] ** 64))
    assert sigma[0, 0] == pytest.approx(128.0) and spread[0, 0] < 1e-9


def test_exponent_scan_marks_non_finite_samples():
    def log_sample(x):
        rows = np.array([np.zeros_like(x), np.where(x > 2.0 ** 18, np.inf, 0.0)])
        return np.zeros_like(x), rows
    spec = IntervalSpec(0.0, math.inf, ((math.inf, 0.0),))
    (_, sigma, spread), = exponent_scan(log_sample, spec, degree=1)
    assert sigma[0, 0] == 0.0
    assert np.isnan(sigma[1]).all() and np.isnan(sigma[:, 1]).all()
    assert np.isnan(spread[1]).all()


@pytest.mark.parametrize("point, sigma, spread, hint, want", [
    (math.inf, -1.0, 1e-8, -1.0, True),         # |x|^-1 tail: log-divergent
    (math.inf, 0.5, 1e-8, 0.5, True),
    (-math.inf, 0.5, 1e-8, 0.5, True),
    (math.inf, -1.5, 1e-8, -1.5, False),        # integrable tail
    (0.0, -1.0, 1e-8, -1.0, True),              # 1/|x| at a finite point
    (0.0, -0.5, 1e-8, -0.5, False),
    (math.inf, 0.5 + 1e-6, 1e-8, 0.5, False),   # disagrees with its hint
    (math.inf, 0.5, 2e-3, 0.5, False),          # spread too wide
    (math.inf, math.nan, math.nan, 0.5, False),
    (math.inf, 0.5, 1e-8, None, False),         # no hint, no certificate
])
def test_certifies_divergence(point, sigma, spread, hint, want):
    assert certifies_divergence(point, sigma, spread, hint) is want


# ------------------------------------------------------- counts


def _gauss_x4(x):
    return np.exp(-x * x) * x ** 4


COUNT_CASES = {
    "smooth": (lambda x: np.cos(7 * x) * np.exp(-x * x),
               IntervalSpec(-math.inf, math.inf), {}),
    "softened endpoint": (lambda x: np.cos(x) / np.sqrt(1.0 - x),
                          IntervalSpec(0.0, 1.0, ((1.0, -0.5),)), {}),
    "even fold": (_gauss_x4, IntervalSpec(-math.inf, math.inf), {"parity": "even"}),
    "divergent": (lambda x: 1.0 / x, IntervalSpec(0.0, 1.0), {}),
    "starved": (lambda x: np.cos(200 * x), IntervalSpec(0.0, 10.0), {}),
}


def _count_case(case, monkeypatch):
    """The result of a COUNT_CASES case and the sizes of its calls of f;
    the starved case runs on a budget of 20 splits."""
    f, spec, kw = COUNT_CASES[case]
    if case == "starved":
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 20)
    sizes = []

    def counted(x):
        sizes.append(len(x))
        return f(x)
    return integrate(counted, spec, on_inconclusive="return", **kw), sizes


def test_count_cases_reach_their_outcomes(monkeypatch):
    outcomes = {case: _count_case(case, monkeypatch)[0] for case in COUNT_CASES}
    assert outcomes["smooth"].converged and outcomes["softened endpoint"].converged
    assert outcomes["even fold"].converged and outcomes["divergent"].diverged
    starved = outcomes["starved"]
    assert not starved.converged and not starved.diverged


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_result_counts_panels_and_evals(case, monkeypatch):
    r, sizes = _count_case(case, monkeypatch)
    probes = sizes.count(1)
    assert r.evals == sum(sizes)
    # only a softened endpoint away from 0 probes its sliver, at 3 points
    assert probes == (3 if case == "softened endpoint" else 0)
    # an open tree adds its certificate's scan: one side of the origin here
    scan = 12 if case in ("divergent", "starved") else 0
    assert r.evals == 15 * r.panels + probes + scan
    if case == "starved":
        assert r.panels == 1 + 2 * 20


def test_parity_shortcuts_report_what_they_sampled():
    spec = IntervalSpec(-math.inf, math.inf)
    odd = integrate(lambda x: x * np.exp(-x * x), spec, parity="odd")
    assert (odd.panels, odd.evals) == (0, 0)
    even = integrate(_gauss_x4, spec, parity="even")
    half = integrate(_gauss_x4, IntervalSpec(0.0, math.inf), atol=0.5e-10)
    assert even.panels == half.panels > 0 and even.evals == half.evals
    assert even.value == 2.0 * half.value


# ------------------------------------------------ a tree started from another


def _block_sampler(basis, nmax):
    from symortho.sturm import _adapt
    ad = _adapt(basis)
    rows = ad.rows(nmax)
    return ad, rows, lambda x: (ad.weight(x), 1.0, _products(rows(x)))


@pytest.mark.parametrize("basis", [GUP(1, 1), U(-0.5)], ids=repr)
def test_a_tree_started_from_another_matches_a_cold_one(basis):
    # expand's residual starts on its numerators' panels; U(-0.5)'s
    # endpoints carry slivers, so its first tree keeps no mesh and the
    # second starts cold
    ad, rows, sample = _block_sampler(basis, 8)
    interval = ad.interval(2)
    cold = integrate_gram(sample, interval, _diagonal_scale)
    other = integrate_gram(lambda x: (ad.weight(x), np.sin(1.5 * x), rows(x)),
                           interval, np.ones(9))
    assert (other.mesh is None) == (basis == U(-0.5))
    warm = integrate_gram(sample, interval, _diagonal_scale, start=other)
    assert warm.converged.all()
    if other.mesh is None:
        assert np.array_equal(warm.value, cold.value) and warm.panels == cold.panels
    else:
        assert np.all(np.abs(warm.value - cold.value) <= 1e-9 * _diagonal_scale(cold.value))
        assert warm.panels >= len(other.mesh[2])


def test_a_started_tree_takes_the_first_trees_plan(monkeypatch):
    ad, _, sample = _block_sampler(GUP(1, 1), 8)
    first = integrate_gram(sample, ad.interval(2), _diagonal_scale)
    plans = []
    real = quadrature._plan
    monkeypatch.setattr(quadrature, "_plan", lambda *a: plans.append(0) or real(*a))
    again = integrate_gram(sample, ad.interval(2), _diagonal_scale, start=first)
    assert plans == [] and again.panels == len(first.mesh[2])
    # the same leaves, retired ones included
    panels = again.mesh[2]
    assert sorted(map(tuple, panels[:, :3])) == sorted(map(tuple, first.mesh[2][:, :3]))


def test_a_start_on_another_interval_is_a_cold_tree():
    ad, _, sample = _block_sampler(GUP(1, 1), 4)
    first = integrate_gram(sample, IntervalSpec(-1.0, 1.0, ((0.0, None),)), _diagonal_scale)
    cold = integrate_gram(sample, ad.interval(2), _diagonal_scale)
    started = integrate_gram(sample, ad.interval(2), _diagonal_scale, start=first)
    assert np.array_equal(started.value, cold.value) and started.panels == cold.panels


def test_a_callable_scale_is_read_from_the_running_totals():
    # the function sees each round's running totals, the last of them the
    # result (GHP(1/2)'s tree takes four rounds); one that returns a fixed
    # array is that array
    ad, _, sample = _block_sampler(GHP(0.5), 6)
    seen = []

    def diagonal(total):
        seen.append(total.copy())
        return _diagonal_scale(total)
    running = integrate_gram(sample, ad.interval(2), diagonal)
    assert len(seen) > 1 and np.array_equal(seen[-1], running.value)
    fixed = _diagonal_scale(running.value)
    called = integrate_gram(sample, ad.interval(2), lambda total: fixed)
    given = integrate_gram(sample, ad.interval(2), fixed)
    assert np.array_equal(called.value, given.value) and called.panels == given.panels


# ----------------------------------------- integrate against mpmath


AGREE = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _within_its_estimate(res, ref):
    """integrate converged, and its value is within its own error estimate
    of the mpmath reference (and the rounding of either)."""
    assert res.converged and res.reason == "tol"
    assert abs(res.value - ref) <= res.abs_error_estimate + 8 * np.finfo(float).eps * abs(ref)


@AGREE
@given(st.floats(-3, 3), st.floats(0.5, 12), st.floats(-1, 1), st.floats(-2, 2),
       st.floats(0.05, 4))
def test_smooth_integrand_agrees_with_mpmath(amp, freq, rate, lo, width):
    hi = lo + width
    res = integrate(lambda x: amp * np.cos(freq * x + 0.3) + np.exp(rate * x),
                    IntervalSpec(lo, hi))
    ref = mp.quad(lambda x: amp * mp.cos(freq * x + 0.3) + mp.exp(rate * x), [lo, hi])
    _within_its_estimate(res, float(ref))


@AGREE
@given(st.floats(-0.95, 3, exclude_max=True), st.sampled_from([0.0, 0.7, -1.3]),
       st.booleans(), st.floats(0.2, 3))
def test_hinted_endpoint_power_agrees_with_mpmath(sigma, c, right, length):
    # |x - c|^sigma cos(x) / (1 + x^2) with c the interval's left or right end
    lo, hi = (c - length, c) if right else (c, c + length)

    def f(x):
        with np.errstate(divide="ignore"):
            return np.abs(x - c) ** sigma * np.cos(x) / (1 + x * x)
    res = integrate(f, IntervalSpec(lo, hi, ((c, sigma),)))
    ref = mp_reference.quad(lambda x: mp.cos(x) / (1 + x * x), lo, hi, [(c, sigma)])
    _within_its_estimate(res, ref)


@AGREE
@given(st.floats(-4, -1.1), st.floats(0.5, 3), st.floats(-2, 2))
def test_algebraic_tail_agrees_with_mpmath(sigma, start, shift):
    # x^sigma (1 + shift / x) on (start, inf), the tail hinted with sigma
    def f(x):
        return x ** sigma * (1 + shift / x)
    res = integrate(f, IntervalSpec(start, math.inf, ((math.inf, sigma),)))
    ref = mp_reference.quad(lambda x: x ** sigma * (1 + shift / x), start, math.inf,
                            tail=sigma)
    _within_its_estimate(res, ref)
