"""Adaptive quadrature: exactness, hints, tails, parity, divergence."""

import math
from fractions import Fraction

import numpy as np
import pytest

from symortho import quadrature
from symortho.quadrature import (_NODES, _WGF, _WK, IntervalSpec, _gk_panel,
                                 integrate, integrate_gram)
from symortho.errors import MaxDepthExceeded


def test_rule_exact_on_low_degree():
    # the 15-point Kronrod rule integrates polynomials up to degree 22
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(23)
    exact = sum(c / (k + 1) * (2.0 ** (k + 1) - (-1.0) ** (k + 1))
                for k, c in enumerate(coeffs))
    val, err, ok = _gk_panel(lambda x: np.polynomial.polynomial.polyval(x, coeffs),
                             -1.0, 2.0)
    assert ok
    assert val == pytest.approx(exact, rel=1e-13)


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


def test_log_divergent_tails_flagged():
    # x^8 against |x|^-9 exp(-1/x^2): integrand ~ 1/|x| at infinity
    def g(x):
        with np.errstate(divide="ignore", over="ignore"):
            return x ** 8 * np.abs(x) ** -9.0 * np.exp(-1.0 / (x * x))
    spec = IntervalSpec(-math.inf, math.inf,
                        ((0.0, None), (math.inf, -1.0), (-math.inf, -1.0)))
    r = integrate(g, spec, on_inconclusive="return")
    assert r.diverged


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_inconclusive_raises_with_partial():
    # integrable endpoint singularity left unhinted: no determination
    with pytest.raises(MaxDepthExceeded) as exc:
        integrate(lambda x: (1.0 - x) ** -0.5, IntervalSpec(0.0, 1.0),
                  max_panels=600)
    partial = exc.value.partial
    assert not partial.converged and not partial.diverged
    assert partial.value == pytest.approx(2.0, abs=1e-4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_inconclusive_return_mode():
    r = integrate(lambda x: (1.0 - x) ** -0.5, IntervalSpec(0.0, 1.0),
                  max_panels=600, on_inconclusive="return")
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


def _legendre_sample(nmax):
    def sample(x):
        return 1.0, np.array([np.polynomial.legendre.Legendre.basis(k)(x)
                              for k in range(nmax + 1)])
    return sample


def test_gram_tree_legendre_identity():
    nmax = 10
    norms = [2.0 / (2 * k + 1) for k in range(nmax + 1)]
    spec = IntervalSpec(-1.0, 1.0)
    for fold in (False, True):
        res = integrate_gram(_legendre_sample(nmax), spec, norms, fold=fold)
        assert res.converged.all()
        assert np.allclose(res.value, np.diag(norms), rtol=0, atol=1e-14)
        assert res.value.shape == (nmax + 1, nmax + 1)
    # folded: mixed-parity entries are exactly zero with zero error
    assert res.value[3, 0] == 0.0 and res.error[3, 0] == 0.0


def test_gram_tree_running_diagonal_and_endpoint_sliver():
    # arcsine weight: Chebyshev polynomials, norms pi, pi/2, ...; the
    # endpoint exponent -1/2 at a nonzero anchor takes the analytic sliver
    nmax = 8

    def sample(x):
        with np.errstate(divide="ignore"):
            w = (1.0 - x * x) ** -0.5
        return w, np.array([np.cos(k * np.arccos(x)) for k in range(nmax + 1)])
    spec = IntervalSpec(-1.0, 1.0, ((-1.0, -0.5), (1.0, -0.5)))
    res = integrate_gram(sample, spec, None, fold=True)
    want = np.diag([math.pi] + [math.pi / 2] * nmax)
    assert res.converged.all()
    assert np.allclose(res.value, want, rtol=0, atol=1e-9)


def test_gram_tree_budget_leaves_entries_open(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 0)
    res = integrate_gram(_legendre_sample(30), IntervalSpec(-1.0, 1.0),
                         [2.0 / (2 * k + 1) for k in range(31)])
    assert res.panels == 1
    assert not res.converged.all()
    assert res.converged[0, 0]


def test_gram_tree_unresolvable_integrand_stays_open_and_bounded(monkeypatch):
    # an unhinted oscillating singularity: the low entries cannot converge,
    # and the tree stops at the split budget with its live set capped
    def sample(x):
        with np.errstate(divide="ignore"):
            w = np.abs(x - 0.3) ** -0.5 + np.abs(np.sin(1.0 / (x - 0.7)))
        return w, np.array([x ** k for k in range(25)])
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 600)
    res = integrate_gram(sample, IntervalSpec(-1.0, 1.0), np.ones(25))
    assert not res.converged[:4, :4].any()
    assert res.panels == 1 + 2 * 600
    assert np.all(np.isfinite(res.value))


def test_gram_tree_two_row_sets():
    # int x^3 P_n over (-1, 1): 2/5 at n = 1, 4/35 at n = 3, else 0
    nmax = 6
    members = _legendre_sample(nmax)

    def sample(x):
        return 1.0, np.array([x ** 3]), members(x)[1]
    norms = [2.0 / (2 * k + 1) for k in range(nmax + 1)]
    want = np.zeros((1, nmax + 1))
    want[0, 1], want[0, 3] = 2 / 5, 4 / 35
    res = integrate_gram(sample, IntervalSpec(-1.0, 1.0), ([2 / 7], norms))
    assert res.value.shape == res.converged.shape == (1, nmax + 1)
    assert res.converged.all()
    assert np.allclose(res.value, want, rtol=0, atol=1e-15)


def test_gram_tree_two_row_sets_stop_on_their_own_scales(monkeypatch):
    # the scale of the left set enters each entry's stopping rule: a huge
    # left norm accepts at once what a tiny one leaves open at the budget
    def sample(x):
        return 1.0, np.array([np.abs(x - 0.3) ** 0.5]), np.array([np.ones_like(x)])
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
    spec = IntervalSpec(-1.0, 1.0)
    assert integrate_gram(sample, spec, ([1e16], [2.0])).converged.all()
    assert not integrate_gram(sample, spec, ([1e-12], [2.0])).converged.any()


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
