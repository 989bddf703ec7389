"""Contract-level checks, one test per guarantee.

Each test is a single advertised property of the library at its public
tolerance, so `pytest -v` on this file reads as a scorecard.  The unit
suites pin sharper, more local behavior; nothing here is redundant with
them because every check below crosses at least two independent routes
(closed form vs quadrature, explicit vs recurrence, x-space vs mapped
space).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import mp_reference
from symortho import (GHP, GUP, ClassParams, FiniteI, FiniteII, LambdaSpec, Pm, Q, U, V,
                      boundary_term, expand, from_params, generalized_legendre_residual,
                      gram_matrix, lambda_weight_and_gram, legendre_norm, moment_zero,
                      monic_by_recurrence, monic_coeffs, norm_squared, ode_residual_rel,
                      parity_integral, poly_from_params, support_theta, weight_star)


def _monic_oracle(p, q, r, s, n):
    # hand-copied degree <= 5 monic closed forms, exact arithmetic
    one = Fraction(1)
    if n <= 1:
        return [one]
    if n == 2:
        return [one, (q + s) / (p + r)]
    if n == 3:
        return [one, (3 * q + s) / (3 * p + r)]
    if n == 4:
        return [one, 2 * (3 * q + s) / (5 * p + r),
                (3 * q + s) * (q + s) / ((5 * p + r) * (3 * p + r))]
    return [one, 2 * (5 * q + s) / (7 * p + r),
            (5 * q + s) * (3 * q + s) / ((7 * p + r) * (5 * p + r))]


def test_criterion_01_monic_closed_forms_exact_in_rationals():
    rng = random.Random(1401)
    accepted = 0
    while accepted < 50:
        p, q, r, s = (Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(4))
        if any(j * p + r == 0 for j in (1, 3, 5, 7)):
            continue
        if any(j * q + s == 0 for j in (1, 3, 5)):
            continue
        params = ClassParams(p, q, r, s)
        for n in range(6):
            assert monic_coeffs(params, n) == _monic_oracle(p, q, r, s, n)
        accepted += 1


def test_criterion_02_explicit_route_matches_recurrence_route():
    rng = random.Random(1402)
    accepted = 0
    while accepted < 200:
        p, q, r, s = (rng.uniform(-2.0, 2.0) for _ in range(4))
        # keep every denominator either route touches away from zero
        if any(abs(j * p + r) < 0.1 for j in range(-1, 30, 2)):
            continue
        if any(abs(j * q + s) < 0.1 for j in range(1, 16, 2)):
            continue
        params = ClassParams(p, q, r, s)
        for n in range(16):
            a = monic_coeffs(params, n)
            b = monic_by_recurrence(params, n)
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1.0)
        accepted += 1


SUBCLASS_SETTINGS = (GUP(1, 1.5), GUP(0.25, 0.75), GHP(0.0), GHP(2.5),
                     FiniteI(0.3, 2.0), FiniteI(1.2, 9.0),
                     FiniteII(4.0), FiniteII(12.25))


def test_criterion_03_ode_residuals_for_all_subclasses():
    for spec in SUBCLASS_SETTINGS:
        params = spec.params
        span = min(support_theta(params), 3.0)
        xs = np.array([-span + (k + 0.5) * 2 * span / 20 for k in range(20)])
        for n in range(11):
            poly = poly_from_params(params, n)
            worst = float(np.max(ode_residual_rel(params, n, poly, xs)))
            assert worst <= 1e-8, (spec, n, worst)


def test_criterion_04_gup_gram_off_diagonals_and_diagonals():
    spec = GUP(1, 1.5)
    rep = gram_matrix(spec, 8, tol=1e-7)
    assert rep.passed and all(e.status == "ok" for e in rep.entries)
    g = math.gamma
    beta_moment = g(1.5) * g(2.5) / g(4.0)      # B(u + 1/2, v + 1)
    assert moment_zero(spec) == pytest.approx(beta_moment, rel=1e-12)
    diag = {n: norm_squared(spec, n).value for n in range(9)}
    for e in rep.entries:
        if e.n == e.m:
            assert abs(e.quad.value - diag[e.n]) <= 1e-7 * diag[e.n]
        else:
            scale = math.sqrt(diag[e.n] * diag[e.m])
            assert abs(e.quad.value) <= 1e-8 * scale


def test_criterion_05_ghp_diagonals_reduce_to_hermite_norms():
    rep = gram_matrix(GHP(0.0), 8)
    for n in range(9):
        want = math.sqrt(math.pi) * math.factorial(n) / 2 ** n
        got = rep.entry(n, n).quad.value
        assert abs(got - want) <= 1e-10 * want, (n, got, want)


def test_criterion_06_finite2_passes_in_range_and_cliffs_beyond():
    spec = FiniteII(4.5)
    rep = gram_matrix(spec, 4)
    assert rep.passed
    assert abs(rep.entry(0, 0).quad.value - 6.0) <= 1e-8 * 6.0
    # one degree past the certified range: the boundary bracket must leak
    # instead of the divergence being integrated over silently
    sl = from_params(spec.params)
    phi5 = poly_from_params(spec.params, 5)
    assert boundary_term(sl, phi5, phi5) != 0.0


def test_criterion_07_finite1_zeroth_moment_picks_one_closed_form():
    u, v = 0.3, 2.0

    # mpmath, with |x|^(-2u) taken out at 0 and the tail |x|^(-2u-2v) at inf
    quad = 2 * mp_reference.quad(lambda x: (1 + x * x) ** -v, 0.0, math.inf,
                                 [(0.0, -2 * u)], tail=-2 * u - 2 * v)
    g = math.gamma
    # both printed variants, evaluated live; exactly one should survive
    candidates = {
        "gamma(v)": g(0.5 - u) * g(u + v - 0.5) / g(v),
        "gamma(u+v)": g(0.5 - u) * g(u + v - 0.5) / g(u + v),
    }
    matches = [name for name, val in candidates.items()
               if abs(quad - val) <= 1e-8 * abs(val)]
    assert len(matches) == 1, (quad, candidates)
    print(f"n=m=0 quadrature sides with the {matches[0]} denominator")
    assert matches == ["gamma(v)"]
    assert moment_zero(FiniteI(u, v)) == pytest.approx(
        candidates["gamma(v)"], rel=1e-12)


def _kind_quad_norm(kind, n):
    return mp_reference.kind_product(kind, n, n)


def test_criterion_08_legendre_kind_norms_match_quadrature():
    for m in range(7):
        for i in range(m, 7):
            display = (2 * math.factorial(i + m)
                       / ((2 * i + 1) * math.factorial(i - m)))
            assert abs(_kind_quad_norm(Pm(m), i) - display) <= 1e-7 * display
    for alpha in (0.0, 0.5, 2.0):
        for n in range(7):
            display = legendre_norm(U(alpha), n)
            assert abs(_kind_quad_norm(U(alpha), n) - display) <= 1e-7 * display
    for alpha in (0.5, -0.5):
        for n in range(7):
            display = legendre_norm(V(alpha), n)
            assert abs(_kind_quad_norm(V(alpha), n) - display) <= 1e-7 * display


def test_criterion_09_q_kind_equation_norms_and_beta_values():
    right = np.linspace(0.06, 0.94, 10)
    xs = np.concatenate([-right[::-1], right])
    g = math.gamma
    for b in (0.0, 0.5, 2.0):
        kind = Q(b)
        for n in range(7):
            res = generalized_legendre_residual(kind, n, xs,
                                                e_choice="-2/x^2")
            assert float(np.max(np.abs(res))) <= 1e-8, (b, n)
            display = legendre_norm(kind, n)
            assert abs(_kind_quad_norm(kind, n) - display) <= 1e-7 * display
        # n = 0, 1 norms have independent Beta-function forms
        beta0 = g(1.5) * g(b + 1) / g(b + 2.5)
        beta1 = g(2.5) * g(b + 1) / g(b + 3.5)
        assert legendre_norm(kind, 0) == pytest.approx(beta0, rel=1e-10)
        assert legendre_norm(kind, 1) == pytest.approx(beta1, rel=1e-10)


def test_criterion_10_cube_root_gram_equals_quadratic_gram():
    spec = LambdaSpec(-1, 1, Fraction(-8, 3), Fraction(4, 3), Fraction(2, 3))
    assert spec.mapped_params == GUP(1, 1).params
    rep_t = lambda_weight_and_gram(spec, 6, tol=1e-7)
    assert rep_t.passed
    rep_x = gram_matrix(GUP(1, 1), 6, tol=1e-7)
    assert rep_x.passed
    for e in rep_t.entries:
        twin = rep_x.entry(e.n, e.m)
        assert abs(e.quad.value - twin.quad.value) <= 1e-8, (e.n, e.m)


def test_criterion_11_parity_functional_vanishes_and_weight_is_even():
    for spec in (GUP(1, 1.5), GHP(0.5), FiniteI(0.3, 2.0), FiniteII(8.0)):
        sl = from_params(spec.params)
        polys = [poly_from_params(spec.params, n) for n in range(7)]
        for n in range(7):
            for m in range(7):
                val = parity_integral(sl, polys[n], polys[m])
                if n % 2 == m % 2:
                    assert val == 0.0
                else:
                    assert abs(val) <= 1e-10, (spec, n, m, val)
        span = min(support_theta(spec.params), 3.0)
        xs = np.linspace(0.02, 0.98, 50) * span
        ws = weight_star(sl, xs)
        assert np.all(ws > 0), spec
        assert float(np.max(np.abs(ws - weight_star(sl, -xs)))) == 0.0


def test_criterion_12_expansion_recovers_x5_and_unit_coefficient():
    basis = GUP(1, 1)
    series = expand(lambda x: x ** 5, basis, 8)
    assert series.residual <= 1e-8
    phi3 = poly_from_params(basis.params, 3, monic=True)
    back = expand(phi3, basis, 8)
    assert abs(back.coefficients[3] - 1.0) <= 1e-9
