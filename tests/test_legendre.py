"""Jacobi evaluation routes, Legendre-type kinds, norms, shared-equation residuals."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import mp_reference
from symortho import core, legendre
from symortho.core import _CHUNK, ClassParams, recurrence_c
from symortho.errors import ConstraintViolation, SingularPoint
from symortho.families import GUP, make_subclass, moment_zero
from symortho.legendre import (G, JacobiParams, Pm, Q, U, V, eval_jacobi,
                               eval_legendre_fn,
                               generalized_legendre_residual, jacobi_coeffs,
                               kind_rows, legendre_mu_nu, legendre_norm,
                               member_fn)


def _poly_deriv(coeffs):
    return [j * c for j, c in enumerate(coeffs)][1:] or [0 * coeffs[0]]


def _poly_val(coeffs, x):
    return np.polynomial.polynomial.polyval(x, np.array([float(c) for c in coeffs]))


def test_jacobi_params_validated():
    with pytest.raises(ConstraintViolation):
        JacobiParams(-1, 0)
    with pytest.raises(ConstraintViolation):
        JacobiParams(0, -1.2)


def test_jacobi_base_cases():
    jp = JacobiParams(0, 0)
    assert eval_jacobi(0, jp, 0.37) == 1
    assert eval_jacobi(1, jp, 0.37) == pytest.approx(0.37, abs=1e-16)
    assert eval_jacobi(2, jp, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_jacobi_sum_vs_recurrence_vs_mpmath():
    rng = np.random.default_rng(7)
    for _ in range(40):
        al, be = rng.uniform(-0.9, 3, size=2)
        n = int(rng.integers(0, 10))
        x = float(rng.uniform(-0.99, 0.99))
        jp = JacobiParams(al, be)
        through_sum = eval_jacobi(n, jp, x)
        through_rec = _poly_val(jacobi_coeffs(n, jp), x)
        oracle = float(mpmath.jacobi(n, al, be, x))
        scale = max(1.0, abs(oracle))
        assert through_sum == pytest.approx(oracle, abs=1e-9 * scale)
        assert through_rec == pytest.approx(oracle, abs=1e-9 * scale)


def test_jacobi_exact_rational_routes_agree():
    jp = JacobiParams(Fraction(1, 2), Fraction(-1, 4))
    x = Fraction(1, 3)
    coeffs = jacobi_coeffs(3, jp)
    assert all(isinstance(c, Fraction) for c in coeffs)
    direct = sum(c * x ** i for i, c in enumerate(coeffs))
    assert eval_jacobi(3, jp, x) == direct


def test_legendre_polynomial_coeffs_match_numpy():
    for n in range(9):
        ref = np.polynomial.Legendre.basis(n).convert(
            kind=np.polynomial.Polynomial).coef
        mine = [float(c) for c in jacobi_coeffs(n, JacobiParams(0, 0))]
        assert np.allclose(mine, ref, rtol=0, atol=1e-13)


def test_kind_constraints():
    with pytest.raises(ConstraintViolation):
        U(-1)
    with pytest.raises(ConstraintViolation):
        Pm(-1)
    with pytest.raises(ConstraintViolation):
        Pm(1.5)
    with pytest.raises(ConstraintViolation):
        V(1)
    with pytest.raises(ConstraintViolation):
        G(-0.5, 0)
    with pytest.raises(ConstraintViolation):
        Q(-1)


def test_eval_special_values():
    # zero-order derivative and unit prefactor both collapse to P_n
    x = np.linspace(-0.9, 0.9, 13)
    pn = _poly_val(jacobi_coeffs(4, JacobiParams(0, 0)), x)
    assert eval_legendre_fn(Pm(0), 4, x) == pytest.approx(pn, rel=1e-14)
    assert eval_legendre_fn(U(0), 4, x) == pytest.approx(pn, rel=1e-14)
    # vanishing branch, returned rather than raised
    assert eval_legendre_fn(Pm(3), 1, 0.4) == 0.0
    # direct arithmetic for the simplest weighted member
    assert eval_legendre_fn(Q(0.5), 0, 0.6) == pytest.approx(0.6 * 0.64 ** 0.25)


def test_eval_domain_checked():
    for bad in (1.0, -1.0, 1.7):
        with pytest.raises(ConstraintViolation):
            eval_legendre_fn(U(0.5), 2, bad)
    with pytest.raises(ConstraintViolation):
        eval_legendre_fn(Q(1), 2, np.array([0.3, -1.0]))


def test_q_is_g_at_one():
    x = np.linspace(-0.95, 0.95, 17)
    for n in range(5):
        assert eval_legendre_fn(Q(1.5), n, x) == pytest.approx(
            eval_legendre_fn(G(1, 1.5), n, x), rel=0, abs=1e-300)


def test_q_parity_flips():
    x = np.array([0.12, 0.45, 0.83])
    for n in range(6):
        left = eval_legendre_fn(Q(2), n, -x)
        right = (-1) ** (n + 1) * eval_legendre_fn(Q(2), n, x)
        assert left == pytest.approx(right, abs=1e-14)


def test_u_parity_even_odd():
    x = np.array([0.2, 0.61])
    for n in range(6):
        assert eval_legendre_fn(U(0.7), n, -x) == pytest.approx(
            (-1) ** n * eval_legendre_fn(U(0.7), n, x), abs=1e-14)


def test_norm_closed_forms():
    assert legendre_norm(Pm(0), 2) == pytest.approx(0.4, rel=1e-15)
    assert legendre_norm(U(0), 1) == pytest.approx(2 / 3, rel=1e-15)
    assert legendre_norm(V(0.5), 0) == pytest.approx(math.pi, rel=1e-14)
    # removable 0 * gamma-pole pairing at the parameter edge
    assert legendre_norm(U(-0.5), 0) == pytest.approx(math.pi, rel=1e-14)
    with pytest.raises(ConstraintViolation):
        legendre_norm(Pm(2), 1)


@pytest.mark.parametrize("kind", [U(0.5), U(-0.7), V(0.3), V(-0.6)], ids=repr)
@pytest.mark.parametrize("n", [128, 160, 200])
def test_u_and_v_norms_stay_finite_at_high_degree(kind, n):
    # gamma(n + al + 1)^2 and n!^2 overflow a float from about n = 128
    al = mpmath.mpf(kind.alpha)
    with mpmath.workdps(40):
        if isinstance(kind, U):
            want = (2 ** (2 * al + 1) * mpmath.gamma(n + al + 1) ** 2
                    / (mpmath.factorial(n) * (2 * n + 2 * al + 1) * mpmath.gamma(n + 2 * al + 1)))
        else:
            want = (2 * mpmath.gamma(n + 1 + al) * mpmath.gamma(n + 1 - al)
                    / (mpmath.factorial(n) ** 2 * (2 * n + 1)))
    assert legendre_norm(kind, n) == pytest.approx(float(want), rel=1e-12)


def test_q_norm_display_matches_weighted_family_route():
    # running-product closed form vs the recurrence-coefficient product
    # behind the weighted family norms; independent derivations
    for b in (0, 0.5, 2, 4.25):
        for n in range(8):
            display = legendre_norm(Q(b), n)
            family = legendre_norm(G(1, b), n)
            assert display == pytest.approx(family, rel=1e-12)


def test_q_norm_small_n_beta_values():
    for b in (0.5, 2):
        b0 = math.gamma(1.5) * math.gamma(b + 1) / math.gamma(b + 2.5)
        b1 = math.gamma(2.5) * math.gamma(b + 1) / math.gamma(b + 3.5)
        assert legendre_norm(Q(b), 0) == pytest.approx(b0, rel=1e-13)
        assert legendre_norm(Q(b), 1) == pytest.approx(b1, rel=1e-13)


@pytest.mark.parametrize("kind", [U(0.5), U(-0.5), Pm(2), V(0.5), V(-0.8),
                                  Q(2), G(0.7, 1.5)])
def test_orthogonality_and_diagonal(kind):
    base = kind.m if isinstance(kind, Pm) else 0
    diag_scale = abs(legendre_norm(kind, base))
    for n in range(base, base + 4):
        for m in range(base, n + 1):
            r = mp_reference.kind_product(kind, n, m)
            if n == m:
                assert r == pytest.approx(legendre_norm(kind, n), rel=1e-8)
            else:
                assert abs(r) < 1e-9 * max(1.0, diag_scale)


def test_mu_nu_values():
    assert legendre_mu_nu(U(0.5), 2) == (2.5 * 3.5, 0.25)
    assert legendre_mu_nu(Pm(3), 4) == (20, 9)
    assert legendre_mu_nu(V(-0.3), 1) == (2, pytest.approx(0.09))
    assert legendre_mu_nu(Q(1), 2) == (4 * 5, 1)
    assert legendre_mu_nu(G(1, 1), 2) == (4 * 5, 1)


def test_residual_classical_kinds():
    xs = np.array([-0.7, -0.2, 0.3, 0.8])
    for kind in (U(0), U(0.5), U(2), Pm(1), Pm(2), V(0.3), V(-0.5)):
        for n in range(5):
            res = generalized_legendre_residual(kind, n, xs)
            assert np.max(np.abs(res)) < 1e-10, (kind, n)


def test_residual_q_needs_inverse_square_term():
    res = generalized_legendre_residual(Q(1), 2, 0.5, e_choice="-2/x^2")
    assert abs(res) < 1e-9
    for b in (0, 0.5, 2):
        for n in range(7):
            r = generalized_legendre_residual(Q(b), n, 0.41, e_choice="-2/x^2")
            assert abs(r) < 1e-8, (b, n)
    # wrong pairing on an odd degree leaves a visible defect
    assert abs(generalized_legendre_residual(Q(1), 3, 0.5, e_choice="zero")) > 0.1


def test_residual_nu_override_and_validation():
    same = generalized_legendre_residual(U(0.5), 3, 0.3, nu=0.25)
    assert same == pytest.approx(generalized_legendre_residual(U(0.5), 3, 0.3))
    with pytest.raises(ConstraintViolation):
        generalized_legendre_residual(U(0.5), 3, 0.3, e_choice="bogus")
    with pytest.raises(SingularPoint):
        generalized_legendre_residual(Q(1), 3, 0.0, e_choice="-2/x^2")
    with pytest.raises(ConstraintViolation):
        generalized_legendre_residual(U(0.5), 3, 1.0)


def test_residual_generic_g_is_off_form():
    # a = 1/2 carries an extra origin term neither E choice reproduces
    assert abs(generalized_legendre_residual(G(0.5, 1), 2, 0.5)) > 1e-3


# ------------------------------------------------- recurrence evaluation


@pytest.mark.parametrize("kind", [U(0.6), U(-0.5), V(0.3), V(-0.8), Pm(0), Pm(2),
                                  Pm(3), G(0.7, 1.0), Q(1.0)], ids=repr)
def test_kind_rows_match_member_fn(kind):
    x = np.linspace(-0.999, 0.999, 201)
    base = kind.m if isinstance(kind, Pm) else 0
    rows = kind_rows(kind, 8)(x)
    assert rows.shape == (9 - base, 201)
    for n in range(base, 9):
        ref = member_fn(kind, n)(x)
        assert np.max(np.abs(rows[n - base] - ref)) <= 1e-12 * np.max(np.abs(ref)), n


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_pm_value_recurrence_exact_to_degree_24(m):
    # (n+m)!/(2^m n!) P_{n-m}^(m,m) against d^m P_n / dx^m in exact rationals
    xs = [Fraction(k, 1000) for k in range(-999, 1000, 37)]
    x = np.array([float(v) for v in xs])
    pref = (1 - x * x) ** (m / 2)
    rows = kind_rows(Pm(m), 24)(x)
    for n in range(m, 25):
        c = jacobi_coeffs(n, JacobiParams(0, 0))
        for _ in range(m):
            c = _poly_deriv(c)
        exact = pref * np.array([float(sum(ck * v ** k for k, ck in enumerate(c)))
                                 for v in xs])
        assert np.max(np.abs(rows[n - m] - exact)) <= 1e-12 * np.max(np.abs(exact)), n


# ------------------------------------------- member_fn by recurrence


def _exact_jacobi(n, al, be, x):
    # P_0..P_n^(al, be) at a Fraction x by Szego's eq. 4.5.1, exactly
    out = [Fraction(1), (al - be) / 2 + (al + be + 2) * x / 2]
    for k in range(1, n):
        t = 2 * k + al + be
        out.append(((t + 1) * (t * (t + 2) * x + al * al - be * be) * out[k]
                    - 2 * (k + al) * (k + be) * (t + 2) * out[k - 1])
                   / (2 * (k + 1) * (k + al + be + 1) * t))
    return out[:n + 1]


def _exact_monic(n, params, x):
    # Sb_0..Sb_n of the monic class at a Fraction x, exact C_k
    out = [Fraction(1), x]
    for k in range(1, n):
        out.append(x * out[k] + recurrence_c(params, k) * out[k - 1])
    return out[:n + 1]


def _exact_members(kind, nmax, xs):
    """(nmax + 1, len(xs)): an exact rational polynomial factor, rounded
    once, times the prefactor in floats."""
    rows = []
    for xf in xs:
        x = Fraction(xf)
        one_m = 1 - xf * xf
        if isinstance(kind, (U, V)):
            al = Fraction(kind.alpha)
            be = al if isinstance(kind, U) else -al
            pref = (one_m ** (kind.alpha / 2) if isinstance(kind, U)
                    else ((1 - xf) / (1 + xf)) ** (kind.alpha / 2))
            poly = _exact_jacobi(nmax, al, be, x)
        elif isinstance(kind, Pm):
            m = kind.m
            pref = one_m ** (m / 2)
            jac = _exact_jacobi(nmax - m, Fraction(m), Fraction(m), x)
            poly = [0] * m + [Fraction(math.factorial(n + m), 2 ** m * math.factorial(n))
                              * jac[n - m] for n in range(m, nmax + 1)]
        else:
            a = Fraction(1 if isinstance(kind, Q) else kind.a)
            b = Fraction(kind.b)
            pref = math.copysign(abs(xf) ** float(a), xf) * one_m ** (float(b) / 2)
            poly = _exact_monic(nmax, ClassParams(-1, 1, -2 * a - 2 * b - 2, 2 * a), x)
        rows.append([pref * float(p) for p in poly])
    return np.array(rows).T


@pytest.mark.parametrize("kind", [U(0.5), U(-0.5), Pm(1), Pm(3), V(0.3), V(-0.8),
                                  G(0.5, 1), Q(0.5)], ids=repr)
def test_member_fn_exact_to_degree_64(kind):
    # Horner on monomial coefficients was off by up to 1e+6 of max|member|
    # here; the recurrence stays at rounding
    xs = np.array([-0.999, -0.97, -0.8, -0.55, -0.3, -0.05, 0.0, 0.2, 0.45, 0.7,
                   0.9, 0.99, 0.999])
    exact = _exact_members(kind, 64, xs)
    for n in range(65):
        got = eval_legendre_fn(kind, n, xs)
        scale = np.max(np.abs(exact[n]))
        assert np.max(np.abs(got - exact[n])) <= 1e-12 * scale, n


@pytest.mark.parametrize("kind", [U(0.5), V(-0.8), Pm(2), Q(0.5)], ids=repr)
def test_member_fn_keeps_shape_across_blocks(kind):
    # more points than one block, in two dimensions, and a scalar
    x = np.linspace(-0.99, 0.99, 2 * _CHUNK + 7).reshape(-1, 1)
    got = member_fn(kind, 12)(x)
    assert got.shape == x.shape
    base = kind.m if isinstance(kind, Pm) else 0
    row = kind_rows(kind, 12)(x.ravel())[12 - base]
    assert np.max(np.abs(got.ravel() - row)) <= 1e-13 * np.max(np.abs(row))
    assert eval_legendre_fn(kind, 12, 0.3) == pytest.approx(
        float(member_fn(kind, 12)(np.array([0.3]))[0]), rel=1e-15)


def test_member_fn_builds_no_coefficients(monkeypatch):
    def refuse(*args):
        raise AssertionError("monomial coefficients built")
    monkeypatch.setattr(legendre, "jacobi_coeffs", refuse)
    monkeypatch.setattr(core, "explicit_coeffs", refuse)
    x = np.linspace(-0.9, 0.9, 7)
    for kind in (U(0.5), Pm(2), V(0.3), G(0.5, 1), Q(0.5)):
        assert np.all(np.isfinite(eval_legendre_fn(kind, 20, x)))
        assert np.all(np.isfinite(generalized_legendre_residual(kind, 20, x)))


def test_member_fn_memory_is_a_few_rows():
    # two rows per block: the peak is the output plus one block's rows at
    # any degree, where a table of members 0..64 would be 65 arrays
    x = np.linspace(-0.99, 0.99, 100_000)
    for kind in (U(0.5), V(0.3), Pm(1), Q(0.5)):
        tracemalloc.start()
        try:
            member_fn(kind, 64)(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * x.nbytes, (kind, peak)


def _mp_member(kind, n):
    """The degree-n member as an mpmath function: mpmath's hypergeometric
    Jacobi (Pm by d^m P_n / dx^m = (n+m)! / (2^m n!) P_{n-m}^(m,m)), or the
    exact monic recurrence in mpf for Q."""
    if isinstance(kind, Q):
        params = ClassParams(-1, 1, -2 * Fraction(kind.b) - 4, 2)
        cs = [mpmath.mpf(recurrence_c(params, k).numerator)
              / recurrence_c(params, k).denominator for k in range(1, n)]

        def f(x):
            prev, cur = mpmath.mpf(1), x
            for c in cs:
                prev, cur = cur, x * cur + c * prev
            return x * (1 - x * x) ** (mpmath.mpf(kind.b) / 2) * (cur if n else 1)
        return f
    if isinstance(kind, Pm):
        m = kind.m
        scale = mpmath.factorial(n + m) / (2 ** m * mpmath.factorial(n))
        return lambda x: (1 - x * x) ** (mpmath.mpf(m) / 2) * scale * mpmath.jacobi(n - m, m, m, x)
    al = mpmath.mpf(kind.alpha)
    if isinstance(kind, U):
        return lambda x: (1 - x * x) ** (al / 2) * mpmath.jacobi(n, al, al, x)
    return lambda x: ((1 - x) / (1 + x)) ** (al / 2) * mpmath.jacobi(n, al, -al, x)


@pytest.mark.parametrize("kind,e_choice", [(U(0.5), "zero"), (Pm(1), "zero"),
                                           (V(0.3), "zero"), (Q(0.5), "-2/x^2")],
                         ids=repr)
def test_residual_at_degree_40_within_rounding(kind, e_choice):
    # relative to the largest term of the equation, from mpmath at 40 digits
    n = 40
    mu, nu = legendre_mu_nu(kind, n)
    f = _mp_member(kind, n)
    with mpmath.workdps(40):
        for x in (-0.7, 0.3, 0.61, 0.95):
            xm = mpmath.mpf(x)
            psi, d1, d2 = (mpmath.diff(f, xm, k) for k in range(3))
            e = -2 / xm ** 2 if e_choice != "zero" else 0
            terms = ((1 - xm * xm) * d2, 2 * xm * d1,
                     (mu - nu / (1 - xm * xm) + e) * psi)
            scale = float(max(abs(t) for t in terms))
            res = generalized_legendre_residual(kind, n, x, e_choice=e_choice)
            assert abs(res) <= 1e-10 * scale, (x, res / scale)


def test_nan_is_outside_the_domain():
    for x in (math.nan, np.array([0.2, math.nan])):
        with pytest.raises(ConstraintViolation):
            eval_legendre_fn(U(0.5), 3, x)
        with pytest.raises(ConstraintViolation):
            generalized_legendre_residual(U(0.5), 3, x)


def test_kind_rows_below_base_degree_refused():
    with pytest.raises(ConstraintViolation):
        kind_rows(Pm(3), 1)
    with pytest.raises(ConstraintViolation):
        kind_rows(U(0.5), -1)
    assert kind_rows(Pm(3), 3)(np.array([0.5])).shape == (1, 1)


def test_kind_and_family_functions_refuse_other_objects():
    for other in (GUP(1, 1), object()):
        with pytest.raises(TypeError):
            legendre_mu_nu(other, 2)
        with pytest.raises(TypeError):
            legendre_norm(other, 2)
    for other in (U(0.5), object()):
        with pytest.raises(ConstraintViolation):
            moment_zero(other)
        with pytest.raises(ConstraintViolation):
            make_subclass(other)


@pytest.mark.parametrize("exact, approx", [
    (U(Fraction(1, 2)), U(0.5)), (V(Fraction(1, 3)), V(1 / 3)),
    (G(Fraction(1, 2), Fraction(1, 4)), G(0.5, 0.25)), (Q(Fraction(1, 2)), Q(0.5))],
    ids=repr)
def test_rational_kind_parameters_give_float_results(exact, approx):
    x = np.linspace(-0.9, 0.95, 7)
    e_choice = "-2/x^2" if isinstance(exact, Q) else "zero"
    # exact parameters reach V's, G's and Q's recurrence coefficients as
    # exact rationals (U takes its class from float(alpha)), so the two
    # sides agree to rounding, not bit for bit
    res = generalized_legendre_residual(exact, 7, x, e_choice)
    assert res.dtype == np.float64
    ref = generalized_legendre_residual(approx, 7, x, e_choice)
    assert np.allclose(res, ref, rtol=1e-10, atol=1e-12)
    val, ref = eval_legendre_fn(exact, 7, x), eval_legendre_fn(approx, 7, x)
    assert val.dtype == np.float64
    assert np.max(np.abs(val - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_g_and_q_class_params_are_one_instance_per_kind():
    for kind in (G(0.5, 1.0), Q(0.5)):
        assert kind.params is kind.params
    assert Q(0.5).params == G(1, 0.5).params


@pytest.mark.parametrize("make, module, name", [
    (lambda: U(0.5), core, "recurrence_c"),
    (lambda: Pm(2), core, "recurrence_c")], ids=["U", "Pm"])
def test_jacobi_kind_coefficients_are_built_once_per_kind(monkeypatch, make, module, name):
    # U and Pm take C_k from their class; each coefficient is built once
    # per instance, k = 1..63 - base at degree 64
    built = []
    real = getattr(module, name)

    def counting(*args):
        built.append(args[-1])
        return real(*args)
    x = np.linspace(-0.99, 0.99, 9)
    fresh = {n: member_fn(make(), n)(x) for n in range(65)}
    monkeypatch.setattr(module, name, counting)
    kind = make()
    for n in range(65):
        # every degree is a prefix of the coefficients already built
        assert np.array_equal(member_fn(kind, n)(x), fresh[n])
    kind_rows(kind, 64)(x)
    assert sorted(built) == list(range(1, 64 - kind.base))


@pytest.mark.parametrize("alpha", [-0.8, -0.3, 0.3, 0.9, 1 / 3], ids=repr)
def test_v_recurrence_is_the_closed_form_jacobi_one(monkeypatch, alpha):
    # at beta = -alpha the monic Jacobi recurrence is b_0 = -alpha, b_k = 0,
    # c_k = -(k^2 - alpha^2)/(4k^2 - 1), lead_n = binom(2n, n)/2^n (DLMF
    # 18.9); the general step gives the same to rounding
    rec = V(alpha).recurrence(64)
    # P_1 = x + alpha
    b, c, lead, ratio = [-alpha], [0.0], [1.0, 1.0], 1.0
    for k in range(1, 64):
        a1, a2, a3, a4 = legendre._jacobi_step(alpha, -alpha, k)
        b.append(-a2 / a3)
        c.append(-a4 / (a3 * ratio))
        ratio = a3 / a1
        lead.append(lead[-1] * ratio)
    assert rec.b == b == [-alpha] + [0.0] * 63
    assert np.allclose(rec.c, c, rtol=1e-15, atol=0)
    assert np.allclose(rec.scale, lead, rtol=1e-14, atol=0)

    # no step is taken to build V's members, and a fresh instance gives the
    # same values as a reused one, bit for bit
    steps = []
    real = legendre._jacobi_step
    monkeypatch.setattr(legendre, "_jacobi_step", lambda *a: steps.append(a) or real(*a))
    x = np.linspace(-0.99, 0.99, 9)
    kind = V(alpha)
    for n in range(65):
        assert np.array_equal(member_fn(kind, n)(x), member_fn(V(alpha), n)(x)), n
    kind_rows(kind, 64)(x)
    assert steps == []


@pytest.mark.parametrize("kind", [U(-0.5), U(0.5), U(1), U(2), Pm(1), Pm(2)], ids=repr)
def test_u_and_pm_are_g_at_a_zero(kind):
    # U(alpha) is G(0, alpha) and Pm(m) is G(0, m) shifted by m, each member
    # up to a constant factor, here the least-squares one over the grid
    g = G(0, kind.b)
    assert kind.params == g.params
    x = np.linspace(-0.95, 0.95, 41)
    for n in range(kind.base, 13):
        mine, theirs = member_fn(kind, n)(x), member_fn(g, n - kind.base)(x)
        ratio = mine @ theirs / (theirs @ theirs)
        assert np.max(np.abs(mine - ratio * theirs)) <= 1e-14 * np.max(np.abs(mine)), n


@pytest.mark.parametrize("m", range(6))
def test_pm_float_class_matches_the_exact_one(m):
    # Pm's class is built from float(m); the exact class rounds each C_k once
    exact = ClassParams(-1, 1, -2 * m - 2, 0)
    assert exact.exact() and not Pm(m).params.exact()
    assert Pm(m).params.float_c(128) == exact.float_c(128)


@pytest.mark.parametrize("b", [-0.5, 0.5, 1, 2])
def test_g_at_a_zero_has_a_residual_at_the_origin(b):
    for n in range(8):
        res = generalized_legendre_residual(G(0, b), n, 0.0)
        assert res == pytest.approx(generalized_legendre_residual(U(b), n, 0.0), abs=1e-12)
        assert abs(res) <= 1e-12 * max(1.0, (n + b) * (n + b + 1)), (n, res)
    with pytest.raises(SingularPoint):
        generalized_legendre_residual(G(0.5, 1), 2, 0.0)
