import math
from fractions import Fraction

import numpy as np
import pytest

from symortho.core import ClassParams, eigenvalue, ode_residual, poly_from_params, recurrence_c
from symortho.errors import ConstraintViolation, PoleError
from symortho.exponent_map import (LambdaSpec, _LambdaBasis, admissible, alpha_beta,
                                   generic_ode_residual, lambda_weight_and_gram,
                                   signed_power, transformed_eval)
from symortho.expand import expand
from symortho.families import GHP, GUP, Class, FiniteI, FiniteII, moment_zero, pair_integrable
from symortho.sturm import gram_matrix

F = Fraction

# the cube-root class mapped onto |x|^2 (1-x^2) orthogonality
CUBE = LambdaSpec(-1, 1, F(-8, 3), F(4, 3), (2, 3))


def _mapped_onto(fam, lam):
    """The lambda spec whose mapped class is fam's: c = h r - (h - 1) p and
    d = h s - (h - 1) q, with h = lam/2."""
    p, q, r, s = fam.params
    h = F(lam) / 2
    spec = LambdaSpec(p, q, h * r - (h - 1) * p, h * s - (h - 1) * q, lam)
    assert spec.mapped_params == fam.params
    return spec


@pytest.mark.parametrize("fam, pole", [
    (GUP(1, 1), None),              # CUBE's mapped class
    (FiniteII(F(17, 2)), 8),        # C_8 has a pole: 2 p 8 + r - 3 p = 0
], ids=["cube", "pole-at-8"])
def test_lambda_norms_are_the_mapped_class_closed_forms(fam, pole):
    # mu_0 times (-1)^n C_1...C_n in Fractions, None from the pole on
    out, prod = [], F(1)
    for k in range(11 if pole is None else pole):
        prod *= -recurrence_c(fam.params, k) if k else 1
        out.append(float(prod) * moment_zero(fam))
    assert _LambdaBasis(_mapped_onto(fam, F(2, 3))).norms(10) == pytest.approx(
        out + [None] * (11 - len(out)), rel=1e-14)
    if pole is not None:
        with pytest.raises(PoleError):
            recurrence_c(fam.params, pole)


# -------------------------------------------------------------- exponents


@pytest.mark.parametrize("lam,ok", [
    (2, True), (F(2, 3), True), (1, False), (4, False), (6, True),
    (F(4, 3), False), (F(10, 7), True), (-2, True), (F(2, 5), True),
    (F(8, 5), False),
])
def test_admissible(lam, ok):
    assert admissible(lam) is ok


def test_admissible_rejects_zero():
    with pytest.raises(ConstraintViolation):
        admissible(0)


def test_signed_power_values():
    assert signed_power(-8, F(1, 3)) == -2.0
    assert signed_power(4, F(1, 2)) == 2.0
    assert signed_power(-0.7, F(1, 3)) == pytest.approx(-0.7 ** (1 / 3))
    assert signed_power(-3, 3) == -27.0
    # the definition is sign(x)|x|^e even for even integer exponents
    assert signed_power(-3, 2) == -9.0


def test_signed_power_identity_is_passthrough():
    x = np.array([-2.0, 0.0, 3.5])
    assert signed_power(x, 1) is x
    assert signed_power(F(5, 7), F(1, 1)) == F(5, 7)


def test_signed_power_odd_map():
    xs = np.linspace(0.1, 2.0, 9)
    assert np.all(signed_power(-xs, F(1, 3)) == -signed_power(xs, F(1, 3)))


def test_signed_power_cube_root_is_odd_and_agrees_with_the_power():
    # np.cbrt: away from moderate |x| the power drifts, since 1/3 is rounded
    xs = np.concatenate((np.geomspace(1e-300, 1e300, 4001), np.linspace(0.0, 10.0, 1001)))
    assert np.array_equal(signed_power(-xs, F(1, 3)), -signed_power(xs, F(1, 3)))
    xs = np.random.default_rng(3).uniform(-10.0, 10.0, 100_000)
    old = np.sign(xs) * np.abs(xs) ** (1 / 3)
    assert np.all(np.abs(signed_power(xs, F(1, 3)) - old) <= 4e-16 * np.abs(old))


def test_signed_power_even_root_of_negative():
    with pytest.raises(ConstraintViolation):
        signed_power(-4, F(1, 2))
    with pytest.raises(ConstraintViolation):
        signed_power(np.array([1.0, -2.0]), F(3, 4))
    # nonnegative arguments are fine under an even root
    assert signed_power(np.array([0.0, 9.0]), F(1, 2))[1] == 3.0


# ------------------------------------------------------------ LambdaSpec


def test_lambda_spec_rejects_inadmissible():
    with pytest.raises(ConstraintViolation):
        LambdaSpec(0, 1, -2, 0, 4)
    with pytest.raises(ConstraintViolation):
        LambdaSpec(0, 1, -2, 0, 1)


def test_lambda_spec_stores_reduced_fraction():
    assert CUBE.lam == F(2, 3)
    assert LambdaSpec(0, 1, -2, 0, (4, 2)).lam == F(2)


def test_mapped_params_cube_root_class():
    # (2/lam) = 3: r = 3c - 2a, s = 3d - 2b, exactly
    mp = CUBE.mapped_params
    assert tuple(mp) == (F(-1), F(1), F(-6), F(2))
    assert tuple(mp) == tuple(GUP(1, 1).params)


def test_mapped_params_lambda_two_is_identity():
    sp = LambdaSpec(0, 1, -2, F(7, 5), 2)
    assert tuple(sp.mapped_params) == (0.0, 1.0, F(-2), F(7, 5))


# ------------------------------------------------------------ alpha/beta


def test_alpha_beta_lambda_two_matches_eigenvalue():
    sp = LambdaSpec(-1, 1, F(-5), F(3), 2)
    for n in range(8):
        al, _ = alpha_beta(sp, n)
        assert al == eigenvalue(ClassParams(-1, 1, -5, 3), n)


def test_alpha_beta_cube_root_form():
    for n in range(6):
        al, be = alpha_beta(CUBE, n)
        third = F(n, 3)
        assert al == -third * (CUBE.c + (third - 1) * CUBE.a)
    assert be == -(F(2, 3) / 4) * (2 * CUBE.d + (F(2, 3) - 2) * CUBE.b)
    assert alpha_beta(CUBE, 0)[0] == 0


def test_alpha_beta_exact_types():
    al, be = alpha_beta(CUBE, 2)
    assert isinstance(al, Fraction) and isinstance(be, Fraction)


# ---------------------------------------------------------- evaluation


def test_transformed_eval_lambda_two_bit_for_bit():
    sp = LambdaSpec(0, 1, -2, 1.4, 2)
    poly = poly_from_params(ClassParams(0, 1, -2, 1.4), 5, monic=False)
    for x in (-1.7, -0.2, 0.0, 0.3, 2.9):
        assert transformed_eval(sp, 5, x) == poly(x)


def test_transformed_eval_cube_root_value():
    # cbrt(0.125) = 0.5 exactly; compare with the mapped class by hand
    poly = poly_from_params(CUBE.mapped_params, 2, monic=False)
    assert transformed_eval(CUBE, 2, 0.125) == poly(0.5)
    want = poly.eval_exact(F(1, 2))
    assert transformed_eval(CUBE, 2, 0.125) == pytest.approx(float(want), rel=1e-15)


def test_transformed_eval_cube_root_class_at_degree_64():
    # the non-monic mapped member at high degree, against exact rationals
    xs = np.linspace(-0.999, 0.999, 19)
    got = transformed_eval(CUBE, 64, xs)
    poly = poly_from_params(CUBE.mapped_params, 64, monic=False)
    want = [float(poly.eval_exact(F(float(u)))) for u in signed_power(xs, F(1, 3))]
    assert np.max(np.abs(got - want)) <= 1e-13 * max(abs(v) for v in want)


def test_mapped_params_is_one_instance():
    assert CUBE.mapped_params is CUBE.mapped_params


def test_transformed_eval_symmetry():
    for n in range(6):
        for x in (0.08, 0.4, 0.93):
            left = transformed_eval(CUBE, n, -x)
            right = (-1) ** n * transformed_eval(CUBE, n, x)
            assert left == right


# ------------------------------------------------------------ residuals


def test_residual_lambda_two_agrees_with_polynomial_route():
    sp = LambdaSpec(0, 1, -2, 1.4, 2)
    gp = ClassParams(0, 1, -2, 1.4)
    for n in range(6):
        poly = poly_from_params(gp, n, monic=False)
        for x in (0.3, 1.1, 2.4):
            mine = generic_ode_residual(sp, n, x)
            ref = float(ode_residual(gp, n, poly, x))
            assert mine == pytest.approx(ref, abs=1e-9)
            assert abs(mine) < 1e-9 * max(1.0, abs(poly(x)) * (1 + x * x) * (n + 1) ** 2)


def test_residual_cube_root_class():
    for n in range(7):
        for x in (0.1, 0.4, 0.9):
            assert abs(generic_ode_residual(CUBE, n, x)) < 1e-8


def test_residual_degree_zero_exact():
    assert generic_ode_residual(CUBE, 0, 0.5) == 0.0


def test_residual_needs_positive_x():
    with pytest.raises(ConstraintViolation):
        generic_ode_residual(CUBE, 2, -0.5)
    with pytest.raises(ConstraintViolation):
        generic_ode_residual(CUBE, 2, 0.0)


def test_residual_vectorized():
    xs = np.array([0.2, 0.6, 1.0 - 1e-9])
    out = generic_ode_residual(CUBE, 3, xs)
    assert out.shape == (3,)
    assert np.max(np.abs(out)) < 1e-8


# ------------------------------------------------------- substituted gram


@pytest.mark.parametrize("lam", [F(2, 5), F(6, 5), 2, 6, F(10, 3)], ids=str)
@pytest.mark.parametrize("fam", [GUP(1, 1), GUP(F(1, 2), F(3, 2)), GUP(F(3, 10), F(-2, 5)),
                                 GHP(F(1, 2)), GHP(0)], ids=repr)
def test_lambda_gram_runs_for_every_admissible_lambda(fam, lam):
    nmax, tol = 12, 1e-7
    rep = lambda_weight_and_gram(_mapped_onto(fam, lam), nmax, tol)
    assert rep.passed, rep.summary()
    # x = t^(lam/2) carries each entry onto the mapped class's own
    ref = gram_matrix(fam, nmax, tol).matrix
    d = np.abs(np.diag(ref))
    assert np.all(np.abs(rep.matrix - ref) <= tol * np.sqrt(np.outer(d, d)))


@pytest.mark.parametrize("lam", [1, F(4, 3)], ids=str)
def test_inadmissible_lambda_is_refused(lam):
    with pytest.raises(ConstraintViolation):
        LambdaSpec(0, 1, -2, 0, lam)


@pytest.mark.parametrize("lam", [-2, F(-2, 3)], ids=str)
def test_negative_lambda_gram_is_refused(lam):
    # admissible, but x = t^(lam/2) swaps 0 and +-inf: the mapped class's
    # support [-1, 1] is |t| >= 1 in t, two rays
    spec = LambdaSpec(-1, 1, -2, 0, lam)
    assert admissible(lam)
    for refused in (lambda_weight_and_gram, gram_matrix,
                    lambda spec, nmax: expand(np.sin, spec, nmax)):
        with pytest.raises(ConstraintViolation, match="two rays"):
            refused(spec, 3)
    # the transformed solution still evaluates: x = +-8 maps to w = +-8^(lam/2)
    poly = poly_from_params(spec.mapped_params, 3, monic=False)
    w = Fraction(1, 8) if lam == -2 else Fraction(1, 2)
    got = transformed_eval(spec, 3, np.array([8.0, -8.0]))
    assert got == pytest.approx([float(poly.eval_exact(w)), -float(poly.eval_exact(w))], rel=1e-14)
    for n in range(5):
        for x in (0.3, 1.7):
            assert abs(generic_ode_residual(spec, n, x)) < 1e-8, (n, x)


def _same_report(a, b):
    """Equal statuses, values, panels and evals, bit for bit."""
    def key(rep):
        return (rep.passed, rep.panels, rep.evals,
                [(e.n, e.m, e.status, e.quad.value, e.quad.abs_error_estimate, e.expected)
                 for e in rep.entries])
    return key(a) == key(b)


@pytest.mark.parametrize("route", [Class, ClassParams, lambda *t: LambdaSpec(*t, 2)],
                         ids=["Class", "ClassParams", "LambdaSpec-2"])
def test_both_signs_of_a_class_give_one_report(route):
    # the equation is homogeneous in (p, q, r, s): (1, -1, 3, -2) is
    # (-1, 1, -3, 2), whose weight |x|^2 (1 - x^2)^(-1/2) lives where px^2 + q
    # > 0.  At lambda 2 the flipped sign read FAIL (16 divergent, 9 cliffs)
    # after 12,825 panels, from the log of a negative px^2 + q
    plus = gram_matrix(route(-1, 1, -3, 2), 8)
    minus = gram_matrix(route(1, -1, 3, -2), 8)
    assert plus.passed and plus.verified == 45, plus.summary()
    assert _same_report(plus, minus)
    assert Class(1, -1, 3, -2).params == Class(-1, 1, -3, 2).params == ClassParams(-1, 1, -3, 2)


@pytest.mark.parametrize("spec", [CUBE, LambdaSpec(1, -1, 3, -2, 2)], ids=str)
def test_lambda_gram_is_gram_matrix_of_the_spec(spec):
    assert _same_report(lambda_weight_and_gram(spec, 8), gram_matrix(spec, 8))


def test_lambda_gram_passes_and_matches_x_space():
    rep_t = lambda_weight_and_gram(CUBE, 4)
    assert rep_t.passed
    rep_x = gram_matrix(GUP(1, 1), 4)
    assert rep_x.passed
    # the substitution t = x^3 is measure preserving: entries agree
    diff = np.nanmax(np.abs(rep_t.matrix - rep_x.matrix))
    scale = np.nanmax(np.abs(rep_x.matrix))
    assert diff <= 1e-8 * max(scale, 1.0)


def test_lambda_gram_trivial_size_is_total_mass():
    rep = lambda_weight_and_gram(CUBE, 0)
    assert rep.matrix.shape == (1, 1)
    assert rep.matrix[0, 0] == pytest.approx(moment_zero(GUP(1, 1)), rel=1e-9)


def test_lambda_gram_diagonal_ratio_is_recurrence_product():
    rep = lambda_weight_and_gram(CUBE, 3)
    mp = CUBE.mapped_params
    acc = 1.0
    for n in range(1, 4):
        acc *= -float(recurrence_c(mp, n))
        assert rep.matrix[n, n] / rep.matrix[0, 0] == pytest.approx(acc, rel=1e-7)


def test_lambda_gram_with_algebraic_tails_keeps_divergence_evidence():
    # the mapped class is FiniteI(1/10, 5/2): entries with n + m >= 5
    # diverge, and must be reported so rather than verified.  They read
    # cliff, divergence certified by the measured exponent of the product
    # at its hinted point, which is no weaker evidence than a diverged
    # integral, and the closed-form norms refuse the diagonals among them
    fam = FiniteI(Fraction(1, 10), Fraction(5, 2))
    rep = lambda_weight_and_gram(_mapped_onto(fam, F(2, 3)), 6)
    assert rep.passed
    for e in rep.entries:
        want = "ok" if e.n + e.m <= 4 else "cliff"
        assert e.status == want, (e.n, e.m, e.status)
        assert e.quad.diverged == (want == "cliff")
        assert pair_integrable(fam, e.n, e.m) == (want == "ok")


@pytest.mark.parametrize("lam", [F(2, 3), F(2, 5)], ids=str)
@pytest.mark.parametrize("fam, nmax", [(FiniteII(6), 8), (FiniteII(7), 12)], ids=str)
def test_lambda_gram_with_algebraic_tails_passes_as_the_family(fam, lam, nmax):
    # these took 1.3-3.6 s of per-entry integrals and failed with entries
    # divergent and inconclusive that the family certifies as cliffs
    rep = lambda_weight_and_gram(_mapped_onto(fam, lam), nmax)
    assert rep.passed, rep.summary()
    family = gram_matrix(fam, nmax)
    assert [e.status for e in rep.entries] == [e.status for e in family.entries]
    assert rep.panels <= 100


def test_lambda_gram_takes_the_softened_entry_of_the_family():
    # FiniteI(0.071, 2.504)'s (4, 0) has its origin exponent at -0.85 up to
    # an ulp, whose softening power once jumped from 13 to 20, and read
    # divergent on the family and at lambda = 2/3
    fam = FiniteI(0.071, 2.504)
    assert gram_matrix(fam, 8).entry(4, 0).status == "ok"
    p, q, r, s = fam.params     # mapped back onto fam's, to rounding
    spec = LambdaSpec(p, q, (r + 2 * p) / 3, (s + 2 * q) / 3, F(2, 3))
    assert lambda_weight_and_gram(spec, 8).entry(4, 0).status == "ok"
