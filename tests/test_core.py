"""Construction layer: explicit sums, recurrence, equation residuals.

The explicit coefficients are checked against a deliberately naive oracle
that rebuilds every product from scratch in exact rational arithmetic, so
the incremental path in the library is never trusted on its own word.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from symortho.core import (ClassParams, SymmetricPoly, eigenvalue,
                           explicit_coeffs, leading_coefficient, member_rows,
                           monic_by_recurrence, monic_coeffs, ode_residual,
                           ode_residual_rel, poly_from_params, recurrence_c)
from symortho.errors import (ConstraintViolation, DegenerateDenominator,
                             PoleError, ZeroLeadingCoefficient)


def oracle_coeffs(p, q, r, s, n):
    """Term-by-term double product, no shared state between k values."""
    h = n // 2
    eps = 1 if n % 2 else -1
    out = []
    for k in range(h + 1):
        term = Fraction(math.comb(h, k))
        for i in range(h - k):
            term *= Fraction((2 * i + eps + 2 * h) * p + r,
                             (2 * i + eps + 2) * q + s)
        out.append(term)
    return out


def _random_params(rng):
    # integer parameters with q, s chosen to keep every denominator nonzero
    while True:
        p, r = int(rng.integers(-4, 5)), int(rng.integers(-6, 7))
        q, s = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        if all((2 * i + e + 2) * q + s != 0
               for i in range(8) for e in (-1, 1)):
            return ClassParams(p, q, r, s)


@pytest.mark.parametrize("seed", range(6))
def test_explicit_matches_naive_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    params = _random_params(rng)
    for n in range(0, 11):
        got = explicit_coeffs(params, n)
        want = oracle_coeffs(params.p, params.q, params.r, params.s, n)
        assert [Fraction(c) for c in got] == want


def test_trailing_coefficient_is_one():
    rng = np.random.default_rng(11)
    for _ in range(4):
        params = _random_params(rng)
        for n in range(9):
            assert explicit_coeffs(params, n)[-1] == 1


def test_known_leading_coefficient():
    # weight exp(-x^2) member: S_4 = (4/3)x^4 - 4x^2 + 1
    params = ClassParams(0, 1, -2, 0)
    assert leading_coefficient(params, 4) == Fraction(4, 3)
    assert explicit_coeffs(params, 4) == [Fraction(4, 3), -4, 1]
    assert monic_coeffs(params, 4) == [1, -3, Fraction(3, 4)]


def test_low_degrees_are_trivial():
    params = ClassParams(3, 2, -5, 1)
    assert explicit_coeffs(params, 0) == [1]
    assert explicit_coeffs(params, 1) == [1]
    assert leading_coefficient(params, 0) == 1
    assert leading_coefficient(params, 1) == 1


@pytest.mark.parametrize("seed", range(5))
def test_recurrence_reproduces_monic_explicit(seed):
    rng = np.random.default_rng(300 + seed)
    params = _random_params(rng)
    for n in range(0, 9):
        try:
            direct = monic_coeffs(params, n)
        except ZeroLeadingCoefficient:
            continue
        try:
            via_rec = monic_by_recurrence(params, n)
        except PoleError:
            continue
        assert [Fraction(c) for c in via_rec] == [Fraction(c) for c in direct]


def test_recurrence_c_n1_reduced_form():
    # r = p makes the generic quotient 0/0; the reduced form survives
    params = ClassParams(1, 2, 1, 3)
    assert recurrence_c(params, 1) == Fraction(5, 2)


def test_recurrence_c_matches_generic_quotient():
    params = ClassParams(-1, 1, -7, 2)
    for n in range(2, 8):
        p, q, r, s = (Fraction(v) for v in params)
        sgn = (-1) ** n
        num = p * q * n * n + ((r - 2 * p) * q - sgn * p * s) * n \
            + (r - 2 * p) * s * (1 - sgn) / 2
        den = (2 * p * n + r - p) * (2 * p * n + r - 3 * p)
        assert recurrence_c(params, n) == num / den


def test_degenerate_denominator_raises_with_index():
    # dens for even degree are (2i+1)q + s; q=1, s=-3 kills i=1
    with pytest.raises(DegenerateDenominator) as exc:
        explicit_coeffs(ClassParams(1, 1, 0, -3), 4)
    assert exc.value.index == 1


def test_vanishing_leading_coefficient():
    # p=1, q=0, r=-7, s=2: S_5 = -2x^3 + x, degree drops
    params = ClassParams(1, 0, -7, 2)
    assert explicit_coeffs(params, 5) == [0, -2, 1]
    with pytest.raises(ZeroLeadingCoefficient):
        monic_coeffs(params, 5)


def test_recurrence_pole():
    with pytest.raises(PoleError):
        recurrence_c(ClassParams(1, 0, -7, 2), 4)
    with pytest.raises(PoleError):
        recurrence_c(ClassParams(1, 1, -1, 1), 1)


def test_degree_validation():
    with pytest.raises(ConstraintViolation):
        explicit_coeffs(ClassParams(0, 1, -2, 0), -1)
    with pytest.raises(ConstraintViolation):
        explicit_coeffs(ClassParams(0, 1, -2, 0), 2.5)


def test_eigenvalue_values():
    params = ClassParams(-1, 1, -6, 2)
    for n in range(7):
        assert eigenvalue(params, n) == -n * (-6 + (n - 1) * (-1))


@pytest.mark.parametrize("seed", range(4))
def test_ode_residual_exact_zero(seed):
    # full equation check in rational arithmetic: the defect must vanish
    # identically, not merely to rounding
    rng = np.random.default_rng(500 + seed)
    params = _random_params(rng)
    p, q, r, s = (Fraction(v) for v in params)
    for n in (2, 3, 5, 8):
        poly = poly_from_params(params, n)
        d1, d2 = poly.deriv(), poly.deriv().deriv()
        lam = Fraction(eigenvalue(params, n))
        odd_s = s if n % 2 else 0
        for x in (Fraction(1, 3), Fraction(-7, 5), Fraction(2), Fraction(-1, 9)):
            x2 = x * x
            res = (x2 * (p * x2 + q) * d2.eval_exact(x)
                   + x * (r * x2 + s) * d1.eval_exact(x)
                   - (-lam * x2 + odd_s) * poly.eval_exact(x))
            assert res == 0


def test_ode_residual_float_path():
    params = ClassParams(-1.0, 1.0, -6.0, 2.0)
    poly = poly_from_params(params, 6)
    x = np.linspace(-0.9, 0.9, 41)
    rel = ode_residual_rel(params, 6, poly, x)
    assert np.max(rel) < 1e-12
    raw = ode_residual(params, 6, poly, x)
    assert raw.shape == x.shape


def test_dropped_degree_still_solves_its_equation():
    # the degenerate S_5 above keeps solving the n=5 equation
    params = ClassParams(1, 0, -7, 2)
    poly = poly_from_params(params, 5)
    x = np.linspace(-2, 2, 31)
    assert np.max(np.abs(ode_residual(params, 5, poly, x))) < 1e-12


def test_symmetric_poly_interface():
    poly = SymmetricPoly(4, (Fraction(4, 3), -4, 1))
    x = np.array([0.0, 0.5, -0.5, 2.0])
    vals = poly(x)
    assert vals == pytest.approx([1.0, 4 / 3 * 0.0625 - 1 + 1 + 0.0,
                                  4 / 3 * 0.0625 - 1 + 1 + 0.0,
                                  4 / 3 * 16 - 16 + 1])
    assert poly(0.5) == pytest.approx(vals[1])
    assert poly.eval_exact(Fraction(1, 2)) == Fraction(4, 3) / 16 - 1 + 1
    dense = poly.as_dense()
    assert dense[4] == pytest.approx(4 / 3) and dense[3] == 0.0
    d = poly.deriv()
    assert d.n == 3 and list(d.coeffs) == [Fraction(16, 3), -8]


def test_parity_in_evaluation():
    params = ClassParams(2, 3, 1, 1)
    for n in (3, 5):
        poly = poly_from_params(params, n)
        x = np.linspace(0.1, 1.5, 7)
        assert poly(-x) == pytest.approx(-poly(x))
    for n in (2, 6):
        poly = poly_from_params(params, n)
        x = np.linspace(0.1, 1.5, 7)
        assert poly(-x) == pytest.approx(poly(x))


# ------------------------------------------------- recurrence evaluation


@pytest.mark.parametrize("params, span", [
    (ClassParams(-1, 1, -4, 1), 0.999),                            # GUP(1/2, 1/2)
    (ClassParams(-1, 1, -7, 2), 0.999),                            # GUP(1, 3/2)
    (ClassParams(0, 1, -2, 1), 7.992),                             # GHP(1/2)
], ids=["gup-half-half", "gup-1-3/2", "ghp-half"])
def test_member_rows_match_exact_values_to_degree_60(params, span):
    xs = [Fraction(round(v * 1000), 1000) for v in np.linspace(-span, span, 19)]
    got = member_rows(params, 60)(np.array([float(x) for x in xs]))
    assert got.shape == (61, 19)
    for n in range(61):
        exact = [float(poly_from_params(params, n, monic=True).eval_exact(x))
                 for x in xs]
        scale = max(abs(v) for v in exact)
        assert np.max(np.abs(got[n] - exact)) <= 1e-13 * scale, n


def test_member_rows_shapes_and_low_degrees():
    params = ClassParams(-1, 1, -4, 1)
    assert member_rows(params, 0)([0.3, 0.4]).tolist() == [[1.0, 1.0]]
    row = member_rows(params, 3)(0.5)
    assert row.shape == (4,)
    for n in range(4):
        assert row[n] == pytest.approx(poly_from_params(params, n, monic=True)(0.5),
                                       rel=1e-14)
    with pytest.raises(ConstraintViolation):
        member_rows(params, -1)


@pytest.mark.parametrize("params, kind", [
    (ClassParams(-1, 1, Fraction(-7, 2), Fraction(1, 2)), Fraction),
    (ClassParams(-1, 1, -5.0, 1.0), float),
    (ClassParams(1, 0, -10.06, 2), float)], ids=repr)
def test_promoted_is_computed_once_with_the_same_values(params, kind):
    first = params.promoted()
    assert params.promoted() is first
    assert all(type(v) is kind for v in first)
    assert first == tuple(kind(v) for v in params)
    # the cache is not a field: equality, hashing and repr are unchanged
    fresh = ClassParams(*params)
    assert fresh == params and hash(fresh) == hash(params)
    assert repr(fresh) == repr(params)
    assert [recurrence_c(params, n) for n in range(1, 6)] == [
        recurrence_c(fresh, n) for n in range(1, 6)]
