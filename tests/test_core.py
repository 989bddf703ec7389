"""Construction layer: explicit sums, recurrence, equation residuals.

The explicit coefficients are checked against a deliberately naive oracle
that rebuilds every product from scratch in exact rational arithmetic, so
the incremental path in the library is never trusted on its own word.
"""

import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from symortho import core
from symortho.cli import _grid
from symortho.core import (ClassParams, SymmetricPoly, eigenvalue,
                           explicit_coeffs, leading_coefficient, member_exists,
                           member_rows, monic_by_recurrence, monic_coeffs, ode_residual,
                           ode_residual_rel, poly_from_params, recurrence_c,
                           weight_exponents)
from symortho.errors import (ConstraintViolation, DegenerateDenominator,
                             PoleError, ZeroLeadingCoefficient)
from symortho.families import GUP, norm_squared, norms_squared
from symortho.sturm import support_theta


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
    xf = np.array([float(x) for x in xs])
    got = member_rows(params, 60)(xf)
    assert got.shape == (61, 19)
    for n in range(65):
        poly = poly_from_params(params, n, monic=True)
        exact = [float(poly.eval_exact(x)) for x in xs]
        scale = max(abs(v) for v in exact)
        # the member itself, by its recurrence two degrees at a time
        assert np.max(np.abs(poly(xf) - exact)) <= 1e-13 * scale, n
        if n <= 60:
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


@pytest.mark.parametrize("params", [
    ClassParams(-1, 1, -4, 1),              # GUP(1/2, 1/2)
    ClassParams(-1, 1, -7, 2),              # GUP(1, 3/2)
    ClassParams(0, 1, -2, 1),               # GHP(1/2)
], ids=["gup-half-half", "gup-1-3/2", "ghp-half"])
def test_ode_residual_at_degree_64_is_at_rounding(params):
    x = _grid(support_theta(params), 50)
    poly = poly_from_params(params, 64, monic=True)
    assert np.max(ode_residual_rel(params, 64, poly, x)) <= 1e-12


def test_member_calls_and_derivatives_match_exact_arithmetic():
    # a non-monic member scales the monic recurrence by its leading
    # coefficient; the derivatives come from the differentiated recurrence
    params = ClassParams(-1, 1, Fraction(-7, 2), Fraction(1, 2))
    xs = [Fraction(-9, 10), Fraction(1, 7), Fraction(3, 4)]
    xf = np.array([float(x) for x in xs])
    for n in (0, 1, 2, 7, 20):
        for monic in (True, False):
            poly = poly_from_params(params, n, monic=monic)
            chain = [poly, poly.deriv(), poly.deriv().deriv()]
            for got, exact in zip(poly.value_derivs(xf), chain):
                want = [float(exact.eval_exact(x)) for x in xs]
                scale = max(max(abs(v) for v in want), 1.0)
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, (n, monic)
            assert poly(0.25) == pytest.approx(float(poly.eval_exact(Fraction(1, 4))),
                                               rel=1e-14, abs=1e-300)


def test_member_below_a_pole_in_c_falls_back_to_its_coefficients():
    # C_1 = (q+s)/(p+r) has a pole at p + r = 0, but the members exist
    params = ClassParams(1, 1, -1, 1)
    with pytest.raises(PoleError):
        recurrence_c(params, 1)
    with pytest.raises(PoleError):
        member_rows(params, 3)
    poly = poly_from_params(params, 4, monic=True)
    x = np.array([-0.7, 0.2, 1.3])
    want = [float(poly.eval_exact(Fraction(v))) for v in x]
    assert poly(x) == pytest.approx(want, rel=1e-14)
    assert ode_residual_rel(params, 4, poly, x) == pytest.approx(0.0, abs=1e-13)


def test_float_c_is_computed_once_per_class():
    params = ClassParams(-1, 1, Fraction(-7, 2), Fraction(1, 2))
    cs = params.float_c(6)
    assert cs == [float(recurrence_c(params, k)) for k in range(1, 7)]
    assert params.float_c(3) == cs[:3]
    assert params._float_c[:6] == cs
    assert ClassParams(*params) == params     # the cache is not a field


@pytest.mark.parametrize("n", [63, 64])
def test_overflowing_member_is_signed_inf(n):
    # far outside the support the two-degree step used to take inf - inf
    params = ClassParams(-1, 1, -3, 1)      # GUP(1/2, 1/2)
    x = np.array([-1e10, -1e5, 1e5, 1e10, 0.5])
    poly = poly_from_params(params, n, monic=True)
    got = poly(x)
    assert np.all(np.isinf(got[:4])) and np.all(np.sign(got[:4]) == np.sign(x[:4]) ** n)
    assert got[4] == poly(x[4:])[0]
    assert np.isnan(poly(np.array([np.nan, 1e10])))[0]


@pytest.mark.parametrize("n", [63, 64])
def test_member_beyond_the_square_range_is_signed_inf(n):
    # x^2 itself overflows above |x| ~ 1.3e154, ahead of the overflow
    # guard (RuntimeWarning is an error here)
    params = ClassParams(-1, 1, -3, 1)      # GUP(1/2, 1/2)
    x = np.array([1e200, -1e200])
    got = poly_from_params(params, n, monic=True)(x)
    assert np.array_equal(got, np.sign(x) ** n * np.inf)


def test_overflowing_rows_are_signed_inf():
    # a rows step took x p_k + c_k p_{k-1} = inf - inf once both overflowed
    params = ClassParams(-1, 1, -3, 1)      # GUP(1/2, 1/2)
    x = np.array([-1e10, -1e5, 1e5, 1e10, 0.5, -0.3])
    rows = member_rows(params, 64)(x)       # RuntimeWarning is an error here
    assert not np.isnan(rows).any()
    calls = np.array([poly_from_params(params, n, monic=True)(x) for n in range(65)])
    assert np.all(np.sign(rows) == np.sign(calls))
    assert np.array_equal(np.isinf(rows), np.isinf(calls)) and np.isinf(rows[64, :4]).all()
    # points that cannot overflow keep the unguarded values
    assert np.array_equal(rows[:, 4:], member_rows(params, 64)(x[4:]))
    assert np.isnan(member_rows(params, 8)(np.array([np.nan, 1e200]))[1:, 0]).all()


def _call_mode_evaluators():
    from symortho.exponent_map import LambdaSpec, transformed_eval
    from symortho.legendre import Pm, U, V, member_fn
    exact = ClassParams(-1, 1, -4, 1)                       # GUP(1/2, 1/2)
    cube = LambdaSpec(-1, 1, Fraction(-8, 3), Fraction(4, 3), Fraction(2, 3))
    return {
        "monic-20": poly_from_params(exact, 20, monic=True),
        "scaled-13": poly_from_params(ClassParams(0, 1, -2, 0.5), 13),
        "U-12": member_fn(U(0.5), 12),
        "V-17": member_fn(V(-0.8), 17),         # V has a head step, b_0 != 0
        "Pm-9": member_fn(Pm(2), 9),
        "lambda-11": lambda x: transformed_eval(cube, 11, x),
    }


@pytest.mark.parametrize("chunk", [1, 7, core._CHUNK, 10 ** 6], ids=str)
def test_call_mode_is_byte_identical_for_any_block(chunk, monkeypatch):
    # how x is split into blocks changes no bit of any output: compare each
    # evaluator against itself on one block holding all the points
    for size in (chunk - 1, chunk, chunk + 1):
        x = np.linspace(-0.97, 0.97, size)
        if size > 3:
            x[:3] = [0.0, -0.0, 0.5]
        for name, fn in _call_mode_evaluators().items():
            xs = np.abs(x) if name.startswith("lambda") else x
            monkeypatch.setattr(core, "_CHUNK", chunk)
            got, got_2d = fn(xs), fn(xs.reshape(-1, 1))
            if size > chunk:
                monkeypatch.setattr(core, "_CHUNK", size)
                assert np.array_equal(got, fn(xs)), (name, size)
            assert got_2d.shape == (size, 1) and np.array_equal(got_2d.ravel(), got)


@pytest.mark.parametrize("chunk", [1, 7, core._CHUNK])
def test_overflow_guard_is_byte_identical_for_any_block(chunk, monkeypatch):
    # points that overflow (and a nan) sit in some blocks and not in others
    poly = poly_from_params(ClassParams(-1, 1, -3, 1), 64, monic=True)
    x = np.linspace(-0.9, 0.9, chunk + 3)
    x[[0, 1, -1]] = [1e10, np.nan, -1e200]
    monkeypatch.setattr(core, "_CHUNK", x.size)
    want = poly(x)
    monkeypatch.setattr(core, "_CHUNK", chunk)
    assert np.array_equal(poly(x), want, equal_nan=True)
    assert np.isinf(want[[0, -1]]).all()


def test_family_members_build_no_coefficients(monkeypatch):
    from symortho.exponent_map import LambdaSpec, transformed_eval
    cube = LambdaSpec(-1, 1, Fraction(-8, 3), Fraction(4, 3), Fraction(2, 3))

    def refuse(*args):
        raise AssertionError("coefficients built")
    monkeypatch.setattr(core, "explicit_coeffs", refuse)
    monkeypatch.setattr(core, "monic_coeffs", refuse)
    x = np.linspace(-0.9, 0.9, 7)
    polys = []
    for params in (ClassParams(-1, 1, -4, 1), ClassParams(0, 1, -2, Fraction(1, 2)),
                   ClassParams(-1, 1, -4.6, 0.6), cube.mapped_params):
        for n in (0, 1, 8, 21):
            for monic in (True, False):
                poly = poly_from_params(params, n, monic=monic)
                assert np.all(np.isfinite(poly(x)))
                polys.append((params, n, monic, poly))
    # a monic member whose leading coefficient, about 1e330, has no float
    exact = ClassParams(-1, 1, -4, 1)
    poly = poly_from_params(exact, 1100, monic=True)
    assert np.all(np.isfinite(poly(x)))
    polys.append((exact, 1100, True, poly))
    assert np.all(np.isfinite(transformed_eval(cube, 21, np.abs(x))))
    monkeypatch.undo()
    for params, n, monic, poly in polys:
        want = monic_coeffs(params, n) if monic else explicit_coeffs(params, n)
        assert poly.coeffs == tuple(want)


def _outcome(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except (DegenerateDenominator, ZeroLeadingCoefficient) as exc:
        return type(exc), getattr(exc, "index", None)
    return None


def test_member_existence_matches_the_coefficient_lists():
    # zero denominators (2i+eps+2)q + s and zero leading factors
    # (2i+eps+2h)p + r at various i, q = s = 0 and p = r = 0 among them
    values = {"p": (0, -1, Fraction(1, 3)), "q": (0, 1, Fraction(-1, 2)),
              "r": (0, -3, -4, Fraction(5, 3), 2), "s": (0, -3, -4, -7, Fraction(1, 2), 5)}
    seen = set()
    for p in values["p"]:
        for q in values["q"]:
            for r in values["r"]:
                for s in values["s"]:
                    for exact in (True, False):
                        params = ClassParams(*((v if exact else float(v)) for v in (p, q, r, s)))
                        for n in range(13):
                            raw = _outcome(explicit_coeffs, params, n)
                            monic = _outcome(monic_coeffs, params, n)
                            assert _outcome(poly_from_params, params, n) == raw
                            assert _outcome(poly_from_params, params, n, monic=True) == monic
                            assert member_exists(params, n) == (monic is None)
                            seen.update((raw, monic))
                            if raw is None:
                                lead = explicit_coeffs(params, n)[0]
                                assert params.lead(n) == lead
    assert seen >= {None, (ZeroLeadingCoefficient, None)} | {
        (DegenerateDenominator, i) for i in range(4)}


# ------------------------------------------- members past the float range

GHP_HALF = ClassParams(0, 1, -2, 1)                 # GHP(1/2), exact
GHP_HALF_FLOAT = ClassParams(0.0, 1.0, -2.0, 1.0)   # GHP(0.5)


def _log10(v):
    v = Fraction(v)
    return math.log10(abs(v.numerator)) - math.log10(v.denominator)


@pytest.mark.parametrize("params", [GHP_HALF, GHP_HALF_FLOAT], ids=["fraction", "float"])
def test_member_342_past_the_float_range_is_signed_inf(params):
    # both products of a step overflow on the way, and inf - inf is nan
    x = np.array([0.0, 0.5, 3.0])
    got = poly_from_params(params, 342, monic=True)(x)
    assert np.array_equal(got, [-np.inf, -np.inf, np.inf])
    exact = poly_from_params(GHP_HALF, 342, monic=True)
    want = [exact.eval_exact(Fraction(v)) for v in (0, Fraction(1, 2), 3)]
    assert [round(_log10(v), 2) for v in want] == [309.09, 308.48, 309.78]
    assert np.array_equal(np.sign(got), np.sign([float(v > 0) - float(v < 0) for v in want]))


@pytest.mark.parametrize("params", [GHP_HALF, GHP_HALF_FLOAT], ids=["fraction", "float"])
def test_rows_past_the_float_range_have_no_nan(params):
    x = np.array([0.0, 0.5, 3.0, -3.0])
    rows = member_rows(params, 350)(x)
    assert not np.isnan(rows).any()
    # a call steps two degrees at a time in x^2: its finite values round
    # differently, its infinities are the same
    calls = np.array([poly_from_params(params, n, monic=True)(x) for n in range(351)])
    inf = np.isinf(rows)
    assert np.array_equal(inf, np.isinf(calls)) and np.array_equal(rows[inf], calls[inf])
    assert np.isinf(rows[343:, 2:]).all() and np.isfinite(rows[:300]).all()
    # odd members vanish at 0, even ones past the range are +-inf there
    assert (rows[343::2, 0] == 0).all() and np.isinf(rows[344::2, 0]).all()


def test_member_355_exists_though_its_float_lead_underflows():
    # lead(354) is -3e-323 in floats and lead(355) is -0.0, but no factor
    # (2i+eps+2h)p + r of it is 0
    assert GHP_HALF_FLOAT.lead(355) == 0 and GHP_HALF.lead(355) != 0
    x = np.array([0.0, 0.5, 3.0])
    want = [0.0, -np.inf, np.inf]
    for params in (GHP_HALF, GHP_HALF_FLOAT):
        assert np.array_equal(poly_from_params(params, 355, monic=True)(x), want)
    exact = poly_from_params(GHP_HALF, 355, monic=True)
    assert [round(_log10(exact.eval_exact(v)), 1) for v in (Fraction(1, 2), 3)] == [321.3, 324.3]
    assert exact.eval_exact(Fraction(1, 2)) < 0 < exact.eval_exact(3)
    assert member_exists(GHP_HALF_FLOAT, 355)
    # a factor that is exactly 0 still refuses the member
    assert not member_exists(ClassParams(1.0, 0.0, -7.0, 2.0), 5)
    with pytest.raises(ZeroLeadingCoefficient):
        poly_from_params(ClassParams(1.0, 0.0, -7.0, 2.0), 5, monic=True)


@pytest.mark.parametrize("x", [0.5, 3.0])
def test_scaled_pass_agrees_with_exact_values(x):
    # called directly where every member is finite
    rec = core.class_recurrence(GHP_HALF, 300)
    got = rec._scaled(np.array([x]), True)[:, 0]
    want = np.array([float(poly_from_params(GHP_HALF, n, monic=True).eval_exact(Fraction(x)))
                     for n in range(301)])
    assert np.isfinite(want).all()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert got[-1] == rec._scaled(np.array([x]), False)[0]


def test_members_at_infinite_x_are_signed_inf():
    # the plain pass takes inf - inf where a C_k < 0; the scaled pass keeps
    # the leading term's sign
    x = np.array([np.inf, -np.inf, np.nan])
    for n in (63, 64):
        got = poly_from_params(GHP_HALF, n, monic=True)(x)
        assert np.array_equal(got[:2], [np.inf, (-1) ** n * np.inf]) and np.isnan(got[2])
    rows = member_rows(GHP_HALF, 64)(x)
    assert np.array_equal(rows[1:, 1], (-1.0) ** np.arange(1, 65) * np.inf)
    assert (rows[1:, 0] == np.inf).all() and np.isnan(rows[1:, 2]).all()


@pytest.mark.parametrize("params", [GHP_HALF, GHP_HALF_FLOAT], ids=["fraction", "float"])
def test_derivatives_342_past_the_float_range_are_signed_inf(params):
    # the differentiated steps overflow as the member's own do; an even
    # member's slope at 0 stays exactly 0
    x = np.array([0.0, 0.5, 3.0])
    poly = poly_from_params(params, 342, monic=True)
    v0, v1, v2 = poly.value_derivs(x)
    assert np.array_equal(v0, poly(x))
    assert np.array_equal(v1, [0.0, -np.inf, np.inf])
    assert np.array_equal(v2, [np.inf, np.inf, -np.inf])
    d1 = poly_from_params(GHP_HALF, 342, monic=True).deriv()
    for got, exact in ((v1, d1), (v2, d1.deriv())):
        want = [exact.eval_exact(Fraction(v)) for v in (0, Fraction(1, 2), 3)]
        assert np.array_equal(np.sign(got), [float(v > 0) - float(v < 0) for v in want])
    # the equation's terms are then inf - inf: its residual stays nan
    with np.errstate(invalid="ignore"):
        assert np.isnan(ode_residual_rel(params, 342, poly, x)).all()


@pytest.mark.parametrize("n", [5, 100, 300])
def test_scaled_triple_equals_the_plain_one_in_range(n):
    # called directly where every value is finite: powers of 2 scale exactly
    rec = core.class_recurrence(GHP_HALF, n)
    x = np.array([0.0, 0.5, 3.0, -2.0])
    plain = rec._triple(x, False)
    assert np.isfinite(plain).all()
    assert np.array_equal(rec._triple(x, True), plain)


def test_derivatives_at_infinite_x_have_no_nan():
    # each is its limit there (see the next test), and a nan x stays nan
    x = np.array([np.inf, -np.inf, np.nan])
    for n in (1, 2, 63, 64):
        poly = poly_from_params(GHP_HALF, n, monic=True)
        v0, v1, v2 = poly.value_derivs(x)
        assert np.array_equal(v0[:2], poly(x)[:2])
        assert not np.isnan([v1[:2], v2[:2]]).any()
        assert np.isnan([v0[2], v1[2], v2[2]]).all()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64])
def test_derivatives_at_infinite_x_are_their_limits(n):
    # the k-th derivative of a monic degree-n member is ~ n!/(n - k)! x^(n - k):
    # a signed inf for k < n, k! for k = n and 0 for k > n; the scaled pass
    # once read every derivative there as 0
    x = np.array([np.inf, -np.inf])
    got = poly_from_params(GHP_HALF, n, monic=True).value_derivs(x)
    for k in range(3):
        want = ([math.inf, (-1.0) ** (n - k) * math.inf] if k < n
                else [float(math.factorial(k))] * 2 if k == n else [0.0, 0.0])
        assert np.array_equal(got[k], want), k
    # and at a scalar x
    at = poly_from_params(GHP_HALF, n, monic=True).value_derivs(-math.inf)
    assert np.array_equal(at, [v[1] for v in got])


# ------------------------------------- exact kernels against Fractions


def reference_c(params, n):
    """C_n in Fraction arithmetic throughout, with recurrence_c's errors:
    the oracle of the integer kernels."""
    p, q, r, s = (Fraction(v) for v in params)
    if n == 1:
        if p + r == 0:
            raise PoleError("C_1 undefined: p + r = 0")
        return (q + s) / (p + r)
    sgn = -1 if n % 2 else 1
    half = (1 - sgn) // 2
    num = (p * q * n * n + ((r - 2 * p) * q - sgn * p * s) * n
           + (r - 2 * p) * s * half)
    den = (2 * p * n + r - p) * (2 * p * n + r - 3 * p)
    if den == 0:
        raise PoleError(f"C_{n} has a vanishing denominator for these parameters")
    return num / den


def exact_grid(count=520, seed=2024):
    """Seeded (p, q, r, s): small ints, small and huge ratios, halves; every
    fifth tuple has p + r = 0 (C_1's pole) and two in five a pole at some
    n <= 24, where 2pn + r - p or 2pn + r - 3p vanishes."""
    rng = random.Random(seed)

    def draw():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-9, 9)
        if kind == 1:
            return Fraction(rng.randint(-60, 60), rng.randint(1, 16))
        if kind == 2:
            return Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 12))
        return Fraction(rng.randint(-30, 30), 2)
    out = []
    for i in range(count):
        p, q, r, s = (draw() for _ in range(4))
        if i % 5 == 1:
            r = -p
        elif i % 5 in (2, 3):
            # 2p(n - k) = 2pn + r - p (or - 3p) at r = p(1 - 2k) (or p(3 - 2k))
            r = p * ((1 if i % 5 == 2 else 3) - 2 * rng.randint(2, 24))
        out.append(ClassParams(p, q, r, s))
    return out


def outcome(fn):
    """fn()'s floats as hex strings (bit for bit, the sign of 0 included),
    or the type and message of what it raised."""
    try:
        got = fn()
    except (PoleError, OverflowError) as exc:
        return type(exc), str(exc)
    if isinstance(got, list):
        return [None if v is None else float(v).hex() for v in got]
    return float(got).hex()


class BareSpec:
    """The class of params as a spec with no degree bound and base moment
    1, so that norm_squared is the signed product of the C_k alone."""

    def __init__(self, params):
        self.params = params

    def finite_degree_bound(self):
        return math.inf

    def moment_zero(self):
        return 1.0


def reference_table(params):
    """[C_1, ..., C_24] of reference_c up to its first pole, and that pole's
    PoleError or None."""
    cs = []
    for n in range(1, 25):
        try:
            cs.append(reference_c(params, n))
        except PoleError as exc:
            return cs, exc
    return cs, None


GRID = [(cp, *reference_table(cp)) for cp in exact_grid()]


def test_exact_grid_has_poles_and_degree_one_poles():
    poles = [len(cs) + 1 for _, cs, pole in GRID if pole is not None]
    assert len(GRID) >= 500
    assert poles.count(1) >= 100
    assert sum(n > 1 for n in poles) >= 100


def test_exact_recurrence_c_is_the_fraction_reference():
    for cp, cs, pole in GRID:
        got = [recurrence_c(cp, n) for n in range(1, len(cs) + 1)]
        assert all(type(c) is Fraction for c in got) and got == cs
        if pole is not None:
            with pytest.raises(PoleError) as exc:
                recurrence_c(cp, len(cs) + 1)
            assert str(exc.value) == str(pole)


def test_exact_float_c_rounds_the_reference_once():
    for cp, cs, pole in GRID:
        want = outcome(lambda: [float(c) for c in cs])
        assert outcome(lambda: ClassParams(*cp).float_c(len(cs))) == want
        if pole is not None:
            want = (PoleError, str(pole))
        assert outcome(lambda: ClassParams(*cp).float_c(24)) == want


def test_exact_norms_round_the_reference_product_once():
    specs = [BareSpec(cp) for cp, _, _ in GRID]
    specs += [GUP(Fraction(a, 7), Fraction(b, 5)) for a in range(-3, 40, 4) for b in range(-4, 30, 6)]
    for spec in specs:
        cs, pole = reference_table(spec.params)
        m0 = spec.moment_zero()
        prods = list(itertools.accumulate(cs, operator.mul, initial=Fraction(1)))
        for n, prod in enumerate(prods):
            want = outcome(lambda: (-1 if n % 2 else 1) * float(prod) * m0)
            assert outcome(lambda: norm_squared(spec, n).value) == want
        if pole is not None:
            assert outcome(lambda: norm_squared(spec, len(cs) + 1)) == (PoleError, str(pole))
        want = outcome(lambda: [(-1 if n % 2 else 1) * float(p) * m0 for n, p in enumerate(prods)]
                       + [None] * (24 - len(cs)))
        assert outcome(lambda: norms_squared(spec, 24)) == want


def reference_exponents(p, q, r, s):
    """weight_exponents' formulas in Fraction arithmetic, each exponent
    rounded once: the oracle of the scaled-integer path."""
    theta = math.sqrt(-q / p) if p and q and -q / p > 0 else math.inf
    if q:
        origin = s / q
    else:
        origin = -math.inf if s * p < 0 else (r - 2 * p) / p if p and not s else math.inf
    edge = (r - 2 * p) / (2 * p) - s / (2 * q) if p and q else math.nan
    tail = (r - 2 * p) / p if p and theta == math.inf else -math.inf
    return [float(v).hex() for v in (theta, origin, edge, tail)]


def test_exact_weight_exponents_are_the_fraction_reference():
    # exact parameters take the exponents from ClassParams._scaled's integers:
    # each must be its Fraction value rounded once.  Every tuple of the grid
    # also runs with q = 0, with p = 0 and with q = s = 0
    for cp, _, _ in GRID:
        p, q, r, s = cp
        for vals in ((p, q, r, s), (p, 0, r, s), (0, q, r, s), (p, 0, r, 0)):
            got = [v.hex() for v in weight_exponents(ClassParams(*vals))]
            assert got == reference_exponents(*(Fraction(v) for v in vals)), vals


def test_c_is_computed_once_per_class_and_feeds_float_c(monkeypatch):
    from symortho import core
    calls = []
    real = core.recurrence_c
    monkeypatch.setattr(core, "recurrence_c", lambda p, n: calls.append(n) or real(p, n))
    params = ClassParams(-1, 1, Fraction(-7, 2), Fraction(1, 2))
    assert params.c(5) == real(params, 5) and isinstance(params.c(5), Fraction)
    assert params.float_c(6) == [float(real(params, k)) for k in range(1, 7)]
    assert params.c(3) == real(params, 3)
    assert calls == [1, 2, 3, 4, 5, 6]
