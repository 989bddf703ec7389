import importlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from symortho.core import poly_from_params
from symortho.errors import (BasisInvalid, ConstraintViolation, MaxDepthExceeded,
                             NonSquareIntegrable)
from symortho.expand import (ExpansionSeries, barycentric_interpolant, expand,
                             reconstruct)
from symortho.families import GUP, GHP, FiniteII, norm_squared
from symortho.legendre import G, Pm, Q, U, V, member_fn
from symortho.quadrature import integrate
from symortho.sturm import gram_matrix


# -------------------------------------------------------- interpolation


def test_barycentric_reproduces_polynomial():
    xs = np.linspace(-1, 1, 6)
    ys = 3 * xs ** 4 - xs + 0.5
    interp = barycentric_interpolant(xs, ys)
    for t in (-0.83, 0.0, 0.31, 0.99):
        assert interp(t) == pytest.approx(3 * t ** 4 - t + 0.5, rel=1e-12)


def test_barycentric_exact_at_nodes():
    xs = np.array([0.0, 0.4, 1.1, -2.0])
    ys = np.array([1.0, 2.0, -3.0, 7.0])
    interp = barycentric_interpolant(xs, ys)
    assert np.all(interp(xs) == ys)
    assert interp(0.4) == 2.0


def test_barycentric_rejects_bad_nodes():
    with pytest.raises(ConstraintViolation):
        barycentric_interpolant([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConstraintViolation):
        barycentric_interpolant([0.0, 1.0], [1.0])


# ------------------------------------------------------------ expansion


def test_polynomial_reproduced_exactly():
    ser = expand(lambda x: x ** 5, GUP(1, 1), 8)
    assert isinstance(ser, ExpansionSeries)
    assert ser.nmax == 8
    assert ser.residual <= 1e-9
    assert ser.residual_rel <= 1e-8
    # only odd orders participate
    assert all(abs(ser.coefficients[k]) < 1e-10 for k in (0, 2, 4, 6, 8))
    assert reconstruct(ser, 0.3) == pytest.approx(0.3 ** 5, abs=1e-8)
    xs = np.linspace(-0.9, 0.9, 11)
    assert reconstruct(ser, xs) == pytest.approx(xs ** 5, abs=1e-8)


def test_basis_member_round_trip():
    phi3 = poly_from_params(GUP(1, 1).params, 3, monic=True)
    ser = expand(phi3, GUP(1, 1), 5)
    assert ser.coefficients[3] == pytest.approx(1.0, abs=1e-9)
    for k, q in enumerate(ser.coefficients):
        if k != 3:
            assert abs(q) <= 1e-9


def test_odd_function_kills_even_orders():
    ser = expand(np.sin, GHP(0), 6)
    for k in (0, 2, 4, 6):
        assert abs(ser.coefficients[k]) <= 1e-10


def test_parseval_consistency():
    ser = expand(lambda x: x ** 5, GUP(1, 1), 8)
    total = sum(q * q * norm_squared(GUP(1, 1), n).value
                for n, q in enumerate(ser.coefficients) if q != 0.0)
    spec = GUP(1, 1)
    f2 = integrate(lambda x: np.exp(spec.weight_log(x)) * x ** 10,
                   spec.interval(origin_power=2)).value
    assert total <= f2 * (1 + 1e-7)
    assert total == pytest.approx(f2, rel=1e-7)


def test_projection_idempotence():
    ser = expand(lambda x: np.exp(-x * x) * x, GHP(0.5), 7)
    again = expand(lambda x: reconstruct(ser, x), GHP(0.5), 7)
    for a, b in zip(ser.coefficients, again.coefficients):
        assert a == pytest.approx(b, abs=1e-9)


def test_constant_on_trivial_truncation():
    ser = expand(lambda x: np.ones_like(np.asarray(x, dtype=float)), GHP(0), 0)
    assert reconstruct(ser, 0.7) == pytest.approx(1.0, rel=1e-9)


def test_legendre_kind_basis_uses_unit_weight():
    # smooth even function in the Q kind, cross-checked pointwise
    ser = expand(lambda x: x * np.sqrt(np.clip(1 - x * x, 0, None)), Q(0), 5)
    xs = np.linspace(-0.9, 0.9, 7)
    err = np.max(np.abs(reconstruct(ser, xs) - xs * np.sqrt(1 - xs ** 2)))
    assert err < 0.05
    assert ser.residual < 0.05


def test_sampled_input_matches_callable_route():
    xs = np.cos(np.pi * (np.arange(12) + 0.5) / 12)
    ser_s = expand((xs, xs ** 5), GUP(1, 1), 8)
    ser_c = expand(lambda x: x ** 5, GUP(1, 1), 8)
    for a, b in zip(ser_s.coefficients, ser_c.coefficients):
        assert a == pytest.approx(b, abs=1e-10)
    pairs = np.column_stack([xs, xs ** 5])
    ser_p = expand(pairs, GUP(1, 1), 8)
    assert ser_p.coefficients == pytest.approx(ser_c.coefficients, abs=1e-10)


def test_pm_basis_offset():
    # (1-x^2) P_3'' = 15 x (1 - x^2); expanding half of it hits order 3 alone
    ser = expand(lambda x: 7.5 * x * (1 - x * x), Pm(2), 4)
    assert ser.coefficients[0] == 0.0 and ser.coefficients[1] == 0.0
    assert ser.coefficients[3] == pytest.approx(0.5, rel=1e-9)
    for k in (2, 4):
        assert abs(ser.coefficients[k]) <= 1e-9
    assert ser.residual <= 1e-8


def test_cliffy_basis_is_refused():
    with pytest.raises(BasisInvalid) as exc:
        expand(lambda x: x, FiniteII(4.5), 4)
    assert exc.value.report.entry(4, 4).status == "cliff"


def test_refusal_of_a_passing_report_says_what_is_not_verified():
    # the report passes, with its cliffs refused; expand needs all 45 ok
    with pytest.raises(BasisInvalid) as exc:
        expand(np.exp, FiniteII(6), 8)
    assert exc.value.report.passed
    message = str(exc.value)
    assert message.startswith("expand needs every Gram entry verified")
    assert "not verified: 12 of 45 (12 cliff)" in message


def test_non_square_integrable_target():
    with pytest.raises(NonSquareIntegrable):
        expand(lambda x: 1.0 / x, GUP(0, 1), 3)


def test_bad_target_payload():
    with pytest.raises(ConstraintViolation):
        expand(np.ones((3, 4)), GUP(1, 1), 2)


# ------------------------------------------- interpolant outside the hull


def _bump_samples():
    # the benchmark's sampled target: 25 Chebyshev points on [-3, 3]
    k = 25
    xs = 3.0 * np.cos(np.pi * (np.arange(k) + 0.5) / k)
    return xs, np.sin(1.5 * xs) / (1.0 + xs * xs)


def _lagrange_exact(xs, ys, t):
    nodes = [Fraction(v) for v in xs]
    t = Fraction(t)
    total = Fraction(0)
    for j, (xj, yj) in enumerate(zip(nodes, ys)):
        term = Fraction(yj)
        for m, xm in enumerate(nodes):
            if m != j:
                term *= (t - xm) / (xj - xm)
        total += term
    return total


@pytest.mark.parametrize("t", [0.1, -2.99, 2.9, 3.5, 4.0, -5.0, 8.0, -16.0])
def test_barycentric_matches_exact_lagrange_inside_and_outside_hull(t):
    xs, ys = _bump_samples()
    exact = _lagrange_exact(xs, ys, t)
    got = barycentric_interpolant(xs, ys)(t)
    assert abs(Fraction(got) - exact) <= 1e-12 * abs(exact)


def test_barycentric_outside_hull_vectorized_matches_scalar():
    xs, ys = _bump_samples()
    interp = barycentric_interpolant(xs, ys)
    ts = np.array([-8.0, -3.5, 0.0, xs[3], 2.0, 4.0, 30.0])
    assert np.allclose(interp(ts), [interp(t) for t in ts], rtol=1e-12, atol=1e-15)


def test_sampled_target_on_hermite_basis():
    # the interpolant is evaluated far outside its nodes in the tails
    xs, ys = _bump_samples()
    for nmax in (10, 12):
        ser = expand((xs, ys), GHP(0), nmax)
        assert 0.0 <= ser.residual_rel < 1.0


@pytest.fixture
def tree_panels(monkeypatch):
    """The panels of every integral expand takes, one per call, in order."""
    expand_mod = importlib.import_module("symortho.expand")
    panels = []
    for name in ("integrate_gram", "integrate"):
        real = getattr(expand_mod, name, None)
        if real is not None:
            def counted(*args, real=real, **kwargs):
                out = real(*args, **kwargs)
                panels.append(out.panels)
                return out
            monkeypatch.setattr(expand_mod, name, counted)
    return panels


# ------------------------------------------------------ weight underflow


def test_exp_target_where_the_weight_underflows():
    ser = expand(np.exp, GHP(0.5), 10)
    assert ser.residual_rel < 1e-4
    xs = np.linspace(-1.0, 1.0, 9)
    assert np.max(np.abs(reconstruct(ser, xs) - np.exp(xs))) < 1e-3
    assert expand(np.exp, GHP(0), 8).residual_rel < 1e-3


@pytest.mark.parametrize("f, basis", [
    (lambda x: np.exp(x * x), GHP(0)),
    (lambda x: np.exp(0.6 * x * x), GHP(0)),
    (lambda x: np.abs(x) ** -0.6, GUP(0, 0)),
    (lambda x: (1 - x * x) ** -0.6, U(0.5)),
    # log-divergent ||f||^2
    (lambda x: np.abs(x) ** -0.5, GUP(0, 0)),
    (lambda x: (1 - x * x) ** -0.5, GUP(0, 0)),
    (lambda x: np.abs(x - 0.3) ** -0.5, GUP(0, 0)),
    # ||f||^2 overflows: a running scale that is not finite closes nothing
    (lambda x: np.exp(x * x), FiniteII(9)),
    (np.exp, FiniteII(9)),
    (lambda x: np.exp(np.abs(x)), FiniteII(9)),
])
def test_divergent_targets_still_refused(f, basis):
    with pytest.raises(NonSquareIntegrable):
        expand(f, basis, 8)


@pytest.mark.parametrize("f", [lambda x: np.exp(x * x), np.exp, lambda x: np.exp(np.abs(x))],
                         ids=["exp(x^2)", "exp", "exp|x|"])
def test_overflowing_target_is_refused_before_the_budget(f, tree_panels):
    # the 4000-split budget would be over 8000 panels
    with pytest.raises(NonSquareIntegrable):
        expand(f, FiniteII(9), 8)
    assert sum(tree_panels) <= 200, tree_panels


def test_quarter_power_target_expands():
    # ||f||^2 = int (1 - x^2)^(-1/2) = pi is finite, and q_0 = B(1/2, 3/4) / 2
    ser = expand(lambda x: (1 - x * x) ** -0.25, U(0), 6)
    assert abs(ser.coefficients[0] - float(mpmath.beta(0.5, 0.75)) / 2) <= 1e-9


# --------------------------------------- every integral on one panel tree


@pytest.mark.parametrize("basis, nmax, factor", [
    *(pytest.param(b, 8, 2.0 ** 20, id=repr(b)) for b in (U(0.5), GUP(1, 1), GHP(0.5), V(0.3))),
    # ||f||^2 d_n is past the float range, its roots are not
    pytest.param(GHP(0.5), 40, 2.0 ** 465, id="GHP(u=0.5)@40 x 2**465"),
])
def test_scaled_target_scales_the_series_exactly(basis, nmax, factor):
    # every stopping rule is relative, so a power-of-two factor is exact
    f = lambda x: np.sin(1.5 * x) + np.abs(x)     # noqa: E731
    ser = expand(f, basis, nmax)
    big = expand(lambda x: factor * f(x), basis, nmax)
    assert big.coefficients == tuple(factor * q for q in ser.coefficients)
    assert big.residual_rel == ser.residual_rel


@pytest.mark.parametrize("basis, prefactor", [
    (U(-0.5), lambda x: (1 - x * x) ** mpmath.mpf(-0.25)),
    (G(0.5, -0.5), lambda x: mpmath.sign(x) * abs(x) ** 0.5 * (1 - x * x) ** mpmath.mpf(-0.25)),
], ids=["U(-0.5)", "G(0.5, -0.5)"])
def test_residual_matches_mpmath(basis, prefactor):
    # g = sin - sum q_n phi_n, with the prefactor in mpmath and its
    # polynomial factor in floats; g^2 has (1 - x^2)^(-1/2) endpoints
    ser = expand(np.sin, basis, 8)
    q = np.asarray(ser.coefficients)
    rec = basis.recurrence(8)

    def g(x):
        return mpmath.sin(x) - prefactor(x) * float(q @ rec.rows(np.array([float(x)]))[:, 0])
    want = mpmath.quad(lambda x: g(x) ** 2, [-1, 0, 1])
    assert abs(ser.residual ** 2 - want) <= 1e-6 * want


# one member's hints are all >= 0: the residual tree takes them
_HINTED_RESIDUAL = [U(0.5), Pm(1), G(0.5, 1.0), Q(0.5)]


@pytest.mark.parametrize("basis, prefactor", [
    (U(0.5), lambda x: (1 - x * x) ** mpmath.mpf(0.25)),
    (Pm(1), lambda x: mpmath.sqrt(1 - x * x)),
    (G(0.5, 1.0), lambda x: mpmath.sign(x) * mpmath.sqrt(abs(x) * (1 - x * x))),
    (Q(0.5), lambda x: x * (1 - x * x) ** mpmath.mpf(0.25)),
], ids=["U(0.5)", "Pm(1)", "G(0.5, 1.0)", "Q(0.5)"])
def test_hinted_residual_matches_mpmath(basis, prefactor):
    # as test_residual_matches_mpmath, to rounding of ||f||^2
    ser = expand(np.sin, basis, 8)
    q = np.asarray(ser.coefficients[basis.base:])
    rec = basis.recurrence(8)

    def g(x):
        return mpmath.sin(x) - prefactor(x) * float(q @ rec.rows(np.array([float(x)]))[:, 0])
    with mpmath.workdps(30):
        want = mpmath.quad(lambda x: g(x) ** 2, [-1, 0, 1])
    f_norm2 = 1 - math.sin(2) / 2
    assert abs(ser.residual ** 2 - float(want)) <= 1e-12 * f_norm2


@pytest.mark.parametrize("basis", [V(0.6), U(-0.5), G(0.5, -0.5), Q(-0.4)] + _HINTED_RESIDUAL,
                         ids=repr)
def test_expand_panel_count(basis, tree_panels):
    # the residuals of the first four once ran the whole panel budget; the
    # hinted residuals once took 64-88 panels
    expand(np.sin, basis, 8)
    assert sum(tree_panels) <= 1000, tree_panels
    if basis in _HINTED_RESIDUAL:
        assert tree_panels[-1] <= 32, tree_panels


def test_finite_ii_residual_takes_its_unexponented_hint():
    # FiniteII's interval marks its origin with exponent None: a split, no power
    ser = expand(lambda x: 1 / (1 + x * x), FiniteII(6), 4)
    assert ser.residual_converged
    assert ser.residual == 0.05149726947643892


@pytest.mark.parametrize("basis, closed", [(V(0.6), False), (GUP(0.6, 0.8), True)], ids=str)
def test_series_reports_whether_its_residual_closed(basis, closed):
    # V(0.6)'s residual tree stays open after its panel budget, which the
    # residual itself does not show
    ser = expand(np.sin, basis, 8)
    assert ser.residual_converged is closed
    assert ExpansionSeries(basis, ser.coefficients, 8, 0.0, 0.0).residual_converged


# ------------------------------------------- coefficients on one panel tree


_BASES = [GUP(1, 1), GUP(Fraction(1, 2), Fraction(1, 2)), GUP(0.3, -0.4), GHP(0),
          GHP(0.5), U(0.5), U(-0.5), Pm(1), Pm(2), V(0.3), V(-0.3), G(0.5, 1),
          G(1.5, -0.5), Q(0.5)]


def _member(basis, n):
    if isinstance(basis, (GUP, GHP)):
        return poly_from_params(basis.params, n, monic=True)
    return member_fn(basis, n)


def _norms(basis, nmax):
    return [e.expected for e in gram_matrix(basis, nmax).entries if e.n == e.m]


@pytest.mark.parametrize("basis", _BASES, ids=repr)
def test_member_round_trip_every_basis(basis):
    ser = expand(_member(basis, 3), basis, 8)
    base = basis.m if isinstance(basis, Pm) else 0
    assert ser.coefficients[3] == pytest.approx(1.0, abs=1e-9)
    for n, d in enumerate(_norms(basis, 8), start=base):
        if n != 3:
            assert abs(ser.coefficients[n]) * math.sqrt(d) <= 1e-7, n
    assert all(q == 0.0 for q in ser.coefficients[:base])


@pytest.mark.parametrize("alpha", [0.3, -0.3])
def test_v_kind_expands(alpha):
    ser = expand(np.sin, V(alpha), 8)
    xs = np.linspace(-0.9, 0.9, 7)
    assert np.max(np.abs(reconstruct(ser, xs) - np.sin(xs))) < 0.1
    assert ser.residual_rel < 0.05


@pytest.mark.parametrize("basis", [GUP(1, 1), GHP(0.5), U(0.5), Pm(1), V(0.3),
                                   G(0.5, 1), Q(0.5)], ids=repr)
def test_tree_coefficients_match_scalar_integrals(basis):
    # the scalar route: one integrate call per coefficient, on the same
    # single-member hints the tree uses
    from symortho.sturm import _adapt
    nmax = 6
    ad = _adapt(basis)
    target = lambda x: np.sin(1.5 * x) + np.abs(x)   # noqa: E731
    ser = expand(target, basis, nmax)
    f2 = integrate(lambda x: ad.weight(x) * target(x) ** 2, ad.interval(0)).value
    for n, d in enumerate(_norms(basis, nmax), start=ad.base):
        phi = _member(basis, n)
        num = integrate(lambda x: ad.weight(x) * target(x) * phi(x), ad.interval(1),
                        rtol=1e-12, atol=1e-14).value
        assert abs(ser.coefficients[n] * d - num) <= 1e-8 * math.sqrt(f2 * d), n


def test_open_coefficient_raises(monkeypatch):
    from symortho import quadrature
    expand_mod = importlib.import_module("symortho.expand")
    real = expand_mod.integrate_gram

    def starved(*args, **kwargs):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 0)
        return real(*args, **kwargs)
    monkeypatch.setattr(expand_mod, "integrate_gram", starved)
    with pytest.raises(MaxDepthExceeded):
        expand(lambda x: np.abs(x - 0.3), GUP(0, 0), 8)


def test_norms_come_from_the_gram_report(monkeypatch):
    # one running product of C_1..C_8 serves the Gram check and expand
    from symortho import families
    calls = []
    real = families.recurrence_c

    def counted(params, n):
        calls.append(n)
        return real(params, n)
    monkeypatch.setattr(families, "recurrence_c", counted)
    expand(np.sin, GUP(1, 1), 8)
    assert calls == list(range(1, 9))


# ------------------------------------------------ memo of verified bases


@pytest.fixture
def gram_checks(monkeypatch):
    """The (basis, nmax, tol) of every Gram check expand makes."""
    expand_mod = importlib.import_module("symortho.expand")
    real = expand_mod.gram_matrix
    calls = []

    def counted(basis, nmax, tol=1e-7):
        calls.append((basis, nmax, tol))
        return real(basis, nmax, tol)
    monkeypatch.setattr(expand_mod, "gram_matrix", counted)
    return calls


def test_verified_basis_is_checked_once(gram_checks):
    for _ in range(3):
        expand(np.sin, GUP(1, 1), 8)
    expand(np.sin, GUP(1, 1), 6)
    assert [nmax for _, nmax, _ in gram_checks] == [8, 6]


def test_fraction_and_float_parameters_verify_separately(gram_checks):
    exact, inexact = GUP(Fraction(1, 2), Fraction(1, 2)), GUP(0.5, 0.5)
    assert exact == inexact     # equal values, different types
    for basis in (exact, inexact, exact, inexact):
        expand(np.sin, basis, 6)
    assert [type(b.u) for b, _, _ in gram_checks] == [Fraction, float]


def test_kind_with_evaluated_members_is_a_key(gram_checks):
    from symortho.legendre import kind_rows
    kind = U(0.5)
    kind_rows(kind, 8)(np.array([0.3]))     # caches the class and its C_k on the kind
    assert "params" in vars(kind)
    first = expand(np.sin, kind, 8)
    again = expand(np.sin, U(0.5), 8)
    assert len(gram_checks) == 1 and again.coefficients == first.coefficients


def test_new_tol_verifies_again(gram_checks):
    for tol in (1e-7, 1e-8, 1e-7):
        expand(np.sin, GHP(0.5), 6, tol=tol)
    assert [tol for _, _, tol in gram_checks] == [1e-7, 1e-8]


def test_failing_basis_raises_with_a_fresh_report_every_call(gram_checks):
    reports = []
    for _ in range(2):
        with pytest.raises(BasisInvalid) as exc:
            expand(lambda x: x, FiniteII(4.5), 4)
        reports.append(exc.value.report)
    assert len(gram_checks) == 2 and reports[0] is not reports[1]
    assert reports[1].entry(4, 4).status == "cliff"


def test_unhashable_field_skips_the_memo(gram_checks):
    for _ in range(2):
        ser = expand(np.sin, U(np.array(0.5)), 6)
    assert len(gram_checks) == 2
    assert ser.coefficients == expand(np.sin, U(0.5), 6).coefficients


def test_unsupported_basis_still_raises_type_error():
    with pytest.raises(TypeError):
        expand(np.sin, (0.5, 0.5), 6)


@pytest.mark.parametrize("basis", [GUP(1, 1.5), GHP(0), Pm(1), V(0.3)])
def test_warm_memo_series_equals_cold(basis):
    from symortho.expand import _verified_norms
    target = lambda x: np.exp(x) * np.cos(2 * x)    # noqa: E731
    cold = expand(target, basis, 8)
    warm = expand(target, basis, 8)
    assert _verified_norms.cache_info().hits == 1
    assert (warm.coefficients, warm.residual, warm.residual_rel) == (
        cold.coefficients, cold.residual, cold.residual_rel)


# ------------------------------------------------ reconstruct by recurrence


def test_reconstruct_exact_at_high_degree():
    spec = GUP(Fraction(1, 2), Fraction(1, 2))
    nmax = 40
    rng = np.random.default_rng(3)
    q = [float(r) / math.sqrt(norm_squared(spec, n).value)
         for n, r in enumerate(rng.uniform(-1.0, 1.0, nmax + 1))]
    ser = ExpansionSeries(spec, tuple(q), nmax, 0.0, 0.0)
    xs = np.linspace(-0.99, 0.99, 23)
    polys = [poly_from_params(spec.params, n, monic=True) for n in range(nmax + 1)]
    exact = [sum(Fraction(c) * p.eval_exact(Fraction(x)) for c, p in zip(q, polys))
             for x in xs]
    scale = max(abs(v) for v in exact)
    got = reconstruct(ser, xs)
    assert max(abs(Fraction(g) - e) for g, e in zip(got, exact)) <= 1e-12 * scale
    assert reconstruct(ser, xs[4]) == pytest.approx(got[4], rel=1e-14)


@pytest.mark.parametrize("basis", [U(0.5), Pm(2), V(-0.3), G(0.5, 1), Q(0.5)], ids=repr)
def test_reconstruct_kinds_matches_members(basis):
    base = basis.m if isinstance(basis, Pm) else 0
    q = (0.0,) * base + tuple(0.5 ** k for k in range(7 - base))
    ser = ExpansionSeries(basis, q, 6, 0.0, 0.0)
    xs = np.linspace(-0.95, 0.95, 2 * 11).reshape(2, 11)
    want = sum(c * member_fn(basis, n)(xs) for n, c in enumerate(q) if n >= base)
    got = reconstruct(ser, xs)
    assert got.shape == xs.shape
    assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_reconstruct_value_does_not_depend_on_the_length_of_x():
    spec = GUP(Fraction(1, 2), Fraction(1, 2))
    rng = np.random.default_rng(5)
    ser = ExpansionSeries(spec, tuple(rng.uniform(-1.0, 1.0, 17)), 16, 0.0, 0.0)
    xs = np.linspace(-0.999, 0.999, 20000)
    full = reconstruct(ser, xs)
    assert np.array_equal(reconstruct(ser, xs[:8195]), full[:8195])
    for i in range(0, 20000, 1999):
        assert reconstruct(ser, xs[i]) == full[i]
