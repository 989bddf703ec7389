import importlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import mp_reference
import symortho
from symortho.core import ClassParams, poly_from_params, recurrence_c
from symortho.errors import (BasisInvalid, ConstraintViolation, MaxDepthExceeded,
                             NonSquareIntegrable)
from symortho.expand import (ExpansionSeries, barycentric_interpolant, expand,
                             reconstruct)
from symortho.exponent_map import LambdaSpec, transformed_eval
from symortho.families import GUP, GHP, Class, FiniteI, FiniteII, norm_squared
from symortho.legendre import G, Pm, Q, U, V, member_fn
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


@pytest.mark.parametrize("nodes", [[1.0, 1.0], [0.0, -0.0], [np.nan, np.nan],
                                   [2.0, np.nan, -1.0, np.nan], [np.inf, 3.0, np.inf]],
                         ids=repr)
def test_barycentric_refuses_repeated_nodes(nodes):
    with pytest.raises(ConstraintViolation, match="distinct"):
        barycentric_interpolant(nodes, np.ones(len(nodes)))


def test_barycentric_refuses_what_unique_refuses():
    # every node set of up to four values drawn from a pool of near misses
    pool = [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), -np.inf, np.inf, np.nan]
    for size in range(1, 5):
        for nodes in itertools.product(pool, repeat=size):
            repeated = np.unique(nodes).size != size
            try:
                with np.errstate(all="ignore"):
                    barycentric_interpolant(nodes, np.ones(size))
                refused = False
            except ConstraintViolation:
                refused = True
            assert refused == repeated, nodes


def test_sampled_targets_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, 15-38 ms; the library
    # path of sampled data, in the API and the CLI, makes no such import
    samples = tmp_path / "samples.csv"
    xs = np.cos(np.pi * (np.arange(9) + 0.5) / 9)
    samples.write_text("".join(f"{float(x)!r},{math.exp(x)!r}\n" for x in xs))
    script = f"""
import sys
import numpy as np
from symortho import GUP, cli, expand
xs = np.linspace(-0.9, 0.9, 9)
expand((xs, np.exp(xs)), GUP(1, 1), 4)
status = cli.run(["expand", "--basis", "gup", "--u", "1", "--v", "1", "--nmax", "4",
                  "--input", {str(samples)!r}, "--output", {str(tmp_path / "out.csv")!r}])
sys.exit(status or 10 * ("numpy.ma" in sys.modules))
"""
    src = os.path.dirname(os.path.dirname(symortho.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=False)
    assert done.returncode == 0, done.stderr


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
    f2 = mp_reference.family_product(spec, 0, 0, power=10)
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


def _runge(x):
    # two rule sizes do not resolve it at nmax 8-12, so it stays on the trees
    return 1 / (1 + 10 * x * x)


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
    # g = f - sum q_n phi_n, with the prefactor in mpmath and its
    # polynomial factor in floats; g^2 has (1 - x^2)^(-1/2) endpoints
    ser = expand(_runge, basis, 8)
    assert ser.panels > 0
    q = np.asarray(ser.coefficients)
    rec = basis.recurrence(8)

    def g(x):
        return _runge(x) - prefactor(x) * float(q @ rec.rows(np.array([float(x)]))[:, 0])
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
    ser = expand(_runge, basis, 8)
    assert ser.panels > 0
    q = np.asarray(ser.coefficients[basis.base:])
    rec = basis.recurrence(8)

    def g(x):
        return _runge(x) - prefactor(x) * float(q @ rec.rows(np.array([float(x)]))[:, 0])
    with mpmath.workdps(30):
        want = mpmath.quad(lambda x: g(x) ** 2, [-1, 0, 1])
        f_norm2 = float(mpmath.quad(lambda x: _runge(x) ** 2, [-1, 0, 1]))
    assert abs(ser.residual ** 2 - float(want)) <= 1e-12 * f_norm2


@pytest.mark.parametrize("basis", [V(0.6), U(-0.5), G(0.5, -0.5), Q(-0.4)] + _HINTED_RESIDUAL,
                         ids=repr)
def test_expand_panel_count(basis, tree_panels):
    # sin's residuals on the first four once ran the whole panel budget,
    # and on the hinted ones took 64-88 panels
    expand(_runge, basis, 8)
    assert sum(tree_panels) <= 1000, tree_panels
    if basis in _HINTED_RESIDUAL:
        assert tree_panels[-1] <= 32, tree_panels


def test_finite_ii_residual_takes_its_unexponented_hint():
    # FiniteII's interval marks its origin with exponent None: a split, no power
    ser = expand(lambda x: 1 / (1 + x * x), FiniteII(6), 4)
    assert ser.residual_converged
    # the square root of mpmath.quad of w (f - s)^2 over the line, at 40
    # digits with the series' own coefficients, is 0.051497269476438549
    assert ser.residual == 0.05149726947643896


def test_finite_i_hinted_tails_match_mpmath():
    # FiniteI's tails are hinted with an exponent (|x|^-12.2 here) and each
    # starts as one panel; against mpmath, the residual^2 holds to the
    # trees' stopping rule, 1e-9 ||f||^2, and each coefficient to 1e-9 of
    # its scale ||f|| / sqrt(d_n)
    basis, nmax = FiniteI(0.1, 6), 4
    ser = expand(lambda x: 1 / (1 + x * x), basis, nmax)
    assert ser.residual_converged
    params = ClassParams(*map(Fraction, basis.params))     # u = 0.1 as the float it is
    cs = [recurrence_c(params, k) for k in range(1, nmax)]
    u = mpmath.mpf(basis.u)

    def members(x):
        rows = [mpmath.mpf(1), x]
        for k, c in enumerate(cs, 1):
            rows.append(x * rows[k] + mpmath.mpf(c.numerator) / c.denominator * rows[k - 1])
        return rows

    def quad(g):
        return mpmath.quad(lambda x: abs(x) ** (-2 * u) * (1 + x * x) ** -6 * g(x),
                           [-mpmath.inf, -1, 0, 1, mpmath.inf])

    def f(x):
        return 1 / (1 + x * x)
    q = [mpmath.mpf(float(c)) for c in ser.coefficients]
    with mpmath.workdps(30):
        f_norm2 = quad(lambda x: f(x) ** 2)
        want = quad(lambda x: (f(x) - mpmath.fdot(q, members(x))) ** 2)
        for n in range(nmax + 1):
            d = quad(lambda x: members(x)[n] ** 2)
            exact = quad(lambda x: f(x) * members(x)[n]) / d
            assert abs(q[n] - exact) <= 1e-9 * mpmath.sqrt(f_norm2 / d)
    assert abs(ser.residual ** 2 - want) <= 1e-9 * f_norm2


@pytest.mark.parametrize("f, basis, closed", [
    (np.abs, V(0.6), False), (_runge, GUP(0.6, 0.8), True), (np.sin, V(0.6), True)], ids=str)
def test_series_reports_whether_its_residual_closed(f, basis, closed):
    # |x|'s residual tree on V(0.6) stays open after its panel budget, which
    # the residual itself does not show; sin's, there once, takes the rule
    ser = expand(f, basis, 8)
    assert ser.residual_converged is closed
    assert ExpansionSeries(basis, ser.coefficients, 8, 0.0, 0.0).residual_converged


@pytest.mark.parametrize("f, basis, nmax, count", [
    (_runge, GUP(1, 1), 8, 2), (np.abs, U(0.5), 12, 2), (_runge, V(0.6), 8, 3)],
    ids=["runge-GUP(1,1)@8", "abs-U(0.5)@12", "runge-V(0.6)@8"])
def test_series_reports_what_its_trees_cost(f, basis, nmax, count, monkeypatch):
    # the counts total expand's own trees: ||f||^2 and the numerators on
    # one, the residual started on its panels, but three (each planned)
    # where a hinted exponent is negative; the Gram check runs on sturm's
    # binding, which is not wrapped (and runs before the plans are counted)
    from symortho import quadrature
    expand(f, basis, nmax)
    expand_mod = importlib.import_module("symortho.expand")
    real, trees = expand_mod.integrate_gram, []
    real_plan, plans = quadrature._plan, []

    def counted(*args, **kwargs):
        trees.append(real(*args, **kwargs))
        return trees[-1]
    monkeypatch.setattr(expand_mod, "integrate_gram", counted)
    monkeypatch.setattr(quadrature, "_plan", lambda *a: plans.append(0) or real_plan(*a))
    ser = expand(f, basis, nmax)
    assert len(trees) == count
    assert len(plans) == (1 if count == 2 else count)
    assert ser.panels == sum(t.panels for t in trees) > 0
    assert ser.evals == sum(t.evals for t in trees) >= 15 * ser.panels
    assert ExpansionSeries(basis, ser.coefficients, nmax, 0.0, 0.0).panels == 0


@pytest.mark.parametrize("u", [0, 0.5], ids=["GHP(0)", "GHP(0.5)"])
def test_residual_on_the_numerators_panels_matches_mpmath(u):
    # int W (f - sum q_n phi_n)^2 with the series' own q; a cold residual
    # tree stopped on a coarse mesh, its target 1e-9 ||f||^2 far above the
    # residual: sin(1.5 x) alone read 1.9637e-5 and 3.3049e-5 here (5.3%
    # and 1.0% off).  The kink |x| keeps f on the trees
    from symortho.sturm import _adapt
    ser = expand(lambda x: np.sin(1.5 * x) + np.abs(x), GHP(u), 12)
    assert ser.panels > 0
    q = np.asarray(ser.coefficients)
    rows = _adapt(GHP(u)).rows(12)

    def g2(x):
        s = float(q @ rows(np.array([float(x)]))[:, 0])
        return abs(x) ** (2 * u) * mpmath.exp(-x * x) * (mpmath.sin(1.5 * x) + abs(x) - s) ** 2
    with mpmath.workdps(30):
        # past |x| = 30 the weight is below e^-900
        want = float(mpmath.quad(g2, [-30, -6, -3, 0, 3, 6, 30]))
    assert abs(ser.residual ** 2 - want) <= 1e-8 * want


# ------------------------------------------- coefficients on one panel tree


@pytest.mark.parametrize("basis", [GUP(1, 1), GHP(0.5), U(0.5), Pm(1)], ids=repr)
def test_one_tree_for_the_norm_and_numerators_matches_two(basis, monkeypatch):
    # the fused tree's entry 0 is ||f||^2 and its entries 1.. the
    # numerators: the separate trees give them within 1e-9 of each scale
    from symortho.quadrature import entry_scale, integrate_gram
    from symortho.sturm import _adapt
    expand_mod = importlib.import_module("symortho.expand")
    trees = []
    monkeypatch.setattr(expand_mod, "integrate_gram",
                        lambda *a, **k: trees.append(integrate_gram(*a, **k)) or trees[-1])
    f = lambda x: np.sin(1.5 * x) + np.abs(x)     # noqa: E731
    expand(f, basis, 8)
    fused = trees[0]
    assert fused.value.shape == (10 - basis.base if isinstance(basis, Pm) else 10,)
    ad = _adapt(basis)
    rows = ad.rows(8)
    ff = integrate_gram(lambda x: (ad.weight(x), f(x), f(x)[None, :]), ad.interval(0),
                        lambda t: entry_scale(t, t))
    f_norm2 = ff.value[0]
    norms = np.array(_norms(basis, 8))
    num = integrate_gram(lambda x: (ad.weight(x), f(x), rows(x)), ad.interval(1),
                         entry_scale(f_norm2, norms))
    assert ff.converged.all() and num.converged.all()
    assert abs(fused.value[0] - f_norm2) <= 1e-9 * f_norm2
    assert np.all(np.abs(fused.value[1:] - num.value) <= 1e-9 * entry_scale(f_norm2, norms))


@pytest.mark.parametrize("f, basis", [(lambda x: np.exp(x * x / 2), GHP(0)), (np.exp, FiniteII(9))],
                         ids=["exp(x^2 div 2)-GHP(0)", "exp-FiniteII(9)"])
def test_refusals_keep_their_type(f, basis):
    # exp(x^2 / 2) on GHP(0): f^2 W* = 1 is no super-algebraic growth, so
    # its open tree refuses it
    with pytest.raises(NonSquareIntegrable, match=r"int W\* f\^2 did not converge .* panels"):
        expand(f, basis, 8)


def test_an_overflowing_norm_is_refused_in_the_first_round(monkeypatch):
    # ||f||^2 overflows, so no entry of the fused tree is held to a scale
    from symortho import quadrature
    f = lambda x: 1e200 * np.sin(x)     # noqa: E731
    with pytest.raises(NonSquareIntegrable):
        expand(f, GUP(1, 1), 8)         # verifies the basis, once
    rounds = []
    real = quadrature._gk_blocks
    monkeypatch.setattr(quadrature, "_gk_blocks", lambda *a: rounds.append(0) or real(*a))
    with pytest.raises(NonSquareIntegrable, match=r"estimate inf \+- inf after"):
        expand(f, GUP(1, 1), 8)
    assert len(rounds) == 1


def test_an_open_coefficient_says_which_and_what_it_cost(monkeypatch):
    from symortho import quadrature
    expand_mod = importlib.import_module("symortho.expand")
    real, trees = expand_mod.integrate_gram, []

    def starved(*args, **kwargs):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 0)
        trees.append(real(*args, **kwargs))
        return trees[-1]
    monkeypatch.setattr(expand_mod, "integrate_gram", starved)
    with pytest.raises(MaxDepthExceeded, match=r"f phi_n, n = \d+, inconclusive") as exc:
        expand(lambda x: np.abs(x - 0.3), GUP(0, 0), 8)
    part = exc.value.partial
    assert part.reason == "budget" and not part.converged
    assert part.panels == sum(t.panels for t in trees) > 0
    assert part.evals == sum(t.evals for t in trees) >= 15 * part.panels
    k = int(str(exc.value).split("n = ")[1].split(",")[0])
    assert part.abs_error_estimate == trees[-1].error[k + 1] > 0


def test_an_open_norm_says_what_it_cost(tree_panels):
    with pytest.raises(NonSquareIntegrable) as exc:
        expand(lambda x: np.exp(x * x / 2), GHP(0), 8)
    msg = str(exc.value)
    assert f"after {sum(tree_panels)} panels, {15 * sum(tree_panels)} evals" in msg
    assert " +- " in msg


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
    # the scalar route: one mpmath integral per coefficient
    nmax = 6
    ser = expand(lambda x: np.sin(1.5 * x) + np.abs(x), basis, nmax)

    def target(x):
        return mpmath.sin(1.5 * x) + abs(x)
    family = isinstance(basis, (GUP, GHP))
    f2 = (mp_reference.family_product(basis, 0, 0, lambda x: target(x) ** 2) if family
          else mp_reference.quad(lambda x: target(x) ** 2, -1.0, 1.0))
    base = basis.m if isinstance(basis, Pm) else 0
    for n, d in enumerate(_norms(basis, nmax), start=base):
        num = (mp_reference.family_product(basis, n, 0, target) if family
               else mp_reference.kind_product(basis, n, None, target))
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
    products = []
    real = families._c_products

    def counted(params):
        products.append(params)
        return real(params)
    monkeypatch.setattr(families, "_c_products", counted)
    expand(np.sin, GUP(1, 1), 8)
    assert len(products) == 1


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


def test_expand_on_a_fresh_basis_builds_no_entry_objects(gram_checks, entry_objects):
    for basis in (GUP(0.5, 1.5), U(0.5), Pm(2)):
        assert len(expand(np.sin, basis, 6).coefficients) == 7
    assert len(gram_checks) == 3 and entry_objects == []


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


def test_a_warm_memo_still_refuses_a_bad_nmax():
    # 4.0 and True hashed as the verified 4 and 1: a kind ran on
    # "n = 0..True" and raised a bare TypeError at 4.0
    basis = U(0.4321)
    for good, bad in ((4, 4.0), (1, True)):
        expand(np.sin, basis, good)
        with pytest.raises(ConstraintViolation):
            expand(np.sin, basis, bad)


def test_unhashable_field_skips_the_memo(gram_checks):
    for _ in range(2):
        ser = expand(np.sin, U(np.array(0.5)), 6)
    assert len(gram_checks) == 2
    assert ser.coefficients == expand(np.sin, U(0.5), 6).coefficients


@pytest.mark.parametrize("fam, f, nmax", [
    (GHP(Fraction(1, 2)), lambda x: np.exp(-0.3 * x * x) + np.abs(x), 6),
    (FiniteII(6), lambda x: 1 / (1 + x * x), 3)], ids=["GHP(1/2)", "FiniteII(6)"])
def test_lambda_two_on_the_whole_line_is_its_family(fam, f, nmax):
    # at lambda = 2, t = x: the lambda class's trees run on its t interval
    # over the whole line (FiniteII's tails hinted, GHP's not), and give
    # the family's series bit for bit (the kink |x| keeps GHP's on the trees)
    want, got = expand(f, fam, nmax), expand(f, LambdaSpec(*fam.params, Fraction(2)), nmax)
    assert got.coefficients == want.coefficients and got.residual == want.residual
    assert (got.panels, got.evals, got.residual_converged) == (want.panels, want.evals, True)


def test_lambda_two_thirds_on_the_whole_line_matches_mpmath():
    # FiniteII(6)'s lambda = 2/3 class in t = x^3: q_2 = int W(x) S_2(x)
    # f(x^3) dx / d_2 with f(t) = 1 / (1 + t^2), W = |x|^-12 e^(-1/x^2), to
    # 1e-9 of its scale ||f|| / sqrt(d_2) (3.2e-15 off here)
    spec = LambdaSpec(1, 0, Fraction(-8, 3), Fraction(2, 3), Fraction(2, 3))
    assert spec.mapped_params == FiniteII(6).params
    ser = expand(lambda t: 1 / (1 + t * t), spec, 3)
    c = poly_from_params(spec.mapped_params, 2, monic=True).coeffs[1]
    d = norm_squared(Class(*spec.mapped_params), 2).value
    with mpmath.workdps(30):
        def quad(g):
            return 2 * mpmath.quad(lambda x: x ** -12 * mpmath.exp(-1 / (x * x)) * g(x),
                                   [0, 0.5, 1, 2, mpmath.inf])
        exact = quad(lambda x: (x * x + mpmath.mpf(c.numerator) / c.denominator) / (1 + x ** 6))
        f_norm = mpmath.sqrt(quad(lambda x: (1 + x ** 6) ** -2))
    assert abs(ser.coefficients[2] - exact / d) <= 1e-9 * f_norm / math.sqrt(d)


@pytest.mark.parametrize("basis, member", [
    # the cube-root class mapped onto |x|^2 (1-x^2): members S_n(t^(1/3))
    (LambdaSpec(-1, 1, Fraction(-8, 3), Fraction(4, 3), Fraction(2, 3)),
     lambda spec, n, t: transformed_eval(spec, n, t)),
    # |x|^2 (1 - x^2)^(-1/2), given with the sign that makes px^2 + q < 0
    (Class(1, -1, 3, -2), lambda spec, n, t: poly_from_params(spec.params, n)(t)),
], ids=["lambda-2/3", "class"])
def test_expand_and_reconstruct_any_class(basis, member):
    # a combination of members 1 and 4 is its own expansion, point by point
    def f(t):
        return member(basis, 4, t) - 0.5 * member(basis, 1, t)
    ser = expand(f, basis, 6)
    assert ser.residual_rel <= 1e-7
    for n in (0, 2, 3, 5, 6):
        assert abs(ser.coefficients[n]) <= 1e-7, n
    t = np.linspace(-0.95, 0.95, 41)
    assert np.max(np.abs(reconstruct(ser, t) - f(t))) <= 1e-7 * np.max(np.abs(f(t)))


def test_unsupported_basis_still_raises_type_error():
    with pytest.raises(TypeError):
        expand(np.sin, (0.5, 0.5), 6)


@pytest.mark.parametrize("basis", [GUP(1, 1.5), GHP(0), Pm(1), V(0.3)])
def test_warm_memo_series_equals_cold(basis):
    from symortho.expand import _verified
    target = lambda x: np.exp(x) * np.cos(2 * x)    # noqa: E731
    cold = expand(target, basis, 8)
    warm = expand(target, basis, 8)
    assert _verified.cache_info().hits == 1
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


# ------------------------------------------------ the target's own exponents


def _sqrt_abs(x):
    return np.sqrt(np.abs(x))


def _no_scan(monkeypatch):
    """Run expand with no measured target exponent: the basis's hints alone."""
    expand_mod = importlib.import_module("symortho.expand")
    monkeypatch.setattr(expand_mod, "target_exponents", lambda f, interval: {})


def _fields(ser):
    return (ser.basis, ser.coefficients, ser.nmax, ser.residual, ser.residual_rel,
            ser.residual_converged, ser.panels, ser.evals)


@pytest.mark.parametrize("basis, nmax, weight, cuts, panels_before", [
    (U(0.5), 12, lambda x: 1, [-1, 0, 1], 110),
    (GUP(0, 0), 16, lambda x: 1, [-1, 0, 1], 92),
    (GHP(0), 10, lambda x: mpmath.exp(-x * x), [-30, -6, -3, 0, 3, 6, 30], 132),
], ids=["U(0.5)@12", "GUP(0,0)@16", "GHP(0)@10"])
def test_kinked_target_takes_its_exponent_as_a_hint(basis, nmax, weight, cuts, panels_before):
    # sqrt|x| has exponent 1/2 at 0: its trees are softened there instead
    # of bisecting toward it (panels_before, the basis's hints alone); past
    # |x| = 30 GHP's weight is below e^-900
    from symortho.sturm import _adapt
    ser = expand(_sqrt_abs, basis, nmax)
    assert ser.panels < panels_before, ser.panels
    ad = _adapt(basis)
    q = np.asarray(ser.coefficients[ad.base:])
    rows = ad.rows(nmax)

    def g2(x):
        s = float(q @ rows(np.array([float(x)]))[:, 0])
        return weight(x) * (mpmath.sqrt(abs(x)) - s) ** 2
    with mpmath.workdps(30):
        want = float(mpmath.sqrt(mpmath.quad(g2, cuts)))
    assert ser.residual_converged
    assert abs(ser.residual - want) <= 1e-12 * want
    if basis == GUP(0, 0):
        # sqrt|x| is 1, |x|^(1/2), x^2 |x|^(1/2), ... past degree 16: 1/35 is exact
        assert abs(ser.residual - 1 / 35) <= 1e-14


@pytest.mark.parametrize("basis", [V(0.3), V(0.6), Q(-0.4)], ids=repr)
def test_quarter_power_target_on_a_negative_exponent_kind(basis):
    # (1 - x^2)^(-1/4) hinted at +-1: every numerator closes (the basis's
    # hints alone ran them to their budget); each q_n against mpmath to the
    # stopping rule, 1e-9 sqrt(||f||^2 / d_n), with ||f||^2 = pi
    ser = expand(lambda x: (1 - x * x) ** -0.25, basis, 6)
    rec = basis.recurrence(6)
    for n, d in enumerate(_norms(basis, 6)):
        def integrand(x):
            member = float(rec.rows(np.array([float(x)]))[n, 0])
            return (1 - x * x) ** mpmath.mpf(-0.25) * basis.prefactor(mpmath.mpf(x)) * member
        with mpmath.workdps(25):
            want = float(mpmath.quad(integrand, [-1, 0, 1])) / d
        assert abs(ser.coefficients[n] - want) <= 1e-9 * math.sqrt(math.pi / d), n


def test_polynomial_target_with_a_slow_tail():
    # f^2 W ~ |x|^-1.2 on FiniteI(1/10, 5/2): hinted in the tails, ||f||^2
    # closes (the weight's hint alone left it open).  1 - x^2/2 is
    # 1 + C_1/2 - S_2/2 with S_2 = x^2 + C_1, exactly
    from symortho.core import recurrence_c
    basis = FiniteI(0.1, 2.5)
    ser = expand(lambda x: 1 - x * x / 2, basis, 2)
    c1 = float(recurrence_c(basis.params, 1))
    assert ser.coefficients[0] == pytest.approx(1 + c1 / 2, rel=1e-12)
    assert abs(ser.coefficients[1]) <= 1e-15
    assert ser.coefficients[2] == pytest.approx(-0.5, rel=1e-12)
    assert ser.residual_converged and ser.residual_rel <= 1e-12


@pytest.mark.parametrize("f, point", [
    (lambda x: np.abs(x) ** -0.6, "0.0"),
    (lambda x: (1 - x * x) ** -0.6, "-1.0"),
], ids=["|x|^-0.6", "(1-x^2)^-0.6"])
def test_scan_certifies_a_divergent_norm_before_any_tree(f, point, tree_panels):
    # f^2 ~ |x - c|^-1.2: refused with no panel tree (the tree alone ran
    # its whole 16,032-panel budget first)
    with pytest.raises(NonSquareIntegrable, match=rf"diverges at x = c = {point}: .* "
                                                  r"exponent there is -0\.6, so f\^2 W\* ~ "
                                                  r"\|x - c\|\^-1\.2"):
        expand(f, U(0.5), 8)
    assert tree_panels == []


def test_a_weight_that_makes_the_norm_finite_is_not_refused():
    # |x|^-0.6 on GUP(1, 1): f^2 W ~ |x|^0.8 at 0, and q_0 is
    # int x^2 (1 - x^2) |x|^-0.6 / int x^2 (1 - x^2)
    ser = expand(lambda x: np.abs(x) ** -0.6, GUP(1, 1), 8)
    assert ser.residual_converged
    assert ser.coefficients[0] == pytest.approx((1 / 2.4 - 1 / 4.4) / (1 / 3 - 1 / 5), rel=1e-9)


_POOL = [GUP(0, 0), GUP(1, 1), GUP(Fraction(1, 2), Fraction(1, 2)), GHP(0), GHP(Fraction(1, 2)),
         U(0.5), G(0.5, 1.0), Pm(1)]
_DEGREES = {GHP(0): (8, 10, 12), GHP(Fraction(1, 2)): (6, 8, 10)}


def _smooth_targets(nmax, lo, hi):
    k = 2 * nmax + 1
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * (np.arange(k) + 0.5) / k)
    c = [0.8 ** j * (-1) ** j for j in range(nmax // 2 + 2)]
    return {"poly": lambda x: np.polyval(c[::-1], x) + 0.0 * np.asarray(x),
            "sin": lambda x: np.sin(1.5 * x), "exp": lambda x: np.exp(0.7 * x),
            "runge": lambda x: 1 / (1 + 10 * x * x), "abs": np.abs,
            "data": (xs, np.sin(1.5 * xs) / (1 + xs * xs))}


@pytest.mark.parametrize("basis", _POOL, ids=repr)
def test_a_scan_that_adds_nothing_leaves_the_series_bit_for_bit(basis, monkeypatch):
    # smooth targets and |x| have integer exponents at every scanned point
    # (GHP's tails are not scanned): each series is the one the basis's
    # hints alone give, field by field
    lo, hi = (-3.0, 3.0) if isinstance(basis, GHP) else (-0.99, 0.99)
    got = {}
    for nmax in _DEGREES.get(basis, (8, 12, 16)):
        for name, f in _smooth_targets(nmax, lo, hi).items():
            got[nmax, name] = _fields(expand(f, basis, nmax))
    _no_scan(monkeypatch)
    for (nmax, name), fields_ in got.items():
        assert fields_ == _fields(expand(_smooth_targets(nmax, lo, hi)[name], basis, nmax)), name


@pytest.mark.parametrize("f", [
    lambda x: np.where(np.abs(x) < 1e-2, 0.0, np.sqrt(np.abs(x))),
    lambda x: np.where(np.abs(x) < 1e-2, np.nan, 1.0) * np.sqrt(np.abs(x)),
    lambda x: np.where(x > 0, np.abs(x) ** 0.5, np.abs(x) ** 0.3),
    lambda x: np.abs(x) ** 0.3 * (1 + np.abs(x) ** 0.2),
], ids=["zero near 0", "nan near 0", "sides disagree", "spread slopes"])
def test_a_target_the_scan_cannot_read_adds_no_hint(f, monkeypatch):
    from symortho.quadrature import target_exponents
    from symortho.sturm import _adapt
    assert 0.0 not in target_exponents(f, _adapt(GUP(0, 0)).interval(1))
    def outcome():
        try:
            return _fields(expand(f, GUP(0, 0), 8))
        except (MaxDepthExceeded, NonSquareIntegrable) as exc:
            return type(exc), str(exc)
    got = outcome()
    _no_scan(monkeypatch)
    assert got == outcome()


@pytest.mark.parametrize("f, basis, want", [
    (_sqrt_abs, GUP(0, 0), {0.0: 0.5, -1.0: 0.0, 1.0: 0.0}),
    (lambda x: (1 - x * x) ** -0.25, U(0.5), {0.0: 0.0, -1.0: -0.25, 1.0: -0.25}),
    (lambda x: np.sign(x) * np.abs(x) ** 1.5 * (1 - x * x) ** 0.3, G(0.5, 1.0),
     {0.0: 1.5, -1.0: 0.3, 1.0: 0.3}),
    (lambda x: 1 / (1 + x * x), FiniteI(0.1, 2.5), {0.0: 0.0, math.inf: -2.0, -math.inf: -2.0}),
], ids=["sqrt|x|", "(1-x^2)^-1/4", "odd, at 0 and +-1", "tails"])
def test_target_exponents_reads_each_point(f, basis, want):
    # e extrapolates the last two slopes: (1 - x^2)^(-1/4)'s (1 + x)^(-1/4)
    # and the kinks' smooth factors are corrections linear in |x - c|
    from symortho.quadrature import target_exponents
    from symortho.sturm import _adapt
    got = target_exponents(f, _adapt(basis).interval(1))
    assert got.keys() == want.keys()
    for point, e in want.items():
        assert abs(got[point][0] - e) <= 1e-9, point


# ------------------------------------------------ the weight's own Gauss rule


def _poly(x):
    return 1 - 2 * x + 0.5 * x ** 3 - 0.25 * x ** 4


_RULE_TARGETS = {"sin": (np.sin, mpmath.sin, 8), "exp": (np.exp, mpmath.exp, 8),
                 "poly": (_poly, _poly, 8), "runge": (_runge, _runge, 20)}
_HALF = mpmath.mpf(0.5)
# each basis with W* and the prefactor of its members, in mpmath
_RULE_BASES = [
    (GUP(Fraction(1, 2), Fraction(1, 2)), lambda x: abs(x) * mpmath.sqrt(1 - x * x), None),
    (GHP(Fraction(1, 2)), lambda x: abs(x) * mpmath.exp(-x * x), None),
    (U(0.5), None, lambda x: (1 - x * x) ** (_HALF / 2)),
    (Pm(1), None, lambda x: mpmath.sqrt(1 - x * x)),
    (G(0.5, 1.0), None, lambda x: mpmath.sign(x) * mpmath.sqrt(abs(x) * (1 - x * x))),
    (Q(0.4), None, lambda x: x * (1 - x * x) ** mpmath.mpf(0.2)),
    (V(0.6), None, lambda x: ((1 - x) / (1 + x)) ** mpmath.mpf(0.3)),
]
# every basis with every target, and sin on the other kinds that
# tools/ci/expand_counts.py expands
_RULE_CASES = [(*case, name) for case in _RULE_BASES for name in sorted(_RULE_TARGETS)] + [
    (U(-0.5), None, lambda x: (1 - x * x) ** (-_HALF / 2), "sin"),
    (G(0.5, -0.5), None,
     lambda x: mpmath.sign(x) * mpmath.sqrt(abs(x)) * (1 - x * x) ** (-_HALF / 2), "sin"),
    (Q(-0.4), None, lambda x: x * (1 - x * x) ** mpmath.mpf(-0.2), "sin"),
    (Q(0.5), None, lambda x: x * (1 - x * x) ** (_HALF / 2), "sin"),
]


def _mp_members(basis, nmax, prefactor):
    """x -> members base..nmax at x in mpmath: the recurrence expand reads,
    its float coefficients taken as they are, times the prefactor."""
    from symortho.core import class_recurrence
    rec = (class_recurrence(basis.params, nmax) if isinstance(basis, (GUP, GHP))
           else basis.recurrence(nmax))

    def members(x):
        p = [mpmath.mpf(1)]
        for k, (b, c) in enumerate(zip(rec.b, rec.c)):
            p.append((x - b) * p[-1] + (c * p[-2] if k else 0))
        pre = 1 if prefactor is None else prefactor(x)
        return [pre * float(s) * v for s, v in zip(rec.scale, p)]
    return members


@pytest.mark.parametrize("basis, weight, prefactor, name", [
    pytest.param(*case, id=f"{case[0]!r}-{case[-1]}") for case in _RULE_CASES])
def test_rule_coefficients_match_mpmath(basis, weight, prefactor, name):
    # each q_n within its reported error of int W* f phi_n / int W* phi_n^2
    # in mpmath, and within 1e-9 ||f|| / sqrt(d_n); Runge's poles near 0
    # take nmax 20, and on GHP its Hermite series never agrees at two
    # rule sizes, so it stays on the trees
    f, f_mp, nmax = _RULE_TARGETS[name]
    ser = expand(f, basis, nmax)
    rule = not (name == "runge" and isinstance(basis, GHP))
    assert (ser.panels == 0) is rule and ser.residual_converged
    members = _mp_members(basis, nmax, prefactor)
    cuts = [-30, -6, -3, 0, 3, 6, 30] if isinstance(basis, GHP) else [-1, 0, 1]
    sampled = {}

    def at(x):
        if x not in sampled:
            w, fx, phi = (1 if weight is None else weight(x)), f_mp(x), members(x)
            sampled[x] = [w * fx * fx] + [w * fx * v for v in phi] + [w * v * v for v in phi]
        return sampled[x]
    base = basis.m if isinstance(basis, Pm) else 0
    k = nmax + 1 - base
    with mpmath.workdps(30):
        f_norm2 = mpmath.quad(lambda x: at(x)[0], cuts)
        for j in range(k):
            d = mpmath.quad(lambda x: at(x)[1 + k + j], cuts)
            want = mpmath.quad(lambda x: at(x)[1 + j], cuts) / d
            got, err = ser.coefficients[base + j], ser.errors[base + j]
            assert abs(got - want) <= 1e-9 * mpmath.sqrt(f_norm2 / d), (j, got, want)
            if rule:
                assert abs(got - want) <= err, (j, got - want, err)


def test_sin_on_v_closes_its_residual_on_the_rule():
    # its residual tree stayed open (0.053 after 188 panels); (f - s)^2 has
    # (1 + x)^(-0.6) at -1, so the residual is ||f||^2 - sum q_n^2 d_n
    basis, prefactor = V(0.6), _RULE_BASES[-1][2]
    ser = expand(np.sin, basis, 8)
    assert ser.panels == 0 and ser.residual_converged
    members = _mp_members(basis, 8, prefactor)
    with mpmath.workdps(30):
        def g(x):
            return mpmath.sin(x) - mpmath.fdot(ser.coefficients, members(x))
        want = mpmath.sqrt(mpmath.quad(lambda x: g(x) ** 2, [-1, 0, 1]))
    assert abs(ser.residual - want) <= 1e-6 * want


def test_rule_errors_are_zero_below_base_and_empty_by_hand():
    ser = expand(np.sin, Pm(2), 6)
    assert len(ser.errors) == 7 and ser.errors[:2] == (0.0, 0.0)
    assert all(0 < e < 1e-12 for e in ser.errors[2:])
    assert ExpansionSeries(Pm(2), ser.coefficients, 6, 0.0, 0.0).errors == ()


def test_tree_errors_are_the_trees_over_the_norms(monkeypatch):
    expand_mod = importlib.import_module("symortho.expand")
    trees = []
    real = expand_mod.integrate_gram
    monkeypatch.setattr(expand_mod, "integrate_gram",
                        lambda *a, **k: trees.append(real(*a, **k)) or trees[-1])
    ser = expand(np.abs, GUP(1, 1), 8)
    d = np.array(_norms(GUP(1, 1), 8))
    assert ser.errors == tuple((trees[0].error[1:] / d).tolist())


@pytest.mark.parametrize("f, basis, nmax, residual, panels, evals", [
    (np.abs, GUP(0, 0), 8, 0.022326078384742508, 32, 480),
    (_sqrt_abs, GUP(0, 0), 8, 0.05263157894736842, 32, 480),
    (_runge, GHP(0), 8, 0.185813991370613, 68, 1020),
    (lambda x: 1 / (1 + x * x), FiniteII(6), 4, 0.05149726947643896, 98, 1470),
    (np.sin, LambdaSpec(-1, 1, Fraction(-8, 3), Fraction(4, 3), Fraction(2, 3)), 6,
     0.0012769418773141273, 62, 930),
], ids=["|x|", "sqrt|x|", "runge-GHP(0)", "FiniteII(6)", "lambda-2/3"])
def test_fallbacks_keep_the_trees_bit_for_bit(f, basis, nmax, residual, panels, evals,
                                               monkeypatch):
    # a kink, a measured exponent, Runge on Hermite, finite moments and a
    # lambda class run the trees as they did before the rule path (the
    # residual, panels and evals pinned), and a refused rule attempt leaves
    # no trace in the series
    ser = expand(f, basis, nmax)
    assert (ser.residual, ser.panels, ser.evals) == (residual, panels, evals)
    expand_mod = importlib.import_module("symortho.expand")
    monkeypatch.setattr(expand_mod, "_on_rules", lambda *a: None)
    trees = expand(f, basis, nmax)
    assert _fields(ser) + (ser.errors,) == _fields(trees) + (trees.errors,)


def test_target_outgrowing_a_gaussian_weight_is_refused_before_any_integral(monkeypatch):
    # exp(x^2) on GHP(0): f^2 W* = exp(x^2) grows in both tails, which one
    # call of f on |x| = 1..16 shows; no rule and no tree runs (the trees
    # once ran 8,018 panels before refusing)
    expand_mod = importlib.import_module("symortho.expand")

    def refuse(*args, **kwargs):
        raise AssertionError("an integral ran")
    monkeypatch.setattr(expand_mod, "integrate_gram", refuse)
    monkeypatch.setattr(expand_mod, "_on_rules", refuse)
    with pytest.raises(NonSquareIntegrable, match="tail"):
        expand(lambda x: np.exp(x * x), GHP(0), 8)


def test_target_that_the_gaussian_weight_still_tames_expands():
    # exp(0.4 x^2): f^2 W* = exp(-0.2 x^2) decays, so the growth scan
    # refuses nothing and the trees run as before
    ser = expand(lambda x: np.exp(0.4 * x * x), GHP(0), 8)
    assert ser.residual_converged and ser.panels == 72


def test_growth_that_turns_down_in_the_far_tail_is_not_refused():
    # exp(x^2 - x^4 / 1600) on GHP(0): log f^2 W* = x^2 - x^4 / 800 rises
    # faster than any power up to |x| = 16, but falls by |x| = 32, so
    # int W* f^2 is finite (its peak is e^200) and the trees run
    ser = expand(lambda x: np.exp(x * x - x ** 4 / 1600), GHP(0), 8)
    assert ser.panels > 0 and np.all(np.isfinite(ser.coefficients))
