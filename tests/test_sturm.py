import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from symortho.core import ClassParams, poly_from_params, weight_exponents
from symortho.errors import (ConstraintViolation, NonpositiveWeight,
                             SingularCoefficient)
from symortho.expand import expand
from symortho.exponent_map import (LambdaSpec, _LambdaBasis, _t_interval,
                                   lambda_weight_and_gram, signed_power)
from symortho import sturm
from symortho.families import (GUP, GHP, Class, FiniteI, FiniteII, norm_squared,
                               norms_squared, pair_integrable, weight_at)
from symortho.legendre import (G, Pm, Q, U, V, eval_jacobi, JacobiParams,
                               legendre_norm, member_fn, orthogonality_interval)
from symortho.quadrature import integrate
from symortho.sturm import (GramReport, _adapt, boundary_term, from_params,
                            generic_weight_log, gram_matrix, legendre_sl,
                            parity_integral, self_adjoint_factor,
                            support_theta, weight_star)

FAMILIES = [GUP(1, 1.5), GHP(0.7), FiniteI(0.3, 2), FiniteII(4.5)]


# ---------------------------------------------------------------- weights


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label)
def test_generic_weight_matches_family_weight(spec):
    # closed 3-case antiderivative vs the per-family explicit formula
    hi = min(spec.theta, 3.0)
    xs = np.linspace(0.07, hi - 0.05, 25)
    generic = np.exp(generic_weight_log(spec.params, xs))
    explicit = np.array([weight_at(spec, x) for x in xs])
    assert generic == pytest.approx(explicit, rel=1e-13)


def test_generic_weight_needs_some_leading_coefficient():
    with pytest.raises(SingularCoefficient):
        generic_weight_log(ClassParams(0, 0, -2, 1), 0.5)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label)
def test_r_and_weight_star_even(spec):
    sl = from_params(spec.params)
    hi = min(spec.theta, 4.0)
    xs = np.linspace(hi / 51, hi * 50 / 51, 50)
    r_pos = self_adjoint_factor(sl, xs)
    r_neg = self_adjoint_factor(sl, -xs)
    assert np.all(np.abs(r_pos - r_neg) <= 1e-12 * np.abs(r_pos))
    w_pos = weight_star(sl, xs)
    w_neg = weight_star(sl, -xs)
    assert np.all(np.abs(w_pos - w_neg) <= 1e-12 * np.abs(w_pos))
    assert np.all(w_pos > 0)


def test_weight_star_rejects_outside_support():
    sl = from_params(GUP(1, 1.5).params)
    with pytest.raises(NonpositiveWeight):
        weight_star(sl, 1.5)


def test_self_adjoint_factor_singular_at_origin():
    sl = from_params(GHP(0.7).params)
    with pytest.raises(SingularCoefficient):
        self_adjoint_factor(sl, 0.0)


def test_numeric_antiderivative_route():
    # A = 1 - x^2, B = -2x integrates to R identically one
    sl = legendre_sl()
    xs = np.linspace(-0.9, 0.9, 7)
    assert self_adjoint_factor(sl, xs) == pytest.approx(np.ones(7), rel=1e-10)
    assert weight_star(sl, 0.37) == pytest.approx(1.0, rel=1e-10)
    assert sl.B(0.5) == pytest.approx(-1.0)
    assert sl.A(0.5) == pytest.approx(0.75)


def test_legendre_weight_is_closed_form(monkeypatch):
    # B = A' makes R identically one: no quadrature, and no rounding
    def refuse(*args, **kwargs):
        raise AssertionError("integrate called")
    monkeypatch.setattr(sturm, "integrate", refuse)
    sl = legendre_sl()
    xs = np.linspace(-0.99, 0.99, 41)
    assert np.all(self_adjoint_factor(sl, xs) == 1.0)
    assert np.all(weight_star(sl, xs) == 1.0)
    assert weight_star(sl, 0.37) == 1.0


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label)
def test_r_and_weight_star_are_the_closed_form(spec):
    sl = from_params(spec.params)
    hi = min(spec.theta, 4.0)
    xs = np.linspace(-hi * 40 / 41, hi * 40 / 41, 80)
    log_w = generic_weight_log(spec.params, xs)
    assert np.array_equal(weight_star(sl, xs), np.exp(log_w))
    assert np.array_equal(self_adjoint_factor(sl, xs), np.exp(log_w - np.log(xs * xs)))


def test_support_theta():
    assert support_theta(GUP(1, 1.5).params) == 1.0
    assert support_theta(GHP(0).params) == math.inf
    assert support_theta(FiniteI(0.3, 2).params) == math.inf
    assert support_theta(FiniteII(4.5).params) == math.inf
    assert support_theta(ClassParams(-4, 9, 1, 1)) == pytest.approx(1.5)


# ---------------------------------------------------------- boundary term


def test_boundary_bracket_vanishes_on_finite_interval():
    gup = GUP(1, 1.5)
    sl = from_params(gup.params)
    polys = [poly_from_params(gup.params, n, monic=True) for n in range(5)]
    for n in range(5):
        for m in range(n + 1):
            assert boundary_term(sl, polys[n], polys[m]) == 0.0


def test_boundary_bracket_at_a_singular_edge_is_zero():
    # W* ~ (1 - x^2)^-0.4 is +inf at +-1 and A ~ (1 - x^2) is 0, so
    # exp(log R + log A) there is exp(inf - inf); A R ~ (1 - x^2)^0.6 -> 0
    gup = GUP(0.3, -0.4)
    sl = from_params(gup.params)
    polys = [poly_from_params(gup.params, n, monic=True) for n in range(7)]
    assert [boundary_term(sl, a, b) for a in polys for b in polys] == [0.0] * 49


def test_legendre_weight_exponents():
    assert tuple(legendre_sl().exponents) == (1.0, 0.0, 0.0, -math.inf)


def test_boundary_bracket_decays_for_infinite_support():
    ghp = GHP(0.7)
    sl = from_params(ghp.params)
    p2 = poly_from_params(ghp.params, 2, monic=True)
    p5 = poly_from_params(ghp.params, 5, monic=True)
    assert boundary_term(sl, p2, p5) == 0.0
    assert boundary_term(sl, p5, p5) == 0.0


def test_boundary_bracket_finite_family_within_range():
    f2 = FiniteII(4.5)
    sl = from_params(f2.params)
    p2 = poly_from_params(f2.params, 2, monic=True)
    assert boundary_term(sl, p2, p2, scale=1 / 3) == 0.0


def test_boundary_bracket_flags_out_of_range_member():
    # N <= u - 1/2 = 1 here, so degree 3 against itself must leak
    f2 = FiniteII(1.5)
    sl = from_params(f2.params)
    p3 = poly_from_params(f2.params, 3, monic=True)
    leak = boundary_term(sl, p3, p3)
    assert leak != 0.0
    assert abs(leak) > 1e6
    # a fresh but identical member takes the same diagonal route
    p3b = poly_from_params(f2.params, 3, monic=True)
    assert boundary_term(sl, p3b, p3) == pytest.approx(leak)


def test_boundary_accepts_fn_derivative_pairs():
    sl = legendre_sl()
    jp = JacobiParams(0, 0)

    def p2(x):
        return eval_jacobi(2, jp, x)

    def dp2(x):
        return 3.0 * x

    def p3(x):
        return eval_jacobi(3, jp, x)

    def dp3(x):
        return 7.5 * x * x - 1.5

    assert boundary_term(sl, (p2, dp2), (p3, dp3)) == 0.0


# --------------------------------------------------------- parity lemma


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label)
def test_parity_integral_vanishes(spec, monkeypatch):
    # F(n, m) is a block of the panel tree, not a per-entry integral
    def refuse(*args, **kwargs):
        raise AssertionError("parity_integral called integrate")
    monkeypatch.setattr(sturm, "integrate", refuse)
    sl = from_params(spec.params)
    nmax = 4
    polys = [poly_from_params(spec.params, n, monic=True) for n in range(nmax + 1)]
    for n in range(nmax + 1):
        for m in range(nmax + 1):
            f = parity_integral(sl, polys[n], polys[m])
            if (n - m) % 2 == 0:
                assert f == 0.0
            else:
                assert abs(f) <= 1e-10


# ---------------------------------------------------------- gram matrix


def test_gram_gup_passes():
    rep = gram_matrix(GUP(1, 1.5), 6)
    assert rep.passed
    assert all(e.status == "ok" for e in rep.entries)
    assert np.nanmax(np.abs(rep.matrix - rep.matrix.T)) == 0.0
    assert rep.matrix.shape == (7, 7)
    for e in rep.entries:
        assert e.quad.converged and not e.quad.diverged
        assert e.quad.abs_error_estimate >= 0.0


def test_gram_ghp_diagonals():
    rep = gram_matrix(GHP(0), 5)
    assert rep.passed
    for n in range(6):
        want = math.sqrt(math.pi) * math.factorial(n) / 2 ** n
        assert rep.matrix[n, n] == pytest.approx(want, rel=1e-9)


def test_gram_finite2_cliff():
    rep = gram_matrix(FiniteII(4.5), 4)
    assert rep.passed
    by_index = {(e.n, e.m): e.status for e in rep.entries}
    assert by_index[(4, 4)] == "cliff"
    assert all(st == "ok" for k, st in by_index.items() if k != (4, 4))
    assert rep.matrix[0, 0] == pytest.approx(6.0, rel=1e-8)
    assert math.isnan(rep.matrix[4, 4])
    e44 = rep.entry(4, 4)
    assert e44.quad.diverged and e44.expected is None


def test_gram_finite2_beyond_the_bound_is_all_cliff():
    # u = 3/2: degree 0 survives, the (1,1) diagonal sits exactly on the
    # bound (its moment hits the gamma pole, the integral log-diverges),
    # degree 2 degenerates outright (vanishing leading coefficient), and
    # everything touching degree 3 diverges; all refusals consistent
    rep = gram_matrix(FiniteII(1.5), 3)
    assert rep.passed
    want = {(0, 0): "ok", (1, 0): "ok", (1, 1): "cliff",
            (2, 0): "degenerate", (2, 1): "degenerate", (2, 2): "degenerate",
            (3, 2): "degenerate",
            (3, 0): "cliff", (3, 1): "cliff", (3, 3): "cliff"}
    got = {(e.n, e.m): e.status for e in rep.entries}
    assert got == want


def test_gram_legendre_kinds():
    rep = gram_matrix(Q(2), 4)
    assert rep.passed
    rep = gram_matrix(V(-0.8), 3)
    assert rep.passed
    rep = gram_matrix(Pm(2), 5)
    assert rep.passed
    assert rep.base == 2
    assert rep.matrix.shape == (4, 4)
    assert rep.entry(2, 2).expected == pytest.approx(rep.matrix[0, 0], rel=1e-8)


def test_gram_unreachable_tolerance_reports_mismatch():
    rep = gram_matrix(GHP(0), 2, tol=1e-16)
    assert not rep.passed
    assert any(e.status == "mismatch" for e in rep.entries)
    text = rep.summary()
    assert "FAIL" in text and "mismatch" in text


def test_gram_summary_pass_line():
    rep = gram_matrix(GHP(0), 2)
    assert isinstance(rep, GramReport)
    line = rep.summary()
    assert "pass" in line and "ghp" in line


def test_gram_nmax_below_base():
    with pytest.raises(ConstraintViolation):
        gram_matrix(Pm(3), 2)


@pytest.mark.parametrize("nmax, tol", [
    (3.5, 1e-7), (-1, 1e-7), (True, 1e-7), (4, math.nan), (4, -1.0), (4, 0.0), (4, math.inf)],
    ids=["nmax-3.5", "nmax-negative", "nmax-bool", "tol-nan", "tol-negative", "tol-zero",
         "tol-inf"])
def test_gram_and_expand_refuse_a_bad_nmax_or_tol(nmax, tol):
    # a nan or negative tol read FAIL with every entry a mismatch, blaming
    # the basis (and expand raised BasisInvalid); nmax 3.5 raised a bare
    # TypeError and nmax True ran as "n = 0..True"
    spec = LambdaSpec(-1, 1, Fraction(-8, 3), Fraction(4, 3), Fraction(2, 3))
    for call in (lambda: gram_matrix(GUP(1, 1), nmax, tol),
                 lambda: lambda_weight_and_gram(spec, nmax, tol),
                 lambda: expand(np.sin, GUP(1, 1), nmax, tol)):
        with pytest.raises(ConstraintViolation):
            call()


def test_a_weight_unbounded_at_its_edge_integrates_no_pair():
    # (3 - 2x^2)^(-9/8) on |x| < sqrt(3/2): no pair is integrable at +-theta,
    # where each even entry ran the integrator's whole budget (17 s at nmax 10)
    fam = Class(-2, 3, 0.5, 0)
    assert fam.exponents.edge == -1.125
    assert not any(pair_integrable(fam, n, m) for n in range(6) for m in range(6))
    assert not _adapt(fam).integrable_mask(5).any()
    rep = gram_matrix(fam, 10)
    assert not rep.passed and rep.panels == 0


def test_gram_rejects_unknown_basis():
    with pytest.raises(TypeError):
        gram_matrix("gup", 3)


def test_gram_summary_counts_verified_apart_from_refused():
    # FiniteI(5, 2): every entry is a consistent cliff, so the report
    # passes without verifying anything, and says so
    rep = gram_matrix(FiniteI(5, 2), 8)
    assert rep.passed and rep.verified == 0
    head = rep.summary().splitlines()[0]
    assert "0 verified" in head and "45 refused" in head
    rep = gram_matrix(FiniteII(4.5), 4)
    assert rep.verified == 14
    assert "14 verified, 1 refused" in rep.summary()


# ------------------------------------------------------ shared panel tree


def _lam(u, v):
    """The lambda = 2/3 spec whose mapped class is GUP(u, v)."""
    u, v = Fraction(u), Fraction(v)
    return LambdaSpec(-1, 1, (-2 * u - 2 * v - 4) / 3, (2 * u + 2) / 3,
                      Fraction(2, 3))


def _scalar_entry(basis, n, m, atol):
    """The same inner product as its own integrate call, per entry."""
    if isinstance(basis, LambdaSpec):
        mp = basis.mapped_params
        pn, pm = (poly_from_params(mp, k, monic=True) for k in (n, m))

        def f(t):
            u = signed_power(t, Fraction(1, 3))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                w = np.exp(generic_weight_log(mp, np.abs(u)) - math.log(3.0)
                           - (2.0 / 3.0) * np.log(np.abs(t)))
            return w * pn(u) * pm(u)
        spec = _t_interval(weight_exponents(mp), Fraction(1, 3), n, m)
    elif isinstance(basis, (GUP, GHP)):
        pn, pm = (poly_from_params(basis.params, k, monic=True) for k in (n, m))

        def f(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.exp(basis.weight_log(x)) * pn(x) * pm(x)
        spec = basis.interval(origin_power=n % 2 + m % 2, tail_power=n + m)
    else:
        fn, fm = member_fn(basis, n), member_fn(basis, m)

        def f(x):
            return fn(x) * fm(x)
        spec = orthogonality_interval(basis)
    return integrate(f, spec, atol=atol, on_inconclusive="return")


@pytest.mark.parametrize("basis", [
    GUP(0.6, 0.8), GUP(0.3, -0.4), GHP(0.4), U(0.6), Pm(1), V(0.3), V(-0.8),
    G(0.7, 1.0), Q(1.0), _lam(1, 1)], ids=repr)
def test_shared_tree_agrees_with_entry_by_entry_route(basis):
    nmax, tol = 8, 1e-7
    if isinstance(basis, LambdaSpec):
        rep = lambda_weight_and_gram(basis, nmax, tol)
    else:
        rep = gram_matrix(basis, nmax, tol)
    assert rep.passed and rep.verified == len(rep.entries)
    diag = {e.n: e.quad.value for e in rep.entries if e.n == e.m}
    for e in rep.entries:
        scale = math.sqrt(diag[e.n] * diag[e.m])
        ref = _scalar_entry(basis, e.n, e.m, atol=1e-10 * scale)
        assert ref.converged, (e.n, e.m)
        assert abs(e.quad.value - ref.value) <= tol * scale, (e.n, e.m)


@pytest.mark.parametrize("basis, nmax", [
    (GUP(0, 0), 24), (GUP(1, 1.5), 24), (GUP(0.3, -0.4), 24), (GHP(0), 12),
    (GHP(0.5), 20), (V(0.6), 24), (Pm(3), 8),
    # the shared-engine targets: both used to fail (the second took 83 s)
    (GUP(1, 1.5), 40), (GHP(0.5), 30)], ids=str)
def test_gram_passes_at_high_degree(basis, nmax):
    rep = gram_matrix(basis, nmax)
    assert rep.passed, rep.summary()
    assert rep.verified == len(rep.entries)


@pytest.mark.parametrize("basis", [GHP(0.5), GHP(0)], ids=repr)
def test_gram_norm_products_do_not_overflow_at_degree_128(basis):
    # d_128 of GHP(0.5) is 1.6e178, so d_n d_m overflowed a float and the
    # scale of those entries was inf (RuntimeWarning is an error here)
    rep = gram_matrix(basis, 128)
    roots = [math.sqrt(norm_squared(basis, n).value) for n in range(129)]
    held = [e for e in rep.entries if e.n != e.m and e.status == "ok"]
    assert held
    for e in held:
        assert abs(e.quad.value) <= rep.tol * roots[e.n] * roots[e.m]


def test_lambda_gram_passes_at_degree_12():
    rep = lambda_weight_and_gram(_lam(1, 1), 12)
    assert rep.passed, rep.summary()
    assert rep.verified == len(rep.entries) == 91


@pytest.mark.parametrize("basis, norm", [
    (GUP(Fraction(1, 2), Fraction(1, 2)),
     lambda n: norm_squared(GUP(Fraction(1, 2), Fraction(1, 2)), n).value),
    (GHP(0.5), lambda n: norm_squared(GHP(0.5), n).value),
    (G(0.5, 1), lambda n: legendre_norm(G(0.5, 1), n)),
    (Q(0.5), lambda n: legendre_norm(Q(0.5), n)),
], ids=repr)
def test_gram_expected_diagonal_is_the_closed_form_norm(basis, norm):
    rep = gram_matrix(basis, 16)
    for n in range(17):
        assert rep.entry(n, n).expected == norm(n)


def test_gram_refusals_unchanged_by_the_running_norm_product():
    # FiniteII(8.5): C_8 has a pole and degrees past 8 exceed the bound
    rep = gram_matrix(FiniteII(8.5), 10)
    assert [rep.entry(n, n).expected is None for n in range(11)] == [False] * 8 + [True] * 3
    assert [rep.entry(n, n).status for n in range(8, 11)] == [
        "cliff", "degenerate", "degenerate"]


# ------------------------------------------- finite families' tree block


def _tree_end(basis, nmax):
    ad = _adapt(basis)
    return ad.tree_block(ad.norms(nmax))[0]


@pytest.mark.parametrize("basis, nmax, end", [
    (FiniteII(6.03), 8, 5), (FiniteII(9.02), 8, 8), (FiniteII(8.5), 10, 7),
    (FiniteII(4.5), 8, 3), (FiniteI(0.1, 2.5), 8, 0), (FiniteI(5, 2), 8, -1),
    (GUP(1, 1.5), 12, 12), (GHP(0.5), 10, 10), (Pm(2), 9, 9), (V(0.3), 6, 6)],
    ids=str)
def test_tree_block_ends_where_a_norm_or_the_last_diagonal_fails(basis, nmax, end):
    # every degree of the block has a closed-form norm and (end, end) is
    # integrable; bases with no degree bound run to nmax
    assert _tree_end(basis, nmax) == end


@pytest.mark.parametrize("fam, nmax, end", [
    # the mapped class's norms end FiniteI(1/10, 5/2)'s block at 1 (the
    # family's printed bound, 0, ends the family's), and FiniteII(5.55)'s
    # (5, 5), |x|^-1.1 in x and |t|^-1.033 in t, would lose more than 1e-9
    # of the smallest norm past the float range in t
    (FiniteI(Fraction(1, 10), Fraction(5, 2)), 6, 1), (FiniteII(5.55), 10, 4),
    (FiniteII(6), 8, 5), (GUP(1, 1), 6, 6)], ids=str)
def test_lambda_tree_block_ends_where_its_tail_mass_is_held(fam, nmax, end):
    p, q, r, s = fam.params
    ad = _LambdaBasis(LambdaSpec(p, q, (r + 2 * p) / 3, (s + 2 * q) / 3, Fraction(2, 3)))
    got, interval = ad.tree_block(ad.norms(nmax))
    assert got == end
    # hinted for the even product (0, 2 end): at the origin, the weight's
    # exponent in t alone
    assert interval == _t_interval(weight_exponents(fam.params), Fraction(1, 3), 0, 2 * end)


@pytest.mark.parametrize("basis", [FiniteII(6.03), FiniteII(9.02)], ids=repr)
def test_finite_tree_block_agrees_with_entry_by_entry_route(basis):
    nmax, tol = 8, 1e-7
    end = _tree_end(basis, nmax)
    rep = gram_matrix(basis, nmax, tol)
    assert rep.passed, rep.summary()
    diag = {e.n: e.quad.value for e in rep.entries if e.n == e.m}
    block = [e for e in rep.entries if e.n <= end]
    assert len(block) == (end + 1) * (end + 2) // 2
    for e in block:
        pn, pm = (poly_from_params(basis.params, k, monic=True) for k in (e.n, e.m))

        def f(x):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return np.exp(basis.weight_log(x)) * pn(x) * pm(x)
        scale = math.sqrt(diag[e.n] * diag[e.m])
        spec = basis.interval(origin_power=e.n % 2 + e.m % 2, tail_power=e.n + e.m)
        ref = integrate(f, spec, atol=1e-10 * scale, on_inconclusive="return")
        assert e.status == "ok" and ref.converged, (e.n, e.m)
        assert abs(e.quad.value - ref.value) <= tol * scale, (e.n, e.m)


def test_finite2_8_5_passes_with_only_its_boundary_cliff():
    # (1, 0) used to be a false "divergent"
    rep = gram_matrix(FiniteII(8.5), 8)
    assert rep.passed, rep.summary()
    assert [(e.n, e.m) for e in rep.entries if e.status != "ok"] == [(8, 8)]
    assert rep.entry(8, 8).status == "cliff"
    assert rep.verified == 44


def test_boundary_tail_pair_is_a_cliff():
    # FiniteII(6): (7, 4) decays like x^-1, which diverges logarithmically;
    # it used to be reported "divergent" as if it were integrable
    rep = gram_matrix(FiniteII(6), 7)
    e = rep.entry(7, 4)
    assert e.quad.diverged and e.status == "cliff"


def test_odd_pairs_outside_the_block_are_exactly_zero_when_integrable():
    ad = _adapt(FiniteII(6.009))
    res = ad.inner(ad.phi(6), ad.phi(5), 6, 5)
    assert (res.value, res.abs_error_estimate, res.converged) == (0.0, 0.0, True)
    rep = gram_matrix(FiniteII(6.03), 16)
    assert rep.passed, rep.summary()
    for n, m in [(6, 5), (7, 4), (11, 0)]:
        assert rep.entry(n, m).quad.value == 0.0


def test_non_integrable_pairs_keep_their_divergence_evidence():
    # the unfolded integral of a non-integrable even pair diverges where
    # its half-line fold does not show it
    rep = gram_matrix(FiniteII(12.25), 12)
    assert rep.passed, rep.summary()
    e = rep.entry(12, 12)
    assert e.quad.diverged and e.status == "cliff"
    assert not _adapt(FiniteII(12.25)).integrable(12, 12)


# ------------------------------------------ cliffs from measured exponents


def _count_integrals(monkeypatch):
    """Record the QuadResult of every integrate call of the per-entry route."""
    calls = []
    real = sturm.integrate

    def counting(f, interval, **kw):
        calls.append(real(f, interval, **kw))
        return calls[-1]
    monkeypatch.setattr(sturm, "integrate", counting)
    return calls


def test_finite2_6_passes_with_its_log_divergent_pair_a_cliff(monkeypatch):
    # (6, 5) decays exactly like |x|^-1 in both tails, which cancel in a
    # whole-line integral; each tail's measured exponent shows it
    calls = _count_integrals(monkeypatch)
    rep = gram_matrix(FiniteII(6), 8)
    assert rep.passed, rep.summary()
    e = rep.entry(6, 5)
    assert e.status == "cliff" and e.quad.diverged
    assert math.isnan(e.quad.value) and e.quad.abs_error_estimate == math.inf
    # the integrable pairs outside the block come from the block's tree
    assert len(calls) == 0


@pytest.mark.parametrize("nmax", [24, 64])
def test_cliffs_are_certified_without_integrals_to_degree_64(monkeypatch, nmax):
    calls = _count_integrals(monkeypatch)
    rep = gram_matrix(FiniteII(6.02), nmax)
    assert rep.passed, rep.summary().splitlines()[0]
    assert len(calls) == 0


@pytest.mark.parametrize("shift", [0.5, math.nan], ids=["disagrees", "not-finite"])
def test_scan_that_does_not_confirm_its_hint_leaves_the_pair_inconclusive(monkeypatch, shift):
    real_scan = sturm.exponent_scan

    def off(*args, **kw):
        return [(point, sigma + shift, spread) for point, sigma, spread in real_scan(*args, **kw)]
    want = gram_matrix(FiniteII(6.02), 10)
    calls = _count_integrals(monkeypatch)
    monkeypatch.setattr(sturm, "exponent_scan", off)
    rep = gram_matrix(FiniteII(6.02), 10)
    ad = _adapt(FiniteII(6.02))
    refused = [(e.n, e.m) for e in rep.entries if not ad.integrable(e.n, e.m)]
    assert refused and not calls
    assert all(rep.entry(n, m).status == "inconclusive" for n, m in refused)
    assert all(e.quad.panels == 0 and not (e.quad.converged or e.quad.diverged)
               for e in map(lambda nm: rep.entry(*nm), refused))
    assert [e.status for e in rep.entries if ad.integrable(e.n, e.m)] == \
        [e.status for e in want.entries if ad.integrable(e.n, e.m)]


def test_scan_certifies_members_above_a_pole_in_the_recurrence(monkeypatch):
    # FiniteII(4.5) has poles in C_4 and C_5: members 0..4 are scanned from
    # the rows, members 9 and 10 from their own polynomials (5..8 do not
    # exist, and their pairs are degenerate)
    calls = _count_integrals(monkeypatch)
    rep = gram_matrix(FiniteII(4.5), 10)
    ad = _adapt(FiniteII(4.5))
    refused = [(e.n, e.m) for e in rep.entries
               if not ad.integrable(e.n, e.m) and e.status != "degenerate"]
    assert {n for n, _ in refused} >= {9, 10}
    for n, m in refused:
        e = rep.entry(n, m)
        assert e.status == "cliff" and e.quad.diverged and math.isnan(e.quad.value), (n, m)
    assert not calls


# --------------------------------------- off-block pairs on the block tree


# past log x_w = _LOG_TINY / g a weight |x|^g underflows to 0, and a monic
# member of degree n overflows past log|x| = _LOG_HUGE / n
_LOG_TINY = math.log(np.finfo(float).smallest_subnormal)
_LOG_HUGE = math.log(np.finfo(float).max)


def _outside_pairs(basis, nmax):
    """{(n, m): scale} of the even integrable pairs (n, m), n > K, the last
    degree of the tree block, with scale sqrt|d_n| sqrt|d_m| of the norms
    of the tuple's Class, d_n falling back to d_m (no d_m, no pair)."""
    d, end = norms_squared(Class(*basis.params), nmax), _tree_end(basis, nmax)
    return {(n, m): math.sqrt(abs(d[m] if d[n] is None else d[n])) * math.sqrt(abs(d[m]))
            for n in range(end + 1, nmax + 1) for m in range(n + 1)
            if (n + m) % 2 == 0 and pair_integrable(basis, n, m) and d[m] is not None}


def _tail_held(basis, n, m, scale):
    """Whether the members n and m stay finite before x_w and the product,
    ~ |x|^(g + n + m), holds at most 1e-9 scale past x_w: 2 x_w^s / -s
    over both tails, s = g + n + m + 1."""
    g = basis.exponents.tail
    log_xw, s = _LOG_TINY / g, g + n + m + 1
    return n * log_xw < _LOG_HUGE and 2 * math.exp(s * log_xw) / -s <= 1e-9 * scale


def _off_block(basis, nmax):
    """The pairs the block tree of a basis with no pole in its recurrence
    carries, where the block's own widest product is held past x_w: the
    even integrable pairs (n, m), n > K, whose own tails are held."""
    ad, end = _adapt(basis), _tree_end(basis, nmax)
    assert not ad.block_lost(end, ad.norms(end))
    return [pair for pair, scale in _outside_pairs(basis, nmax).items()
            if _tail_held(basis, *pair, scale)]


def _count_trees(monkeypatch):
    """Record the GramQuad of every integrate_gram call of sturm."""
    trees = []
    real = sturm.integrate_gram

    def counting(*args, **kw):
        trees.append(real(*args, **kw))
        return trees[-1]
    monkeypatch.setattr(sturm, "integrate_gram", counting)
    return trees


@pytest.mark.parametrize("basis, nmax, parent_panels", [
    (FiniteII(6), 16, 216), (FiniteII(6.02), 24, 338), (FiniteII(5.97), 8, 274)], ids=str)
def test_off_block_pairs_come_from_the_one_tree(monkeypatch, basis, nmax, parent_panels):
    # parent_panels: the GK15 panels of the tree and the per-entry
    # integrals when each off-block pair took an integral of its own
    trees = _count_trees(monkeypatch)
    calls = _count_integrals(monkeypatch)
    rep = gram_matrix(basis, nmax)
    assert rep.passed, rep.summary()
    assert len(trees) == 1 and not calls
    assert _off_block(basis, nmax)
    assert all(rep.entry(n, m).status == "ok" for n, m in _off_block(basis, nmax))
    assert 4 * rep.panels <= parent_panels


def test_finite2_20_3_passes_with_its_off_block_pairs_from_the_tree(monkeypatch):
    # (20, 0), (20, 2) and (20, 4) used to end inconclusive on their own
    # integrals
    calls = _count_integrals(monkeypatch)
    rep = gram_matrix(FiniteII(20.3), 20)
    assert rep.passed, rep.summary()
    assert not calls
    assert [rep.entry(20, m).status for m in (0, 2, 4)] == ["ok"] * 3


def test_off_block_entries_agree_with_their_own_integrals():
    basis = FiniteII(6)
    ad = _adapt(basis)
    rep = gram_matrix(basis, 16)
    for n, m in _off_block(basis, 16):
        got = rep.entry(n, m).quad
        ref = ad.inner(ad.phi(n), ad.phi(m), n, m)
        assert got.converged and ref.converged, (n, m)
        assert abs(got.value - ref.value) <= got.abs_error_estimate + ref.abs_error_estimate, (n, m)


def test_off_block_entries_the_tree_leaves_open_take_one_integral_each(monkeypatch):
    basis, nmax = FiniteII(6.03), 16
    want = gram_matrix(basis, nmax)
    real = sturm.integrate_gram

    def leaves_rows_open(*args, **kw):
        res = real(*args, **kw)
        converged = res.converged.copy()
        converged[res.value.shape[1]:] = False
        return dataclasses.replace(res, converged=converged)
    monkeypatch.setattr(sturm, "integrate_gram", leaves_rows_open)
    calls = _count_integrals(monkeypatch)
    rep = gram_matrix(basis, nmax)
    assert len(calls) == len(_off_block(basis, nmax)) > 0
    assert [e.status for e in rep.entries] == [e.status for e in want.entries]
    assert all(rep.entry(n, m).quad.panels > 0 for n, m in _off_block(basis, nmax))


def test_off_block_pairs_stay_off_a_tree_whose_tail_underflows(monkeypatch):
    # the products of degree 20 decay like x^-1.4, and past x_w = 1.3e15,
    # where the weight underflows, lies 4.5e-6 of each one's mass: more than
    # 1e-9 of the scale of (11, 9)..(18, 2), which take an integral each.
    # (10, 10) loses as much, and reads ok only while the tree does not
    # refine out there, as refining for (11, 7) did: its scale, |d_7|, is
    # below any the block holds a product of degree 18 to
    basis, nmax = FiniteII(10.7), 20
    ad = _adapt(basis)
    outside = _outside_pairs(basis, nmax)
    lost = {pair for pair, scale in outside.items() if not _tail_held(basis, *pair, scale)}
    off = ad.off_block(10, nmax, ad.norms(10))
    assert lost and not lost & set(off)
    assert {n + m for n, m in lost} == {20}
    assert set(outside) - lost - set(off) == {(11, 7)}
    calls = _count_integrals(monkeypatch)
    rep = gram_matrix(basis, nmax)
    assert rep.passed, rep.summary()
    assert rep.entry(10, 10).status == "ok"
    assert len(calls) == len(outside) - len(off)
    assert all(rep.entry(n, m).quad.panels > 0 for n, m in lost)
    assert all(rep.entry(n, m).quad.panels == 0 for n, m in off)


def test_finite1_pairs_outside_its_block_come_from_the_one_tree(monkeypatch):
    # the printed bound ends the block at 0; (1, 1), (2, 0), (2, 2), (3, 1)
    # and (4, 0) took an integral each, 81 panels in all
    basis = FiniteI(Fraction(1, 10), Fraction(5, 2))
    trees = _count_trees(monkeypatch)
    calls = _count_integrals(monkeypatch)
    rep = gram_matrix(basis, 8)
    assert len(trees) == 1 and not calls
    assert rep.panels <= 20
    assert sorted(_off_block(basis, 8)) == [(1, 1), (2, 0), (2, 2), (3, 1), (4, 0)]


@pytest.mark.parametrize("basis, nmax", [
    (FiniteI(0.1, 2.5), 24), (FiniteI(0.05, 2.5), 10), (FiniteI(0.3, 4.0), 10),
    (FiniteI(0.25, 2.25), 10), (FiniteI(Fraction(3, 10), 12), 16), (FiniteI(0.03, 3.59), 8),
    (FiniteI(0.09, 2.44), 21), (FiniteI(0.19, 6.72), 12)], ids=str)
def test_no_integral_for_a_finite1_pair_the_tree_can_hold(monkeypatch, basis, nmax):
    # every even pair that takes an integral is one off_block leaves off
    pairs = []
    real = sturm._FamilyBasis.inner

    def inner(self, phi_a, phi_b, n, m):
        pairs.append((n, m))
        return real(self, phi_a, phi_b, n, m)
    monkeypatch.setattr(sturm._FamilyBasis, "inner", inner)
    calls = _count_integrals(monkeypatch)
    gram_matrix(basis, nmax)
    ad, end = _adapt(basis), _tree_end(basis, nmax)
    even = {(n, m) for n, m in pairs if (n + m) % 2 == 0}
    assert len(calls) == len(even)
    assert not even & set(ad.off_block(end, nmax, ad.norms(end)))


def _mp_entry(basis, n, m, weight):
    """2 int_0^inf weight S_n S_m of the monic members' float coefficients
    in mpmath: [0, 1], and the tail folded by x = 1/t, t = tau^25.  A
    product ~ x^(s - 1) is ~ t^(-1 - s) at t = 0, which tau^25 smooths:
    plain mp.quad, and the fold alone, miss FiniteI(0.03, 3.59)'s x^-1.24
    tails by 5e-8."""
    pn, pm = (poly_from_params(basis.params, k, monic=True) for k in (n, m))

    def member(p, x):
        return mp.fsum(mp.mpf(c) * x ** (p.n - 2 * k) for k, c in enumerate(p.coeffs))

    def f(x):
        return weight(x) * member(pn, x) * member(pm, x)
    with mp.workdps(30):
        head = mp.quad(f, [0, 1])
        tail = mp.quad(lambda tau: f(tau ** -25) * 25 * tau ** -26, [0, 1])
    return float(2 * (head + tail))


@pytest.mark.parametrize("basis, nmax, pairs, weight", [
    (FiniteI(0.03, 3.59), 8, [(5, 1), (6, 0)],
     lambda x: x ** (-2 * mp.mpf(0.03)) * (1 + x * x) ** -mp.mpf(3.59)),
    (FiniteII(11.81), 14, [(13, 7), (14, 6)],
     lambda x: x ** (-2 * mp.mpf(11.81)) * mp.exp(-1 / (x * x)))],
    ids=["FiniteI(0.03, 3.59)@8", "FiniteII(11.81)@14"])
def test_pairs_read_divergent_on_their_own_integrals_are_ok(basis, nmax, pairs, weight):
    # each of these read divergent when it took its own integral, which
    # stopped at a non-finite panel (reason blowup).  d_n is past the
    # class's degree bound, so the entry is judged against tol |d_m|
    rep = gram_matrix(basis, nmax)
    for n, m in pairs:
        e = rep.entry(n, m)
        assert e.status == "ok", (n, m)
        scale = abs(norm_squared(Class(*basis.params), m).value)
        assert abs(e.quad.value - _mp_entry(basis, n, m, weight)) <= rep.tol * scale, (n, m)


@pytest.mark.parametrize("basis, nmax", [
    (FiniteII(6.03), 16), (FiniteII(4.5), 10), (FiniteI(0.1, 2.5), 8), (GUP(1, 1.5), 8)], ids=str)
def test_one_integrable_mask_per_report(monkeypatch, basis, nmax):
    # the tree block, its off-block pairs and the per-entry pass read one mask
    built = []
    real = sturm._FamilyBasis.integrable_mask

    def counting(self, top):
        built.append(top)
        return real(self, top)
    monkeypatch.setattr(sturm._FamilyBasis, "integrable_mask", counting)
    want = [e.status for e in gram_matrix(basis, nmax).entries]
    assert built == [nmax]
    monkeypatch.undo()
    assert [e.status for e in gram_matrix(basis, nmax).entries] == want


@pytest.mark.parametrize("u", [4.5, 5.55, 6, 6.5, 8.5, 9.02, 12.25, 15.6, 17.4, 20.3, 20.55, 30.3])
def test_tree_rows_are_finite_wherever_the_weight_is_not_zero(u):
    basis, nmax = FiniteII(u), 2 * math.ceil(u)
    ad, end = _adapt(basis), _tree_end(basis, nmax)
    top = max([n for n, _ in ad.off_block(end, nmax, ad.norms(end))], default=end)
    x = np.geomspace(1.0, 1e300, 4000)
    rows, w = ad.rows(top)(x), ad.weight(x)
    assert np.isfinite(rows[:, w > 0]).all()


@pytest.mark.parametrize("basis, nmax", [
    (GUP(1, 1.5), 24), (FiniteII(6), 16), (FiniteII(4.5), 10), (FiniteI(0.1, 2.5), 8),
    (U(0.6), 8)], ids=str)
def test_report_counts_its_tree_and_every_integral(monkeypatch, basis, nmax):
    trees = _count_trees(monkeypatch)
    results = _count_integrals(monkeypatch)
    rep = gram_matrix(basis, nmax)
    assert len(trees) == 1
    assert rep.panels == trees[0].panels + sum(r.panels for r in results)
    assert rep.evals == trees[0].evals + sum(r.evals for r in results)
    assert rep.evals >= 15 * rep.panels > 0


@pytest.mark.parametrize("u", [0.5, 1, 1.5])
@pytest.mark.parametrize("v", [2, 2.5, 3])
def test_finite1_with_an_origin_exponent_of_minus_one_reports(u, v):
    # products whose origin exponent is exactly -1 used to raise
    # ZeroDivisionError while their softening was chosen
    rep = gram_matrix(FiniteI(u, v), 4)
    assert len(rep.entries) == 15
    spec = FiniteI(u, v)
    for e in rep.entries:
        if e.status == "cliff":
            assert not pair_integrable(spec, e.n, e.m)
