import math
from fractions import Fraction

import numpy as np
import pytest

from symortho.core import ClassParams, poly_from_params
from symortho.errors import (ConstraintViolation, NonpositiveWeight,
                             SingularCoefficient)
from symortho.exponent_map import (LambdaSpec, _LambdaBasis, _t_interval,
                                   lambda_weight_and_gram, signed_power)
from symortho.families import GUP, GHP, FiniteI, FiniteII, norm_squared, weight_at
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
def test_parity_integral_vanishes(spec):
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
        spec = _t_interval(mp, support_theta(mp), n, m)
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


def test_lambda_tree_block_is_empty_with_algebraic_tails():
    fam = FiniteI(Fraction(1, 10), Fraction(5, 2))
    a, b, r, s = fam.params
    tails = LambdaSpec(a, b, (r + 2 * a) / 3, (s + 2 * b) / 3, Fraction(2, 3))
    assert _LambdaBasis(tails).tree_block([1.0] * 7)[0] == -1
    assert _LambdaBasis(_lam(1, 1)).tree_block([1.0] * 7)[0] == 6


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
