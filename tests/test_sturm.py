import dataclasses
import math
import pickle
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import mp_reference
from symortho.core import ClassParams, poly_from_params
from symortho.errors import (ConstraintViolation, DegenerateDenominator, NonpositiveWeight,
                             SingularCoefficient, ZeroLeadingCoefficient)
from symortho.expand import expand
from symortho.exponent_map import LambdaSpec, lambda_weight_and_gram
from symortho import quadrature, sturm
from symortho.families import (GUP, GHP, Class, FiniteI, FiniteII, finite_degree_bound,
                               norm_squared, pair_integrable, weight_at)
from symortho.legendre import G, Pm, Q, U, V, legendre_norm
from symortho.sturm import (GramReport, _adapt, boundary_term, from_params,
                            generic_weight_log, gram_matrix, legendre_sl,
                            parity_integral, self_adjoint_factor,
                            support_theta, weight_star)

FAMILIES = [GUP(1, 1.5), GHP(0.7), FiniteI(0.3, 2), FiniteII(4.5)]


def _no_quadrature(monkeypatch):
    """Fail any quadrature sturm runs: the Gram takes its entries from a
    Gauss rule, and no integral of its own."""
    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature tree ran")
    monkeypatch.setattr(sturm, "integrate_gram", refuse)
    monkeypatch.setattr(quadrature, "integrate", refuse)


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
    _no_quadrature(monkeypatch)
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


@pytest.mark.parametrize("params", [(-1, 2, 0, 0), (-1, 1, 0, 0)], ids=str)
def test_boundary_bracket_at_an_edge_of_minus_one_is_its_finite_limit(params):
    # edge -1: A R = (px^2 + q)^0 = 1 inside the support, but px^2 + q
    # rounds to 0 at the float theta, where A R read nan; the bracket is
    # the ends of its polynomial part: phi_1' phi_1 = x gives 2 theta,
    # (0, 2)'s Wronskian -2x gives -4 theta, and (0, 1)'s -1 cancels
    spec = Class(*params)
    sl = from_params(spec.params)
    theta = sl.exponents.theta
    assert sl.exponents.edge == -1.0 and theta == math.sqrt(params[1])
    p0, p1, p2 = (poly_from_params(spec.params, n, monic=True) for n in range(3))
    assert boundary_term(sl, p1, p1) == pytest.approx(2 * theta, rel=1e-14)
    assert boundary_term(sl, p0, p2) == pytest.approx(-4 * theta, rel=1e-14)
    assert boundary_term(sl, p0, p1) == 0.0


def test_boundary_bracket_reads_an_exact_zero_of_the_members_at_theta():
    # Class(-1, 2, 0, 0), edge -1: phi_2 = x^2 - 2 and phi_3 = x^3 - 2x
    # vanish at theta = sqrt 2, so the (2, 2) and (3, 3) brackets' limits
    # are 0; exact parameters decide that from the exact coefficients, and
    # float ones still read the float P (2.5e-15 and 5.0e-15); a nonzero
    # bracket, such as (1, 1)'s, reads the float P either way
    nonzero = []
    for params, exact in (((-1, 2, 0, 0), True), ((-1.0, 2.0, 0.0, 0.0), False)):
        spec = Class(*params)
        sl = from_params(spec.params)
        p1, p2, p3 = (poly_from_params(spec.params, n, monic=True) for n in (1, 2, 3))
        got = [boundary_term(sl, p2, p2), boundary_term(sl, p3, p3)]
        if exact:
            assert got == [0.0, 0.0]
        else:
            assert 0.0 < min(got) and max(got) < 1e-14
        assert boundary_term(sl, p2, p3) == 0.0
        nonzero.append(boundary_term(sl, p1, p1))
    assert nonzero[0] == nonzero[1] != 0.0


@pytest.mark.parametrize("params", [(-1, 3, 0.25, 0), (-2, 3, 0.5, 0), (-1, 2, 0, 1)], ids=str)
def test_boundary_bracket_below_an_edge_of_minus_one_is_infinite(params):
    # edge -1.125, -1.125 and -1.25: A R ~ (theta - |x|)^(edge + 1) grows
    # without bound, so where the polynomial part's ends are nonzero the
    # bracket is +-inf with their sign (the float theta read 287.5 and
    # 203.3 for the first two (1, 1), and nan for the third), and 0.0
    # where they cancel by parity
    spec = Class(*params)
    sl = from_params(spec.params)
    assert sl.exponents.edge < -1.0
    p0, p1, p2, p3 = (poly_from_params(spec.params, n, monic=True) for n in range(4))
    assert boundary_term(sl, p1, p1) == math.inf
    assert boundary_term(sl, p0, p2) == boundary_term(sl, p1, p3) == -math.inf
    assert boundary_term(sl, p0, p1) == boundary_term(sl, p1, p2) == 0.0
    assert boundary_term(sl, p0, p0) == 0.0


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


def test_boundary_bracket_vanishes_where_a_r_does():
    # on (-1, 1) A R = 1 - x^2 vanishes at the ends (edge + 1 = 1 > 0), so
    # the bracket of Legendre's P_2 and P_3 is 0.0 whatever their ends
    p2, p3 = (poly_from_params(ClassParams(-1, 1, -2, 0), n) for n in (2, 3))
    assert boundary_term(legendre_sl(), p2, p3) == 0.0


# --------------------------------------------------------- parity lemma


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label)
def test_parity_integral_vanishes(spec, monkeypatch):
    # F(n, m) is a block of the panel tree, not a per-entry integral
    def refuse(*args, **kwargs):
        raise AssertionError("parity_integral called integrate")
    monkeypatch.setattr(quadrature, "integrate", refuse)
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
    assert rep.passed and rep.verified == 0 and rep.refused == 45
    head = rep.summary().splitlines()[0]
    assert "0 verified" in head and "45 refused" in head
    rep = gram_matrix(FiniteII(4.5), 4)
    assert rep.verified == 14 and rep.refused == 1
    assert "14 verified, 1 refused" in rep.summary()


# a family, a finite family with a certified cliff, a kind of base 2 and a lambda class
LAZY_CASES = [(GUP(1, 1.5), 6), (FiniteII(4.5), 4), (Pm(2), 5),
              (LambdaSpec(-1, 1, Fraction(-8, 3), Fraction(4, 3), Fraction(2, 3)), 6)]
LAZY_IDS = ["gup", "finite2-cliff", "pm2", "lambda"]


@pytest.mark.parametrize("basis, nmax", LAZY_CASES, ids=LAZY_IDS)
def test_gram_matrix_builds_no_entry_objects_until_entries_are_read(entry_objects,
                                                                     basis, nmax):
    rep = gram_matrix(basis, nmax)
    size = nmax - rep.base + 1
    assert len(rep.entries) == size * (size + 1) // 2
    assert rep.passed and rep.matrix.shape == (size, size) and rep.evals > 0
    assert entry_objects == []
    first, count = rep.entries[0], len(rep.entries)
    assert sorted(entry_objects) == ["GramEntry"] * count + ["QuadResult"] * count
    # built once: reading again builds nothing more
    assert rep.entries[0] is first and list(rep.entries)[0] is first
    rep.summary(), rep.entry(nmax, rep.base)
    assert len(entry_objects) == 2 * count


@pytest.mark.parametrize("basis, nmax", LAZY_CASES, ids=LAZY_IDS)
def test_gram_entries_are_their_columns_in_the_documented_order(basis, nmax):
    rep = gram_matrix(basis, nmax)
    col = rep.entries.column
    names = [f.name for f in dataclasses.fields(sturm.QuadResult)]
    b, size = rep.base, nmax - rep.base + 1
    order = ([(k, k) for k in range(size)]
             + [(n, m) for n in range(size) for m in range(n)])
    assert list(zip(col("n"), col("m"))) == [(n + b, m + b) for n, m in order]
    norms = _adapt(basis).norms(nmax)
    assert col("expected") == ([None if d is None else float(d) for d in norms]
                               + [0.0] * (len(order) - size))
    want = [sturm.GramEntry(n, m, sturm.QuadResult(*q), expected, status)
            for n, m, expected, status, *q in zip(col("n"), col("m"), col("expected"),
                                                  col("status"), *map(col, names))]
    got = list(rep.entries)
    assert len(got) == len(want)
    for e, w in zip(got, want):
        assert (type(e), type(e.quad)) == (sturm.GramEntry, sturm.QuadResult)
        for name in ("n", "m", "expected", "status"):
            assert repr(getattr(e, name)) == repr(getattr(w, name))
        for name in names:
            assert repr(getattr(e.quad, name)) == repr(getattr(w.quad, name))
    # each status is the report's verdict on its cell
    assert rep.passed == all(s in ("ok", "cliff", "degenerate") for s in col("status"))
    if isinstance(basis, FiniteII):
        assert rep.entry(4, 4).status == "cliff" and math.isnan(rep.entry(4, 4).quad.value)


def test_entry_of_a_report_with_plain_tuple_entries():
    # a report whose entries are another sequence (a tuple, as
    # dataclasses.replace builds one) finds (n, m) by searching, in either
    # order, and refuses a pair outside the report
    rep = gram_matrix(GUP(1, 1), 4)
    plain = dataclasses.replace(rep, entries=tuple(rep.entries))
    assert not isinstance(plain.entries, sturm.GramEntries)
    for n in range(5):
        for m in range(5):
            assert plain.entry(n, m) is rep.entry(n, m)
            assert (plain.entry(n, m).n, plain.entry(n, m).m) == (max(n, m), min(n, m))
    with pytest.raises(KeyError):
        plain.entry(5, 0)


def test_gram_entries_pickle_repr_and_slices():
    rep = gram_matrix(FiniteII(4.5), 4)
    copy = pickle.loads(pickle.dumps(rep))
    assert isinstance(copy.entries, sturm.GramEntries)
    assert repr(copy.entries) == repr(rep.entries) == repr(tuple(rep.entries))
    assert copy.summary() == rep.summary() and copy.passed and copy.verified == 14
    again = pickle.loads(pickle.dumps(rep))     # pickled after its entries were built
    assert repr(again.entries) == repr(rep.entries)
    assert type(rep.entries[:-1]) is tuple and len(rep.entries[:-1]) == 14
    assert rep.entries[-1] is rep.entries[14] and rep.entries.index(rep.entries[3]) == 3
    assert list(reversed(rep.entries))[0] is rep.entries[-1]
    # any sequence of entries serves, as the benchmark's tests build them
    short = dataclasses.replace(rep, entries=rep.entries[:-1])
    assert short.verified == 13 and short.refused == 1 and len(short.entries) == 14


# ------------------------------------------- the Gauss rule against integrals


def _lam(u, v):
    """The lambda = 2/3 spec whose mapped class is GUP(u, v)."""
    u, v = Fraction(u), Fraction(v)
    return LambdaSpec(-1, 1, (-2 * u - 2 * v - 4) / 3, (2 * u + 2) / 3,
                      Fraction(2, 3))


def _scalar_entry(basis, n, m):
    """The same inner product as its own mpmath integral, per entry: a
    lambda class's is its mapped class's (t = u^3 takes one to the other)."""
    if isinstance(basis, LambdaSpec):
        return mp_reference.family_product(Class(*basis.mapped_params), n, m)
    if isinstance(basis, (GUP, GHP)):
        return mp_reference.family_product(basis, n, m)
    return mp_reference.kind_product(basis, n, m)


@pytest.mark.parametrize("basis", [
    GUP(0.6, 0.8), GUP(0.3, -0.4), GHP(0.4), U(0.6), Pm(1), V(0.3), V(-0.8),
    G(0.7, 1.0), Q(1.0), _lam(1, 1)], ids=repr)
def test_rule_agrees_with_entry_by_entry_route(basis):
    nmax, tol = 8, 1e-7
    if isinstance(basis, LambdaSpec):
        rep = lambda_weight_and_gram(basis, nmax, tol)
    else:
        rep = gram_matrix(basis, nmax, tol)
    assert rep.passed and rep.verified == len(rep.entries)
    diag = {e.n: e.quad.value for e in rep.entries if e.n == e.m}
    for e in rep.entries:
        scale = math.sqrt(diag[e.n] * diag[e.m])
        ref = _scalar_entry(basis, e.n, e.m)
        assert abs(e.quad.value - ref) <= tol * scale, (e.n, e.m)


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


# ------------------------------------------------------------ the Gauss rule


def _by_reason(rep):
    """{reason: {(n, m), ...}} of a report's entries."""
    out = {}
    for e in rep.entries:
        out.setdefault(e.quad.reason, set()).add((e.n, e.m))
    return out


@pytest.mark.parametrize("basis, nmax", [
    (FiniteII(6.03), 8), (FiniteII(9.02), 8), (FiniteII(8.5), 10), (FiniteII(4.5), 8),
    (FiniteI(0.1, 2.5), 8), (FiniteI(5, 2), 8), (GUP(1, 1.5), 12), (GHP(0.5), 10), (Pm(2), 9),
    (V(0.3), 6)], ids=str)
def test_one_gauss_rule_gives_every_integrable_pair(monkeypatch, basis, nmax):
    # an integrable pair of one parity comes from the rule, of mixed parity
    # it is exactly 0; the rule has floor(k/2) + 2 nodes for the widest pair,
    # (n + m)/2 = k (2k in x for V), and evaluates members base..widest n
    _no_quadrature(monkeypatch)
    rep = gram_matrix(basis, nmax)
    assert rep.panels == 0
    reasons = _by_reason(rep)
    ruled, odd = reasons.get("rule", set()), reasons.get("odd-parity", set())
    built = {(e.n, e.m) for e in rep.entries if e.status != "degenerate"}
    fold = not isinstance(basis, V)
    ad = _adapt(basis)
    integrable = ad.integrable_mask(nmax)
    assert ruled | odd == {(n, m) for n, m in built if integrable[n - ad.base, m - ad.base]}
    assert all((n + m) % 2 == 0 or not fold for n, m in ruled)
    assert all((n + m) % 2 == 1 for n, m in odd)
    for e in rep.entries:
        if (e.n, e.m) in ruled:
            assert e.quad.converged and e.quad.evals == rep.evals and e.status == "ok"
        elif (e.n, e.m) in odd:
            assert e.quad == sturm.QuadResult(0.0, 0.0, True, False, reason="odd-parity")
        else:
            assert not e.quad.converged and e.quad.panels == e.quad.evals == 0
    if ruled:
        b, last = rep.base, max(n for n, _ in ruled)
        k = max(n + m - 2 * b for n, m in ruled) // 2
        nodes = k // 2 + 2 if fold else last + 2
        assert rep.evals == nodes * (last - b + 1)


def test_rule_rows_above_a_recurrence_pole_match_mpmath():
    # Class(-1, 1, 1, -2): C_1 and C_2 have poles, so the recurrence builds
    # members 0 and 1 only, member 2 does not exist, and the rule takes
    # members 3..7 as their own polynomials (phi); W = |x|^-2 (1 - x^2)^-1/2
    # makes exactly the pairs of two odd members integrable, and each comes
    # from the rule within its error of mpmath
    spec = Class(-1, 1, 1, -2)
    assert sturm._below_pole(spec.params, 7) == 1
    rep = gram_matrix(spec, 7)
    ruled = [e for e in rep.entries if e.quad.reason == "rule"]
    assert {(e.n, e.m) for e in ruled} == {(n, m) for n in (1, 3, 5, 7) for m in (1, 3, 5, 7)
                                           if m <= n}

    def member(n):
        coeffs = [mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else mp.mpf(c)
                  for c in poly_from_params(spec.params, n, monic=True).coeffs]
        return lambda x: x * mp.polyval(coeffs, x * x)      # every ruled member is odd
    with mp.workdps(30):
        for e in ruled:
            sn, sm = member(e.n), member(e.m)
            exact = 2 * mp.quad(lambda x: x ** -2 * (1 - x * x) ** -0.5 * sn(x) * sm(x), [0, 1])
            assert abs(e.quad.value - float(exact)) <= e.quad.abs_error_estimate, (e.n, e.m)


def _lambda_two_thirds(fam):
    """The lambda = 2/3 class whose mapped class is fam's."""
    p, q, r, s = fam.params
    return LambdaSpec(p, q, (r + 2 * p) / 3, (s + 2 * q) / 3, Fraction(2, 3))


# the lambda = 2/3 classes of these families, at these degrees
LAMBDA_CASES = [(FiniteI(Fraction(1, 10), Fraction(5, 2)), 6), (FiniteII(5.55), 10),
                (FiniteII(6), 8), (GUP(1, 1), 6)]


@pytest.mark.parametrize("fam, nmax", LAMBDA_CASES, ids=str)
def test_lambda_gram_is_its_mapped_class_gram(monkeypatch, fam, nmax):
    # x = t^(lam/2) carries every entry onto the mapped class's own, so the
    # rule in x gives the lambda class's report bit for bit, but its label
    _no_quadrature(monkeypatch)
    spec = _lambda_two_thirds(fam)
    rep, ref = gram_matrix(spec, nmax), gram_matrix(Class(*spec.mapped_params), nmax)
    assert rep.label == "lambda23" and rep.passed == ref.passed
    assert rep.matrix.tobytes() == ref.matrix.tobytes() and rep.evals == ref.evals
    assert repr(rep.entries) == repr(ref.entries)


@pytest.mark.parametrize("basis, nmax", [(FiniteII(6.03), 8), (FiniteII(9.02), 8),
                                         (FiniteII(6), 16)], ids=str)
def test_finite_rule_agrees_with_entry_by_entry_route(basis, nmax):
    tol = 1e-7
    rep = gram_matrix(basis, nmax, tol)
    assert rep.passed, rep.summary()
    diag = {e.n: e.quad.value for e in rep.entries if e.n == e.m and e.status == "ok"}
    ruled = [e for e in rep.entries if e.quad.reason == "rule"]
    assert len(ruled) >= 15
    for e in ruled:
        scale = math.sqrt(diag.get(e.n, diag[e.m]) * diag[e.m])
        ref = mp_reference.family_product(basis, e.n, e.m)
        assert e.status == "ok", (e.n, e.m)
        assert abs(e.quad.value - ref) <= tol * scale, (e.n, e.m)


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


def test_odd_pairs_are_exactly_zero_when_integrable():
    res = gram_matrix(FiniteII(6.009), 8).entry(6, 5).quad
    assert pair_integrable(FiniteII(6.009), 6, 5)
    assert res == sturm.QuadResult(0.0, 0.0, True, False, reason="odd-parity")
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
    assert not pair_integrable(FiniteII(12.25), 12, 12)


def test_a_weight_with_no_gauss_rule_flags_its_pairs_diverged():
    # e^(x^2) grows: no Laguerre rule exists, every even pair is flagged
    # diverged, and the diagonals, which no norm expects, read cliff
    rep = gram_matrix(Class(0, 1, 2, 0), 4)
    assert not rep.passed and rep.evals == 0
    for e in rep.entries:
        if (e.n + e.m) % 2 == 0:
            assert e.quad.diverged and not e.quad.converged
            assert e.status == ("cliff" if e.n == e.m else "inconclusive")


def test_rule_entries_with_no_finite_value_read_inconclusive(monkeypatch):
    # a member that overflows at a node leaves its pairs open
    real = sturm.member_rows

    def overflowing(params, top):
        rows = real(params, top)

        def out(x):
            got = rows(x)
            got[-1, -1] = math.inf
            return got
        return out
    monkeypatch.setattr(sturm, "member_rows", overflowing)
    rep = gram_matrix(GUP(0.6, 0.8), 8)
    assert not rep.passed
    for e in rep.entries:
        want = "inconclusive" if e.n == 8 and e.m % 2 == 0 else "ok"
        assert e.status == want and e.quad.converged == (want == "ok"), (e.n, e.m)


# ------------------------------------------ cliffs from measured exponents


def test_finite2_6_passes_with_its_log_divergent_pair_a_cliff(monkeypatch):
    # (6, 5) decays exactly like |x|^-1 in both tails, which cancel in a
    # whole-line integral; each tail's measured exponent shows it
    _no_quadrature(monkeypatch)
    rep = gram_matrix(FiniteII(6), 8)
    assert rep.passed, rep.summary()
    e = rep.entry(6, 5)
    assert e.status == "cliff" and e.quad.diverged
    assert math.isnan(e.quad.value) and e.quad.abs_error_estimate == math.inf


@pytest.mark.parametrize("nmax", [24, 64])
def test_cliffs_are_certified_without_integrals_to_degree_64(monkeypatch, nmax):
    _no_quadrature(monkeypatch)
    rep = gram_matrix(FiniteII(6.02), nmax)
    assert rep.passed, rep.summary().splitlines()[0]


@pytest.mark.parametrize("shift", [0.5, math.nan], ids=["disagrees", "not-finite"])
def test_scan_that_does_not_confirm_its_hint_leaves_the_pair_inconclusive(monkeypatch, shift):
    real_scan = sturm.exponent_scan

    def off(*args, **kw):
        return [(point, sigma + shift, spread) for point, sigma, spread in real_scan(*args, **kw)]
    want = gram_matrix(FiniteII(6.02), 10)
    _no_quadrature(monkeypatch)
    monkeypatch.setattr(sturm, "exponent_scan", off)
    rep = gram_matrix(FiniteII(6.02), 10)
    integrable = _adapt(FiniteII(6.02)).integrable_mask(10)
    refused = [(e.n, e.m) for e in rep.entries if not integrable[e.n, e.m]]
    assert refused
    assert all(rep.entry(n, m).status == "inconclusive" for n, m in refused)
    assert all(e.quad.panels == 0 and not (e.quad.converged or e.quad.diverged)
               for e in map(lambda nm: rep.entry(*nm), refused))
    assert [e.status for e in rep.entries if integrable[e.n, e.m]] == \
        [e.status for e in want.entries if integrable[e.n, e.m]]


def test_scan_certifies_members_above_a_pole_in_the_recurrence(monkeypatch):
    # FiniteII(4.5) has poles in C_4 and C_5: members 0..4 are scanned from
    # the rows, members 9 and 10 from their own polynomials (5..8 do not
    # exist, and their pairs are degenerate)
    _no_quadrature(monkeypatch)
    rep = gram_matrix(FiniteII(4.5), 10)
    refused = [(e.n, e.m) for e in rep.entries
               if not pair_integrable(FiniteII(4.5), e.n, e.m) and e.status != "degenerate"]
    assert {n for n, _ in refused} >= {9, 10}
    for n, m in refused:
        e = rep.entry(n, m)
        assert e.status == "cliff" and e.quad.diverged and math.isnan(e.quad.value), (n, m)


@pytest.mark.parametrize("basis, nmax, top", [
    (FiniteII(4.5), 10, 4), (FiniteII(8.5), 12, 8), (FiniteI(0.1, 2.5), 24, 24)], ids=str)
def test_missing_members_are_those_their_own_polynomials_cannot_build(basis, nmax, top):
    # member n takes C_1..C_(n-1): FiniteII(4.5)'s first pole is C_4 and
    # FiniteII(8.5)'s C_8.  Below it the rule takes the recurrence's rows;
    # from it on, and in a pair that is not integrable, a member is its own
    # polynomial, and a pair with one that cannot be built is missing
    assert sturm._below_pole(basis.params, nmax) == top
    ad = _adapt(basis)
    lower = np.tri(nmax + 1, dtype=bool)
    integrable = ad.integrable_mask(nmax)
    missing = ad.missing(nmax, lower, integrable)

    def gone(k):
        try:
            poly_from_params(basis.params, k, monic=True)
            return False
        except (DegenerateDenominator, ZeroLeadingCoefficient):
            return True
    for n in range(nmax + 1):
        for m in range(n + 1):
            own = not integrable[n, m] or n > top
            assert missing[n, m] == (own and (gone(n) or gone(m))), (n, m)


# ------------------------------- pairs past a tree's reach, from the rule


@pytest.mark.parametrize("basis, nmax", [(FiniteII(6), 16), (FiniteII(6.02), 24),
                                         (FiniteII(5.97), 8), (FiniteII(20.3), 20),
                                         (FiniteII(10.7), 20), (FiniteII(15.6), 18)], ids=str)
def test_finite2_verifies_every_integrable_pair(monkeypatch, basis, nmax):
    # FiniteII(20.3)@20's (20, 0), (20, 2) and (20, 4), and FiniteII(10.7)@20's
    # degree-20 pairs (10, 10) to (18, 2), whose tails a panel tree lost past
    # the point where the float weight underflows, read ok
    _no_quadrature(monkeypatch)
    rep = gram_matrix(basis, nmax)
    assert rep.passed, rep.summary()
    assert rep.verified == sum(pair_integrable(basis, e.n, e.m) and e.status != "degenerate"
                               for e in rep.entries)


def test_finite1_takes_one_rule_of_three_nodes():
    # FiniteI(1/10, 5/2): the pairs of degree n + m <= 4 are integrable, one
    # Gauss-Jacobi rule of 3 nodes in t = 1/(1 + x^2) over members 0..4
    rep = gram_matrix(FiniteI(Fraction(1, 10), Fraction(5, 2)), 8)
    assert rep.passed and rep.panels == 0 and rep.evals == 3 * 5
    assert {(e.n, e.m) for e in rep.entries if e.status == "ok"} == {
        (n, m) for n in range(5) for m in range(n + 1) if n + m <= 4}


@pytest.mark.parametrize("basis, nmax", [
    (FiniteI(0.1, 2.5), 24), (FiniteI(0.05, 2.5), 10), (FiniteI(0.3, 4.0), 10),
    (FiniteI(0.25, 2.25), 10), (FiniteI(Fraction(3, 10), 12), 16), (FiniteI(0.03, 3.59), 8),
    (FiniteI(0.09, 2.44), 21), (FiniteI(0.19, 6.72), 12)], ids=str)
def test_finite1_verifies_every_integrable_pair(monkeypatch, basis, nmax):
    _no_quadrature(monkeypatch)
    rep = gram_matrix(basis, nmax)
    assert rep.passed, rep.summary()
    assert rep.verified == sum(pair_integrable(basis, e.n, e.m) and e.status != "degenerate"
                               for e in rep.entries)


def _mp_entry(basis, n, m, weight):
    """2 int_0^inf weight S_n S_m of the monic members' float coefficients
    in mpmath: [0, 1], and the tail folded by x = 1/t, t = tau^25.  A
    product ~ x^(s - 1) is ~ t^(-1 - s) at t = 0, which tau^25 smooths:
    plain mp.quad, and the fold alone, miss FiniteI(0.03, 3.59)'s x^-1.24
    tails by 5e-8."""
    pn, pm = (poly_from_params(basis.params, k, monic=True) for k in (n, m))

    def member(p, x):
        return mp.fsum(mp.mpf(float(c)) * x ** (p.n - 2 * k) for k, c in enumerate(p.coeffs))

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


@pytest.mark.parametrize("u, v, nmax", [
    (Fraction(1, 10), Fraction(5, 2), 8), (Fraction(3, 10), 12, 16)], ids=str)
def test_finite1_diagonals_past_its_printed_bound_are_ok(u, v, nmax):
    # the printed bound, u + 1/2 < 1, refused every diagonal past 0, and they
    # read mismatch; the Class's norms hold to the last integrable diagonal
    basis = FiniteI(u, v)
    rep = gram_matrix(basis, nmax)
    assert rep.passed, rep.summary()
    past = [e for e in rep.entries if e.n == e.m and e.n > finite_degree_bound(basis)
            and e.expected is not None]
    assert [e.n for e in past] == list(range(1, {8: 3, 16: 12}[nmax]))
    weight = lambda x: x ** (-2 * mp.mpf(float(u))) * (1 + x * x) ** -mp.mpf(float(v))
    for e in past:
        assert e.status == "ok", e.n
        assert abs(e.quad.value - _mp_entry(basis, e.n, e.n, weight)) <= rep.tol * abs(e.expected)


@pytest.mark.parametrize("basis, nmax", [
    (FiniteII(6.03), 16), (FiniteII(4.5), 10), (FiniteI(0.1, 2.5), 8), (GUP(1, 1.5), 8)], ids=str)
def test_one_integrable_mask_per_report(monkeypatch, basis, nmax):
    # the tree's scale and the per-entry pass read one mask
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
def test_rule_rows_and_weights_are_finite(u):
    # FiniteII's Gauss-Laguerre rule in t = 1/x^2 keeps its nodes where the
    # weight and the members of its pairs are finite floats
    basis, nmax = FiniteII(u), 2 * math.ceil(u)
    ad = _adapt(basis)
    k, lower = np.arange(nmax + 1), np.tri(nmax + 1, dtype=bool)
    integrable = ad.integrable_mask(nmax)
    pairs = lower & integrable & ~ad.missing(nmax, lower, integrable) & ((k[:, None] + k) % 2 == 0)
    x, w, low, rows = ad.rule(pairs)
    assert np.isfinite(x).all() and np.isfinite(rows).all() and low > -1
    assert np.isfinite(w).all() and (w > 0).all()
    assert gram_matrix(basis, nmax).passed


@pytest.mark.parametrize("basis, nmax", [
    (GUP(1, 1.5), 24), (FiniteII(6), 16), (FiniteII(4.5), 10), (FiniteI(0.1, 2.5), 8),
    (U(0.6), 8)], ids=str)
def test_report_counts_its_rule(basis, nmax):
    # no panels; evals are the rule's nodes times the members it evaluates,
    # which each of its entries reports, and no other entry samples
    rep = gram_matrix(basis, nmax)
    b, size = rep.base, nmax - rep.base + 1
    pairs = np.zeros((size, size), dtype=bool)
    for e in rep.entries:
        pairs[e.n - b, e.m - b] = e.quad.reason == "rule"
        assert e.quad.panels == 0 and e.quad.evals == (rep.evals if pairs[e.n - b, e.m - b] else 0)
    x, w, low, rows = _adapt(basis).rule(pairs)
    assert rep.panels == 0 and rep.evals == rows.size == len(x) * len(rows) > 0


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


@dataclasses.dataclass(frozen=True)
class _PastTheFloatRange(U):
    """U(alpha) whose members 1 and 3 left the float range: norms nan and
    inf, and rows of inf at the rule's nodes."""

    def norms(self, nmax):
        d = super().norms(nmax)
        return [d[0], math.nan, d[2], math.inf] + d[4:]

    def rule(self, pairs):
        x, w, low, rows = super().rule(pairs)
        rows = rows.copy()
        rows[[1, 3]] = math.inf
        return x, w, low, rows


def test_an_entry_with_no_finite_scale_is_inconclusive():
    # the odd pairs (2, 1) and (3, 0) are exactly 0, but their scale
    # sqrt|d_n| sqrt|d_m| is nan and inf: 0 against 0 read mismatch and ok
    rep = gram_matrix(_PastTheFloatRange(0.5), 4)
    status = {(e.n, e.m): e.status for e in rep.entries}
    assert rep.entry(2, 1).quad.value == rep.entry(3, 0).quad.value == 0.0
    assert status[2, 1] == status[3, 0] == status[1, 1] == status[3, 3] == "inconclusive"
    assert status[2, 0] == status[4, 2] == status[4, 4] == "ok"
    assert "mismatch" not in status.values() and not rep.passed


def test_finite_ii_past_the_float_range_reads_no_mismatch():
    # mu_0 ~ 1e345: every norm is inf, so nothing is judged
    with pytest.warns(RuntimeWarning):
        rep = gram_matrix(FiniteII(200.3), 140)
    assert set(rep.entries.column("status")) == {"inconclusive"}
    assert rep.entry(136, 1).quad.value == 0.0
