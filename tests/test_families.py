"""Family factories, weights, moments, closed-form norms vs quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest

import mpmath as mp

import mp_reference

from symortho.core import weight_exponents
from symortho.errors import (ConstraintViolation, DivergentMoment,
                             OutOfFiniteRange, PoleError, SingularPoint)
from symortho.families import (GUP, GHP, Class, FiniteI, FiniteII, finite_degree_bound,
                               make_subclass, moment_zero, norm_squared,
                               norms_squared, pair_integrable, pearson_residual,
                               valid_pair, weight_at)
from symortho.sturm import gram_matrix


def quad_weight_moment(spec, power=0):
    """int W x^power over the family's support, by mpmath."""
    return mp_reference.family_product(spec, 0, 0, power=power)


def test_factory_parameter_vectors():
    params, support = make_subclass(GUP(0, 0))
    assert tuple(params) == (-1, 1, -2, 0) and support == (-1.0, 1.0)
    params, _ = make_subclass(GHP(0))
    assert tuple(params) == (0, 1, -2, 0)
    params, support = make_subclass(FiniteII(Fraction(9, 2)))
    assert tuple(params) == (1, 0, -7, 2)
    assert support == (-math.inf, math.inf)
    params, _ = make_subclass(FiniteI(Fraction(1, 2), 3))
    assert tuple(params) == (1, 1, -5, -1)


def test_constraints_named():
    with pytest.raises(ConstraintViolation, match="u \\+ 1/2"):
        GUP(-0.6, 1)
    with pytest.raises(ConstraintViolation, match="v \\+ 1"):
        GUP(0, -1)
    with pytest.raises(ConstraintViolation, match="u \\+ 1/2"):
        GHP(-0.5)
    with pytest.raises(ConstraintViolation, match="u - 1/2"):
        FiniteII(0.5)


def test_weight_values():
    assert weight_at(GUP(1, 1), 0.5) == pytest.approx(3 / 16)
    assert weight_at(GHP(0), 0.0) == 1.0
    assert weight_at(FiniteII(2), 1e-3) == 0.0  # essential flatness
    assert weight_at(FiniteII(2), 0.0) == 0.0
    with pytest.raises(SingularPoint):
        weight_at(FiniteI(0.3, 2), 0.0)
    with pytest.raises(ConstraintViolation):
        weight_at(GUP(1, 1), 1.5)


def test_weight_at_infinity_is_its_limit():
    # GHP's log weight used to take inf - inf there (RuntimeWarning is an
    # error here)
    for spec in (GHP(0.5), GHP(0), FiniteI(0.1, 2.5), FiniteII(5.5)):
        assert weight_at(spec, np.inf) == 0.0 and weight_at(spec, -np.inf) == 0.0
        assert np.array_equal(weight_at(spec, np.array([-np.inf, np.inf])), [0.0, 0.0])
    # FiniteI's weight tends to |x|^(-2u-2v): 1 at exponent 0, +inf above
    assert weight_at(FiniteI(0.5, -0.5), np.inf) == 1.0
    with pytest.raises(SingularPoint):
        weight_at(FiniteI(0.1, -2), -np.inf)


def test_weight_reductions_exact():
    x = np.linspace(-0.95, 0.95, 21)
    x = x[x != 0]
    assert weight_at(GUP(0, 2.5), x) == pytest.approx((1 - x * x) ** 2.5, rel=1e-15)
    assert weight_at(GHP(0), x) == pytest.approx(np.exp(-x * x), rel=1e-15)


def test_weight_vector_and_scalar_agree():
    spec = GUP(0.8, 1.2)
    xs = np.array([0.0, 0.3, -0.7, 1.0])
    w = weight_at(spec, xs)
    for xi, wi in zip(xs, w):
        assert weight_at(spec, float(xi)) == pytest.approx(wi, abs=1e-300)


def test_moment_closed_forms():
    assert moment_zero(GUP(1, 1)) == pytest.approx(4 / 15, rel=1e-13)
    assert moment_zero(GHP(0)) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert moment_zero(FiniteII(1.5)) == pytest.approx(1.0, rel=1e-13)


def _mapped(p, q, r, s):
    return Class(p, q, r, s)


@pytest.mark.parametrize("params, weight, support", [
    # a finite theta = sqrt(3/2): a Beta integral
    ((-2, 3, -6, 1.5), lambda x: abs(x) ** 0.5 * (3 - 2 * x * x) ** 0.25, mp.sqrt(1.5)),
    # p, q > 0: a Beta integral on the whole line
    ((2, 3, -6, -1.5), lambda x: abs(x) ** -0.5 * (2 * x * x + 3) ** -2.25, mp.inf),
    # p = 0: a Gamma integral
    ((0, 2, -3, 1), lambda x: abs(x) ** 0.5 * mp.exp(-0.75 * x * x), mp.inf),
    # q = 0: a Gamma integral
    ((3, 0, -9, 4), lambda x: abs(x) ** -5 * mp.exp(-2 / (3 * x * x)), mp.inf),
], ids=["finite-theta", "p-q-positive", "p-zero", "q-zero"])
def test_default_moment_zero_matches_mpmath(params, weight, support):
    got = _mapped(*params).moment_zero()
    with mp.workdps(30):
        want = 2 * mp.quad(weight, [0, 1, support] if support == mp.inf else [0, support])
    assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("params", [
    (-1, 1, 1, -1), (1, 1, 1, 0), (-1, 1, 1, 0), (0, 1, 2, 0), (1, 0, -4, -1), (0, 0, -2, 1)],
    ids=["origin", "tail", "edge", "growing-p-zero", "growing-q-zero", "p-q-zero"])
def test_default_moment_zero_refuses_a_divergent_weight(params):
    with pytest.raises(DivergentMoment):
        _mapped(*params).moment_zero()


def test_default_degree_bound_is_the_last_integrable_diagonal():
    # FiniteII(6)'s tail |x|^-12 keeps (5, 5); FiniteII(11/2)'s |x|^-11 ends
    # at 4, since (5, 5) decays like |x|^-1; no tail, no bound
    for params, bound in [((1, 0, -10, 2), 5), ((1, 0, -9, 2), 4), ((0, 1, -2, 0), math.inf)]:
        spec = _mapped(*params)
        assert spec.finite_degree_bound() == bound
        if bound < math.inf:
            assert pair_integrable(spec, bound, bound)
            assert not pair_integrable(spec, bound + 1, bound + 1)


def test_moment_divergence_conditions():
    with pytest.raises(DivergentMoment, match="origin"):
        moment_zero(FiniteI(0.6, 3))
    with pytest.raises(DivergentMoment, match="tail"):
        moment_zero(FiniteI(0.3, 0.1))


@pytest.mark.parametrize("spec", [
    GUP(1, 1.5), GUP(0.2, -0.5), GHP(0), GHP(1.3),
    FiniteI(0.3, 2), FiniteII(1.5), FiniteII(3),
])
def test_moment_matches_quadrature(spec):
    r = quad_weight_moment(spec)
    assert r == pytest.approx(moment_zero(spec), rel=1e-8)


def test_finite1_moment_form_decided_by_quadrature():
    # two candidate closed forms differ in one gamma factor; integration
    # picks the Gamma(v) denominator
    u, v = 0.3, 2.0
    r = quad_weight_moment(FiniteI(u, v))
    good = math.gamma(0.5 - u) * math.gamma(u + v - 0.5) / math.gamma(v)
    other = math.gamma(0.5 - u) * math.gamma(u + v - 0.5) / math.gamma(u + v)
    assert r == pytest.approx(good, rel=1e-9)
    assert abs(r - other) > 1e-2


def test_even_weight_moments_match_quadrature():
    # x^2k moments of the flat-origin family have a one-gamma closed form
    for u, k in [(2.5, 1), (3.5, 2)]:
        r = quad_weight_moment(FiniteII(u), power=2 * k)
        assert r == pytest.approx(math.gamma(u - k - 0.5), rel=1e-9)


def test_norm_zero_is_moment():
    for spec in (GUP(1, 1), GHP(0.4), FiniteII(3)):
        nv = norm_squared(spec, 0)
        assert nv.n == 0
        assert nv.value == pytest.approx(moment_zero(spec), rel=1e-14)


def test_hermite_reduction_norms():
    for n in range(9):
        want = math.sqrt(math.pi) * math.factorial(n) / 2 ** n
        assert norm_squared(GHP(0), n).value == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("spec,n", [
    (GUP(1, 1.5), 3), (GUP(0.5, 0.5), 4), (GHP(1.1), 5), (FiniteII(4.5), 2),
])
def test_norms_match_quadrature(spec, n):
    r = mp_reference.family_product(spec, n, n)
    assert r == pytest.approx(norm_squared(spec, n).value, rel=1e-8)


def test_finite2_cliff_structure():
    spec = FiniteII(Fraction(9, 2))
    assert finite_degree_bound(spec) == 4.0
    vals = [norm_squared(spec, n).value for n in range(4)]
    assert vals[0] == pytest.approx(6.0, rel=1e-13)
    # n = 3 value frozen from a 40-digit quadrature run; exact value is 1/2
    assert vals == pytest.approx([6.0, 2.0, 1 / 3, 0.5], rel=1e-13)
    assert all(v > 0 for v in vals)
    with pytest.raises(PoleError):
        norm_squared(spec, 4)       # boundary degree: closed form blows up
    with pytest.raises(OutOfFiniteRange):
        norm_squared(spec, 5)


def test_valid_pair_finite2():
    spec = FiniteII(4.5)
    assert valid_pair(spec, 4, 4).certified
    assert not valid_pair(spec, 5, 5).certified
    # w S_4^2 ~ |x|^-1 in the tails: a log divergence, which gram_matrix reads as a cliff
    assert not valid_pair(spec, 4, 4).integrable
    assert gram_matrix(spec, 4).entry(4, 4).status == "cliff"
    assert not valid_pair(spec, 5, 5).integrable
    assert valid_pair(spec, 4, 3).integrable


def test_valid_pair_finite1_tension():
    spec = FiniteI(0.3, 2)
    both = valid_pair(spec, 0, 0)
    assert both.certified and both.integrable
    # certified bound stops at 0.8 but the (1,1) integral exists
    odd = valid_pair(spec, 1, 1)
    assert not odd.certified and odd.integrable


def test_valid_pair_parity_at_origin():
    spec = FiniteI(0.7, 3)
    assert not valid_pair(spec, 0, 0).integrable   # |x|^{-1.4} at 0
    assert valid_pair(spec, 1, 1).integrable       # x^2 softens it


def test_infinite_family_pairs():
    assert valid_pair(GUP(1, 1), 7, 3) == (True, "infinite family", True)
    assert valid_pair(GHP(2), 0, 0).certified


@pytest.mark.parametrize("spec", [GUP(1, 1.5), GHP(0.7), FiniteI(0.3, 2),
                                  FiniteII(2.5)])
def test_pearson_residual_rounding_level(spec):
    rng = np.random.default_rng(42)
    lo, hi = spec.support
    cap = 0.95 if math.isfinite(hi) else 3.0
    x = rng.uniform(0.05, cap, 50)
    assert np.max(np.abs(pearson_residual(spec, x))) < 1e-12
    assert np.max(np.abs(pearson_residual(spec, -x))) < 1e-12


def test_class_certifies_only_up_to_its_degree_bound():
    # (1, 0, -10, 2) is FiniteII(6)'s tuple: its tail ends the integrable
    # diagonals at 5, which the default certificate now reads
    spec = Class(1, 0, -10, 2)
    assert valid_pair(spec, 9, 9) == (False, "max(n,m) = 9 > the last integrable degree = 5",
                                      False)
    assert valid_pair(spec, 5, 3).certified and valid_pair(spec, 5, 3).integrable
    assert valid_pair(Class(0, 1, -2, 0), 40, 40).reason == "infinite family"
    # the named families keep their printed statements
    assert valid_pair(FiniteII(4.5), 5, 5).reason == "max(n,m) = 5 > u - 1/2 = 4.0"
    assert valid_pair(FiniteI(0.3, 2), 0, 0).reason == "v >= 1 and max(n,m) <= u + 1/2"


@pytest.mark.parametrize("spec, hi", [
    (Class(1, 0, -10, 2), 3.0), (Class(-2, 3, 0.5, 0), math.sqrt(1.5)),
    (Class(0, 2, -3, 1), 3.0), (Class(2, 3, -6, -1.5), 3.0)], ids=str)
def test_class_pearson_residual_rounding_level(spec, hi):
    # every family takes log_deriv from its weight exponents
    x = np.random.default_rng(7).uniform(0.05, 0.95 * hi, 50)
    assert np.max(np.abs(pearson_residual(spec, x))) < 1e-12
    assert np.max(np.abs(pearson_residual(spec, -x))) < 1e-12


@pytest.mark.parametrize("params, name", [
    ((-1, 1, 1, -1), "origin and edge"), ((1, 1, 1, 0), "tail"), ((-1, 1, 1, 0), "edge"),
    ((0, 1, 2, 0), "tail"), ((1, 0, -4, -1), "origin"), ((0, 0, -2, 1), "p = q = 0")])
def test_divergent_moment_names_what_fails(params, name):
    with pytest.raises(DivergentMoment, match=f"^{name}: "):
        Class(*params).moment_zero()


def test_pearson_rejects_origin():
    with pytest.raises(SingularPoint):
        pearson_residual(GHP(1), np.array([0.0, 0.5]))


@pytest.mark.parametrize("spec", [
    GUP(Fraction(1, 2), Fraction(1, 2)), GHP(Fraction(1, 2)), GUP(0.5, 1.0),
    GHP(0.3), FiniteII(8.5), FiniteII(Fraction(17, 2)), FiniteI(0.3, 2),
    FiniteI(5, 2)])
def test_norms_squared_is_norm_squared_degree_by_degree(spec):
    # GUP(0.5, 1.0) is the family behind the G(1/2, 1) kind's norms
    batch = norms_squared(spec, 14)
    assert len(batch) == 15
    for n, got in enumerate(batch):
        try:
            want = norm_squared(spec, n).value
        except (OutOfFiniteRange, PoleError, DivergentMoment):
            want = None
        assert got == want, n


def test_norms_squared_refuses_where_norm_squared_does():
    # FiniteII(8.5): a pole in C_8 at the boundary degree, then the bound
    batch = norms_squared(FiniteII(8.5), 12)
    assert batch[:8] == [norm_squared(FiniteII(8.5), n).value for n in range(8)]
    assert batch[8:] == [None] * 5
    with pytest.raises(PoleError):
        norm_squared(FiniteII(8.5), 8)
    with pytest.raises(OutOfFiniteRange):
        norm_squared(FiniteII(8.5), 9)
    assert norms_squared(FiniteI(5, 2), 3) == [None] * 4


@pytest.mark.parametrize("u, nmax", [(0, 200), (Fraction(1, 2), 200), (1, 256)], ids=str)
def test_exact_norms_past_the_float_range_read_as_the_float_ones(u, nmax):
    # the exact running product of the C_k leaves the float range, where
    # an int / int quotient raises OverflowError and a float product is inf
    assert norm_squared(GHP(u), nmax).value == norm_squared(GHP(float(u)), nmax).value
    exact, inexact = gram_matrix(GHP(u), nmax), gram_matrix(GHP(float(u)), nmax)
    assert exact.entries.column("status") == inexact.entries.column("status")
    assert not exact.passed


def test_norms_squared_takes_one_running_product(monkeypatch):
    from symortho import core
    calls = []
    real = core.recurrence_c

    def counted(params, n):
        calls.append(n)
        return real(params, n)
    monkeypatch.setattr(core, "recurrence_c", counted)
    norms_squared(GUP(Fraction(1, 2), Fraction(1, 2)), 20)
    assert calls == list(range(1, 21))


@pytest.mark.parametrize("spec, n, m", [
    (FiniteII(5.5), 6, 4), (FiniteII(4.5), 4, 4), (FiniteII(6), 7, 4),
    (FiniteI(0.25, 2.25), 3, 1)], ids=str)
def test_pair_integrable_counts_the_inverse_tail_as_divergent(spec, n, m):
    # the product decays exactly like |x|^-1: log-divergent
    assert not pair_integrable(spec, n, m)
    # one degree less in the product and it converges
    assert pair_integrable(spec, n, m - 1)


def test_pair_integrable_agrees_with_valid_pair():
    # zero tail margins (w S_n S_m ~ |x|^-1) included: FiniteII(4.5) at n + m = 8 and
    # Class(1, 0, -10, 2) at n + m = 11
    for spec in (GUP(1, 1.5), GHP(-0.2), FiniteII(6.03), FiniteI(0.3, 2),
                 FiniteI(0.7, 3), FiniteII(4.5), Class(1, 0, -10, 2)):
        for n in range(12):
            for m in range(n + 1):
                assert pair_integrable(spec, n, m) == valid_pair(spec, n, m).integrable


@pytest.mark.parametrize("spec", [GUP(Fraction(1, 2), 1), GHP(0.5), FiniteI(0.1, 2.5),
                                  FiniteII(6)], ids=repr)
def test_params_is_one_instance_per_spec(spec):
    # one ClassParams per spec, so its float C_k are computed once
    assert spec.params is spec.params


U, V = Fraction(3, 10), Fraction(7, 4)


@pytest.mark.parametrize("spec, theta, origin, edge, tail", [
    (GUP(U, V), 1, 2 * U, V, -math.inf),
    (GUP(U, Fraction(-2, 5)), 1, 2 * U, Fraction(-2, 5), -math.inf),
    (GHP(U), math.inf, 2 * U, None, -math.inf),
    (FiniteI(U, V), math.inf, -2 * U, None, -2 * U - 2 * V),
    (FiniteII(V), math.inf, math.inf, None, -2 * V),
], ids=repr)
def test_weight_exponents_are_the_family_shape_formulas(spec, theta, origin, edge, tail):
    # the one record from (p, q, r, s) against each family's own weight shape
    got = weight_exponents(spec.params)
    assert (got.theta, got.origin, got.tail) == (theta, float(origin), float(tail))
    if edge is not None:
        assert got.edge == float(edge)
    assert spec.exponents == got and spec.support == (-got.theta, got.theta)


@pytest.mark.parametrize("params, origin", [
    ((1, 0, -4, -1), -math.inf),    # e^(1/(2 x^2)) |x|^-6, unbounded at 0
    ((1, 0, -4, 0), -6.0),          # |x|^-6
], ids=str)
def test_q_zero_origin_follows_the_sign_of_s_over_p(params, origin):
    # a q = 0 weight is |x|^((r-2p)/p) e^(-s/(2p x^2)): flat at 0 only for s/p > 0
    fam = _mapped(*params)
    assert weight_exponents(fam.params).origin == origin == fam.exponents.origin
    for n in range(5):
        for m in range(5):
            assert not pair_integrable(fam, n, m), (n, m)
    with pytest.raises(SingularPoint):
        weight_at(fam, 0.0)
    # FiniteII is a q = 0 class with s/p = 2: its origin stays flat
    fin = FiniteII(V)
    assert fin.params.s == 2 * fin.params.p
    ex = fin.exponents
    assert (ex.theta, ex.origin, ex.tail) == (math.inf, math.inf, float(-2 * V))
    assert math.isnan(ex.edge)
