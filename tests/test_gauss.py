"""The classical Gauss rules of gauss.py and the Gram entries they give.

The references are exact: Beta and Gamma moments in mpmath, and Gram
entries as sums of those moments over the monic members' coefficients,
built in mpmath from the parameters as given (a float parameter is the
binary fraction it holds).
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from symortho import gauss, sturm
from symortho.families import GHP, GUP, Class, FiniteI, FiniteII
from symortho.legendre import G, Pm, Q, U, V
from symortho.sturm import gram_matrix
from test_sturm import _mp_entry


def _mpf(v):
    return mp.mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else mp.mpf(float(v))


@pytest.mark.parametrize("a, b", [(-0.96, 0.3), (0.5, -0.97), (-0.96, -0.95), (0.0, 0.0),
                                  (2.5, 7.0), (-0.5, -0.5), (1.3, -0.99)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 5, 14, 40])
def test_jacobi_rule_integrates_monomials_to_degree_2n_minus_1(a, b, n):
    # z^j against z^a (1 - z)^b on [0, 1] is B(a + 1 + j, b + 1)
    z, w = gauss.jacobi(a, b, n)
    assert z.shape == w.shape == (n,) and (np.diff(z) > 0).all()
    assert 0 < z[0] and z[-1] < 1 and (w > 0).all()
    with mp.workdps(40):
        for j in range(2 * n):
            exact = mp.beta(_mpf(a) + 1 + j, _mpf(b) + 1)
            got = mp.fsum(mp.mpf(float(wi)) * mp.mpf(float(zi)) ** j for wi, zi in zip(w, z))
            assert abs(got - exact) <= 2e-13 * exact, (j, float(abs(got - exact) / exact))


@pytest.mark.parametrize("a", [-0.97, -0.5, 0.0, 0.3, 2.5, 40.0], ids=str)
@pytest.mark.parametrize("n", [1, 2, 5, 14, 66])
def test_laguerre_rule_integrates_monomials_to_degree_2n_minus_1(a, n):
    # z^j against z^a e^-z on [0, inf) is Gamma(a + 1 + j); the far nodes'
    # weights, like e^-z, keep their own relative accuracy
    z, w = gauss.laguerre(a, n)
    assert (np.diff(z) > 0).all() and z[0] > 0 and (w > 0).all()
    with mp.workdps(40):
        for j in range(2 * n):
            exact = mp.gamma(_mpf(a) + 1 + j)
            got = mp.fsum(mp.mpf(float(wi)) * mp.mpf(float(zi)) ** j for wi, zi in zip(w, z))
            assert abs(got - exact) <= 1e-13 * exact, (j, float(abs(got - exact) / exact))


def test_rules_are_cached_read_only_and_built_on_demand():
    gauss.jacobi.cache_clear()
    gauss.laguerre.cache_clear()
    z, w = gauss.jacobi(0.25, 0.75, 6)
    assert gauss.jacobi(0.25, 0.75, 6)[0] is z and gauss.jacobi.cache_info().hits == 1
    assert not (z.flags.writeable or w.flags.writeable)
    assert gauss.laguerre.cache_info().currsize == 0


@pytest.mark.parametrize("basis, nmax", [
    (GUP(1, 1.5), 96), (GUP(0.5, 0.5), 128), (GHP(0), 128), (GHP(0.5), 128), (U(0.5), 128),
    (V(0.3), 128), (V(0.6), 128), (Pm(1), 128), (G(0.7, 1.0), 128), (Q(1.0), 128)], ids=str)
def test_infinite_bases_pass_at_high_degree_with_no_panel(basis, nmax):
    # each failed with hundreds to thousands of entries left inconclusive
    # by the panel tree; RuntimeWarning is an error here
    rep = gram_matrix(basis, nmax)
    assert rep.passed, rep.summary().splitlines()[0]
    assert rep.panels == 0 and rep.verified == len(rep.entries)


def test_finite1_near_its_benchmark_centre_takes_no_panel():
    # at 24 its (2, 2) and two off-diagonal pairs were inconclusive after
    # 8,058 panels
    basis = FiniteI(0.074, 2.454)
    rep = gram_matrix(basis, 24)
    assert rep.passed and rep.panels == 0
    e = rep.entry(2, 2)
    weight = lambda x: x ** (-2 * mp.mpf(0.074)) * (1 + x * x) ** -mp.mpf(2.454)    # noqa: E731
    ref = _mp_entry(basis, 2, 2, weight)
    assert e.status == "ok" and abs(e.quad.value - ref) <= rep.tol * abs(e.expected)


# ------------------------------------------------ entries against exact sums


def _moment(p, q, r, s, j):
    """int W y^j dx over the support, y = x^2, W the weight of (p, q, r, s)
    (mpmath numbers), in mpmath; None where it diverges."""
    if q:
        a = (s / q - 1) / 2 + j
        if not p:                               # y^a e^(-c y)
            c = -r / (2 * q)
            return c ** -(a + 1) * mp.gamma(a + 1) if a > -1 and c > 0 else None
        e = (r - 2 * p) / (2 * p) - s / (2 * q)
        b = e + 1 if p < 0 else -e - a - 1      # B(a + 1, b), on [0, theta^2] or [0, inf)
        if a > -1 and b > 0:
            return abs(q / p) ** (a + 1) * q ** e * mp.beta(a + 1, b)
        return None
    a, c = ((r - 2 * p) / p - 1) / 2 + j, s / (2 * p)     # y^a e^(-c/y)
    return c ** (a + 1) * mp.gamma(-a - 1) if -a - 1 > 0 and c > 0 else None


def _moments(params, count):
    return [_moment(*map(_mpf, params), j) for j in range(count)]


def _monic(params, nmax):
    """The monic members 0..nmax as {power: coefficient} in mpmath, by the
    recurrence with C_k of the parameters as given."""
    p, q, r, s = map(_mpf, params)

    def c(n):
        if n == 1:
            return (q + s) / (p + r)
        sgn = -1 if n % 2 else 1
        num = p * q * n * n + ((r - 2 * p) * q - sgn * p * s) * n + (r - 2 * p) * s * (1 - sgn) / 2
        return num / ((2 * p * n + r - p) * (2 * p * n + r - 3 * p))
    members = [{0: mp.mpf(1)}, {1: mp.mpf(1)}]
    for n in range(1, nmax):
        nxt = {k + 1: v for k, v in members[n].items()}
        for k, v in members[n - 1].items():
            nxt[k] = nxt.get(k, 0) + c(n) * v
        members.append(nxt)
    return members[:nmax + 1]


def _exact_entries(params, nmax):
    """{(n, m): exact Gram entry} of the monic members of params where the
    moments are finite."""
    moments, members = _moments(params, nmax + 1), _monic(params, nmax)
    out = {}
    for n in range(nmax + 1):
        for m in range(n + 1):
            if (n + m) % 2:
                continue
            terms = [a * b * moments[(i + k) // 2] for i, a in members[n].items()
                     for k, b in members[m].items() if moments[(i + k) // 2] is not None]
            if len(terms) == len(members[n]) * len(members[m]):
                out[n, m] = mp.fsum(terms)
    return out


def _exact_v(alpha, nmax):
    """{(n, m): exact Gram entry} of V(alpha)'s polynomial factors under
    (1 - x)^alpha (1 + x)^-alpha on (-1, 1)."""
    al = _mpf(alpha)
    moments = [2 * mp.fsum(mp.binomial(j, i) * 2 ** i * (-1) ** (j - i)
                           * mp.beta(i - al + 1, al + 1) for i in range(j + 1))
               for j in range(2 * nmax + 1)]
    members, lead = [{0: mp.mpf(1)}, {0: al, 1: mp.mpf(1)}], [mp.mpf(1)]
    for k in range(1, nmax):
        nxt = {i + 1: v for i, v in members[k].items()}
        for i, v in members[k - 1].items():
            nxt[i] = nxt.get(i, 0) - (k - al) * (k + al) / (4 * k * k - 1) * v
        members.append(nxt)
    for k in range(nmax):
        lead.append(lead[-1] * (2 * k + 1) / (k + 1))
    return {(n, m): lead[n] * lead[m] * mp.fsum(a * b * moments[i + k]
                                                for i, a in members[n].items()
                                                for k, b in members[m].items())
            for n in range(nmax + 1) for m in range(n + 1)}


CHECK_SET = [(GUP(0.6, 0.8), 24), (GUP(-0.45, -0.95), 24), (GHP(0.4), 20), (GHP(-0.47), 16),
             (FiniteI(0.074, 2.454), 24), (FiniteI(0.093, 5.411), 10), (FiniteII(6), 16),
             (FiniteII(5.02), 10), (Class(-1, 1, -1.2, -2.95), 16), (Q(-0.95), 24),
             (U(-0.96), 24), (G(0.7, 1.0), 16), (Pm(2), 12), (V(0.3), 16), (V(-0.96), 16)]


@pytest.mark.parametrize("basis, nmax", CHECK_SET, ids=str)
def test_each_rule_entry_error_bounds_its_difference_from_the_exact_sum(basis, nmax):
    rep = gram_matrix(basis, nmax)
    b = rep.base
    with mp.workdps(50):
        if isinstance(basis, V):
            exact = _exact_v(basis.alpha, nmax)
        elif isinstance(basis, (U, Pm, G, Q)):
            leads = basis.leads(nmax - b)
            exact = {(n + b, m + b): mp.mpf(leads[n]) * mp.mpf(leads[m]) * v
                     for (n, m), v in _exact_entries(basis.params, nmax - b).items()}
        else:
            exact = _exact_entries(basis.params, nmax)
        ruled = [e for e in rep.entries if e.quad.reason == "rule"]
        assert len(ruled) >= 5
        diag = {e.n: e.quad.value for e in ruled if e.n == e.m}
        for e in ruled:
            diff = abs(mp.mpf(e.quad.value) - exact[e.n, e.m])
            assert diff <= e.quad.abs_error_estimate, (e.n, e.m)
            if e.n in diag:     # and a bound far below what the judging needs
                assert e.quad.abs_error_estimate <= 1e-10 * sturm.entry_scale(diag[e.n], diag[e.m])
