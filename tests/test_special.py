"""Gamma/beta/binomial helpers against mpmath and exact arithmetic."""

import math
from fractions import Fraction

import mpmath
import pytest

from symortho.special import gamma_fn, log_gamma, beta_fn, binom
from symortho.errors import PoleError


@pytest.mark.parametrize("x", [0.5, 1.0, 1.5, 2.0, 3.7, 10.0, -0.5, -1.5, -4.3])
def test_gamma_matches_mpmath(x):
    assert gamma_fn(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-14)


@pytest.mark.parametrize("x", [0, -1, -2, -7, 0.0, -3.0])
def test_gamma_pole(x):
    with pytest.raises(PoleError):
        gamma_fn(x)


def test_gamma_overflow_is_inf():
    assert gamma_fn(200.0) == math.inf


@pytest.mark.parametrize("x", [0.25, 1.0, 7.5, 120.0, -2.5])
def test_log_gamma(x):
    assert log_gamma(x) == pytest.approx(float(mpmath.log(abs(mpmath.gamma(x)))),
                                         rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.5, 2.5), (3.0, 4.0),
                                 (0.1, 9.3), (60.0, 80.0)])
def test_beta_positive(a, b):
    assert beta_fn(a, b) == pytest.approx(float(mpmath.beta(a, b)), rel=1e-13)


def test_beta_negative_first_argument():
    # B(-1/2, 3/2) = Gamma(-1/2)Gamma(3/2)/Gamma(1)
    want = float(mpmath.gamma(-0.5) * mpmath.gamma(1.5))
    assert beta_fn(-0.5, 1.5) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n,k", [(0, 0), (5, 0), (5, 2), (5, 5), (12, 7)])
def test_binom_integers(n, k):
    assert binom(n, k) == math.comb(n, k)
    assert isinstance(binom(n, k), int)


def test_binom_fraction_exact():
    # (1/2 choose 2) = (1/2)(-1/2)/2 = -1/8
    assert binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom(Fraction(7, 3), 3) == Fraction(7, 3) * Fraction(4, 3) * Fraction(1, 3) / 6


def test_binom_float_general():
    assert binom(2.5, 2) == pytest.approx(2.5 * 1.5 / 2)
    assert binom(-1.0, 3) == pytest.approx(-1.0)


def test_binom_negative_k():
    assert binom(5, -1) == 0
