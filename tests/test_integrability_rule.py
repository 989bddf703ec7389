"""One integrability rule over random tuples (p, q, r, s), exact and float.

weight_exponents rounds each exact exponent once; valid_pair's integrable
field is pair_integrable, the one exponent count; and moment_zero refuses
exactly the weights that count refuses for the pair (0, 0), or whose
Gaussian factor does not decay.  The count is checked against an exact
rational oracle of the same exponents, so float sums cannot hide a flip.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symortho.core import weight_exponents
from symortho.errors import DivergentMoment
from symortho.families import Class, pair_integrable, valid_pair

EXACT = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
FLOAT = st.one_of(st.integers(-12, 12).map(float), st.floats(-8.0, 8.0).map(lambda v: round(v, 2)),
                  st.floats(-8.0, 8.0).filter(lambda v: v == 0 or abs(v) > 1e-3))
TUPLES = st.one_of(st.tuples(EXACT, EXACT, EXACT, EXACT), st.tuples(FLOAT, FLOAT, FLOAT, FLOAT))
RUNS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def _same(got, want):
    """Equal floats, nan to nan and each zero's sign included."""
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _exact_count(exponents, n, m):
    """The product's exponents, summed as exact rationals of the floats:
    above -1 at the origin and at +-theta, below -1 in the tails."""
    theta, origin, edge, tail = (Fraction(e) if math.isfinite(e) else e for e in exponents)
    return (origin + n % 2 + m % 2 > -1 and (theta == math.inf or edge > -1)
            and tail + n + m < -1)


@RUNS
@given(st.tuples(EXACT, EXACT, EXACT, EXACT))
def test_exact_exponents_are_their_fractions_rounded_once(values):
    params = Class(*values).params
    p, q, r, s = params
    got = weight_exponents(params)
    theta = math.sqrt(-q / p) if p and q and -q / p > 0 else math.inf
    if q:
        origin = float(s / q)
    else:
        origin = -math.inf if s * p < 0 else float((r - 2 * p) / p) if p and not s else math.inf
    # one fraction over the common denominator 2pq, not the formula's two terms
    edge = float(((r - 2 * p) * q - s * p) / (2 * p * q)) if p and q else math.nan
    tail = float((r - 2 * p) / p) if p and theta == math.inf else -math.inf
    for name, want in zip(got._fields, (theta, origin, edge, tail)):
        assert _same(getattr(got, name), want), (values, name, getattr(got, name), want)


@RUNS
@given(TUPLES)
def test_valid_pair_reads_the_one_count(values):
    spec = Class(*values)
    assume(spec.params.p or spec.params.q)
    for n in range(9):
        for m in range(n + 1):
            got = pair_integrable(spec, n, m)
            assert valid_pair(spec, n, m).integrable == got, (values, n, m)
            assert got == _exact_count(spec.exponents, n, m), (values, n, m)


@RUNS
@given(TUPLES)
def test_moment_zero_refuses_what_the_count_refuses(values):
    spec = Class(*values)
    p, q, r, _ = spec.params
    assume(p or q)
    # p = 0: the weight is |x|^(s/q) e^(r x^2 / (2q)) with q > 0
    flat_or_growing = p == 0 and not r < 0
    refused = not pair_integrable(spec, 0, 0) or flat_or_growing
    if refused:
        with pytest.raises(DivergentMoment):
            spec.moment_zero()
    else:
        assert math.isfinite(spec.moment_zero()) and spec.moment_zero() > 0, values
