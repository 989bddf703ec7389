"""Every entry status of the finite families' Gram reports, against a check set.

tests/data/finite_gram_statuses.json holds the statuses of the reports
below as they were before divergence was certified from measured local
exponents.  Since then a status may change only as CHANGED lists it, in
one of two ways:

  - from `inconclusive` or `mismatch` to `cliff`, on a pair whose product
    is not absolutely integrable (families.pair_integrable);
  - from `inconclusive`, `mismatch` or `divergent` (a status that is gone:
    such a pair read `inconclusive` until its entry came from a Gauss rule)
    to `ok`, on an integrable pair that an mpmath reference matches within
    tol of the scale gram_matrix judges it by (the norms of the tuple's
    Class, past a printed degree bound too).

The file was written at the commit before the first change by

    PYTHONPATH=src python tests/test_finite_gram_statuses.py --write

(run there with this file copied in); writing it at a later commit resets
the baseline, and CHANGED with it.
"""

import json
import math
import os
import sys

import mpmath as mp
import numpy as np
import pytest

from symortho.exponent_map import LambdaSpec
from symortho.families import Class, FiniteI, FiniteII, pair_integrable
from symortho.quadrature import certifies_divergence
from symortho import sturm
from symortho.sturm import _adapt, gram_matrix
from test_sturm import LAMBDA_CASES, _lambda_two_thirds, _mp_entry

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "finite_gram_statuses.json")

FINITE2_AT_10 = (0.8, 1.5, 2.25, 3.0, 3.5, 4.5, 5.0, 5.5, 5.55, 6.0, 6.009,
                 6.03, 6.5, 7.0, 7.52, 8.0, 8.5, 9.0, 9.02, 10.5, 11.0, 12.25)

CASES = ([(FiniteII, (u,), 10) for u in FINITE2_AT_10]
         + [(FiniteII, (8.5,), 8), (FiniteII, (4.5,), 4), (FiniteII, (12.25,), 12)]
         + [(FiniteI, (0.1, 2.5), 24), (FiniteI, (0.05, 2.5), 10),
            (FiniteI, (0.3, 4.0), 10), (FiniteI, (0.25, 2.25), 10),
            (FiniteI, (5.0, 2.0), 8)]
         # the benchmark's gram slot centres
         + [(FiniteI, (0.1, 2.5), n) for n in (8, 16)]
         + [(FiniteII, (u,), n) for u in (6.0, 9.0) for n in (8, 16, 24)])

# (case, entry) -> (status in the check set, status now).  Each pair decays
# exactly like |x|^-1 (n + m = 2u - 1): log-divergent, with tails that
# cancel in a whole-line integral, which then ran out of budget.
CHANGED = {
    ("FiniteII(3.0)@10", "3,2"): ("inconclusive", "cliff"),
    ("FiniteII(5.0)@10", "5,4"): ("inconclusive", "cliff"),
    ("FiniteII(6.0)@10", "6,5"): ("inconclusive", "cliff"),
    ("FiniteII(7.0)@10", "7,6"): ("inconclusive", "cliff"),
    ("FiniteII(8.0)@10", "8,7"): ("inconclusive", "cliff"),
    ("FiniteII(8.0)@10", "9,6"): ("inconclusive", "cliff"),
    ("FiniteII(8.0)@10", "10,5"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@10", "9,8"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@10", "10,7"): ("inconclusive", "cliff"),
    ("FiniteII(10.5)@10", "10,10"): ("inconclusive", "cliff"),
    ("FiniteII(6.0)@8", "6,5"): ("inconclusive", "cliff"),
    ("FiniteII(6.0)@16", "6,5"): ("inconclusive", "cliff"),
    ("FiniteII(6.0)@24", "6,5"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@16", "9,8"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@16", "10,7"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@16", "11,6"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@16", "12,5"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@16", "13,4"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@16", "14,3"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@16", "15,2"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@16", "16,1"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@24", "9,8"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@24", "10,7"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@24", "11,6"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@24", "12,5"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@24", "13,4"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@24", "14,3"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@24", "15,2"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@24", "16,1"): ("inconclusive", "cliff"),
    ("FiniteII(9.0)@24", "17,0"): ("inconclusive", "cliff"),
    # the diagonals past FiniteI's printed bound, and within its Class's
    ("FiniteI(0.1, 2.5)@24", "1,1"): ("mismatch", "ok"),
    ("FiniteI(0.1, 2.5)@24", "2,2"): ("mismatch", "ok"),
    ("FiniteI(0.05, 2.5)@10", "1,1"): ("mismatch", "ok"),
    ("FiniteI(0.05, 2.5)@10", "2,2"): ("mismatch", "ok"),
    ("FiniteI(0.3, 4.0)@10", "1,1"): ("mismatch", "ok"),
    ("FiniteI(0.3, 4.0)@10", "2,2"): ("mismatch", "ok"),
    ("FiniteI(0.3, 4.0)@10", "3,3"): ("mismatch", "ok"),
    ("FiniteI(0.25, 2.25)@10", "1,1"): ("mismatch", "ok"),
    ("FiniteI(0.1, 2.5)@8", "1,1"): ("mismatch", "ok"),
    ("FiniteI(0.1, 2.5)@8", "2,2"): ("mismatch", "ok"),
    ("FiniteI(0.1, 2.5)@16", "1,1"): ("mismatch", "ok"),
    ("FiniteI(0.1, 2.5)@16", "2,2"): ("mismatch", "ok"),
    # integrable pairs whose own integrals stopped at a non-finite panel,
    # where the weight underflows to 0 and the members overflow (reason
    # blowup), and diagonals whose integrals ran out of budget; the Gauss
    # rule gives them
    ("FiniteII(5.55)@10", "5,5"): ("inconclusive", "ok"),
    ("FiniteII(7.52)@10", "7,7"): ("inconclusive", "ok"),
    ("FiniteII(5.55)@10", "6,4"): ("divergent", "ok"),
    ("FiniteII(5.55)@10", "7,3"): ("divergent", "ok"),
    ("FiniteII(5.55)@10", "8,2"): ("divergent", "ok"),
    ("FiniteII(5.55)@10", "9,1"): ("divergent", "ok"),
    ("FiniteII(5.55)@10", "10,0"): ("divergent", "ok"),
    ("FiniteII(7.52)@10", "8,6"): ("divergent", "ok"),
    ("FiniteII(7.52)@10", "9,5"): ("divergent", "ok"),
    ("FiniteII(7.52)@10", "10,4"): ("divergent", "ok"),
}

# the check set's weights in mpmath, for the references of its diagonals
MP_WEIGHT = {
    FiniteI: lambda u, v: lambda x: x ** (-2 * mp.mpf(u)) * (1 + x * x) ** -mp.mpf(v),
    FiniteII: lambda u: lambda x: x ** (-2 * mp.mpf(u)) * mp.exp(-1 / (x * x)),
}


def _key(cls, args, nmax):
    return f"{cls.__name__}({', '.join(map(repr, args))})@{nmax}"


def statuses(rep):
    return {f"{e.n},{e.m}": e.status for e in rep.entries}


def judged_scale(rep, n, m):
    """The scale gram_matrix judges entry (n, m) by: |d_n| on the diagonal,
    else sqrt|d_n| sqrt|d_m|, d a converged diagonal or else its norm, d_n
    falling back to d_m."""
    def d(k):
        e = rep.entry(k, k)
        return e.quad.value if e.quad.converged else e.expected
    if n == m:
        return abs(rep.entry(n, n).expected)
    dn, dm = d(n), d(m)
    return math.sqrt(abs(dm if dn is None else dn)) * math.sqrt(abs(dm))


@pytest.fixture(scope="module")
def check_set():
    with open(DATA) as fh:
        return json.load(fh)


def test_check_set_covers_every_case(check_set):
    assert sorted(check_set) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: _key(*c))
def test_statuses_match_the_check_set_but_for_listed_cliffs(case, check_set):
    key, (cls, args, nmax) = _key(*case), case
    spec = cls(*args)
    rep = gram_matrix(spec, nmax)
    before, now = check_set[key], statuses(rep)
    assert sorted(now) == sorted(before)
    changed = {entry: (before[entry], now[entry])
               for entry in now if now[entry] != before[entry]}
    listed = {entry: change for (k, entry), change in CHANGED.items() if k == key}
    assert changed == listed
    for entry, (old, new) in changed.items():
        n, m = map(int, entry.split(","))
        e = rep.entry(n, m)
        if new == "cliff":
            assert old in ("inconclusive", "mismatch")
            assert not pair_integrable(spec, n, m)
        else:
            assert new == "ok" and old in ("inconclusive", "mismatch", "divergent")
            assert pair_integrable(spec, n, m)
            ref = _mp_entry(spec, n, m, MP_WEIGHT[cls](*args))
            assert abs(e.quad.value - ref) <= rep.tol * judged_scale(rep, n, m), entry


@pytest.mark.parametrize("case", CASES + [(FiniteI, (0.06, 2.46), 8)], ids=lambda c: _key(*c))
def test_a_family_and_its_class_give_one_report(case):
    # the family's Gram reads its Class's norms, block and pairs; no entry
    # reads divergent.  FiniteI(0.06, 2.46) took 8,059 panels as a Class and
    # 83 as a family when the family's printed bound ended its block at 0
    cls, args, nmax = case
    fam = gram_matrix(cls(*args), nmax)
    gen = gram_matrix(Class(*cls(*args).params), nmax)
    assert statuses(fam) == statuses(gen) and fam.panels == gen.panels
    assert "divergent" not in statuses(fam).values()
    if case == (FiniteI, (0.06, 2.46), 8):
        assert gen.panels <= 100


def test_integrable_pairs_whose_integrals_blew_up_are_ok():
    # these integrals stopped at a non-finite panel (0 inf past the point
    # where the weight underflows); the Gauss rule in t = 1/x^2 gives them
    spec = FiniteII(5.55)
    rep = gram_matrix(spec, 10)
    for n, m in [(6, 4), (7, 3), (8, 2), (9, 1), (10, 0)]:
        e = rep.entry(n, m)
        assert pair_integrable(spec, n, m)
        assert e.status == "ok" and e.quad.reason == "rule", (n, m)
        ref = _mp_entry(spec, n, m, MP_WEIGHT[FiniteII](5.55))
        assert abs(e.quad.value - ref) <= rep.tol * judged_scale(rep, n, m), (n, m)


def test_no_quadrature_is_taken_for_any_pair(monkeypatch):
    # an integrable pair comes from the Gauss rule, and one that is not is
    # a cliff certified by the exponent scan, or inconclusive, with no
    # integral; members above a pole in the recurrence are scanned too
    def refuse(*args, **kw):
        raise AssertionError("a quadrature tree ran")
    monkeypatch.setattr(sturm, "integrate_gram", refuse)
    for cls, args, nmax in CASES + [(FiniteII, (1.5,), 10)]:
        spec = cls(*args)
        rep = gram_matrix(spec, nmax)
        assert rep.panels == 0
        for e in rep.entries:
            if not pair_integrable(spec, e.n, e.m):
                assert not e.quad.converged and e.quad.reason is None, (spec, e.n, e.m)


@pytest.mark.parametrize("spec, nmax", [(cls(*args), nmax) for cls, args, nmax in CASES]
                         + [(_lambda_two_thirds(fam), nmax) for fam, nmax in LAMBDA_CASES],
                         ids=str)
def test_rule_gives_exactly_the_integrable_pairs(spec, nmax):
    # the Gauss rule gives each integrable pair of one parity whose members
    # can be built, each at the rule's cost, and the odd-parity shortcut
    # each integrable pair of mixed parity
    fam = Class(*spec.mapped_params) if isinstance(spec, LambdaSpec) else spec
    rep = gram_matrix(spec, nmax)
    for e in rep.entries:
        built = e.status not in ("degenerate", "mismatch") or e.quad.converged
        want = None
        if pair_integrable(fam, e.n, e.m) and built:
            want = "odd-parity" if (e.n + e.m) % 2 else "rule"
        assert e.quad.reason == want, (e.n, e.m)
        assert e.quad.evals == (rep.evals if want == "rule" else 0)


def test_memoized_integrable_is_pair_integrable():
    # _FamilyBasis.integrable_mask, one outer sum over the weight's
    # exponents, agrees with pair_integrable
    for cls, args, _ in CASES:
        spec = cls(*args)
        mask = _adapt(spec).integrable_mask(24)
        assert mask.shape == (25, 25)
        for n in range(25):
            for m in range(25):
                assert mask[n, m] == pair_integrable(spec, n, m), (spec, n, m)


def test_cliff_mask_is_the_scalar_rule(monkeypatch):
    # _FamilyBasis.cliffs judges every pair of one exponent scan at once;
    # quadrature.certifies_divergence judges one pair at one point
    scans = []
    real_scan = sturm.exponent_scan

    def recording(*args, **kw):
        scans.append(real_scan(*args, **kw))
        return scans[-1]
    monkeypatch.setattr(sturm, "exponent_scan", recording)
    certified = 0
    for cls, args, _ in CASES:
        spec = cls(*args)
        mask = _adapt(spec).cliffs(24)
        assert mask.shape == (25, 25)
        for n in range(25):
            for m in range(25):
                hint = dict(spec.hints(n % 2 + m % 2, n + m))
                want = any(certifies_divergence(point, sigma[n, m], spread[n, m], hint[point])
                           for point, sigma, spread in scans[-1])
                assert mask[n, m] == want, (spec, n, m)
        certified += int(mask.sum())
    assert certified


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump({_key(*case): statuses(gram_matrix(case[0](*case[1]), case[2]))
                   for case in CASES}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")
