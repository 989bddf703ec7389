"""Lambda Gram rule counts: the Gram of several admissible lambdas.

Two mapped classes at several lambdas, and two mapped classes with
algebraic tails at lambda 2/3, which took 1,790 and 18,512 panels of
per-entry integrals (and FiniteII(6) failed) before the Gram took its
entries from a Gauss rule of the mapped class, in x.  Each case prints the
nodes of its rule, the members evaluated at them, its evals and its
verdict.  Exits 1 if one fails.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/lambda_counts.py
"""

import sys
from fractions import Fraction as F

from symortho import GHP, GUP, FiniteI, FiniteII, LambdaSpec, lambda_weight_and_gram

cases = [(fam, lam, 12) for fam in [GUP(1, 1), GHP(F(1, 2))]
         for lam in [F(2, 5), F(6, 5), F(2), F(6), F(10, 3)]]
cases += [(FiniteI(F(1, 10), F(5, 2)), F(2, 3), 8), (FiniteII(6), F(2, 3), 8)]
failed = False
for fam, lam, nmax in cases:
    p, q, r, s = fam.params
    h = lam / 2
    spec = LambdaSpec(p, q, h * r - (h - 1) * p, h * s - (h - 1) * q, lam)
    rep = lambda_weight_and_gram(spec, nmax)
    rows = max([e.n + 1 for e in rep.entries if e.quad.reason == "rule"], default=0)
    verdict = "pass" if rep.passed else "FAIL"
    print(f"{fam!r} lambda {lam}@{nmax}: rule nodes {rep.evals // rows if rows else 0}, "
          f"rows {rows}, evals {rep.evals}, panels {rep.panels}, {verdict}")
    failed = failed or not rep.passed
sys.exit(int(failed))
