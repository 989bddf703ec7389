"""Lambda Gram panel counts: the t-space Gram of several admissible lambdas.

Two mapped classes at several lambdas, and two mapped classes with
algebraic tails at lambda 2/3, which took 1,790 and 18,512 panels of
per-entry integrals (and FiniteII(6) failed).  Each case prints its
tree's rounds (its sample calls of more than one point) next to its
panels.  Exits 1 if one fails.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/lambda_counts.py
"""

import sys
from fractions import Fraction as F

import numpy as np

from symortho import GHP, GUP, FiniteI, FiniteII, LambdaSpec, lambda_weight_and_gram, sturm

real_tree, rounds = sturm.integrate_gram, []


def tree(sample, *args, **kwargs):
    def counted_sample(x):
        if np.size(x) > 1:      # a round's panels; a sliver probe is one point
            rounds.append(0)
        return sample(x)
    return real_tree(counted_sample, *args, **kwargs)


sturm.integrate_gram = tree
cases = [(fam, lam, 12) for fam in [GUP(1, 1), GHP(F(1, 2))]
         for lam in [F(2, 5), F(6, 5), F(2), F(6), F(10, 3)]]
cases += [(FiniteI(F(1, 10), F(5, 2)), F(2, 3), 8), (FiniteII(6), F(2, 3), 8)]
failed = False
for fam, lam, nmax in cases:
    p, q, r, s = fam.params
    h = lam / 2
    spec = LambdaSpec(p, q, h * r - (h - 1) * p, h * s - (h - 1) * q, lam)
    rounds.clear()
    rep = lambda_weight_and_gram(spec, nmax)
    verdict = "pass" if rep.passed else "FAIL"
    print(f"{fam!r} lambda {lam}@{nmax}: panels {rep.panels}, rounds {len(rounds)}, "
          f"evals {rep.evals}, {verdict}")
    failed = failed or not rep.passed
sys.exit(int(failed))
