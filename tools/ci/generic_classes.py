"""Generic classes: any (p, q, r, s) is a family.

Both signs of one tuple give one report through Class, ClassParams and the
lambda 2 LambdaSpec (the flipped sign once read FAIL after 12,825 panels),
and symortho gram takes --class custom; a Class certifies degree pairs
only up to its degree bound, and its log_deriv (from the weight exponents)
satisfies the weight equation; a named family gives its Class's statuses
and panels (FiniteI(0.06, 2.46)@8 took 8,059 panels as a Class and 83 as a
family).  Exits 1 if the signs' reports differ, a family's and its Class's
differ, FiniteI(1/10, 5/2)@8 fails or a check fails.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/generic_classes.py
"""

import contextlib
import io
import sys
from fractions import Fraction as F

import numpy as np

from symortho import (Class, ClassParams, FiniteI, FiniteII, LambdaSpec, cli,
                      gram_matrix, pearson_residual, valid_pair)

bad = False
for name, route in [("Class", Class), ("ClassParams", ClassParams),
                    ("LambdaSpec lambda 2", lambda *t: LambdaSpec(*t, 2))]:
    seen = []
    for t in [(-1, 1, -3, 2), (1, -1, 3, -2)]:
        rep = gram_matrix(route(*t), 8)
        verdict = "pass" if rep.passed else "FAIL"
        print(f"{name}{t}@8: {verdict}, panels {rep.panels}, evals {rep.evals}")
        seen.append((rep.panels, rep.evals,
                     [(e.status, e.quad.value, e.expected) for e in rep.entries]))
        bad = bad or not rep.passed
    bad = bad or seen[0] != seen[1]
for fam, nmax in [(FiniteI(0.06, 2.46), 8), (FiniteI(F(1, 10), F(5, 2)), 8),
                  (FiniteII(15.6), 18)]:
    reps = [gram_matrix(b, nmax) for b in (fam, Class(*fam.params))]
    same = len({(r.panels, tuple(e.status for e in r.entries)) for r in reps}) == 1
    print(f"{fam!r}@{nmax}: {'pass' if reps[0].passed else 'FAIL'}, panels "
          f"{reps[0].panels}; as its Class: panels {reps[1].panels}, same: {same}")
    bad = bad or not same or fam == FiniteI(F(1, 10), F(5, 2)) and not reps[0].passed
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["gram", "--class", "custom", "--p", "-1", "--q", "1", "--r", "-3",
                    "--s", "2", "--nmax", "8"])
print(f"symortho gram --class custom: exit {code}")
pair = valid_pair(Class(1, 0, -10, 2), 9, 9)
print(f"valid_pair(Class(1, 0, -10, 2), 9, 9): {pair}")
bad = bad or code != 0 or pair.certified
for t, hi in [((1, 0, -10, 2), 3.0), ((-2, 3, 0.5, 0), 1.5 ** 0.5)]:
    x = np.linspace(0.05, 0.95 * hi, 50)
    worst = float(np.max(np.abs(pearson_residual(Class(*t), np.r_[x, -x]))))
    print(f"pearson_residual(Class{t}): {worst:.1e}")
    bad = bad or not worst < 1e-12
sys.exit(int(bad))
