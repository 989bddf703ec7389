"""Gram panel counts: machine-independent counts of gram_matrix's trees.

A change in the tree's work shows here, and a change of verdict next to
them; each case also prints how many pairs (n, m), n >= m, its tree
carries (with the odd ones of its leading square), the tree's rounds (its
sample calls of more than one point) and its per-entry integrals.  FiniteII(3/2)@10
took 642 panels while members above its pole took integrals; GHP(1/2)@128
overflowed its norm products d_n d_m; U and Pm run the class recurrence at
a = 0; FiniteI(1/10, 5/2)@8, FiniteI(3/10, 12)@16 and FiniteII(15.6)@18
took 81, 1,109 and 56,685 panels while the pairs outside their blocks took
an integral each; FiniteII(15.6)@18 took 8,159 while the integrals of its
lost-tail pairs ran to their budget, and takes 159.  FiniteII(10.7)@20 is
the per-pair rule's sharpest case: nine pairs of degree 20, (10, 10) to
(18, 2), lose more than 1e-9 of their scale past the point where the float
weight underflows, and take their own integrals.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/gram_counts.py
"""

from fractions import Fraction as F

import numpy as np

from symortho import GHP, GUP, FiniteI, FiniteII, Pm, U, gram_matrix, sturm

real, calls = sturm.integrate, []
real_tree, rounds = sturm.integrate_gram, []


def counted(*args, **kwargs):
    calls.append(0)
    return real(*args, **kwargs)


def tree(sample, *args, **kwargs):
    def counted_sample(x):
        if np.size(x) > 1:      # a round's panels; a sliver probe is one point
            rounds.append(0)
        return sample(x)
    return real_tree(counted_sample, *args, **kwargs)


sturm.integrate, sturm.integrate_gram = counted, tree
for basis, nmax in [(GUP(1, F(3, 2)), 24), (FiniteII(6), 16), (FiniteI(F(1, 10), F(5, 2)), 8),
                    (FiniteI(F(3, 10), 12), 16), (FiniteII(15.6), 18),
                    (FiniteII(F(3, 2)), 10), (GHP(F(1, 2)), 128), (U(0.6), 24),
                    (Pm(1), 16), (Pm(2), 16), (FiniteII(10.7), 20)]:
    calls.clear()
    rounds.clear()
    rep = gram_matrix(basis, nmax)
    ad = sturm._adapt(basis)
    held = np.isfinite(ad.tree_scale(ad.norms(nmax), ad.integrable_mask(nmax)))
    print(f"{basis!r}@{nmax}: carried {int(np.tril(held).sum())}, panels {rep.panels}, "
          f"evals {rep.evals}, rounds {len(rounds)}, integrals {len(calls)}")
    print("  " + rep.summary().splitlines()[0])     # the verdict and status counts
