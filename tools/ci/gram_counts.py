"""Gram rule counts: machine-independent counts of gram_matrix's Gauss rules.

Each case prints the nodes of its Gauss rule, the members evaluated at them
and its evals (their product), its panels (0: no case runs a panel tree)
and its verdict with the counts of its statuses, so a change in the rule's
work shows next to a change of verdict.  The cases once took adaptive
panel trees and per-entry integrals: FiniteII(3/2)@10 took 642 panels while
members above its pole took integrals, FiniteI(1/10, 5/2)@8,
FiniteI(3/10, 12)@16 and FiniteII(15.6)@18 took 81, 1,109 and 56,685
panels while the pairs outside their blocks took an integral each, and
GHP(1/2)@128 overflowed its norm products d_n d_m.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/gram_counts.py
"""

from fractions import Fraction as F

from symortho import GHP, GUP, FiniteI, FiniteII, Pm, U, gram_matrix

for basis, nmax in [(GUP(1, F(3, 2)), 24), (FiniteII(6), 16), (FiniteI(F(1, 10), F(5, 2)), 8),
                    (FiniteI(F(3, 10), 12), 16), (FiniteII(15.6), 18),
                    (FiniteII(F(3, 2)), 10), (GHP(F(1, 2)), 128), (U(0.6), 24),
                    (Pm(1), 16), (Pm(2), 16), (FiniteII(10.7), 20)]:
    rep = gram_matrix(basis, nmax)
    ruled = [e.n for e in rep.entries if e.quad.reason == "rule"]
    rows = max(ruled) - rep.base + 1 if ruled else 0
    print(f"{basis!r}@{nmax}: rule nodes {rep.evals // rows if rows else 0}, rows {rows}, "
          f"evals {rep.evals}, panels {rep.panels}")
    print("  " + rep.summary().splitlines()[0])     # the verdict and status counts
