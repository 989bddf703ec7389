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

It gates them: each case's rule nodes, rows, evals, panels and status
counts are recorded below (COUNTS), and the script exits 1, naming the
case, when one differs.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/gram_counts.py
"""

import sys
from collections import Counter
from fractions import Fraction as F

from symortho import GHP, GUP, FiniteI, FiniteII, Pm, U, gram_matrix

# each case's (rule nodes, rows, evals, panels, {status: count})
COUNTS = {
    (GUP(1, F(3, 2)), 24): (14, 25, 350, 0, {"ok": 325}),
    (FiniteII(6), 16): (4, 11, 44, 0, {"cliff": 117, "ok": 36}),
    (FiniteI(F(1, 10), F(5, 2)), 8): (3, 5, 15, 0, {"cliff": 36, "ok": 9}),
    (FiniteI(F(3, 10), 12), 16): (7, 17, 119, 0, {"cliff": 25, "ok": 128}),
    (FiniteII(15.6), 18): (9, 19, 171, 0, {"cliff": 12, "ok": 178}),
    (FiniteII(F(3, 2)), 10): (2, 1, 2, 0, {"cliff": 53, "degenerate": 11, "ok": 2}),
    (GHP(F(1, 2)), 128): (66, 129, 8514, 0, {"ok": 8385}),
    (U(0.6), 24): (14, 25, 350, 0, {"ok": 325}),
    (Pm(1), 16): (9, 16, 144, 0, {"ok": 136}),
    (Pm(2), 16): (9, 15, 135, 0, {"ok": 120}),
    (FiniteII(10.7), 20): (7, 21, 147, 0, {"cliff": 110, "ok": 121}),
}

off = []
for (basis, nmax), recorded in COUNTS.items():
    rep = gram_matrix(basis, nmax)
    ruled = [e.n for e in rep.entries if e.quad.reason == "rule"]
    rows = max(ruled) - rep.base + 1 if ruled else 0
    nodes = rep.evals // rows if rows else 0
    print(f"{basis!r}@{nmax}: rule nodes {nodes}, rows {rows}, "
          f"evals {rep.evals}, panels {rep.panels}")
    print("  " + rep.summary().splitlines()[0])     # the verdict and status counts
    statuses = dict(Counter(rep.entries.column("status")))
    if (nodes, rows, rep.evals, rep.panels, statuses) != recorded:
        off.append(f"{basis!r}@{nmax}")
if off:
    print("counts differ from the recorded ones:", "; ".join(off))
    sys.exit(1)
