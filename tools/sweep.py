"""Seeded sweep of Gram reports past the acceptance degrees.

Usage: PYTHONPATH=src python tools/sweep.py --seed N

Each seed draws, with parameters rounded to two decimals:

  FiniteI(u, v)    u in [0, 0.45], v in [0.6, 8], at nmax 8..24, and
                   draws near (0.1, 2.5) at nmax 8..24
  FiniteII(u)      u in [1, 16], at floor(u - 1/2) + 3, past its bound
  lambda 2/3       the lambda = 2/3 class of a FiniteI(u, v) draw, at 8
  GUP, GHP, U, V,  four draws each, at nmax 24 and 48
  G and Q

and prints one line per report (pass or FAIL, its panels and the counts of
its statuses other than ok), then per class the reports that pass, the
status counts and the panel total.  It reports and does not gate: the
exit status is 0 whatever the verdicts.
"""

import argparse
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from symortho import GHP, GUP, FiniteI, FiniteII, LambdaSpec, gram_matrix
from symortho.legendre import G, Q, U, V


def _lambda(fam, lam):
    """The lambda class whose mapped class is fam's."""
    p, q, r, s = fam.params
    h = lam / 2
    return LambdaSpec(p, q, h * r - (h - 1) * p, h * s - (h - 1) * q, lam)


def cases(seed):
    """[(class, label, basis, nmax)] of one seed."""
    rng = np.random.default_rng(seed)

    def draw(lo, hi):
        return round(float(rng.uniform(lo, hi)), 2)

    def degree():
        return int(rng.integers(8, 25))
    out = []
    for _ in range(20):
        fam, n = FiniteI(draw(0, 0.45), draw(0.6, 8)), degree()
        out.append(("FiniteI", f"{fam!r}@{n}", fam, n))
    for _ in range(10):
        fam, n = FiniteI(draw(0.05, 0.15), draw(2.4, 2.6)), degree()
        out.append(("FiniteI near (0.1, 2.5)", f"{fam!r}@{n}", fam, n))
    for _ in range(20):
        fam = FiniteII(draw(1, 16))
        n = math.floor(fam.u - 0.5) + 3
        out.append(("FiniteII", f"{fam!r}@{n}", fam, n))
    for _ in range(10):
        fam = FiniteI(draw(0, 0.45), draw(0.6, 8))
        out.append(("lambda 2/3 on FiniteI", f"lambda 2/3 on {fam!r}@8",
                    _lambda(fam, Fraction(2, 3)), 8))
    makers = [("GUP", lambda: GUP(draw(-0.45, 3), draw(-0.9, 3))),
              ("GHP", lambda: GHP(draw(-0.45, 3))),
              ("U", lambda: U(draw(-0.9, 0.9))), ("V", lambda: V(draw(-0.9, 0.9))),
              ("G", lambda: G(draw(-0.45, 3), draw(-0.9, 3))), ("Q", lambda: Q(draw(-0.9, 3)))]
    for name, make in makers:
        for _ in range(4):
            basis = make()
            out += [(name, f"{basis!r}@{n}", basis, n) for n in (24, 48)]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    totals = {}
    start = time.perf_counter()
    for name, label, basis, nmax in cases(args.seed):
        rep = gram_matrix(basis, nmax)
        counts = Counter(e.status for e in rep.entries if e.status != "ok")
        shown = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        print(f"{label}: {'pass' if rep.passed else 'FAIL'}, panels {rep.panels}"
              + (f", {shown}" if shown else ""))
        seen = totals.setdefault(name, [0, 0, Counter(), 0])
        seen[0] += rep.passed
        seen[1] += 1
        seen[2].update(counts)
        seen[3] += rep.panels
    print(f"seed {args.seed}, {time.perf_counter() - start:.1f} s")
    for name, (passed, count, counts, panels) in totals.items():
        shown = ", ".join(f"{v} {k}" for k, v in sorted(counts.items())) or "none"
        print(f"{name}: {passed}/{count} pass, not ok: {shown}; panels {panels}")


if __name__ == "__main__":
    main()
