"""Expand panel counts: the path each case takes, and what it cost.

A target with no measured exponent at a finite point first takes the
basis's Gauss rules at two sizes, and keeps them where the sizes agree:
the line then reads "rule" and the points where f was read (evals, both
sizes), with no panel.  sin takes the rule on all eight kinds below: on
the trees its first four residuals once ran the whole budget, the next
four (hinted for one member) took 64-88 panels, and V(0.6)'s residual
stayed open.  Anywhere else expand takes two trees, ||f||^2 and the
numerators on one and the residual started on its panels, or three for
kinds with a negative hinted exponent (V, U(alpha < 0), G and Q with
b < 0) or a target with a negative measured one; the line reads "trees"
and their panels.  sqrt|x| is kinked at 0:
its measured exponent 1/2 hints its trees there, which the basis's hints
alone resolved by 10-13 rounds of bisection toward 0 (110 and 92
panels).  (1 - x^2)^(-1/4) on V(0.3) ran its numerators to their budget
before its exponent -1/4 at +-1 hinted them; its residual stays open.
1/(1 + x^2) on FiniteII(6)@4 has no Gauss rule (finitely many moments),
and runs trees whose folded tails are hinted with an exponent: each tail
starts as one panel and bisects toward x = +-inf where its error asks for
it (98 panels; 116 when such tails started graded toward x = +-inf and
split into four there).  Each case prints the target's exponents that
join the hints ({point: e}, from its one scan), and on the trees each
tree's panels and its sampler calls (one per round, plus any
endpoint-sliver probes).

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/expand_counts.py
"""

import importlib

import numpy as np

from symortho import GUP, FiniteII
from symortho.legendre import G, Pm, Q, U, V

ex = importlib.import_module("symortho.expand")   # symortho.expand is the function
real, panels, calls = ex.integrate_gram, [], []
real_hints, joined = ex._target_hints, []


def counted(sample, *args, **kwargs):
    calls.append(0)

    def sampled(x):
        calls[-1] += 1
        return sample(x)
    out = real(sampled, *args, **kwargs)
    panels.append(out.panels)
    return out


def recorded(*args):
    joined.append(real_hints(*args))
    return joined[-1]


def sqrt_abs(x):
    return np.sqrt(np.abs(x))


def quarter_power(x):
    return (1 - x * x) ** -0.25


def lorentzian(x):
    return 1 / (1 + x * x)


ex.integrate_gram = counted
ex._target_hints = recorded
cases = [(np.sin, "sin", basis, 8) for basis in
         [V(0.6), U(-0.5), G(0.5, -0.5), Q(-0.4), U(0.5), Pm(1), G(0.5, 1.0), Q(0.5)]]
cases += [(sqrt_abs, "sqrt|x|", U(0.5), 12), (sqrt_abs, "sqrt|x|", GUP(0, 0), 8),
          (quarter_power, "(1-x^2)^-1/4", V(0.3), 6),
          (lorentzian, "1/(1+x^2)", FiniteII(6), 4)]
for f, name, basis, nmax in cases:
    panels.clear()
    calls.clear()
    joined.clear()
    ser = ex.expand(f, basis, nmax)
    exps = {point: round(e, 6) for point, e in joined[0].items()}
    path = (f"trees, panels {sum(panels)} {panels}, sampler calls {calls}" if panels
            else f"rule, evals {ser.evals}")
    print(f"{name} {basis!r}@{nmax}: exponents {exps}, {path}")
