"""Expand panel counts: the panels of every tree of expand.

expand takes two trees, ||f||^2 and the numerators on one and the residual
started on its panels, or three for kinds with a negative hinted exponent
(V, U(alpha < 0), G and Q with b < 0).  The first four sin residuals once
ran the whole budget, the next four (hinted for one member) once took
64-88 panels; sqrt|x| is kinked at 0, where its trees take 10-13 rounds.
Each tree prints its panels and its sampler calls (one per round, plus any
endpoint-sliver probes).

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/expand_counts.py
"""

import importlib

import numpy as np

from symortho import GUP
from symortho.legendre import G, Pm, Q, U, V

ex = importlib.import_module("symortho.expand")   # symortho.expand is the function
real, panels, calls = ex.integrate_gram, [], []


def counted(sample, *args, **kwargs):
    calls.append(0)

    def sampled(x):
        calls[-1] += 1
        return sample(x)
    out = real(sampled, *args, **kwargs)
    panels.append(out.panels)
    return out


def sqrt_abs(x):
    return np.sqrt(np.abs(x))


ex.integrate_gram = counted
cases = [(np.sin, "sin", basis, 8) for basis in
         [V(0.6), U(-0.5), G(0.5, -0.5), Q(-0.4), U(0.5), Pm(1), G(0.5, 1.0), Q(0.5)]]
cases += [(sqrt_abs, "sqrt|x|", U(0.5), 12), (sqrt_abs, "sqrt|x|", GUP(0, 0), 8)]
for f, name, basis, nmax in cases:
    panels.clear()
    calls.clear()
    ex.expand(f, basis, nmax)
    print(f"{name} {basis!r}@{nmax}: panels {sum(panels)} {panels}, sampler calls {calls}")
