"""Members past the float range: each value is +-inf or finite, never nan.

GHP(1/2)'s members 342 and 355 overflow at 0.5 and 3 (342 at 0 too).
Exits 1 on any nan.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/float_range.py
"""

import sys
from fractions import Fraction as F

import numpy as np

from symortho import GHP
from symortho.core import poly_from_params

x = np.array([0.0, 0.5, 3.0])
nan = False
for u in (F(1, 2), 0.5):
    for n in (342, 355):
        got = poly_from_params(GHP(u).params, n, monic=True)(x)
        print(f"GHP({u!r}) member {n} at {x.tolist()}: {got.tolist()}")
        nan = nan or bool(np.isnan(got).any())
sys.exit(int(nan))
