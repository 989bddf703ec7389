"""No numpy.ma on the library path.

np.unique imports numpy.ma (15-38 ms) on its first call; a Gram check and
an expansion of samples, in the API and the CLI, must not.  Needs a fresh
interpreter.  Exits 1 if one does.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/no_numpy_ma.py
"""

import os
import sys
import tempfile

import numpy as np

from symortho import GUP, cli, expand, gram_matrix

gram_matrix(GUP(1, 1), 8)
xs = np.cos(np.pi * (np.arange(9) + 0.5) / 9)
expand((xs, np.exp(xs)), GUP(1, 1), 6)
with tempfile.TemporaryDirectory() as tmp:
    src = os.path.join(tmp, "samples.csv")
    with open(src, "w") as fh:
        fh.writelines(f"{float(x)!r},{float(np.exp(x))!r}\n" for x in xs)
    status = cli.run(["expand", "--basis", "gup", "--u", "1", "--v", "1", "--nmax", "6",
                      "--input", src, "--output", os.path.join(tmp, "recon.csv")])
loaded = "numpy.ma" in sys.modules
print(f"cli status {status}, numpy.ma loaded: {loaded}")
sys.exit(int(status != 0 or loaded))
