"""One place says which exponents diverge.

|x - c|^e is not integrable for e <= -1 at a finite point and for e >= -1
in a tail: quadrature.divergent is the only place that rule is written.
families.py, sturm.py, expand.py and gauss.py read it, and compare no
exponent with -1 themselves.  Prints each such comparison, as grep -n does
(path:line:text), and exits 1 if there is one.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/one_divergence_rule.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
COMPARE = re.compile(r"[<>]=?\s*-1\b")

found = [f"{path.relative_to(ROOT)}:{k}:{line}"
         for path in (ROOT / "src" / "symortho" / name
                      for name in ("families.py", "sturm.py", "expand.py", "gauss.py"))
         for k, line in enumerate(path.read_text().splitlines(), 1) if COMPARE.search(line)]
print("\n".join(found))
sys.exit(int(len(found) > 0))
