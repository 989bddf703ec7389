"""No new callers of the per-entry integrator.

quadrature.integrate has one caller outside quadrature.py:
_FamilyBasis.inner, the per-entry integral of a pair outside the Gram
tree (ROADMAP item 5).  Prints the library lines that call it, as grep -n
does (path:line:text), and exits 1 if there is more than one.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/integrate_callers.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
CALL = re.compile(r"\bintegrate\(")

calls = [f"{path.relative_to(ROOT)}:{k}:{line}"
         for path in sorted((ROOT / "src" / "symortho").glob("*.py"))
         if path.name != "quadrature.py"
         for k, line in enumerate(path.read_text().splitlines(), 1) if CALL.search(line)]
print("\n".join(calls))
sys.exit(int(len(calls) > 1))
