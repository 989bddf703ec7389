"""No new callers of the Jacobi step.

legendre._jacobi_step has one caller: jacobi_coeffs, the exact reference.
U and Pm run their class recurrence, and V its closed-form Jacobi
coefficients.  Prints the library lines that call it, as grep -n does
(path:line:text), and exits 1 if there is more than one.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/jacobi_step_callers.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
CALL = re.compile(r"\b_jacobi_step\(")

calls = [f"{path.relative_to(ROOT)}:{k}:{line}"
         for path in sorted((ROOT / "src" / "symortho").glob("*.py"))
         for k, line in enumerate(path.read_text().splitlines(), 1)
         if CALL.search(line) and "def _jacobi_step(" not in line]
print("\n".join(calls))
sys.exit(int(len(calls) > 1))
