"""No callers of the one-integral entry point in the library.

quadrature.integrate, one entry of quadrature.integrate_gram's tree (f
against a row of ones), has no caller outside quadrature.py: gram_matrix
takes every entry from a Gauss rule, and expand and parity_integral run
integrate_gram with their own row sets and scales.  Prints the library
lines that call it, as grep -n does (path:line:text), and exits 1 if
there is one.

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
sys.exit(int(len(calls) > 0))
