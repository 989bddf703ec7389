"""No type ladders over families and kinds.

Each family and Legendre kind owns its formulas as methods, so no library
line may test isinstance against one of them.  Prints each such line as
grep -n does (path:line:text) and exits 1 if there is one.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/no_type_ladders.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
LADDER = re.compile(r"isinstance\([^)]*\b(GUP|GHP|FiniteI|FiniteII|U|Pm|V|G|Q)\b")

found = [f"{path.relative_to(ROOT)}:{k}:{line}"
         for path in sorted((ROOT / "src" / "symortho").glob("*.py"))
         for k, line in enumerate(path.read_text().splitlines(), 1) if LADDER.search(line)]
if found:
    print("\n".join(found))
sys.exit(int(bool(found)))
