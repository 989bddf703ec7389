"""One place says which exponents diverge.

|x - c|^e is not integrable for e <= -1 at a finite point and for e >= -1
in a tail: quadrature.divergent is the only place that rule is written.
families.py, sturm.py, expand.py, gauss.py and the rest of quadrature.py
read it, and compare no exponent with -1 themselves.  Prints each such
comparison, as grep -n does (path:line:text), and exits 1 if there is one.

Run from the repository root:
    PYTHONPATH=src python -W error::RuntimeWarning tools/ci/one_divergence_rule.py
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
COMPARE = re.compile(r"[<>]=?\s*-1\b")


def rule_lines(text):
    """The line numbers of quadrature.divergent, the rule itself."""
    return {k for node in ast.parse(text).body
            if isinstance(node, ast.FunctionDef) and node.name == "divergent"
            for k in range(node.lineno, node.end_lineno + 1)}


found = []
for name in ("families.py", "sturm.py", "expand.py", "gauss.py", "quadrature.py"):
    path = ROOT / "src" / "symortho" / name
    text = path.read_text()
    skip = rule_lines(text) if name == "quadrature.py" else set()
    found += [f"{path.relative_to(ROOT)}:{k}:{line}"
              for k, line in enumerate(text.splitlines(), 1)
              if k not in skip and COMPARE.search(line)]
print("\n".join(found))
sys.exit(int(len(found) > 0))
