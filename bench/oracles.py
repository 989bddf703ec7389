"""Oracles: independent judgements of every benchmark operation's output.

Each check returns None when the output is right and a short reason string
when it is wrong.  Verdicts use the library's public tolerance, 1e-7.

* Gram reports: every entry inside the paper's degree bound must be "ok",
  and an "ok" entry must really be ok (converged, and within tolerance of
  its closed form or of zero).  The bound is restated here from the paper's
  conditions instead of being read from the library.
* Expansions: a polynomial target in a polynomial family must be reproduced
  within 1e-7 of max|f|; any other target must have residual_rel in [0, 1].
* Member values: compared with exact rational evaluation at fixed check
  points, relative to the largest exact value there.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from fractions import Fraction

import numpy as np

TOL = 1e-7


# ------------------------------------------------------------ Gram reports


def paper_bound(basis):
    """Degree bound of the paper's orthogonality conditions.

    FiniteII(u): orthogonal for degrees below u - 1/2.  FiniteI(u, v): the
    two-branch condition, v >= 1 with degrees below u + 1/2, or u >= 1 with
    degrees below v + 1/2; -inf when neither branch applies.  Every other
    basis (GUP, GHP, the Legendre kinds, the lambda map) is unbounded.
    """
    name = type(basis).__name__
    if name == "FiniteII":
        return float(basis.u) - 0.5
    if name == "FiniteI":
        u, v = float(basis.u), float(basis.v)
        bound = -math.inf
        if v >= 1:
            bound = max(bound, u + 0.5)
        if u >= 1:
            bound = max(bound, v + 0.5)
        return bound
    return math.inf


def _inside(bound, n, m):
    # strictly inside: at a half-integer FiniteII bound the boundary norm
    # itself diverges, so the boundary degree is a legitimate cliff
    return max(n, m) < bound


def check_gram(report, basis, nmax, tol=TOL):
    """Judge a GramReport against the paper's conditions."""
    base = report.base
    want = {(n, m) for n in range(base, nmax + 1) for m in range(base, n + 1)}
    got = {(e.n, e.m): e for e in report.entries}
    if len(got) != len(report.entries) or set(got) != want:
        return "entry set incomplete or duplicated"
    bound = paper_bound(basis)
    diag = {e.n: e.quad.value for e in report.entries
            if e.n == e.m and e.status == "ok"}
    bad = Counter()
    for e in report.entries:
        if not _inside(bound, e.n, e.m):
            continue
        if e.status != "ok":
            bad[e.status] += 1
            continue
        v = e.quad.value
        if not (e.quad.converged and math.isfinite(v)):
            bad["ok-not-converged"] += 1
        elif e.n == e.m:
            if e.expected is None or abs(v - e.expected) > tol * abs(e.expected):
                bad["ok-off-norm"] += 1
        elif e.n in diag and e.m in diag:
            if abs(v) > tol * math.sqrt(abs(diag[e.n] * diag[e.m])):
                bad["ok-not-orthogonal"] += 1
    if bad:
        return "inside bound: " + ", ".join(f"{k} {v}" for k, v in sorted(bad.items()))
    return None


def check_gram_cli(code, doc, basis, nmax, norms, tol=TOL):
    """Judge `symortho gram` output (exit code and JSON) by the same rule.

    The JSON carries values and a divergence flag but no statuses, so the
    statuses are re-derived: an entry inside the bound must have a value,
    must not be flagged divergent, and must match its closed-form norm
    (diagonal, `norms[n]`) or vanish relative to the measured diagonals.
    """
    if code not in (0, 1) or doc is None:
        return f"exit code {code} without a report"
    if bool(doc.get("pass")) != (code == 0):
        return f"exit code {code} disagrees with pass={doc.get('pass')}"
    entries = {(e["n"], e["m"]): e for e in doc["entries"]}
    want = {(n, m) for n in range(nmax + 1) for m in range(n + 1)}
    if set(entries) != want or len(entries) != len(doc["entries"]):
        return "entry set incomplete or duplicated"
    bound = paper_bound(basis)
    diag = {n: entries[(n, n)]["value"] for n in range(nmax + 1)}
    bad = Counter()
    for (n, m), e in entries.items():
        if not _inside(bound, n, m):
            continue
        v = e["value"]
        if v is None or e["diverged"]:
            bad["no-value"] += 1
        elif n == m:
            if abs(v - norms[n]) > tol * abs(norms[n]):
                bad["mismatch"] += 1
        elif diag[n] is None or diag[m] is None:
            bad["no-diagonal"] += 1
        elif abs(v) > tol * math.sqrt(abs(diag[n] * diag[m])):
            bad["mismatch"] += 1
    if bad:
        return "inside bound: " + ", ".join(f"{k} {v}" for k, v in sorted(bad.items()))
    if math.isinf(bound) and code != 0:
        return "exit 1 although every entry is inside the bound and right"
    return None


# -------------------------------------------------------------- expansions


def check_expansion(series, recon, truth, polynomial, tol=TOL):
    """recon: reconstruct(series, xs); truth: the target at the same xs
    (needed only for a polynomial target)."""
    rel = series.residual_rel
    if not (math.isfinite(rel) and 0.0 <= rel <= 1.0):
        return f"residual_rel {rel!r} outside [0, 1]"
    recon = np.asarray(recon, dtype=float)
    if not np.all(np.isfinite(recon)):
        return "reconstruction not finite"
    if polynomial:
        scale = float(np.max(np.abs(truth)))
        err = float(np.max(np.abs(recon - truth)))
        if err > tol * scale:
            return f"polynomial not reproduced: error {err / scale:.1e} of max|f|"
    return None


def check_expansion_cli(code, doc, table, polynomial, tol=TOL):
    """`symortho expand`: JSON residual_rel in [0, 1]; for a polynomial
    target the reconstruction file's abs_err column within 1e-7 of max|f|."""
    if code != 0 or doc is None:
        return f"exit code {code}"
    rel = doc.get("residual_rel")
    if rel is None or not 0.0 <= rel <= 1.0:
        return f"residual_rel {rel!r} outside [0, 1]"
    if table is None or len(table) == 0:
        return "no reconstruction rows"
    if polynomial:
        scale = float(np.max(np.abs(table[:, 1])))
        err = float(np.max(table[:, 3]))
        if not err <= tol * scale:
            return f"polynomial not reproduced: error {err / scale:.1e} of max|f|"
    return None


# ----------------------------------------------------------- member values


def check_table(code, text, params, nmax, exact, tol=TOL):
    """`symortho table`: every row's monic coefficients (dense, descending)
    and C_n match the exact ones."""
    if code != 0:
        return f"exit code {code}"
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if len(rows) != nmax + 1:
        return f"{len(rows)} rows for nmax {nmax}"
    for row in rows:
        n = int(row[0])
        want = np.zeros(n + 1)
        want[::2] = [float(c) for c in exact.poly(params, n).coeffs]
        got = np.array([float(t) for t in row[1].split()])
        if got.shape != want.shape:
            return f"degree {n}: {got.size} coefficients"
        if np.max(np.abs(got - want)) > tol * np.max(np.abs(want)):
            return f"degree {n}: coefficients off"
        if n >= 1:
            c_n = exact.recurrence(params, n)
            if abs(float(row[2]) - c_n) > tol * abs(c_n):
                return f"degree {n}: C_n off"
    return None


def check_ode(code, text, params, n, points, exact, tol=TOL):
    """`symortho verify-ode`: every residual within tol of the largest exact
    term of the degree-n equation on the printed grid."""
    if code != 0:
        return f"exit code {code}"
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (points, 2):
        return f"table shape {table.shape}"
    scale = exact.ode_scale(params, n, table[:, 0])
    worst = float(np.max(np.abs(table[:, 1])))
    if not worst <= tol * scale:
        return f"residual {worst / scale:.1e} of the largest term"
    return None


def check_values(values, exact, tol=TOL):
    """values, exact: (members, points).  Each member must match its exact
    values within tol relative to its largest exact magnitude there."""
    values = np.asarray(values, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if values.shape != exact.shape:
        return f"shape {values.shape} != {exact.shape}"
    worst, where = 0.0, None
    for k, (v, e) in enumerate(zip(values, exact)):
        scale = float(np.max(np.abs(e)))
        err = float(np.max(np.abs(v - e)))
        if not math.isfinite(err):
            return f"member {k}: non-finite value"
        rel = err / scale if scale > 0 else (math.inf if err > 0 else 0.0)
        if rel > worst:
            worst, where = rel, k
    if worst > tol:
        return f"member {where}: relative error {worst:.1e}"
    return None


def exact_jacobi_all(n, alpha, beta, x):
    """[P_0 .. P_n]^(alpha, beta)(x) in exact arithmetic by the classical
    three-term recurrence (Szego, eq. 4.5.1)."""
    a, b, x = Fraction(alpha), Fraction(beta), Fraction(x)
    out = [Fraction(1)]
    if n == 0:
        return out
    out.append((a + 1) + (a + b + 2) * (x - 1) / 2)
    for k in range(1, n):
        t = 2 * k + a + b
        c1 = 2 * (k + 1) * (k + a + b + 1) * t
        c2 = (t + 1) * (t * (t + 2) * x + a * a - b * b)
        c3 = 2 * (k + a) * (k + b) * (t + 2)
        out.append((c2 * out[k] - c3 * out[k - 1]) / c1)
    return out


class ExactMembers:
    """Exact member values at fixed check points, cached per basis.

    Families use the exact-coefficient polynomials of `so.poly_from_params`
    with rational parameters and `eval_exact`.  Legendre kinds multiply a
    float prefactor into an exact polynomial factor: Jacobi by recurrence
    for U, V and Pm, the monic GUP member for G and Q.
    """

    def __init__(self, so):
        self.so = so
        self._polys = {}
        self._cache = {}

    def poly(self, params, k, monic=True):
        """Degree-k member with exact rational coefficients, cached."""
        key = (tuple(Fraction(v) for v in params), k, monic)
        if key not in self._polys:
            exact = self.so.ClassParams(*key[0])
            self._polys[key] = self.so.poly_from_params(exact, k, monic=monic)
        return self._polys[key]

    def recurrence(self, params, n):
        """C_n of the monic recurrence, exactly, rounded once."""
        exact = self.so.ClassParams(*(Fraction(v) for v in params))
        return float(self.so.recurrence_c(exact, n))

    def members(self, basis, nmax, xs):
        """(nmax + 1, len(xs)) array of exact member values, rounded once."""
        key = (repr(basis), nmax, tuple(float(x) for x in xs))
        if key not in self._cache:
            self._cache[key] = np.array([self._column(basis, nmax, float(x))
                                         for x in xs]).T
        return self._cache[key]

    def _column(self, basis, nmax, x):
        """Members 0..nmax of one basis at one point."""
        name = type(basis).__name__
        if name in ("GUP", "GHP", "FiniteI", "FiniteII"):
            return [float(self.poly(basis.params, k).eval_exact(Fraction(x)))
                    for k in range(nmax + 1)]
        one_m = 1.0 - x * x
        if name == "U":
            al = basis.alpha
            return [one_m ** (al / 2) * float(p) for p in exact_jacobi_all(nmax, al, al, x)]
        if name == "V":
            al = basis.alpha
            pref = ((1 - x) / (1 + x)) ** (al / 2)
            return [pref * float(p) for p in exact_jacobi_all(nmax, al, -al, x)]
        if name == "Pm":
            # d^m P_k / dx^m = (k+m)! / (2^m k!) P_{k-m}^(m, m)
            m = basis.m
            jac = exact_jacobi_all(nmax - m, m, m, x) if nmax >= m else []
            return [0.0] * min(m, nmax + 1) + [
                one_m ** (m / 2) * float(Fraction(math.factorial(k + m),
                                                  2 ** m * math.factorial(k)) * jac[k - m])
                for k in range(m, nmax + 1)]
        a = 1 if name == "Q" else basis.a
        b = basis.b
        af = float(a)
        xa = x ** int(af) if af.is_integer() else math.copysign(abs(x) ** af, x)
        params = (-1, 1, -2 * Fraction(a) - 2 * Fraction(b) - 2, 2 * Fraction(a))
        return [xa * one_m ** (b / 2) * float(self.poly(params, k).eval_exact(Fraction(x)))
                for k in range(nmax + 1)]

    def transformed(self, spec, nmax, xs):
        """Exact non-monic mapped members at signed_power(x, lam/2)."""
        key = ("lam", repr(spec), nmax, tuple(float(x) for x in xs))
        if key not in self._cache:
            half = float(spec.lam) / 2
            us = [math.copysign(abs(x) ** half, x) for x in xs]
            params = spec.mapped_params
            self._cache[key] = np.array(
                [[float(self.poly(params, k, monic=False).eval_exact(Fraction(u)))
                  for u in us] for k in range(nmax + 1)])
        return self._cache[key]

    def ode_scale(self, params, n, xs):
        """Largest exact term magnitude of the degree-n equation over xs."""
        key = ("ode", tuple(params), n, tuple(float(x) for x in xs))
        if key not in self._cache:
            p, q, r, s = (Fraction(v) for v in params)
            s0 = self.poly((p, q, r, s), n)
            s1 = s0.deriv()
            s2 = s1.deriv()
            lam = -n * (r + (n - 1) * p)
            odd_s = s if n % 2 else 0
            scale = 0.0
            for xf in xs:
                x = Fraction(float(xf))
                x2 = x * x
                terms = (x2 * (p * x2 + q) * s2.eval_exact(x),
                         x * (r * x2 + s) * s1.eval_exact(x),
                         (-lam * x2 + odd_s) * s0.eval_exact(x))
                scale = max(scale, *(abs(float(t)) for t in terms))
            self._cache[key] = scale
        return self._cache[key]
