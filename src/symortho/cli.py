"""Command-line front end: evaluation, tables, verification, expansion.

Output contracts: JSON is one document per invocation on stdout; CSV uses
comma separators, a header row and LF line endings; floats are emitted in
shortest round-trip form.  Identical invocations produce byte-identical
output.  Exit status 2 flags bad arguments, 1 a computation failure (with
a {"error": ..., "detail": ...} line on stderr); gram exits 0 iff the
report passes.
"""

import argparse
import ast
import csv
import functools
import json
import math
import operator
import re
import sys
from dataclasses import fields

import numpy as np

from .core import (ClassParams, eigenvalue, ode_residual, poly_from_params,
                   recurrence_c)
from .errors import ConstraintViolation, SymOrthoError
from .expand import barycentric_interpolant, reconstruct
from .expand import expand as expand_fn
from .families import _FAMILIES, norm_squared, weight_at
from .sturm import gram_matrix, support_theta

_FAMILY_CTOR = {fam.label: fam for fam in _FAMILIES}

# the grammar of --expr: numbers, x, these constants and functions, and
# unary and binary arithmetic
_EXPR_NAMES = {name: getattr(np, name) for name in
               ("sin", "cos", "tan", "exp", "log", "sqrt", "abs",
                "sinh", "cosh", "tanh", "arctan", "sign")}
_EXPR_CONSTANTS = {"pi": math.pi, "e": math.e}
_EXPR_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_EXPR_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                ast.Div: operator.truediv, ast.Pow: operator.pow}


def _error_code(exc):
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()


def _fail(exc):
    sys.stderr.write(json.dumps(
        {"error": _error_code(exc), "detail": str(exc)}) + "\n")


def _jsonable(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _add_class_flags(sub, flag="--class"):
    sub.add_argument(flag, dest="cls", required=True, choices=list(_FAMILY_CTOR))
    for name in dict.fromkeys(f.name for fam in _FAMILIES for f in fields(fam)):
        sub.add_argument(f"--{name}", type=float)


# the most grid points --points and --steps may ask for
_MAX_COUNT = 1_000_000
# the highest degree --n and --nmax may ask for.  gram keeps about 15
# arrays of (nmax + 1)^2 entries and writes one JSON object an entry: 26 MB
# at 256 for gup(1, 1), four times that at each doubling.  ghp's monic
# members overflow from about 200 (ROADMAP item 4)
_MAX_DEGREE = 256


def _check_args(args):
    """Refuse a count outside 1.._MAX_COUNT, a degree outside
    0.._MAX_DEGREE, a point that is not finite and a tolerance that is not
    finite and positive."""
    for name in ("points", "steps"):
        count = getattr(args, name, 1)
        if not 1 <= count <= _MAX_COUNT:
            raise ConstraintViolation(
                f"--{name} must be between 1 and {_MAX_COUNT}, got {count}")
    for name in ("n", "nmax"):
        degree = getattr(args, name, 0)
        if not 0 <= degree <= _MAX_DEGREE:
            raise ConstraintViolation(
                f"--{name} must be between 0 and {_MAX_DEGREE}, got {degree}")
    for dest, flag in (("lo", "from"), ("hi", "to"), ("x", "x")):
        value = getattr(args, dest, 0.0)
        if not math.isfinite(value):
            raise ConstraintViolation(f"--{flag} must be finite, got {value}")
    if not 0 < getattr(args, "tol", 1) < math.inf:
        raise ConstraintViolation(f"--tol must be finite and positive, got {args.tol}")


def _class_of(args):
    """(family, ClassParams) from parsed flags, a custom tuple's as given."""
    wanted = [f.name for f in fields(_FAMILY_CTOR[args.cls])]
    got = {name: getattr(args, name) for name in wanted}
    if None in got.values():
        raise ConstraintViolation(f"class {args.cls} needs --" + " --".join(wanted))
    for name, value in got.items():
        if not math.isfinite(value):
            raise ConstraintViolation(f"--{name} must be finite, got {value}")
    fam = _FAMILY_CTOR[args.cls](**got)
    return fam, ClassParams(**got) if args.cls == "custom" else fam.params


def _writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _grid(theta, count):
    span = min(theta, 3.0)
    step = 2 * span / count
    return -span + (np.arange(count) + 0.5) * step


# ------------------------------------------------------------- handlers


def _cmd_eval(args):
    _, params = _class_of(args)
    poly = poly_from_params(params, args.n, monic=True)
    sys.stdout.write(repr(poly(args.x)) + "\n")
    return 0


def _cmd_coeffs(args):
    _, params = _class_of(args)
    poly = poly_from_params(params, args.n, monic=True)
    doc = {"n": args.n, "monic": True,
           "coeffs": [{"power": args.n - 2 * k, "value": float(c)}
                      for k, c in enumerate(poly.coeffs)]}
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


def _cmd_gram(args):
    fam, _ = _class_of(args)
    rep = gram_matrix(fam, args.nmax, args.tol)
    col = rep.entries.column
    doc = {"pass": bool(rep.passed),
           "entries": [{"n": n, "m": m, "value": _jsonable(v), "err": _jsonable(err),
                        "diverged": bool(div)}
                       for n, m, v, err, div in zip(col("n"), col("m"), col("value"),
                                                    col("abs_error_estimate"), col("diverged"))]}
    if args.stats:
        doc["stats"] = {"panels": rep.panels, "evals": rep.evals, "verified": rep.verified,
                        "refused": rep.refused}
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0 if rep.passed else 1


def _cmd_verify_ode(args):
    _, params = _class_of(args)
    poly = poly_from_params(params, args.n, monic=True)
    xs = _grid(support_theta(params), args.points)
    res = np.asarray(ode_residual(params, args.n, poly, xs), dtype=float)
    w = _writer(sys.stdout)
    w.writerow(["x", "residual"])
    for x, r in zip(xs, res):
        w.writerow([repr(float(x)), repr(float(r))])
    sys.stderr.write(repr(float(np.max(np.abs(res)))) + "\n")
    return 0


def _cmd_weights(args):
    fam, _ = _class_of(args)
    xs = np.linspace(args.lo, args.hi, args.steps)
    # the whole grid first, so that a failure writes no row
    ws = weight_at(fam, xs)
    w = _writer(sys.stdout)
    w.writerow(["x", "w"])
    for x, val in zip(xs, ws):
        w.writerow([repr(float(x)), repr(float(val))])
    return 0


def _cmd_expand(args):
    fam, _ = _class_of(args)
    if args.expr is not None:
        fn = _expression_fn(args.expr)
        theta = min(fam.theta, 3.0)
        grid = np.linspace(-theta * (1 - 1e-9), theta * (1 - 1e-9), 101)
    else:
        xs, ys = _read_pairs(args.input)
        fn = barycentric_interpolant(xs, ys)
        grid = np.linspace(xs.min(), xs.max(), 101)
    ser = expand_fn(fn, fam, args.nmax, args.tol)
    doc = {"basis": {"class": args.cls,
                     **{f.name: getattr(args, f.name) for f in fields(fam)}},
           "nmax": ser.nmax,
           "coefficients": [_jsonable(c) for c in ser.coefficients],
           "residual": _jsonable(ser.residual),
           "residual_rel": _jsonable(ser.residual_rel)}
    if args.stats:     # expand refuses a basis unless its Gram check verifies every entry
        doc["stats"] = {"panels": ser.panels, "evals": ser.evals,
                        "verified": (args.nmax + 1) * (args.nmax + 2) // 2, "refused": 0}
    sys.stdout.write(json.dumps(doc) + "\n")
    recon = reconstruct(ser, grid)
    with open(args.output, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["x", "f", "fN", "abs_err"])
        # an x-free expression gives one number for the whole grid
        target = np.broadcast_to(np.asarray(fn(grid), dtype=float), grid.shape)
        for x, fx, rx in zip(grid, target, recon):
            w.writerow([repr(float(x)), repr(float(fx)), repr(float(rx)),
                        repr(abs(float(fx) - float(rx)))])
    return 0


def _cmd_table(args):
    fam, params = _class_of(args)
    w = _writer(sys.stdout)
    w.writerow(["n", "monic_coeffs", "c_n", "lambda_n", "norm2"])
    for n in range(args.nmax + 1):
        try:
            dense = poly_from_params(params, n, monic=True).as_dense()[::-1]
            coeffs = " ".join(repr(float(c)) for c in dense)
        except SymOrthoError:
            coeffs = ""
        try:
            cn = repr(float(recurrence_c(params, n))) if n >= 1 else ""
        except SymOrthoError:
            cn = ""
        lam = repr(float(eigenvalue(params, n)) + 0.0)   # drop negative zero
        try:
            norm = repr(float(norm_squared(fam, n).value))
        except SymOrthoError:
            norm = ""
        w.writerow([n, coeffs, cn, lam, norm])
    return 0


def _expression_fn(text):
    """The function of x that --expr denotes.  The expression is parsed,
    never run: anything outside the grammar of _EXPR_* is refused."""
    try:
        fn = _expr_node(ast.parse(text, mode="eval").body)
        np.asarray(fn(np.array([0.1, 0.2])), dtype=float)
    except Exception as exc:
        raise ConstraintViolation(f"cannot evaluate expression {text!r}: {exc}")
    return fn


def _expr_node(node):
    # numbers are floats, so no constant power can grow without bound
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = float(node.value)
        return lambda x: value
    if isinstance(node, ast.Name) and node.id == "x":
        return lambda x: x
    if isinstance(node, ast.Name) and node.id in _EXPR_CONSTANTS:
        value = _EXPR_CONSTANTS[node.id]
        return lambda x: value
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNARY:
        op, arg = _EXPR_UNARY[type(node.op)], _expr_node(node.operand)
        return lambda x: op(arg(x))
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINARY:
        op = _EXPR_BINARY[type(node.op)]
        left, right = _expr_node(node.left), _expr_node(node.right)
        return lambda x: op(left(x), right(x))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_NAMES and len(node.args) == 1
            and not node.keywords):
        fn, arg = _EXPR_NAMES[node.func.id], _expr_node(node.args[0])
        return lambda x: fn(arg(x))
    raise ConstraintViolation(f"{type(node).__name__} is not allowed in an expression")


def _read_pairs(path):
    xs, ys = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                x, y = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                continue      # header or junk row
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ConstraintViolation(f"x,y row {row[0]},{row[1]} in {path} is not finite")
            xs.append(x)
            ys.append(y)
    if not xs:
        raise ConstraintViolation(f"no numeric x,y rows found in {path}")
    return np.array(xs), np.array(ys)


# ------------------------------------------------------------ dispatch

_STATS_HELP = "add the quadrature's panels and evals and the Gram entries verified and refused"


@functools.cache
def _build_parser():
    """The parser, built on the first run and reused by every later one: a
    parse keeps its state in the namespace it returns."""
    ap = argparse.ArgumentParser(
        prog="symortho",
        description="Symmetric orthogonal polynomial classes: evaluate, "
                    "verify, tabulate and expand.")
    subs = ap.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("eval", help="evaluate a monic class member")
    _add_class_flags(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.set_defaults(handler=_cmd_eval)

    sp = subs.add_parser("coeffs", help="monic coefficients as JSON")
    _add_class_flags(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(handler=_cmd_coeffs)

    sp = subs.add_parser("gram", help="orthogonality report as JSON")
    _add_class_flags(sp)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-7)
    sp.add_argument("--stats", action="store_true", help=_STATS_HELP)
    sp.set_defaults(handler=_cmd_gram)

    sp = subs.add_parser("verify-ode", help="pointwise equation residuals as CSV")
    _add_class_flags(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--points", type=int, default=20)
    sp.set_defaults(handler=_cmd_verify_ode)

    sp = subs.add_parser("weights", help="weight samples as CSV")
    _add_class_flags(sp)
    sp.add_argument("--from", dest="lo", type=float, required=True)
    sp.add_argument("--to", dest="hi", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.set_defaults(handler=_cmd_weights)

    sp = subs.add_parser("expand", help="project a target onto a basis")
    _add_class_flags(sp, flag="--basis")
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-7)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="CSV file of x,f(x) samples")
    group.add_argument("--expr", help="expression in x, e.g. 'x**5'")
    sp.add_argument("--output", required=True, help="reconstruction CSV path")
    sp.add_argument("--stats", action="store_true", help=_STATS_HELP)
    sp.set_defaults(handler=_cmd_expand)

    sp = subs.add_parser("table", help="coefficients, recurrence and norms as CSV")
    _add_class_flags(sp)
    sp.add_argument("--nmax", type=int, required=True)
    sp.set_defaults(handler=_cmd_table)

    return ap


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_args(args)
        return args.handler(args)
    except ConstraintViolation as exc:
        _fail(exc)
        return 2
    except SymOrthoError as exc:
        _fail(exc)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
