"""Span tracing for the traced run: wrappers around each layer's public calls.

Every wrapped call inside an operation records one span: name, start, end,
parent span, operation id and an integer payload (points evaluated, or the
outcome of an `integrate` call).  Spans are kept in flat arrays and written
out once, at the end.  A span's self time is its duration minus the time its
child spans cover; spans nest strictly (one thread), so that is the
duration minus the summed durations of its children.

Each original function is replaced in every `symortho` module that binds it
(`integrate` is imported by name into sturm, expand and exponent_map,
`poly_from_params` into sturm, legendre, exponent_map and cli), so no
binding escapes the trace.  Modules are reached with importlib because the
package re-exports functions under module names (`symortho.expand`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

_OUTCOME = {"converged": 0, "diverged": 1, "inconclusive": 2}
_REFUSED = ("cliff", "degenerate")
_BAD = ("mismatch", "divergent", "inconclusive")


def _points(x):
    return int(np.size(x))


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.payload = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.op_id = -1          # spans are recorded only inside an operation
        self._stack = []
        self._in_integrate = False
        self._undo = []

    # ------------------------------------------------------------ spans

    def begin(self, name, payload=0):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.payload.append(payload)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, payload=None, post=None, on_error=None):
        """Wrap fn so each call inside an operation records a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            idx = tracer.begin(name, payload(args) if payload else 0)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                tracer.finish(idx)
            return post(out) if post else out
        return wrapper

    # ------------------------------------------------------- installing

    def _replace_everywhere(self, orig, new):
        for mod in [m for k, m in sys.modules.items()
                    if (k == "symortho" or k.startswith("symortho.")) and m]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def _replace_method(self, cls, attr, new):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self):
        """Wrap every layer's public calls; undo with uninstall()."""
        mod = {n: importlib.import_module(f"symortho.{n}") for n in
               ("core", "families", "legendre", "exponent_map", "quadrature",
                "sturm", "expand", "cli")}
        core, fam, leg = mod["core"], mod["families"], mod["legendre"]
        em, quad, sturm = mod["exponent_map"], mod["quadrature"], mod["sturm"]
        exp_mod, cli = mod["expand"], mod["cli"]

        def wrap(m, attr, name, **kw):
            orig = getattr(m, attr)
            self._replace_everywhere(orig, self.span(name, orig, **kw))

        # core: construction, evaluation and the recurrence coefficient
        wrap(core, "poly_from_params", "core.build")
        wrap(core, "recurrence_c", "core.recurrence")
        self._replace_method(core.SymmetricPoly, "__call__", self.span(
            "core.eval", core.SymmetricPoly.__call__, payload=lambda a: _points(a[1])))

        # families: weights and closed-form norms
        for cls in (fam.GUP, fam.GHP, fam.FiniteI, fam.FiniteII):
            self._replace_method(cls, "weight_log", self.span(
                "families.weight", cls.weight_log, payload=lambda a: _points(a[1])))
        wrap(fam, "weight_at", "families.weight", payload=lambda a: _points(a[1]))

        def refused(exc):
            self.counts["families.refusals"] += 1
        wrap(fam, "norm_squared", "families.norm", on_error=refused)

        # legendre: members (the closures member_fn returns) and norms
        member = functools.partial(self.span, "legendre.member",
                                   payload=lambda a: _points(a[0]))
        wrap(leg, "member_fn", "legendre.build", post=member)
        wrap(leg, "legendre_norm", "legendre.norm")

        # exponent_map: the lambda map and its own Gram
        wrap(em, "signed_power", "exponent_map.eval", payload=lambda a: _points(a[0]))
        wrap(em, "transformed_eval", "exponent_map.eval",
             payload=lambda a: _points(a[2]))
        wrap(em, "lambda_weight_and_gram", "exponent_map.gram")

        # quadrature: integrate, with the integrand counted per call
        orig_integrate = quad.integrate

        @functools.wraps(orig_integrate)
        def integrate(f, interval, **kw):
            if self.op_id < 0 or self._in_integrate:
                return orig_integrate(f, interval, **kw)
            integrand = self.span("quadrature.integrand", f,
                                  payload=lambda a: _points(a[0]))
            self._in_integrate = True
            idx = self.begin("quadrature.integrate")
            outcome = "inconclusive"
            try:
                res = orig_integrate(integrand, interval, **kw)
                outcome = ("converged" if res.converged else
                           "diverged" if res.diverged else "inconclusive")
                return res
            finally:
                self.payload[idx] = _OUTCOME[outcome]
                self.finish(idx)
                self._in_integrate = False
        self._replace_everywhere(orig_integrate, integrate)

        # sturm: Gram assembly and verdicts
        wrap(sturm, "gram_matrix", "sturm.gram", post=self._count_entries)

        # expand: projection, its target, and reconstruct
        target = functools.partial(self.span, "expand.target",
                                   payload=lambda a: _points(a[0]))
        orig_expand = exp_mod.expand

        def expand(f, *args, **kwargs):
            return orig_expand(target(f) if callable(f) else f, *args, **kwargs)
        self._replace_everywhere(orig_expand, self.span(
            "expand.expand", functools.wraps(orig_expand)(expand)))
        wrap(exp_mod, "barycentric_interpolant", "expand.interpolant", post=target)
        wrap(exp_mod, "reconstruct", "expand.reconstruct",
             payload=lambda a: _points(a[1]))

        # cli: the whole command, argument parsing and output included
        wrap(cli, "run", "cli.run")

    def _count_entries(self, report):
        statuses = Counter(e.status for e in report.entries)
        self.counts["sturm.entries"] += len(report.entries)
        self.counts["sturm.entries_ok"] += statuses["ok"]
        self.counts["sturm.entries_refused"] += sum(statuses[s] for s in _REFUSED)
        self.counts["sturm.entries_bad"] += sum(statuses[s] for s in _BAD)
        return report

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # ----------------------------------------------------------- output

    def arrays(self):
        """The spans as numpy arrays, with durations and self times."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return {"name": name, "parent": parent,
                "op": np.array(self.op, dtype=np.int32),
                "payload": np.array(self.payload, dtype=np.int64),
                "start": start, "end": end, "dur": dur, "self": dur - child}

    def save(self, path):
        arr = self.arrays()
        np.savez(path, names=np.array(self.names), **{
            k: arr[k] for k in ("name", "parent", "op", "payload", "start", "end")})

    def layer_metrics(self):
        """Per-layer counts and times from the spans and counters."""
        a = self.arrays()
        ids = {n: i for i, n in enumerate(self.names)}
        pname = np.where(a["parent"] >= 0, a["name"][a["parent"]], -1)

        def sel(name, outermost=False):
            if name not in ids:
                return np.zeros(len(a["dur"]), dtype=bool)
            mask = a["name"] == ids[name]
            return mask & (pname != ids[name]) if outermost else mask

        def tot(key, mask):
            return float(a[key][mask].sum())

        integ = sel("quadrature.integrate")
        integrand = sel("quadrature.integrand")
        outcome = a["payload"][integ]
        in_parent = a["payload"][np.where(integrand, a["parent"], 0)]
        evals = int(a["payload"][integrand].sum())
        evals_inconclusive = int(a["payload"][integrand & (in_parent == 2)].sum())
        gram = sel("sturm.gram")
        expand = sel("expand.expand")
        gram_in_expand = gram & (pname == ids.get("expand.expand", -2))
        weight = sel("families.weight", outermost=True)
        em_eval = sel("exponent_map.eval", outermost=True)
        c = self.counts
        m = {
            "quadrature.calls": int(integ.sum()),
            "quadrature.panels": int((integrand & (a["payload"] == 15)).sum()),
            "quadrature.evals": evals,
            "quadrature.s": tot("dur", integ),
            "quadrature.self_s": tot("self", integ),
            "quadrature.integrand_s": tot("dur", integrand),
            "quadrature.converged": int((outcome == 0).sum()),
            "quadrature.diverged": int((outcome == 1).sum()),
            "quadrature.inconclusive": int((outcome == 2).sum()),
            "quadrature.evals_inconclusive": evals_inconclusive,
            "quadrature.useful_frac": 1.0 - evals_inconclusive / evals if evals else 1.0,
            "sturm.gram_calls": int(gram.sum()),
            "sturm.gram_s": tot("dur", gram),
            "sturm.gram_self_s": tot("self", gram),
            "sturm.entries": c["sturm.entries"],
            "sturm.entries_ok": c["sturm.entries_ok"],
            "sturm.entries_refused": c["sturm.entries_refused"],
            "sturm.entries_bad": c["sturm.entries_bad"],
            "core.build_calls": int(sel("core.build").sum()),
            "core.build_s": tot("dur", sel("core.build")),
            "core.eval_calls": int(sel("core.eval").sum()),
            "core.eval_points": int(a["payload"][sel("core.eval")].sum()),
            "core.eval_s": tot("dur", sel("core.eval")),
            "core.recurrence_calls": int(sel("core.recurrence").sum()),
            "families.weight_points": int(a["payload"][weight].sum()),
            "families.weight_s": tot("dur", weight),
            "families.norm_calls": int(sel("families.norm").sum()),
            "families.norm_s": tot("dur", sel("families.norm")),
            "families.refusals": c["families.refusals"],
            "legendre.member_points": int(a["payload"][sel("legendre.member")].sum()),
            "legendre.member_s": tot("dur", sel("legendre.member")),
            "legendre.norm_s": tot("dur", sel("legendre.norm")),
            "exponent_map.gram_s": tot("dur", sel("exponent_map.gram")),
            "exponent_map.eval_points": int(a["payload"][em_eval].sum()),
            "exponent_map.eval_s": tot("dur", em_eval),
            "expand.calls": int(expand.sum()),
            "expand.s": tot("dur", expand),
            "expand.self_s": tot("self", expand),
            "expand.gram_share": (tot("dur", gram_in_expand) / tot("dur", expand)
                                  if expand.any() else 0.0),
            "expand.target_evals": int(a["payload"][sel("expand.target")].sum()),
            "expand.reconstruct_points": int(a["payload"][sel("expand.reconstruct")].sum()),
            "expand.reconstruct_s": tot("dur", sel("expand.reconstruct")),
            "cli.calls": int(sel("cli.run").sum()),
            "cli.s": tot("dur", sel("cli.run")),
            "cli.self_s": tot("self", sel("cli.run")),
            "cli.bytes_out": c["cli.bytes_out"],
        }
        return m
