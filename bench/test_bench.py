"""Tests for the benchmark's own parts: oracles, tracer and tail statistic.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import importlib
from fractions import Fraction as F

import numpy as np
import pytest

import run

so, cli, errors = run.load_library()

import oracles    # noqa: E402  (after load_library puts src/ on the path)
import tracing    # noqa: E402
import workloads  # noqa: E402


def _relabel(report, n, m, **changes):
    entries = tuple(dataclasses.replace(e, **changes) if (e.n, e.m) == (n, m) else e
                    for e in report.entries)
    return dataclasses.replace(report, entries=entries)


def test_gram_oracle_accepts_right_and_rejects_wrong_verdicts():
    rep = so.gram_matrix(so.GUP(1, 1), 4)
    assert oracles.check_gram(rep, so.GUP(1, 1), 4) is None
    assert "mismatch 1" in oracles.check_gram(_relabel(rep, 3, 1, status="mismatch"),
                                              so.GUP(1, 1), 4)
    # an entry labelled ok whose value is not zero is caught as well
    e = rep.entry(3, 1)
    wrong = dataclasses.replace(e.quad, value=1e-3)
    assert "ok-not-orthogonal" in oracles.check_gram(
        _relabel(rep, 3, 1, quad=wrong), so.GUP(1, 1), 4)
    missing = dataclasses.replace(rep, entries=rep.entries[:-1])
    assert "incomplete" in oracles.check_gram(missing, so.GUP(1, 1), 4)


def test_gram_oracle_uses_the_papers_finite_bounds():
    # FiniteII(4.5): degrees below 4 must be ok; the boundary degree may cliff
    assert oracles.paper_bound(so.FiniteII(4.5)) == 4.0
    rep = so.gram_matrix(so.FiniteII(4.5), 4)
    assert rep.entry(4, 4).status == "cliff"
    assert oracles.check_gram(rep, so.FiniteII(4.5), 4) is None
    # FiniteI(5, 2): the paper certifies degrees below 5.5; the library
    # reports every entry as a cliff and still passes, which is wrong
    assert oracles.paper_bound(so.FiniteI(5, 2)) == 5.5
    assert oracles.paper_bound(so.FiniteI(0.2, 0.5)) == -np.inf
    rep = so.gram_matrix(so.FiniteI(5, 2), 3)
    assert rep.passed
    assert "cliff 10" in oracles.check_gram(rep, so.FiniteI(5, 2), 3)


@pytest.mark.parametrize("basis", [so.GUP(F(1, 2), F(1, 2)), so.GHP(F(1, 2)), so.U(0.5),
                                   so.Pm(1), so.V(0.3), so.G(0.5, 1.0), so.Q(0.5)])
def test_member_oracle_matches_library_at_low_degree_and_rejects_perturbation(basis):
    pts = np.array([-0.999, 0.999, 0.31, -0.57])
    if type(basis).__name__ == "GHP":
        pts = 8.0 * pts
    exact = oracles.ExactMembers(so).members(basis, 8, pts)
    if type(basis).__name__ in ("GUP", "GHP"):
        got = [so.poly_from_params(basis.params, k, monic=True)(pts) for k in range(9)]
    else:
        got = [so.eval_legendre_fn(basis, k, pts) for k in range(9)]
    got = np.array(got)
    assert oracles.check_values(got, exact) is None
    got[5, 0] *= 1 + 1e-6
    assert "member 5" in oracles.check_values(got, exact)


def test_transformed_and_ode_oracles_match_the_library():
    exact = oracles.ExactMembers(so)
    spec = so.LambdaSpec(-1, 1, F(-8, 3), F(4, 3), F(2, 3))
    xs = np.array([-0.999, 0.5, 0.999])
    got = np.array([so.transformed_eval(spec, k, xs) for k in range(9)])
    assert oracles.check_values(got, exact.transformed(spec, 8, xs)) is None
    params = so.GUP(F(1, 2), F(1, 2)).params
    scale = exact.ode_scale(params, 6, xs)
    res = so.ode_residual(params, 6, so.poly_from_params(params, 6, monic=True), xs)
    assert 0 < scale and np.max(np.abs(res)) <= 1e-12 * scale


def test_table_and_ode_oracles_read_the_cli_output():
    exact = oracles.ExactMembers(so)
    params = so.GUP(F(1, 2), F(1, 2)).params
    res = workloads.run_cli(cli, ["table", "--class", "gup", "--u", "0.5", "--v", "0.5",
                                  "--nmax", "6"])
    assert oracles.check_table(res.code, res.stdout, params, 6, exact) is None
    bad = res.stdout.replace("\n3,1.0 ", "\n3,1.0001 ", 1)
    assert bad != res.stdout
    assert "degree 3" in oracles.check_table(res.code, bad, params, 6, exact)
    res = workloads.run_cli(cli, ["verify-ode", "--class", "gup", "--u", "0.5", "--v", "0.5",
                                  "--n", "6", "--points", "12"])
    assert oracles.check_ode(res.code, res.stdout, params, 6, 12, exact) is None
    assert "exit code 2" == oracles.check_ode(2, "", params, 6, 12, exact)


def test_expansion_oracle():
    series = so.expand(lambda x: x ** 3, so.GUP(1, 1), 6)
    xs = np.linspace(-0.9, 0.9, 7)
    assert oracles.check_expansion(series, so.reconstruct(series, xs), xs ** 3, True) is None
    assert "not reproduced" in oracles.check_expansion(
        series, so.reconstruct(series, xs) + 1e-6, xs ** 3, True)
    bad = dataclasses.replace(series, residual_rel=1.5)
    assert "outside" in oracles.check_expansion(bad, xs, None, False)


def _traced(ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = run.execute(ops, errors, tracer)
    finally:
        tracer.uninstall()
    return tracer, records


def _op(fn):
    return workloads.Op("t", "t", lambda: None, lambda _: fn(), lambda _: None)


def test_panels_equal_a_hand_count():
    quad = importlib.import_module("symortho.quadrature")
    # a constant converges on the first 15-point panel; an odd integrand on
    # a symmetric interval returns without sampling
    tracer, _ = _traced([_op(lambda: quad.integrate(lambda x: 0 * x + 1.0, (0.0, 1.0))),
                         _op(lambda: quad.integrate(lambda x: x, (-1.0, 1.0), parity="odd"))])
    m = tracer.layer_metrics()
    assert m["quadrature.calls"] == 2
    assert m["quadrature.panels"] == 1
    assert m["quadrature.evals"] == 15
    assert m["quadrature.converged"] == 2


def test_every_binding_is_wrapped_and_restored():
    names = {"integrate": ("sturm", "expand", "exponent_map"),
             "poly_from_params": ("sturm", "legendre", "exponent_map", "cli")}
    mods = {n: importlib.import_module(f"symortho.{n}")
            for n in ("quadrature", "core", "sturm", "expand", "exponent_map",
                      "legendre", "cli")}
    orig = {"integrate": mods["quadrature"].integrate,
            "poly_from_params": mods["core"].poly_from_params}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, where in names.items():
            for mod in where:
                assert getattr(mods[mod], name) is not orig[name], (mod, name)
    finally:
        tracer.uninstall()
    for name, where in names.items():
        for mod in where:
            assert getattr(mods[mod], name) is orig[name]


def test_self_times_sum_within_wall_and_counts_repeat():
    def ops():
        return [_op(lambda: so.gram_matrix(so.GUP(1, 1), 4)),
                _op(lambda: so.expand(np.sin, so.U(0.5), 4)),
                _op(lambda: so.lambda_weight_and_gram(
                    so.LambdaSpec(-1, 1, F(-8, 3), F(4, 3), F(2, 3)), 3)),
                _op(lambda: workloads.run_cli(cli, ["gram", "--class", "ghp",
                                                    "--u", "0.5", "--nmax", "3"]))]
    tracer, records = _traced(ops())
    spans = tracer.arrays()
    wall = sum(r["raw_seconds"] for r in records)
    # the op spans enclose every other span and sit inside the timed calls
    root = spans["name"] == tracer.names.index("op")
    assert spans["self"].min() >= -1e-9
    assert spans["self"].sum() == pytest.approx(spans["dur"][root].sum())
    assert spans["self"].sum() <= wall
    first = tracer.layer_metrics()
    second = _traced(ops())[0].layer_metrics()
    for key in ("quadrature.panels", "quadrature.evals", "sturm.entries_ok",
                "sturm.entries_bad", "sturm.entries_refused", "core.eval_points"):
        assert first[key] == second[key], key
    assert min(first["quadrature.panels"], first["sturm.entries_ok"],
               first["core.eval_points"]) > 0
    assert first["expand.calls"] == 1 and first["cli.calls"] == 1
    assert 0 < first["expand.gram_share"] < 1


def test_tail_has_ten_samples_beyond_it():
    value, p, beyond = run.tail(list(range(1, 101)))
    assert (value, p, beyond) == (90, 90, 10)
    value, p, beyond = run.tail(list(range(77)))
    assert p == 87 and beyond == 10
