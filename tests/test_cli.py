import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symortho
from symortho.cli import run
from symortho.families import GHP, GUP, FiniteI, FiniteII, weight_at
from symortho.sturm import gram_matrix


def invoke(capsys, *argv):
    status = run(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


# ------------------------------------------------------------- examples


def test_eval_example(capsys):
    status, out, _ = invoke(capsys, "eval", "--class", "gup", "--u", "0",
                            "--v", "0", "--n", "1", "--x", "0.25")
    assert status == 0
    assert out == "0.25\n"


def test_coeffs_example(capsys):
    status, out, _ = invoke(capsys, "coeffs", "--class", "ghp", "--u", "0",
                            "--n", "2")
    assert status == 0
    doc = json.loads(out)
    assert doc == {"n": 2, "monic": True,
                   "coeffs": [{"power": 2, "value": 1.0},
                              {"power": 0, "value": -0.5}]}


def test_gram_example_passes(capsys):
    status, out, _ = invoke(capsys, "gram", "--class", "finite2", "--u", "4.5",
                            "--nmax", "4")
    assert status == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["entries"]) == 15
    div = {(e["n"], e["m"]): e["diverged"] for e in doc["entries"]}
    assert div[(4, 4)] is True
    assert all(not d for k, d in div.items() if k != (4, 4))


def test_gram_certified_cliff_prints_null_value_and_error(capsys):
    # (4, 4) is certified divergent from its measured tail exponent: no
    # integral is taken, so there is no value or error to print
    status, out, _ = invoke(capsys, "gram", "--class", "finite2", "--u", "4.5",
                            "--nmax", "4")
    assert status == 0
    cliff = [e for e in json.loads(out)["entries"] if (e["n"], e["m"]) == (4, 4)]
    assert cliff == [{"n": 4, "m": 4, "value": None, "err": None, "diverged": True}]


@pytest.mark.parametrize("argv", [["finite2", "--u", "4.5", "--nmax", "4"],
                                  ["gup", "--u", "1", "--v", "1.5", "--nmax", "6"],
                                  ["finite1", "--u", "5", "--v", "2", "--nmax", "5"]],
                         ids=["finite2", "gup", "finite1"])
def test_gram_json_is_read_from_the_report_columns(capsys, entry_objects, argv):
    # the JSON builds no entry objects, and is the JSON of the entries
    status, out, _ = invoke(capsys, "gram", "--class", *argv)
    assert entry_objects == []
    fam = {"finite2": FiniteII(4.5), "gup": GUP(1, 1.5), "finite1": FiniteI(5, 2)}[argv[0]]
    rep = gram_matrix(fam, int(argv[-1]))

    def num(x):
        return x if math.isfinite(x) else None
    want = {"pass": rep.passed,
            "entries": [{"n": e.n, "m": e.m, "value": num(e.quad.value),
                         "err": num(e.quad.abs_error_estimate), "diverged": e.quad.diverged}
                        for e in rep.entries]}
    assert out == json.dumps(want) + "\n"
    assert status == (0 if rep.passed else 1)


def test_gram_finite1_with_a_log_divergent_origin_reports(capsys):
    # the origin exponent of odd-even products is exactly -1 for u = 1
    status, out, err = invoke(capsys, "gram", "--class", "finite1", "--u", "1",
                              "--v", "2", "--nmax", "4")
    assert status in (0, 1)
    assert len(json.loads(out)["entries"]) == 15
    assert "Traceback" not in err


def test_eval_overflow_prints_inf(capsys):
    status, out, err = invoke(capsys, "eval", "--class", "gup", "--u", "0.5",
                              "--v", "0.5", "--n", "64", "--x", "1e10")
    assert (status, out, err) == (0, "inf\n", "")


def test_gram_exit_one_when_failing(capsys):
    status, out, _ = invoke(capsys, "gram", "--class", "ghp", "--u", "0",
                            "--nmax", "2", "--tol", "1e-16")
    assert status == 1
    assert json.loads(out)["pass"] is False


# ----------------------------------------------------------- round trip


def test_coeffs_eval_round_trip(capsys):
    args = ["--class", "gup", "--u", "0.7", "--v", "1.3", "--n", "6"]
    _, out, _ = invoke(capsys, "coeffs", *args)
    terms = json.loads(out)["coeffs"]
    rng = random.Random(11)
    for _ in range(20):
        x = rng.uniform(-1, 1)
        direct = sum(t["value"] * x ** t["power"] for t in terms)
        status, line, _ = invoke(capsys, "eval", *args, "--x", repr(x))
        assert status == 0
        assert float(line) == pytest.approx(direct, abs=1e-12)


# -------------------------------------------------------------- csv out


def test_verify_ode_output(capsys):
    status, out, err = invoke(capsys, "verify-ode", "--class", "gup",
                              "--u", "1", "--v", "1.5", "--n", "5",
                              "--points", "7")
    assert status == 0
    lines = out.split("\n")
    assert lines[0] == "x,residual"
    assert len(lines) == 9 and lines[-1] == ""
    assert float(err) <= 1e-10
    for row in lines[1:-1]:
        x, r = row.split(",")
        assert abs(float(r)) <= 1e-10
        assert abs(float(x)) < 1.0


def test_weights_output(capsys):
    status, out, _ = invoke(capsys, "weights", "--class", "ghp", "--u", "0.5",
                            "--from", "-2", "--to", "2", "--steps", "5")
    assert status == 0
    rows = [r.split(",") for r in out.strip().split("\n")]
    assert rows[0] == ["x", "w"]
    assert len(rows) == 6
    for x_s, w_s in rows[1:]:
        assert float(w_s) == pytest.approx(weight_at(GHP(0.5), float(x_s)), abs=1e-15)


def test_weights_custom_class_uses_generic_form(capsys):
    base = ["--from", "0.5", "--to", "1.5", "--steps", "3"]
    _, out_c, _ = invoke(capsys, "weights", "--class", "custom", "--p", "0",
                         "--q", "1", "--r", "-2", "--s", "1", *base)
    _, out_f, _ = invoke(capsys, "weights", "--class", "ghp", "--u", "0.5", *base)
    assert out_c == out_f


def test_table_output(capsys):
    status, out, _ = invoke(capsys, "table", "--class", "ghp", "--u", "0",
                            "--nmax", "3")
    assert status == 0
    rows = out.strip().split("\n")
    assert rows[0] == "n,monic_coeffs,c_n,lambda_n,norm2"
    assert len(rows) == 5
    n2 = rows[3].split(",")
    assert n2[0] == "2"
    assert n2[1] == "1.0 0.0 -0.5"
    assert float(n2[2]) == pytest.approx(-1.0)      # C_n = -n/2 here
    assert float(n2[3]) == pytest.approx(4.0)
    assert float(n2[4]) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)


def test_table_blank_cells_past_finite_degeneracy(capsys):
    status, out, _ = invoke(capsys, "table", "--class", "finite2", "--u", "4.5",
                            "--nmax", "5")
    assert status == 0
    rows = [r.split(",") for r in out.strip().split("\n")]
    n4, n5 = rows[5], rows[6]
    assert n4[1] != "" and n4[2] == "" and n4[4] == ""
    assert n5[1] == "" and n5[2] == ""
    assert rows[1][3] == "0.0"          # no negative zero


# --------------------------------------------------------------- expand


def test_expand_expression(capsys, tmp_path):
    dest = tmp_path / "recon.csv"
    status, out, _ = invoke(capsys, "expand", "--basis", "gup", "--u", "1",
                            "--v", "1", "--nmax", "8", "--expr", "x**5",
                            "--output", str(dest))
    assert status == 0
    doc = json.loads(out)
    assert doc["basis"] == {"class": "gup", "u": 1.0, "v": 1.0}
    assert len(doc["coefficients"]) == 9
    assert doc["coefficients"][5] == pytest.approx(1.0, abs=1e-9)
    assert doc["residual"] <= 1e-9
    lines = dest.read_text().split("\n")
    assert lines[0] == "x,f,fN,abs_err"
    assert len(lines) == 103 and lines[-1] == ""
    worst = max(float(r.split(",")[3]) for r in lines[1:-1])
    assert worst <= 1e-8


def test_expand_csv_input(capsys, tmp_path):
    src = tmp_path / "samples.csv"
    xs = np.cos(np.pi * (np.arange(10) + 0.5) / 10)
    rows = ["x,f"] + [f"{float(x)!r},{float(x) ** 3!r}" for x in xs]
    src.write_text("\n".join(rows) + "\n")
    dest = tmp_path / "recon.csv"
    status, out, _ = invoke(capsys, "expand", "--basis", "gup", "--u", "0.5",
                            "--v", "0.5", "--nmax", "5",
                            "--input", str(src), "--output", str(dest))
    assert status == 0
    doc = json.loads(out)
    assert doc["coefficients"][3] == pytest.approx(1.0, rel=1e-8)
    assert doc["residual"] <= 1e-8


@pytest.mark.parametrize("expr, want", [("1", 1.0), ("pi", math.pi), ("2*3", 6.0),
                                        ("sin(1)", math.sin(1.0))])
def test_expand_expression_free_of_x(capsys, tmp_path, expr, want):
    # the f column holds the constant; it raised after the JSON was written
    dest = tmp_path / "recon.csv"
    status, out, _ = invoke(capsys, "expand", "--basis", "gup", "--u", "1",
                            "--v", "1", "--nmax", "4", "--expr", expr,
                            "--output", str(dest))
    assert status == 0
    assert json.loads(out)["coefficients"][0] == pytest.approx(want, rel=1e-12)
    rows = dest.read_text().split("\n")[1:-1]
    assert len(rows) == 101
    assert {float(r.split(",")[1]) for r in rows} == {want}


def test_expand_input_skips_headers_junk_and_short_rows(capsys, tmp_path):
    # untrusted samples: a header, a junk row, a one-field row and a blank
    # line are skipped, and the numeric rows give the clean file's series
    xs = np.cos(np.pi * (np.arange(10) + 0.5) / 10)
    rows = [f"{float(x)!r},{float(x) ** 3!r}" for x in xs]
    clean, noisy = tmp_path / "clean.csv", tmp_path / "noisy.csv"
    clean.write_text("\n".join(rows) + "\n")
    noisy.write_text("\n".join(["x,f", "sample,here"] + rows[:5] + ["0.5", ""] + rows[5:]) + "\n")
    docs = []
    for src in (clean, noisy):
        status, out, _ = invoke(capsys, "expand", "--basis", "gup", "--u", "0.5",
                                "--v", "0.5", "--nmax", "5", "--input", str(src),
                                "--output", str(tmp_path / "recon.csv"))
        assert status == 0
        docs.append(json.loads(out))
    assert docs[0] == docs[1]


def test_expand_input_with_no_numeric_row_exits_two(capsys, tmp_path):
    src = tmp_path / "samples.csv"
    src.write_text("x,f\nsample,here\n0.5\n\n")
    dest = tmp_path / "recon.csv"
    status, out, err = invoke(capsys, "expand", "--basis", "gup", "--u", "0.5",
                              "--v", "0.5", "--nmax", "3",
                              "--input", str(src), "--output", str(dest))
    assert status == 2 and out == ""
    assert json.loads(err)["error"] == "constraint-violation"
    assert not dest.exists()


@pytest.mark.parametrize("row", ["0.5,nan", "inf,2.0"], ids=["nan-y", "inf-x"])
def test_expand_input_with_a_non_finite_row_exits_two(capsys, tmp_path, row):
    src = tmp_path / "samples.csv"
    src.write_text(f"x,f\n-0.5,1.0\n{row}\n0.75,2.0\n")
    dest = tmp_path / "recon.csv"
    status, out, err = invoke(capsys, "expand", "--basis", "gup", "--u", "0.5",
                              "--v", "0.5", "--nmax", "3",
                              "--input", str(src), "--output", str(dest))
    assert status == 2 and out == ""
    assert json.loads(err)["error"] == "constraint-violation"
    assert not dest.exists()


# --------------------------------------------------------------- errors


def test_missing_family_flags(capsys):
    status, _, err = invoke(capsys, "eval", "--class", "gup", "--u", "0",
                            "--n", "1", "--x", "0.1")
    assert status == 2
    assert json.loads(err)["error"] == "constraint-violation"


def test_bad_parameter_value(capsys):
    status, _, err = invoke(capsys, "eval", "--class", "gup", "--u", "-3",
                            "--v", "0", "--n", "1", "--x", "0.1")
    assert status == 2
    assert "u + 1/2" in json.loads(err)["detail"]


@pytest.mark.parametrize("argv", [
    ("verify-ode", "--class", "gup", "--u", "1", "--v", "1", "--n", "3", "--points", "0"),
    ("verify-ode", "--class", "gup", "--u", "1", "--v", "1", "--n", "3", "--points", "-3"),
    ("weights", "--class", "ghp", "--u", "1", "--from", "0", "--to", "1", "--steps", "-1"),
    ("gram", "--class", "ghp", "--u", "1", "--nmax", "3", "--tol", "nan"),
    ("gram", "--class", "ghp", "--u", "1", "--nmax", "3", "--tol", "-1"),
    ("gram", "--class", "finite2", "--nmax", "3", "--u", "inf"),
    ("eval", "--class", "custom", "--n", "2", "--x", "0.3", "--p", "0", "--q", "1",
     "--r", "-2", "--s", "nan"),
    ("verify-ode", "--class", "gup", "--u", "1", "--v", "1", "--n", "3",
     "--points", "100000000000"),
    ("weights", "--class", "ghp", "--u", "1", "--from", "0", "--to", "1",
     "--steps", "100000000000"),
    ("weights", "--class", "ghp", "--u", "1", "--to", "1", "--steps", "3", "--from", "nan"),
    ("weights", "--class", "ghp", "--u", "1", "--from", "0", "--steps", "3", "--to", "inf"),
    ("eval", "--class", "gup", "--u", "1", "--v", "1", "--n", "3", "--x", "nan"),
    # an OverflowError traceback from n = 2,060 on, and past 20 s
    ("coeffs", "--class", "gup", "--u", "1", "--v", "1", "--n", "20000"),
    ("table", "--class", "gup", "--u", "1", "--v", "1", "--nmax", "20000"),
    ("table", "--class", "ghp", "--u", "0", "--nmax", "-1"),
    ("gram", "--class", "ghp", "--u", "1", "--nmax", "257"),
    ("verify-ode", "--class", "gup", "--u", "1", "--v", "1", "--points", "3", "--n", "257"),
], ids=lambda argv: " ".join(argv[-2:]))
def test_bad_counts_tolerances_and_parameters_exit_two(capsys, argv):
    # the offending flag comes last in each argv
    status, out, err = invoke(capsys, *argv)
    assert status == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "constraint-violation" and argv[-2] in doc["detail"]


@pytest.mark.parametrize("argv", [
    ("eval", "--class", "ghp", "--u", "0.5", "--x", "0.3", "--n", "256"),
    ("coeffs", "--class", "gup", "--u", "1", "--v", "1", "--n", "256"),
], ids=lambda argv: argv[0])
def test_degrees_up_to_the_cap_are_admitted(capsys, argv):
    status, out, err = invoke(capsys, *argv)
    assert status == 0 and out and err == ""


@pytest.mark.parametrize("argv, status, error", [
    (("--class", "gup", "--u", "1", "--v", "1", "--from", "0.5", "--to", "1.5"),
     2, "constraint-violation"),
    (("--class", "finite1", "--u", "0.3", "--v", "2", "--from", "-1", "--to", "1"),
     1, "singular-point"),
    # singular at 0 and outside the support from 1 on: the support decides
    (("--class", "gup", "--u", "-0.25", "--v", "1", "--from", "0", "--to", "1.5"),
     2, "constraint-violation"),
    # support [-1, 1], singular at +-1; rows "1.0,inf" and "2.0,nan" were written
    (("--class", "custom", "--p", "-1", "--q", "1", "--r", "-3", "--s", "2",
      "--from", "0", "--to", "2"), 2, "constraint-violation"),
], ids=["outside", "singular", "both", "custom-outside"])
def test_weights_failure_writes_no_row(capsys, argv, status, error):
    got, out, err = invoke(capsys, "weights", *argv, "--steps", "5")
    assert got == status and out == ""
    assert json.loads(err)["error"] == error


def test_custom_class_gram_and_expand_print_the_named_family(capsys, tmp_path):
    # (0, 1, -2, 1) is GHP(1/2)'s tuple: the same report and expansion
    custom = ("--p", "0", "--q", "1", "--r", "-2", "--s", "1")
    got = invoke(capsys, "gram", "--class", "custom", *custom, "--nmax", "8")
    assert got == invoke(capsys, "gram", "--class", "ghp", "--u", "0.5", "--nmax", "8")
    assert got[0] == 0
    docs, recons = [], []
    for name, flags in (("custom", custom), ("ghp", ("--u", "0.5"))):
        dest = tmp_path / f"{name}.csv"
        status, out, _ = invoke(capsys, "expand", "--basis", name, *flags, "--nmax", "6",
                                "--expr", "sin(x) + x**4", "--output", str(dest))
        assert status == 0
        doc = json.loads(out)
        assert doc.pop("basis")["class"] == name
        docs.append(doc)
        recons.append(dest.read_text())
    assert docs[0] == docs[1] and recons[0] == recons[1]


def test_unknown_subcommand(capsys):
    assert invoke(capsys, "nonsense")[0] == 2


def test_computation_failure_exit_one(capsys):
    status, _, err = invoke(capsys, "coeffs", "--class", "finite2", "--u", "4.5",
                            "--n", "5")
    assert status == 1
    assert json.loads(err)["error"] == "zero-leading-coefficient"


def test_eval_custom_class(capsys):
    status, out, _ = invoke(capsys, "eval", "--class", "custom", "--p", "0",
                            "--q", "1", "--r", "-2", "--s", "0",
                            "--n", "2", "--x", "0.3")
    assert status == 0
    assert float(out) == pytest.approx(0.3 ** 2 - 0.5, rel=1e-15)


# ---------------------------------------------------------- determinism


def test_byte_identical_reruns(capsys):
    argv = ("gram", "--class", "gup", "--u", "1", "--v", "1.5", "--nmax", "3")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second
    argv = ("table", "--class", "gup", "--u", "1", "--v", "1.5", "--nmax", "6")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


def invoke_fresh(*argv):
    """argv run by a new interpreter: (status, stdout, stderr)."""
    src = str(Path(symortho.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from symortho.cli import run; sys.exit(run(sys.argv[1:]))",
         *argv], capture_output=True, text=True, env=env, check=False)
    return done.returncode, done.stdout, done.stderr


def test_a_reused_parser_leaks_nothing_between_runs(capsys, tmp_path, monkeypatch):
    # one process parses every argv with the same parser, a failed parse
    # of two exclusive flags first; each run matches a new interpreter's
    monkeypatch.setenv("COLUMNS", "80")     # argparse wraps usage to it
    samples = tmp_path / "samples.csv"
    xs = np.cos(np.pi * (np.arange(9) + 0.5) / 9)
    samples.write_text("x,f\n" + "".join(f"{float(x)!r},{math.exp(x)!r}\n" for x in xs))
    basis = ("--basis", "gup", "--u", "0.5", "--v", "0.5", "--nmax", "4")
    runs = [
        ("expand", *basis, "--expr", "x", "--input", str(samples), "--output", "{out}"),
        ("gram", "--class", "gup", "--u", "1", "--v", "1.5", "--nmax", "3"),
        ("expand", *basis, "--expr", "sin(x)", "--output", "{out}"),
        ("expand", *basis, "--input", str(samples), "--output", "{out}"),
        ("table", "--class", "finite2", "--u", "4.5", "--nmax", "6"),
        ("verify-ode", "--class", "ghp", "--u", "0.5", "--n", "5", "--points", "7"),
    ]
    for i, argv in enumerate(runs):
        here, there = tmp_path / f"here{i}.csv", tmp_path / f"there{i}.csv"
        got = invoke(capsys, *(a.format(out=here) for a in argv))
        assert got == invoke_fresh(*(a.format(out=there) for a in argv))
        assert got[0] == (2 if i == 0 else 0)
        if "{out}" in argv and got[0] == 0:
            assert here.read_bytes() == there.read_bytes()


@pytest.mark.parametrize("expr", [
    "x + 0*[c for c in ().__class__.__base__.__subclasses__()].__len__()",
    "x.__class__",                          # attribute access
    "(lambda y: y)(x)",                     # lambda
    "[x for x in (1, 2)]",                  # comprehension
    "open('/dev/null')",                    # a name not on the list
    "__import__('os')",
    "np.sin(x)",
    "sin(x=x)",                             # keyword argument
    "sin(*[x])",
    "x if x else 1",
    "x < 1",
    "'x'",
    "1j * x",
    "True + x",
    "9**9**9**9",                           # float overflow, not a huge integer
    "y",
    "x +",
], ids=repr)
def test_expand_expression_outside_the_grammar_exits_two(capsys, tmp_path, expr):
    status, out, err = invoke(capsys, "expand", "--basis", "gup", "--u", "1",
                              "--v", "1", "--nmax", "4", "--expr", expr,
                              "--output", str(tmp_path / "recon.csv"))
    assert status == 2 and out == ""
    assert json.loads(err)["error"] == "constraint-violation"
    assert not (tmp_path / "recon.csv").exists()


def test_expand_expression_grammar_covers_arithmetic_and_names(capsys, tmp_path):
    expr = "-x**2/2 + +3*sin(pi*x) - exp(x)*e + abs(x)**0.5 - 2.5e-1"
    status, out, _ = invoke(capsys, "expand", "--basis", "gup", "--u", "1",
                            "--v", "1", "--nmax", "4", "--expr", expr,
                            "--output", str(tmp_path / "recon.csv"))
    assert status == 0
    rows = (tmp_path / "recon.csv").read_text().split("\n")[1:-1]
    x, f = np.array([[float(v) for v in r.split(",")[:2]] for r in rows]).T
    want = (-x ** 2 / 2 + 3 * np.sin(np.pi * x) - np.exp(x) * math.e
            + np.abs(x) ** 0.5 - 0.25)
    assert np.array_equal(f, want)


# ---------------------------------------------------------------- --stats


def test_gram_stats_adds_one_key_and_leaves_the_default_output(capsys):
    argv = ["gram", "--class", "finite2", "--u", "4.5", "--nmax", "4"]
    status, plain, _ = invoke(capsys, *argv)
    status_stats, out, _ = invoke(capsys, *argv, "--stats")
    assert status == status_stats == 0
    doc = json.loads(out)
    stats = doc.pop("stats")
    assert "stats" not in json.loads(plain)
    assert plain == json.dumps(doc) + "\n"      # byte for byte but the key
    rep = gram_matrix(FiniteII(4.5), 4)
    assert stats == {"panels": 0, "evals": rep.evals, "verified": 14, "refused": 1}


def test_expand_stats_adds_one_key_and_leaves_the_default_output(capsys, tmp_path):
    argv = ["expand", "--basis", "gup", "--u", "0", "--v", "0", "--nmax", "8",
            "--expr", "x**5", "--output", str(tmp_path / "recon.csv")]
    status, plain, _ = invoke(capsys, *argv)
    recon = (tmp_path / "recon.csv").read_bytes()
    status_stats, out, _ = invoke(capsys, *argv, "--stats")
    assert status == status_stats == 0
    doc = json.loads(out)
    stats = doc.pop("stats")
    assert plain == json.dumps(doc) + "\n" and (tmp_path / "recon.csv").read_bytes() == recon
    series = symortho.expand(lambda x: x ** 5, GUP(0.0, 0.0), 8)
    assert stats == {"panels": series.panels, "evals": series.evals, "verified": 45, "refused": 0}
    assert stats["panels"] == 0 < stats["evals"]     # a polynomial takes the Gauss rules
