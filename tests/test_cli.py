import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdde import cli, hopf
from chebdde.analytic import admissible_omegas, boundary, c_blowfly
from chebdde.discretize import assemble_An, eigenvalues, make_system
from chebdde.errors import ConvergenceError
from chebdde.hopf import find_hopf
from chebdde.model import blowflies


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mesh"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["tessellate"])
    assert exc.value.code == 2


def test_bad_numeric_option_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mesh", "--n", "0"])
    assert exc.value.code == 2


def test_mesh_n2_matches_explicit_matrices(capsys):
    code, out, _ = run(capsys, ["mesh", "--n", "2"])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["label", "j0", "j1", "j2"]
    table = {row[0]: [float(v) for v in row[1:]] for row in rows}
    assert np.allclose(table["node"], [0.0, -0.5, -1.0], atol=1e-15)
    d_block = np.array([table["d1"][1:], table["d2"][1:]])
    assert np.allclose(d_block, [[0.0, -1.0], [4.0, -3.0]], atol=1e-14)
    assert np.allclose([table["d1"][0], table["d2"][0]], [1.0, -1.0], atol=1e-14)


def test_eig_matches_library_spectrum(capsys):
    code, out, _ = run(capsys, ["eig", "--model", "blowflies", "--n", "6", "--set", "mu=3"])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["re", "im"]
    got = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    want = eigenvalues(assemble_An(make_system(blowflies(mu=3.0), 6)))
    assert np.array_equal(got, want)


def test_eig_param_flag_is_an_override_alias(capsys):
    _, out_set, _ = run(capsys, ["eig", "--model", "blowflies", "--n", "4", "--set", "mu=5"])
    _, out_param, _ = run(capsys, ["eig", "--model", "blowflies", "--n", "4", "--param", "mu=5"])
    assert out_set == out_param


def test_charfn_reports_both_determinants(capsys):
    code, out, _ = run(capsys, [
        "charfn", "--model", "blowflies", "--set", "mu=3",
        "--n", "8", "--lambda", "0.1+2.3i",
    ])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["re_lambda", "im_lambda", "re_delta_n", "im_delta_n",
                      "re_delta_0", "im_delta_0"]
    vals = [float(v) for v in rows[0]]
    assert vals[0] == 0.1 and vals[1] == 2.3
    # the degree-8 and exact determinants agree to discretization error here
    assert math.hypot(vals[2] - vals[4], vals[3] - vals[5]) < 1e-5
    assert math.hypot(vals[2], vals[3]) > 0.1


def test_hopf_json_matches_direct_search(capsys):
    code, out, _ = run(capsys, [
        "hopf", "--model", "blowflies", "--param", "beta", "--set", "mu=3",
        "--n", "10", "--omega", "2", "--alpha", "30",
    ])
    assert code == 0
    doc = json.loads(out)
    point = find_hopf(make_system(blowflies(mu=3.0), 10), "beta", 2.0, 30.0)
    assert doc["param"] == "beta"
    assert doc["alpha"] == point.alpha
    assert doc["omega"] == point.omega
    assert doc["c"] == {"re": point.c.real, "im": point.c.imag}
    assert doc["sigma"] == point.sigma
    assert doc["a2"] == point.a2
    assert doc["nonresonance"]["ok"] is True
    assert doc["nonresonance"]["failures"] == []
    ks = [entry["k"] for entry in doc["nonresonance"]["margins"]]
    assert ks == [0] + list(range(2, 11))
    assert doc["residuals"][-1] < 1e-10


def test_lyap_reports_the_branch_data_only(capsys):
    code, out, _ = run(capsys, [
        "lyap", "--model", "blowflies", "--param", "beta", "--set", "mu=3",
        "--analytic", "--omega", "2", "--alpha", "30",
    ])
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["a2", "alpha", "c", "omega", "param", "sigma"]
    assert doc["c"]["re"] < 0 and doc["sigma"] < 0 and doc["a2"] > 0


def test_numerical_failure_exits_1_with_payload(capsys, tmp_path):
    target = tmp_path / "point.json"
    code, out, err = run(capsys, [
        "hopf", "--model", "blowflies", "--param", "nope", "--set", "mu=3",
        "--n", "6", "--omega", "2", "--alpha", "30", "--out", str(target),
    ])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "unknown_symbol"
    assert "nope" in payload["message"]
    # failed runs never leave a partial artifact behind
    assert not target.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_curve_roundtrip_through_charfn(capsys):
    code, out, _ = run(capsys, [
        "curve", "--model", "blowflies", "--params", "mu,beta", "--seed-param", "beta",
        "--set", "mu=3", "--n", "10", "--omega", "2.4", "--alpha", "29",
        "--step", "0.5", "--max-points", "6",
    ])
    assert code == 0
    header, rows = rows_of(out)
    assert header[:4] == ["mu", "beta", "omega", "step"]
    assert len(rows) >= 5
    mu, beta, omega = (float(v) for v in rows[2][:3])
    code, out, _ = run(capsys, [
        "charfn", "--model", "blowflies", "--set", f"mu={mu!r}", "--set", f"beta={beta!r}",
        "--n", "10", "--lambda", f"0+{omega!r}i",
    ])
    assert code == 0
    _, rows = rows_of(out)
    vals = [float(v) for v in rows[0]]
    assert math.hypot(vals[2], vals[3]) < 1e-10


def test_curve_rejects_single_name(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["curve", "--model", "blowflies", "--params", "mu",
                  "--analytic", "--omega", "2.4", "--alpha", "29", "--step", "0.5"])
    assert exc.value.code == 2


def test_converge_table_shrinks(capsys):
    code, out, _ = run(capsys, [
        "converge", "--model", "blowflies", "--param", "beta", "--set", "mu=3",
        "--n-list", "4,6,8", "--reference", "analytic",
    ])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["n", "alpha_err", "omega_err", "a2_err", "sigma",
                      "simplicity", "nonres_margin", "failure"]
    assert [int(r[0]) for r in rows] == [4, 6, 8]
    errs = [float(r[1]) for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert all(r[7] == "" for r in rows)


_CONVERGE_MU4 = ["converge", "--model", "blowflies", "--param", "beta", "--set", "mu=4",
                 "--n-list", "4,6,8"]


def test_converge_reference_defaults_to_analytic(capsys):
    explicit = run(capsys, _CONVERGE_MU4 + ["--reference", "analytic"])
    assert explicit[0] == 0 and explicit[2] == ""
    assert run(capsys, _CONVERGE_MU4) == explicit


def test_converge_without_an_exact_point_is_an_error(capsys, monkeypatch):
    # the errors are measured against the exact point; when it cannot be
    # located the study fails rather than measure the degrees against one
    # of their own
    real = hopf.find_hopf

    def exact_fails(cf, *args):
        if cf.n is None:
            raise ConvergenceError("no exact critical point")
        return real(cf, *args)

    monkeypatch.setattr(hopf, "find_hopf", exact_fails)
    for reference in ([], ["--reference", "analytic"]):
        code, out, err = run(capsys, _CONVERGE_MU4 + reference)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "no_convergence",
                                   "message": "no exact critical point"}
    # the finest degree needs no exact point
    code, out, _ = run(capsys, _CONVERGE_MU4 + ["--reference", "finest"])
    assert code == 0
    assert rows_of(out)[1][-1][1:4] == ["0.0", "0.0", "0.0"]


def test_simulate_writes_csv_and_period_json(capsys, tmp_path):
    target = tmp_path / "traj.csv"
    code, out, _ = run(capsys, [
        "simulate", "--model", "blowflies", "--n", "6", "--t-end", "40",
        "--history", "const:4", "--period", "--out", str(target),
    ])
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == ["crossings", "mean_level", "period", "spread"]
    # default parameters sit just past the Hopf at beta* = 29.69, omega* = 2.4556
    assert abs(report["period"] - 2 * math.pi / 2.4556438) < 0.05
    header, rows = rows_of(target.read_text())
    assert header == ["t", "y0"]
    assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 4.0
    assert float(rows[-1][0]) == 40.0
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("t_end", ["1e-13", "5e-13"])
def test_simulate_window_below_the_step_floor(capsys, t_end):
    # the first step is the whole window, shorter than the underflow floor;
    # the end of the window cut it, so it is no step size collapse
    code, out, _ = run(capsys, ["simulate", "--model", "blowflies", "--n", "6",
                                "--t-end", t_end, "--history", "const:4"])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["t", "y0"] and len(rows) == 2
    assert float(rows[-1][0]) == float(t_end)


def test_simulate_period_needs_out(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", "blowflies", "--n", "6", "--t-end", "10",
                  "--history", "const:4", "--period"])
    assert exc.value.code == 2


def test_simulate_expression_history(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--model", "blowflies", "--set", "beta=8", "--n", "4",
        "--t-end", "2", "--history", "expr:1 + 0.1*sin(theta)",
    ])
    assert code == 0
    _, rows = rows_of(out)
    assert float(rows[0][1]) == 1.0


def test_history_error_names_theta_as_a_plain_float(capsys):
    code, out, err = run(capsys, [
        "simulate", "--model", "blowflies", "--n", "4", "--t-end", "2",
        "--history", "expr:log(theta)",
    ])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "domain_error",
        "message": "math domain error in 'log(theta)' in 'history at theta=0.0'",
    }


@pytest.mark.parametrize("history, message", [
    ("expr:zz", "unknown parameters ['zz'] in the history"),
    ("expr:x0@0", "the history is a function of theta alone, not of state symbols"),
], ids=["unknown-name", "state-symbol"])
def test_history_names_only_parameters_and_theta(capsys, history, message):
    # refused before any sample is taken, not as a domain error at theta = 0
    code, out, err = run(capsys, ["simulate", "--model", "blowflies", "--n", "4",
                                  "--t-end", "5", "--history", history])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "unknown_symbol", "message": message}


def test_simulate_rejects_malformed_history(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", "blowflies", "--n", "4", "--t-end", "2",
                  "--history", "linear:3"])
    assert exc.value.code == 2


def test_chart_blowfly_pairs_the_curves(capsys):
    code, out, _ = run(capsys, [
        "chart-blowfly", "--n", "8", "--omega-min", "1.7", "--omega-max", "3.0",
        "--steps", "6",
    ])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["source", "omega", "b1", "b2", "mu", "beta_over_mu", "re_c"]
    dde = {float(r[1]): r for r in rows if r[0] == "dde"}
    disc = {float(r[1]): r for r in rows if r[0] == "discretized"}
    assert len(dde) == 6 and len(disc) == 6
    for omega, row in dde.items():
        assert float(row[4]) == -float(row[2])
        assert float(row[6]) < 0.0
        assert abs(float(disc[omega][4]) - float(row[4])) < 1e-4 * (1 + float(row[4]))


def test_chart_blowfly_wide_window_finishes(capsys):
    # the exact-curve pole filter must not list every multiple of pi up to 1e9
    code, out, err = run(capsys, [
        "chart-blowfly", "--n", "40", "--omega-min", "1.6", "--omega-max", "1e9",
        "--steps", "3",
    ])
    assert code == 0 and err == ""
    header, rows = rows_of(out)
    assert [r[0] for r in rows] == ["dde", "discretized"]
    assert all(math.isfinite(float(v)) for r in rows for v in r[1:])


def test_chart_blowfly_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the perfbench chart argv, in fresh processes under one and two BLAS threads
    src = os.path.dirname(os.path.dirname(cli.__file__))
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"chart-{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "chebdde.cli", "chart-blowfly", "--n", "40",
             "--omega-min", "1.6", "--omega-max", "3.1", "--steps", "1000", "--out", str(out)],
            env=env, capture_output=True, check=True)
        results.append((done.stdout, done.stderr, out.read_bytes()))
    assert results[0][2].count(b"\ndiscretized,") > 900
    assert results[0] == results[1]


@pytest.mark.parametrize("n, lo, hi, steps, counts", [
    (40, 1.6, 3.1, 1000, [1000, 1000]),  # the benchmark window
    (40, 1.58, 3.1, 1000, [1000, 1000]),  # the benchmark's lowest omega-min
    (40, 1.56, 3.1, 100, [99, 99]),  # from below pi/2: the row with b1 >= 0 is dropped
    (3, 2.9, 3.2, 300, [240, 127]),  # across pi, and the n = 3 pole near 3.02
])
def test_chart_blowfly_csv_is_the_boundary_in_closed_form(capsys, n, lo, hi, steps, counts):
    # every row from boundary and c_blowfly, with mu = -b1 and
    # beta = -b1 e^{1 + b2/b1} in math.exp's bits, formatted row by row
    lines = ["source,omega,b1,b2,mu,beta_over_mu,re_c"]
    for source, degree, count in (("dde", None, counts[0]), ("discretized", n, counts[1])):
        omegas = admissible_omegas(lo, hi, steps, degree)
        assert omegas.size == count
        b1, b2 = boundary(omegas, degree)
        re_c = c_blowfly(omegas, degree).real
        for w, x1, x2, c in zip(omegas.tolist(), b1.tolist(), b2.tolist(), re_c.tolist()):
            mu, beta = -x1, -x1 * math.exp(1.0 + x2 / x1)
            lines.append(",".join([source, *map(repr, (w, x1, x2, mu, beta / mu, c))]))
    code, out, err = run(capsys, ["chart-blowfly", "--n", str(n), "--omega-min", repr(lo),
                                  "--omega-max", repr(hi), "--steps", str(steps)])
    assert code == 0 and err == ""
    assert out == "\n".join(lines) + "\n"


#: exact-path Hopf points and 41-point curves of both built-in models
EXACT_HOPF_ARGVS = [
    ["hopf", "--model", "blowflies", "--set", "mu=4", "--param", "beta",
     "--omega", "2.4", "--alpha", "35", "--analytic"],
    ["hopf", "--model", "fluidflow", "--param", "k", "--omega", "1.2", "--alpha", "1",
     "--analytic"],
    ["curve", "--model", "blowflies", "--params", "mu,beta", "--seed-param", "beta",
     "--set", "mu=4", "--omega", "2.4", "--alpha", "35", "--step", "0.25",
     "--max-points", "41", "--analytic"],
    ["curve", "--model", "fluidflow", "--params", "k,c", "--seed-param", "k",
     "--omega", "1.2", "--alpha", "1", "--step", "0.1", "--max-points", "41", "--analytic"],
]

#: the same commands on the collocated problem: every lag solve behind them
DEGREE_N_HOPF_ARGVS = [
    ["hopf", "--model", "blowflies", "--set", "mu=4", "--param", "beta",
     "--omega", "2.4", "--alpha", "35", "--n", "10"],
    ["curve", "--model", "blowflies", "--params", "mu,beta", "--seed-param", "beta",
     "--set", "mu=4", "--omega", "2.4", "--alpha", "35", "--step", "0.25",
     "--max-points", "41", "--n", "10"],
    ["converge", "--model", "blowflies", "--param", "beta", "--set", "mu=4",
     "--n-list", "4,6,8,10,12,14,16", "--reference", "analytic"],
    ["curve", "--model", "fluidflow", "--params", "k,c", "--seed-param", "k",
     "--omega", "1.2", "--alpha", "1", "--step", "0.1", "--max-points", "41", "--n", "10"],
]


def _bytes_per_thread_count(tmp_path, argvs):
    """(stdout, stderr, output files) of the argvs run in turn, in one fresh
    process per BLAS thread count, 1 and 2; the runner prints each exit
    code, so a failure shows in the bytes as well."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    runner = ("import json, sys\nfrom chebdde.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n    print(main(argv))\n")
    results = []
    for threads in ("1", "2"):
        outs = [tmp_path / f"{threads}-{i}.out" for i in range(len(argvs))]
        with_out = [argv + ["--out", str(out)] for argv, out in zip(argvs, outs)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", runner, json.dumps(with_out)],
                              env=env, capture_output=True, check=True)
        results.append((done.stdout, done.stderr, [out.read_bytes() for out in outs]))
    return results


def test_exact_hopf_bytes_do_not_depend_on_blas_threads(tmp_path):
    results = _bytes_per_thread_count(tmp_path, EXACT_HOPF_ARGVS)
    assert results[0][0] == b"0\n" * len(EXACT_HOPF_ARGVS)
    assert results[0][2][3].count(b"\n") == 42
    assert results[0] == results[1]


def test_degree_n_hopf_bytes_do_not_depend_on_blas_threads(tmp_path):
    results = _bytes_per_thread_count(tmp_path, DEGREE_N_HOPF_ARGVS)
    assert results[0][0] == b"0\n" * len(DEGREE_N_HOPF_ARGVS)
    assert results[0][2][1].count(b"\n") == 42
    assert results[0][2][2].count(b"\n") == 8
    assert results[0] == results[1]


#: orbit integrations: every stage is two BLAS products (the stage point
#: and the state operator), and both error estimates one matrix product
SIMULATE_ARGVS = [
    ["simulate", "--model", "blowflies", "--set", "mu=7", "--set", "beta=105",
     "--n", "20", "--t-end", "20", "--rel-tol", "1e-7", "--abs-tol", "1e-9",
     "--history", "const:2"],
    ["simulate", "--model", "fluidflow", "--n", "8", "--t-end", "30",
     "--history", "const:0.3,2.2"],
]


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    results = _bytes_per_thread_count(tmp_path, SIMULATE_ARGVS)
    assert results[0][0] == b"0\n" * len(SIMULATE_ARGVS)
    assert [out.count(b"\n") for out in results[0][2]] == [574, 170]
    assert results[0] == results[1]


def test_chart_blowfly_refuses_a_reversed_window(capsys):
    # a reversed window would keep omega = 3.14100, inside the margin around pi
    for lo, hi in (("3.3", "3.0"), ("3.0", "3.0")):
        code, out, err = run(capsys, ["chart-blowfly", "--n", "40", "--omega-min", lo,
                                      "--omega-max", hi, "--steps", "301"])
        assert code == 2 and out == ""
        assert err == f"error: omega window needs lo < hi, got [{lo}, {hi}]\n"


def test_model_file_path_accepted(capsys, tmp_path):
    doc = {"dim": 1, "delays": [0.0, 1.0], "rhs": ["-x0@0 + a*x0@1"],
           "params": {"a": 0.5}, "equilibrium_hint": [0.0]}
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["eig", "--model", str(path), "--n", "5"])
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 6
    assert all(float(r[0]) < 0 for r in rows)


def test_outputs_are_deterministic(capsys):
    argv = ["eig", "--model", "fluidflow", "--n", "7", "--set", "k=2"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = ["hopf", "--model", "blowflies", "--param", "beta", "--set", "mu=3",
            "--analytic", "--omega", "2", "--alpha", "30"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_eig_at_zero_mortality_uses_trivial_equilibrium(capsys):
    # at mu = 0 the hint has no log(beta/mu); x = 0 is still an equilibrium
    code, out, err = run(capsys, ["eig", "--model", "blowflies", "--set", "mu=0",
                                  "--n", "4"])
    assert code == 0
    assert "Traceback" not in err
    _, rows = rows_of(out)
    assert len(rows) == 5


def test_complex_power_reports_domain_error(capsys, tmp_path):
    # a fractional power of a negative base is complex in Python's arithmetic
    doc = {"dim": 1, "delays": [0.0, 1.0], "rhs": ["x0@1^2.5 - 1 - x0@0"],
           "params": {}, "equilibrium_hint": [-1]}
    path = tmp_path / "power.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["eig", "--model", str(path), "--n", "4"])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "domain_error"
    assert "x0@1^2.5" in payload["message"]


def test_missing_model_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["eig", "--model", str(tmp_path / "missing.json"),
                                "--n", "4"])
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 74.5 GiB for an array"),
     "error: Unable to allocate 74.5 GiB for an array\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_memory_error_exits_2(capsys, monkeypatch, exc, message):
    # a degree too large to allocate, as numpy reports it for mesh --n 100000
    def fail(n):
        raise exc
    monkeypatch.setattr(cli, "make_mesh", fail)
    code, out, err = run(capsys, ["mesh", "--n", "100000"])
    assert (code, out, err) == (2, "", message)


def test_nonfinite_override_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eig", "--model", "blowflies", "--set", "beta=1e400", "--n", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "Traceback" not in err


def test_out_leaves_no_temp_file(capsys, tmp_path):
    target = tmp_path / "mesh.csv"
    for _ in range(2):  # the second run replaces the first file
        code, out, _ = run(capsys, ["mesh", "--n", "3", "--out", str(target)])
        assert code == 0 and out == ""
    assert target.read_text().startswith("label,j0,j1,j2,j3\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mesh.csv"]
    # an unwritable destination is a usage error and leaves nothing behind
    code, _, err = run(capsys, ["mesh", "--n", "3", "--out",
                                str(tmp_path / "absent" / "mesh.csv")])
    assert code == 2
    assert err.startswith("error:") and "absent" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mesh.csv"]


def test_nonfinite_lambda_exits_2(capsys):
    for text in ("nan", "1e400", "0.5+1e400i"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["charfn", "--model", "blowflies", "--n", "6", "--lambda", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --lambda: expected a finite complex number" in err
        assert "Traceback" not in err


def test_floating_point_warnings_stay_off_stderr(capsys, tmp_path):
    # the Newton iterate overflows numpy's det before the finiteness check
    # stops it; warnings are errors here, so one that escapes fails the run
    argv = ["lyap", "--model", "fluidflow", "--param", "k", "--omega", "1e300",
            "--alpha", "1", "--n", "4", "--out", str(tmp_path / "lyap.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "no_convergence"


def test_converge_unknown_param_reports_unknown_symbol(capsys):
    # with no --alpha the study reads the parameter's value; an unknown name
    # must be reported before that lookup
    code, out, err = run(capsys, ["converge", "--model", "blowflies", "--param", "zz",
                                  "--n-list", "4,6"])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "unknown_symbol"
    assert "zz" in payload["message"]


@pytest.mark.parametrize("override", ["k=0", "c=0"])
def test_fluidflow_without_equilibrium_exits_1(capsys, override):
    # k c^2 = 0 leaves the flow model with no equilibrium
    code, out, err = run(capsys, ["eig", "--model", "fluidflow", "--n", "4",
                                  "--set", override])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "no_convergence"


def model_file(tmp_path, rhs, hint, params=None):
    """A model file with delays (0, 1): one rhs text and hint, or lists of them."""
    rhs, hint = ([rhs], [hint]) if isinstance(rhs, str) else (rhs, hint)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dim": len(rhs), "delays": [0, 1], "rhs": rhs,
                                "params": params or {}, "equilibrium_hint": hint}))
    return str(path)


#: blowflies in x1 and a stable x0 coupled one way at a = 0.5; the exact and
#: collocated characteristic matrices are triangular, so one kernel vector
#: of the critical pair has a zero first component
_BLOCK_PARAMS = {"mu": 4.0, "beta": 28.0, "a": 0.5}
_SEARCH = ["--param", "beta", "--omega", "2", "--alpha", "28"]


@pytest.mark.parametrize("mode", [["--n", "10"], ["--analytic"]], ids=["n10", "exact"])
def test_right_kernel_vector_with_zero_first_component_is_unnormalizable(capsys, tmp_path, mode):
    # x0 feeds x1, so p = (0, 1): the first-component normalization has
    # nothing to divide by. The root is simple (the x1 block is the blowfly
    # equation), so the refusal has its own code, not not_simple
    path = model_file(tmp_path, ["-x0@0", "-mu*x1@0 + beta*x1@1*exp(-x1@1) + a*x0@0"],
                      [0.0, math.log(7.0)], _BLOCK_PARAMS)
    code, out, err = run(capsys, ["hopf", "--model", path, *_SEARCH, *mode])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "unnormalizable"
    assert "vanishing first component" in payload["message"]


@pytest.mark.parametrize("mode, beta, omega", [
    (["--analytic"], 35.69347681383814, 2.5704315603359564),
    (["--n", "10"], 35.693476881142075, 2.5704315601354613),
], ids=["exact", "n10"])
def test_left_kernel_vector_with_zero_first_component_is_found(capsys, tmp_path, mode,
                                                               beta, omega):
    # x1 feeds x0, so q = (0, 1) while p[0] != 0: the point is the blowfly
    # Hopf point at mu = 4, reached from the same guess as the scalar model
    path = model_file(tmp_path, ["-x0@0 + a*x1@0", "-mu*x1@0 + beta*x1@1*exp(-x1@1)"],
                      [0.5 * math.log(7.0), math.log(7.0)], _BLOCK_PARAMS)
    code, out, err = run(capsys, ["hopf", "--model", path, *_SEARCH, *mode])
    assert code == 0 and err == ""
    point = json.loads(out)
    assert abs(point["alpha"] - beta) < 1e-10 * beta
    assert abs(point["omega"] - omega) < 1e-10 * omega


_NESTED = "(" * 3000 + "x0@1" + ")" * 3000


@pytest.mark.parametrize("rhs, expected", [
    ("-x0@0" + " + 0.001*x0@1" * 194, 0),
    # compiled, this sum nests past the 200 parentheses Python's parser takes
    ("-x0@0" + " + 0.001*x0@1" * 197, 1),
    # a tree deeper than the parse limit, and text past the parser's recursion
    ("-x0@0" + " + 0.001*x0@1" * 2999, 1),
    ("-x0@0 + " + _NESTED, 1),
], ids=["195-terms", "198-terms", "3000-terms", "3000-parentheses"])
def test_deep_expression_is_a_syntax_error(capsys, tmp_path, rhs, expected):
    code, out, err = run(capsys, ["eig", "--model", model_file(tmp_path, rhs, 0),
                                  "--n", "4"])
    assert code == expected
    if expected:
        assert out == ""
        assert json.loads(err)["error"] == "syntax_error"
    else:
        assert err == "" and len(rows_of(out)[1]) == 5


def test_deep_history_is_a_syntax_error(capsys):
    code, out, err = run(capsys, ["simulate", "--model", "blowflies", "--n", "4",
                                  "--t-end", "1", "--history", "expr:" + _NESTED])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "syntax_error"


def test_deep_third_derivative_is_a_syntax_error(capsys, tmp_path):
    # the rhs and its first two derivatives compile; the third, compiled on
    # first use for the Lyapunov coefficient, nests past Python's parser
    b1, b2 = boundary(2.0)
    rhs = "b1*x0@0 + b2*x0@1 + x0@1^3/(2 + x0@1/(2 + x0@1*" + "-" * 182 + "a))"
    path = model_file(tmp_path, rhs, 0, {"b1": b1, "b2": b2, "a": 0.5})
    assert run(capsys, ["eig", "--model", path, "--n", "4"])[0] == 0
    code, out, err = run(capsys, ["hopf", "--model", path, "--param", "b2", "--analytic",
                                  "--omega", "2", "--alpha", repr(b2 + 0.05)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "syntax_error"


def test_overflowing_linearization_exits_1(capsys, tmp_path):
    # the delayed coefficient 1e200 * 1e200 overflows at the equilibrium 0
    path = model_file(tmp_path, "-x0@0 + 1e200*(1e200*x0@1)", 0)
    code, out, err = run(capsys, ["eig", "--model", path, "--n", "4"])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "domain_error"
    assert "non-finite derivative" in payload["message"]


def test_simulate_needs_no_equilibrium(capsys, tmp_path):
    # x' = -1 has no equilibrium; from 0.5 the state reaches log's domain
    path = model_file(tmp_path, "-1 + 0*log(x0@0)", 1.0)
    code, out, err = run(capsys, ["simulate", "--model", path, "--n", "4",
                                  "--t-end", "2", "--history", "const:0.5"])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "domain_error",
                               "message": "math domain error in 'model rhs at node 0'"}


def test_chart_overflow_is_a_numerical_failure(capsys):
    # beta overflows at the end point of the exact boundary near omega = pi
    code, out, err = run(capsys, ["chart-blowfly", "--n", "8", "--omega-min", "2.5",
                                  "--omega-max", "40", "--steps", "3"])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "singular_point"
    assert "overflows" in payload["message"]


def test_simulate_component_out_of_range_is_a_usage_error(capsys, tmp_path):
    # --component indexes the (n + 1) d entries of the collocation state
    code, out, err = run(capsys, ["simulate", "--model", "blowflies", "--n", "4",
                                  "--t-end", "2", "--history", "const:1", "--period",
                                  "--component", "50", "--out", str(tmp_path / "t.csv")])
    assert code == 2 and out == ""
    assert err == "error: component must lie in [0, 5), got 50\n"
    assert not (tmp_path / "t.csv").exists()


# small pools for the in-process fuzz. Each option mostly draws from its
# usable values, so most runs get past the parser and the model setup, and
# sometimes from values the parser must reject; the usable ones include
# zero, negative, huge and tiny numbers and an unknown parameter name.
_PARAMS = {"blowflies": ["mu", "beta"], "fluidflow": ["k", "c"]}
_NUMBERS = ["0", "-1", "0.5", "1.5", "3", "30", "1e300", "-1e300", "1e-320"]
_SIZES = ["1", "2", "4", "8"]


def _value(usable, bad=()):
    """One value, a usable one three times as likely as a bad one."""
    return st.sampled_from(list(usable) * 3 + list(bad))


def _flag(flag, usable, bad=()):
    return _value(usable, bad).map(lambda v: [flag, v])


def _maybe(flag, usable, bad=()):
    return st.one_of(st.just([]), _flag(flag, usable, bad))


def _concat(*parts):
    return st.tuples(*parts).map(lambda got: [arg for part in got for arg in part])


def _degree():
    return _flag("--n", _SIZES, ["0", "-3"])


def _search():
    """--omega, --alpha and one of --n / --analytic, or both."""
    which = st.one_of(_degree(), _degree(), st.just(["--analytic"]),
                      st.just(["--analytic", "--n", "4"]))
    return _concat(_flag("--omega", ["2", "2.4", "1.1", "1e-300", "1e300"], ["0", "nan"]),
                   _flag("--alpha", _NUMBERS, ["nan"]), which)


def _commands(model_name, out, period_csv):
    """An argv strategy per subcommand for one model, each followed by out."""
    name = _value(_PARAMS[model_name], ["zz"])
    model = st.just(["--model", model_name])
    param = name.map(lambda p: ["--param", p])
    pair = st.tuples(name, _value(_NUMBERS, ["nan", "inf", "x"]))
    sets = st.lists(pair, max_size=2).map(
        lambda pairs: [arg for p, v in pairs for arg in ("--set", f"{p}={v}")])
    commands = {
        "mesh": _concat(_degree()),
        "eig": _concat(model, sets, _degree()),
        "charfn": _concat(model, sets, _degree(),
                          _flag("--lambda", ["0.1+2.3i", "0", "-3", "1e300i", "2i"],
                                ["nan", "i"])),
        "hopf": _concat(model, sets, param, _search()),
        "lyap": _concat(model, sets, param, _search()),
        "curve": _concat(model, sets,
                         st.tuples(name, name).map(lambda two: ["--params", ",".join(two)]),
                         _maybe("--seed-param", _PARAMS[model_name], ["zz"]), _search(),
                         _flag("--step", ["0.5", "0.1", "1e300"], ["0"]),
                         _flag("--max-points", ["1", "3", "5"], ["0"])),
        "converge": _concat(model, sets, param,
                            _flag("--n-list", ["4,6", "1,2", "8"], ["0", "4,x"]),
                            _maybe("--reference", ["analytic", "finest"], ["bogus"]),
                            _maybe("--omega", ["2", "1.1", "1e300"], ["0"]),
                            _maybe("--alpha", _NUMBERS)),
        "simulate": _concat(model, sets, _degree(),
                            _flag("--t-end", ["0.5", "2", "5"], ["0", "nan"]),
                            _flag("--history", ["const:1", "const:0", "const:1,2",
                                                "const:nan", "expr:1+theta",
                                                "expr:log(theta)", "expr:(", "expr:x0@0"],
                                  ["linear:3"]),
                            _value([[], ["--period", "--out", period_csv]], [["--period"]]),
                            _maybe("--component", ["0", "1", "50", "-1"], ["x"]),
                            _maybe("--skip", ["0.6", "0", "1", "-1"], ["nan"]),
                            _maybe("--rel-tol", ["1e-6", "1e-300", "0.5"]),
                            _maybe("--abs-tol", ["1e-9", "1e-300"], ["0"])),
        "chart-blowfly": _concat(
            _degree(),
            _flag("--omega-min", ["0.1", "1.6", "2.5", "40"], ["0", "nan"]),
            _flag("--omega-max", ["3", "40", "1e300", "0.5"]),
            _flag("--steps", ["1", "3", "50"], ["0"])),
    }
    return {cmd: _concat(st.just([cmd]), args, out) for cmd, args in commands.items()}


def _argv(command, out_dir):
    out = _maybe("--out", [str(out_dir / "out.txt")], [str(out_dir / "absent" / "out.txt")])
    period_csv = str(out_dir / "period.csv")  # --period prints JSON, so the CSV needs --out
    return st.sampled_from(["blowflies", "fluidflow"]).flatmap(
        lambda model_name: _commands(model_name, out, period_csv)[command])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", ["mesh", "eig", "charfn", "hopf", "lyap", "curve",
                                     "converge", "simulate", "chart-blowfly"])
def test_cli_contract_holds_for_every_input(command, fuzz_dir):
    """Every argv exits 0, 1 with one JSON error object on stderr, or 2 as a
    usage error; no other exception escapes main."""

    @settings(max_examples=50)
    @given(argv=_argv(command, fuzz_dir))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 2, (argv, exc.code)
                return
        text = err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert text.count("\n") == 1, (argv, text)
            assert "error" in json.loads(text), (argv, text)
        elif code == 2:
            # a usage problem the parser cannot see, such as an unwritable --out
            assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)

    check()


_CELLS = [
    st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
    st.floats().map(np.float64),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.text(max_size=4),
]


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from(_CELLS + [st.one_of(_CELLS)]),
                          min_size=1, max_size=4))
    columns = [draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    return [f"c{i}" for i in range(len(kinds))], [list(row) for row in zip(*columns)]


@given(_tables())
def test_csv_matches_the_per_cell_format(table):
    header, rows = table
    expected = "\n".join(
        [",".join(header)] + [",".join(cli._fmt(cell) for cell in row) for row in rows]
    ) + "\n"
    assert cli._csv(header, zip(*rows, strict=True)) == expected
