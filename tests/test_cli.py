import json
import math
import warnings

import numpy as np
import pytest

from chebdde import cli
from chebdde.discretize import assemble_An, eigenvalues, make_charfn, make_system
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
    point = find_hopf(make_charfn(blowflies(mu=3.0), 10), "beta", 2.0, 30.0)
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
