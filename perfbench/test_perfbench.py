"""Tests of the benchmark itself: every checker rejects a corrupted output,
the trace accounts for its time, and missing targets are reported as such.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from chebdde.cli import main as cli_main  # noqa: E402


def _real_output(workload, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp(workload)
    job = next(workloads.jobs(workload, 7, str(out_dir)))
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        assert cli_main(job.argv) == 0
    return job, Path(job.out_path).read_text(), captured.getvalue()


@pytest.fixture(scope="module", params=["simulate", "curve", "converge", "chart"])
def output(request, tmp_path_factory):
    return request.param, _real_output(request.param, tmp_path_factory)


def _rows(text):
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _join(header, rows):
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def _stretch_time(text, _):
    header, rows = _rows(text)
    return _join(header, [[repr(float(r[0]) * 1.001), r[1]] for r in rows])


def _shift_period(_, report):
    doc = json.loads(report)
    doc["period"] += 2e-3
    return json.dumps(doc)


def _edit_row(text, pick, col, change):
    header, rows = _rows(text)
    index = next(i for i, row in enumerate(rows) if pick(row))
    rows[index][col] = change(rows[index][col])
    return _join(header, rows)


# (workload, corruption of the CSV text, corruption of the captured stdout)
CORRUPTIONS = {
    "simulate": [
        ("reported period off by 2e-3", None, _shift_period),
        ("trajectory stops early", lambda t, _: t[: len(t) // 2].rsplit("\n", 1)[0] + "\n", None),
        ("time axis stretched, so the measured period is off", _stretch_time, None),
    ],
    "curve": [
        ("beta off by 1e-3 on mu in [1, 10]",
         lambda t, _: _edit_row(t, lambda r: 1 < float(r[0]) < 10, 1,
                                lambda v: repr(float(v) * 1.001)), None),
        ("no point below mu = 1",
         lambda t, _: _join(_rows(t)[0], [r for r in _rows(t)[1] if float(r[0]) >= 1]), None),
    ],
    "converge": [
        ("alpha error at n = 12 above 1e-8",
         lambda t, _: _edit_row(t, lambda r: r[0] == "12", 1, lambda v: "2e-8"), None),
        ("omega error at n = 10 above the one at n = 6",
         lambda t, _: _edit_row(t, lambda r: r[0] == "10", 2, lambda v: "1e-3"), None),
        ("a degree failed", lambda t, _: _edit_row(t, lambda r: r[0] == "6", 7,
                                                   lambda v: "convergence"), None),
        ("sigma at the finest degree off by 1e-6",
         lambda t, _: _edit_row(t, lambda r: r[0] == "16", 4,
                                lambda v: repr(float(v) * (1 + 1e-6))), None),
    ],
    "chart": [
        ("positive Re c on a discretized row",
         lambda t, _: _edit_row(t, lambda r: r[0] == "discretized", 6,
                                lambda v: repr(abs(float(v)))), None),
        ("discretized b1 off by 1e-6",
         lambda t, _: _edit_row(t, lambda r: r[0] == "discretized", 2,
                                lambda v: repr(float(v) * (1 + 1e-6))), None),
        ("exact Re c off the closed form",
         lambda t, _: _edit_row(t, lambda r: r[0] == "dde", 6,
                                lambda v: repr(float(v) * 1.01)), None),
        ("rows missing", lambda t, _: "\n".join(t.splitlines()[:200]) + "\n", None),
    ],
}


def test_checker_accepts_the_real_output(output):
    _, (job, text, stdout) = output
    job.check(text, stdout)


def test_checker_rejects_each_corruption(output):
    workload, (job, text, stdout) = output
    for what, edit_text, edit_stdout in CORRUPTIONS[workload]:
        bad_text = edit_text(text, stdout) if edit_text else text
        bad_stdout = edit_stdout(text, stdout) if edit_stdout else stdout
        with pytest.raises(oracles.CheckFailed):
            job.check(bad_text, bad_stdout)
            pytest.fail(f"{workload}: check passed on '{what}'")


def test_same_seed_same_jobs(tmp_path):
    for name in workloads.MAKERS:
        seq_a = workloads.jobs(name, 3, str(tmp_path))
        seq_b = workloads.jobs(name, 3, str(tmp_path))
        assert [next(seq_a).argv for _ in range(3)] == [next(seq_b).argv for _ in range(3)]
        other = workloads.jobs(name, 4, str(tmp_path))
        assert next(other).argv != next(workloads.jobs(name, 3, str(tmp_path))).argv


def test_curve_starts_on_the_grid(tmp_path):
    """Curve starts stay on the grid whose every point was run and passes."""
    lo, hi = workloads.CURVE_MU_RANGE
    grid = {lo + (hi - lo) * k / workloads.CURVE_GRID for k in range(workloads.CURVE_GRID + 1)}
    seq = workloads.jobs("curve", 417388970, str(tmp_path))
    for _ in range(50):
        argv = next(seq).argv
        assert float(argv[argv.index("--set") + 1].split("=")[1]) in grid


def _benchmark_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_the_benchmark_spec():
    spec = _benchmark_spec()
    empty = tracer.Tracer().summary()
    layer_names = set(tracer.layer_metrics(empty, 1)) | {
        "cli.output_bytes", "trace.job_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_every_named_target_exists_at_this_revision():
    metrics = tracer.layer_metrics(tracer.Tracer().summary(), 1)
    assert [name for name, (value, _) in metrics.items() if value is None] == []


def test_removed_target_is_reported_missing(monkeypatch):
    import chebdde.analytic
    import chebdde.simulate

    monkeypatch.delattr(chebdde.analytic, "lag_solve_last")
    monkeypatch.delattr(chebdde.simulate, "integrate")
    metrics = tracer.layer_metrics(tracer.Tracer().summary(), 1)
    assert metrics["analytic.lag_solve_last.calls"][0] is None
    assert metrics["simulate.integrate.self_s"][0] is None
    assert metrics["simulate.accepted_steps"][0] is None
    assert metrics["simulate.rhs_per_step"][0] is None
    assert metrics["analytic.calls"][0] == 0
    assert metrics["discretize.rhs.calls"][0] == 0


def test_trace_accounts_for_the_job_time(tmp_path):
    trace = tracer.Tracer()
    trace.install()
    try:
        job = next(workloads.jobs("converge", 1, str(tmp_path)))
        import chebdde.cli

        assert chebdde.cli.main(job.argv) == 0
        job.check(Path(job.out_path).read_text(), "")
        summary = trace.summary()
        spans = list(trace.spans())
    finally:
        trace.uninstall()
    functions = summary["functions"]
    assert functions["cli.main"]["calls"] == 1
    root_total = functions["cli.main"]["total_s"]
    layer_self = sum(f["self_s"] for f in functions.values())
    assert layer_self == pytest.approx(root_total, rel=1e-9)
    assert all(parent < sid for sid, (_, parent, _, _) in enumerate(spans))
    assert all(t0 <= t1 for _, _, t0, t1 in spans)
    metrics = tracer.layer_metrics(summary, 1)
    assert metrics["hopf.find_hopf.calls"][0] == 8  # the analytic reference + 7 degrees
    assert metrics["discretize.rhs.calls"][0] == 0
    assert metrics["hopf.newton_iterations"][0] > 0
    assert 0.0 < metrics["discretize.lag_solve.hit_ratio"][0] < 1.0
    assert not hasattr(chebdde.cli.main, "__wrapped__")  # uninstalled again


def test_unreadable_result_counter_reads_as_missing():
    trace = tracer.Tracer()
    trace._count_result("accepted_steps", lambda traj: len(traj.times), object())
    trace._count_result("accepted_steps", lambda traj: 5, object())
    assert trace.summary()["counters"]["accepted_steps"] is None


def test_tail_needs_ten_samples_beyond_the_median():
    assert "n/a" in run._tail([1.0] * 19)
    assert run._tail([float(i) for i in range(20)]).startswith("p50 9 s")


def test_run_without_sources_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "chart", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_speed_probe_scales_to_the_reference_speed():
    probe = worker.SpeedProbe(worker.python_kernel, reference_s=0.001)
    probe.samples = [(0.0, 0.002), (0.5, 0.002), (5.0, 0.0005)]
    # host at half the reference speed: 0.9 s of work is 0.45 s at reference
    assert probe.scaled(0.0, 1.0, 0.1) == pytest.approx(0.45)
    # no probe near the interval: the nearest one is used
    assert probe.scaled(3.0, 3.1, 0.0) == pytest.approx(0.2)


def test_speed_probe_samples_while_work_runs():
    with worker.SpeedProbe(worker.python_kernel, 0.001) as probe:
        deadline = worker.time.perf_counter() + 0.3
        while worker.time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 3
    assert probe.spent == pytest.approx(sum(k for _, k in probe.samples), rel=0.5)


def test_failed_jobs_are_recorded(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("stale")
    probe = worker.SpeedProbe(worker.python_kernel, 0.001)
    probe.samples = [(0.0, 0.001)]

    def fails(text, stdout):
        raise oracles.CheckFailed("wrong")

    job = workloads.Job(["x"], str(out), fails)
    assert worker._run_job(lambda argv: 1, job, probe)["error"] == "exit code 1"
    assert not out.exists()  # stale output is removed before the job runs

    def writes(argv):
        out.write_text("done")
        return 0

    result = worker._run_job(writes, job, probe)
    assert not result["ok"] and "wrong" in result["error"]
