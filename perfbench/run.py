"""chebdde benchmark: four CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; chebdde is imported from `src`.
With `--trace 0` it measures set-up (the chebdde import in fresh
interpreters) and then runs the workload's seeded jobs in one fresh worker
process for `--seconds`, untraced, and reports the end-to-end metrics.
Times of the end-to-end metrics are scaled to a reference host speed. The
host this was written on changes speed by up to 2x within seconds, and raw
times follow. So every worker times a small fixed kernel every 50 ms from an
interval timer (worker.SpeedProbe), and each job or import is reported as
the time it would take at the speed where the kernel takes its reference
time, without the probe's own time. Raw times are printed beside them. With
`--trace 1` it runs the same jobs once untraced and once traced, each for
half of `--seconds`, and reports the per-layer metrics and the tracing
overhead. Every job's output is checked against an oracle restated in
`oracles.py`. Human-readable lines start with `#`; the last line of stdout
is the JSON result. Exits 1 without a result when a worker cannot run.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"
WORKLOADS = ("simulate", "curve", "converge", "chart")
#: BLAS threads per worker; fixed, and never above the core count
BLAS_THREADS = 1
#: fresh interpreters that time the import, besides the worker's own import
SETUP_RUNS = 5
#: a job worker may overrun --seconds by its last job; these cap the waits
WORKER_GRACE_S = 60.0
SETUP_TIMEOUT_S = 30.0


class WorkerError(Exception):
    """A worker process failed or produced no result."""


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _worker(run_dir: Path, tag: str, extra: list, timeout: float) -> dict:
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--result", str(result), *extra]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{tag} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not result.exists():
        raise WorkerError(f"{tag} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result) as handle:
        return json.load(handle)


def _job_worker(run_dir, args, seconds, trace):
    extra = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
             repr(seconds), "--trace", str(trace), "--out-dir", str(run_dir)]
    return _worker(run_dir, f"jobs-trace{trace}", extra, seconds + WORKER_GRACE_S)


def _tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it, when that
    lies at or above the median."""
    n = len(values)
    if n < 20:
        return f"tail n/a ({n} samples; a tail above the median needs 20)"
    q = math.floor(100.0 * (n - 10) / n)
    return f"p{q} {sorted(values)[n - 11]:.6g} s ({n} samples)"


def metadata_record() -> dict:
    """Run metadata: revision, cores, BLAS threads, versions, src line counts."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    lines = {}
    for path in sorted((SRC / "chebdde").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def _count(jobs: list) -> tuple:
    return len(jobs), sum(not job["ok"] for job in jobs)


def end_to_end(run_dir, args) -> tuple:
    setups = [_worker(run_dir, f"setup{i}", ["--setup-only"], SETUP_TIMEOUT_S)
              for i in range(SETUP_RUNS)]
    res = _job_worker(run_dir, args, args.seconds, 0)
    imports = [r["import_s"] for r in setups + [res]]
    jobs = res["jobs"]
    attempted, failed = _count(jobs)
    walls = [job["wall_s"] for job in jobs]
    metrics = {
        "wall_s": (statistics.median(job["scaled_s"] for job in jobs), "s"),
        "setup_s": (statistics.median(r["import_scaled_s"] for r in setups + [res]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = [
        f"job speed probe: median kernel {res['probe_median_s'] * 1e3:.4f} ms "
        f"over {res['probes']} probes",
        f"raw job time median {statistics.median(walls):.6g} s, {_tail(walls)}",
        f"raw import median {statistics.median(imports):.6g} s of {len(imports)} fresh imports",
        f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs)",
    ]
    return jobs, metrics, notes


def per_layer(run_dir, args) -> tuple:
    half = args.seconds / 2.0
    plain = _job_worker(run_dir, args, half, 0)["jobs"]
    traced_res = _job_worker(run_dir, args, half, 1)
    traced = traced_res["jobs"]
    common = min(len(plain), len(traced))
    traced_wall = statistics.median(job["wall_s"] for job in traced[:common])
    metrics = tracer.layer_metrics(traced_res["trace"], len(traced))
    metrics["cli.output_bytes"] = (statistics.fmean(job["output_bytes"] for job in traced), "B")
    metrics["trace.job_s"] = (traced_wall, "s")
    # at reference speed on both sides, as wall_s is
    overhead = (statistics.median(job["scaled_s"] for job in traced[:common])
                - statistics.median(job["scaled_s"] for job in plain[:common]))
    metrics["trace.overhead_s"] = (overhead, "s")
    spans = run_dir / "spans.csv"
    if spans.exists():
        shutil.move(str(spans), OUT_ROOT / f"spans-{args.workload}.csv")
    notes = [f"traced {len(traced)} jobs ({traced_res['span_count']} spans), "
             f"untraced {len(plain)}; overhead on the first {common} of each"]
    notes += [f"{name} missing: its target no longer exists"
              for name, (value, _) in metrics.items() if value is None]
    return plain + traced, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace)]
        return max(main(["--workload", name, *rest]) for name in WORKLOADS)
    if not (SRC / "chebdde" / "__init__.py").is_file():
        sys.stderr.write(f"error: no chebdde sources under {SRC}\n")
        return 1
    meta = metadata_record()
    if not 1 <= BLAS_THREADS <= (meta["nproc"] or 1):
        sys.stderr.write("error: BLAS thread count exceeds the core count\n")
        return 1
    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = OUT_ROOT / f"{args.workload}-{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir()
    try:
        measure = per_layer if args.trace else end_to_end
        jobs, metrics, notes = measure(run_dir, args)
    except WorkerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted, failed = _count(jobs)
    print("# meta " + json.dumps(meta))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs, {failed} failed")
    for job in jobs:
        if not job["ok"]:
            print(f"# FAILED job: {job['error'].strip().splitlines()[-1]}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {'missing' if value is None else f'{value:.6g}'} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(OUT_ROOT / f"last-{args.workload}-trace{args.trace}.json", "w") as handle:
        json.dump({"meta": meta, "jobs": jobs, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
