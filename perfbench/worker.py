"""One benchmark process: import chebdde, run seeded CLI jobs, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out-dir DIR --result FILE
    python3 perfbench/worker.py --setup-only --result FILE

The parent starts it with one BLAS thread and `src` on PYTHONPATH. Jobs run
through chebdde.cli.main(argv) back to back until `--seconds` have passed;
each job's time runs from the main() call until its output is written.
A SpeedProbe samples the host's speed throughout, so the parent can scale
every interval to a reference speed. The result is written as JSON to FILE.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

#: wall time between two speed probes
PROBE_INTERVAL_S = 0.05
#: probes this close to an interval count towards its speed
PROBE_WINDOW_S = 0.1
#: kernel times at the reference host speed (about their medians on the
#: 2-vCPU host the benchmark was written on)
PYTHON_KERNEL_REFERENCE_S = 0.0012
NUMPY_KERNEL_REFERENCE_S = 0.0012


def python_kernel() -> float:
    """Interpreter work: float arithmetic, dict and list traffic. It needs
    no import, so it probes the speed while chebdde is being imported."""
    acc = 0.0
    table = {}
    items = []
    for i in range(4000):
        acc += (i % 7) * 0.5
        table[i & 63] = acc
        acc -= table.get((i * 3) & 63, 0.0) * 1e-3
        items.append(acc)
        if len(items) > 32:
            items.clear()
    return acc


def numpy_kernel():
    """A kernel like chebdde's hot loops: small matrix-vector products and
    complex LU solves at the degrees the workloads use. It follows the
    host's speed swings on the jobs more closely than python_kernel does."""
    import numpy as np

    rng = np.random.default_rng(20200624)
    a = rng.standard_normal((21, 21)) / 5.0
    x0 = rng.standard_normal(21)
    small, large = ((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                     np.ones(n, dtype=complex)) for n in (12, 40))

    def kernel():
        x = x0
        for i in range(90):
            x = a @ x
            x /= np.linalg.norm(x)
            if i % 3 == 0:
                np.linalg.solve(*small)
            if i % 9 == 0:
                np.linalg.solve(*large)
        return x

    return kernel


class SpeedProbe:
    """Samples the host's speed while the measured work runs.

    An interval timer interrupts the process every PROBE_INTERVAL_S and the
    SIGALRM handler times `kernel`, so the samples interleave with the
    measured work at a fine grain. The handler's own time is summed in
    `spent` so it can be taken out of the intervals it interrupted.
    """

    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.samples = []  # (perf_counter at the start, kernel seconds)
        self.spent = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - start
        self.samples.append((start, elapsed))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float, spent: float) -> float:
        """Seconds the interval [start, end] would take at the reference
        speed, without the `spent` seconds the probe took inside it.

        Speed is the mean of 1/kernel time over the probes near the interval,
        which is the time average of the speed when probes are evenly spaced.
        """
        near = [k for t, k in self.samples
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]
        speed = sum(1.0 / k for k in near) / len(near)
        return (end - start - spent) * self.reference_s * speed


def _import_chebdde(probe) -> tuple:
    spent = probe.spent
    start = time.perf_counter()
    import chebdde.cli  # noqa: F401  (numpy and scipy load here too)

    return start, time.perf_counter(), probe.spent - spent


def _run_job(main, job, probe) -> dict:
    """One CLI job plus its check; any failure is recorded, never raised.

    wall_s is the raw time of the main() call, scaled_s the same interval
    at reference speed without probe time.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(job.out_path)  # a job that writes nothing must not pass on stale output
    captured = io.StringIO()
    error = None
    spent = probe.spent
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            code = main(job.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code, error = None, traceback.format_exc(limit=3)
    end = time.perf_counter()
    interval = (start, end, probe.spent - spent)
    output_bytes = 0
    if error is None and code != 0:
        error = f"exit code {code}"
    if error is None:
        try:
            with open(job.out_path) as handle:
                text = handle.read()
            stdout = captured.getvalue()
            job.check(text, stdout)
            output_bytes = len(text.encode()) + len(stdout.encode())
        except Exception as exc:  # a failed check, or output that could not be read
            error = f"{type(exc).__name__}: {exc}"
    return {"wall_s": end - start, "interval": interval, "ok": error is None,
            "error": error, "output_bytes": output_bytes}


def run(args) -> dict:
    """Time the import under the Python-kernel probe, then the jobs under
    the numpy-kernel probe."""
    import_probe = SpeedProbe(python_kernel, PYTHON_KERNEL_REFERENCE_S)
    with import_probe:
        imported = _import_chebdde(import_probe)
        time.sleep(PROBE_WINDOW_S)  # let the probes just after the import land
    out = {"import_s": imported[1] - imported[0],
           "import_scaled_s": import_probe.scaled(*imported)}
    if not args.setup_only:
        job_probe = SpeedProbe(numpy_kernel(), NUMPY_KERNEL_REFERENCE_S)
        with job_probe:
            out.update(_run_jobs(args, job_probe))
    return out


def _run_jobs(args, probe) -> dict:
    import workloads
    import chebdde.cli

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    main = chebdde.cli.main  # looked up after install, so main is wrapped too
    results = []
    start = time.perf_counter()
    for job in workloads.jobs(args.workload, args.seed, args.out_dir):
        if results and time.perf_counter() - start >= args.seconds:
            break
        results.append(_run_job(main, job, probe))
    time.sleep(PROBE_WINDOW_S)
    for result in results:
        result["scaled_s"] = probe.scaled(*result.pop("interval"))
    kernel_times = sorted(k for _, k in probe.samples)
    out = {
        "probes": len(kernel_times),
        "probe_median_s": kernel_times[len(kernel_times) // 2],
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["span_count"] = len(tracer.name_of)
        tracer.write_spans(os.path.join(args.out_dir, "spans.csv"))
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir")
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args(sys.argv[1:])
    payload = run(args)
    with open(args.result, "w") as handle:
        json.dump(payload, handle)
