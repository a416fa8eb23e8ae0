"""Seeded CLI jobs of the four workloads.

A job is one `chebdde` command line plus the check of what it wrote. The
seed picks the inputs; the library sees only the resulting argv. The ranges
below are the generated-input ranges that BENCHMARK.json describes.
"""

import os
import random
from dataclasses import dataclass
from typing import Callable

import oracles

#: simulate: constant history value; the period is 4.471077 for all of them
HISTORY_RANGE = (0.5, 5.0)
SIM_T_END = 200.0
#: curve: start mu, on an evenly spaced grid over the range. A start at
#: mu = 8 with --omega 2.7 --alpha 160 stalls (continuation_stalled near
#: (-1, -1, 1e-8)). Some starts between grid points, such as
#: mu = 4.251273284166452, crash with an OverflowError from an equilibrium
#: Newton inside the corrector (see README.md); all CURVE_GRID + 1 grid
#: starts pass.
CURVE_MU_RANGE = (2.0, 6.0)
CURVE_GRID = 160
CURVE_POINTS = 200
#: converge: mu of one refinement study
CONVERGE_MU_RANGE = (1.5, 10.0)
CONVERGE_NS = [4, 6, 8, 10, 12, 14, 16]
#: chart: lower end of the frequency window, just above pi/2 where b1 < 0
CHART_OMEGA_MIN_RANGE = (1.58, 1.62)
CHART_OMEGA_MAX = 3.1
CHART_STEPS = 1000


@dataclass
class Job:
    """argv for chebdde.cli.main, the file it writes, and the check of the
    (file text, captured stdout) pair."""

    argv: list
    out_path: str
    check: Callable


def _num(value: float) -> str:
    return repr(float(value))


def _simulate(rng, out_path):
    level = rng.uniform(*HISTORY_RANGE)
    argv = ["simulate", "--model", "blowflies", "--set", "mu=7", "--set", "beta=105",
            "--n", "20", "--t-end", _num(SIM_T_END), "--rel-tol", "1e-7",
            "--abs-tol", "1e-9", "--history", f"const:{_num(level)}", "--period",
            "--out", out_path]
    return Job(argv, out_path,
               lambda text, stdout: oracles.check_simulate(text, stdout, SIM_T_END))


def _curve(rng, out_path):
    lo, hi = CURVE_MU_RANGE
    mu = lo + (hi - lo) * rng.randrange(CURVE_GRID + 1) / CURVE_GRID
    omega, beta = oracles.exact_hopf(mu)
    argv = ["curve", "--model", "blowflies", "--params", "mu,beta", "--seed-param", "beta",
            "--set", f"mu={_num(mu)}", "--n", "10", "--omega", _num(omega),
            "--alpha", _num(beta), "--step", "0.25", "--max-points", str(CURVE_POINTS),
            "--out", out_path]
    points = 2 * ((CURVE_POINTS - 1) // 2) + 1
    return Job(argv, out_path, lambda text, stdout: oracles.check_curve(text, points))


def _converge(rng, out_path):
    mu = rng.uniform(*CONVERGE_MU_RANGE)
    argv = ["converge", "--model", "blowflies", "--param", "beta", "--set", f"mu={_num(mu)}",
            "--n-list", ",".join(map(str, CONVERGE_NS)), "--reference", "analytic",
            "--out", out_path]
    return Job(argv, out_path,
               lambda text, stdout: oracles.check_converge(text, mu, CONVERGE_NS))


def _chart(rng, out_path):
    omega_min = rng.uniform(*CHART_OMEGA_MIN_RANGE)
    argv = ["chart-blowfly", "--n", "40", "--omega-min", _num(omega_min),
            "--omega-max", _num(CHART_OMEGA_MAX), "--steps", str(CHART_STEPS),
            "--out", out_path]
    return Job(argv, out_path, lambda text, stdout: oracles.check_chart(
        text, omega_min, CHART_OMEGA_MAX, CHART_STEPS))


MAKERS = {"simulate": _simulate, "curve": _curve, "converge": _converge, "chart": _chart}


def jobs(workload: str, seed: int, out_dir: str):
    """Endless job sequence of a workload; the same seed gives the same jobs."""
    make = MAKERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_path = os.path.join(out_dir, f"{workload}.out")
    while True:
        yield make(rng, out_path)
