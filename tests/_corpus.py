"""The CLI regression corpus: argv, what each wrote, and how to compare.

corpus/corpus.json records, for every argv of CASES, the exit code, stdout,
stderr and the text of the file named by --out, together with the numpy and
BLAS build and the machine it was recorded on. test_corpus.py reruns each
argv in process and compares in one of two modes:

- exact: the same bytes, when the running numpy, BLAS and machine are the
  recorded ones;
- numeric: otherwise, every number to 1e-12 relative, with an absolute
  floor of 1e-12 on the residual, error and margin columns (a CSV header or
  JSON key holding "resid", "err" or "margin"), and all other text equal.

Regenerate after a change that moves an output on purpose, and name what
moved and why in CHANGES.md:

    PYTHONPATH=src python tests/_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import re
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")
CORPUS_FILE = os.path.join(CORPUS_DIR, "corpus.json")

#: numeric mode: relative tolerance per number, and the absolute floor on
#: the residual, error and margin columns
REL_TOL = 1e-12
ABS_FLOOR = 1e-12
_FLOORED = ("resid", "err", "margin")

_CONVERGE = ["converge", "--model", "blowflies", "--param", "beta", "--n-list",
             "4,6,8,10,12,14,16"]
_BLOWFLY_HOPF = ["--model", "blowflies", "--param", "beta", "--set", "mu=4",
                 "--omega", "2.4", "--alpha", "35"]
_FLUID_HOPF = ["--model", "fluidflow", "--param", "k", "--omega", "1.2", "--alpha", "1"]
_RING_HOPF = ["--model", "{corpus}/ring3.json", "--param", "a", "--omega", "1.2",
              "--alpha", "1.5"]
_SLAVED_HOPF = ["--model", "{corpus}/slaved.json", "--param", "beta", "--omega", "2.4",
                "--alpha", "35"]
_BLOWFLY_CURVE = ["curve", "--model", "blowflies", "--params", "mu,beta", "--seed-param",
                  "beta", "--step", "0.25", "--max-points", "41"]

#: every argv; {corpus} is this directory's corpus/, {out} a scratch file
CASES = [
    *(_CONVERGE + ["--set", f"mu={mu}", "--reference", "analytic", "--out", "{out}"]
      for mu in ("1.5", "3", "4", "6.5", "10")),
    _CONVERGE + ["--set", "mu=4", "--reference", "finest", "--out", "{out}"],
    ["converge", "--model", "fluidflow", "--param", "k", "--n-list", "4,8,12,16",
     "--omega", "1.2", "--alpha", "1"],
    *([cmd, *model, *degree] for cmd in ("hopf", "lyap")
      for model in (_BLOWFLY_HOPF, _FLUID_HOPF)
      for degree in (["--n", "10"], ["--n", "20"], ["--analytic"])),
    *(["hopf", *model, *degree] for model in (_RING_HOPF, _SLAVED_HOPF)
      for degree in (["--n", "12"], ["--analytic"])),
    *(_BLOWFLY_CURVE + ["--set", f"mu={mu}", "--n", "10", "--omega", omega,
                        "--alpha", beta, "--out", "{out}"]
      for mu, omega, beta in (("2.45", "2.3723047407182323", "26.790790780386242"),
                              ("4.0", "2.5704315603359564", "35.69347681384046"),
                              ("4.675", "2.629270890944433", "40.02614879997615"))),
    _BLOWFLY_CURVE + ["--set", "mu=4", "--omega", "2.4", "--alpha", "35", "--analytic"],
    ["curve", "--model", "fluidflow", "--params", "k,c", "--seed-param", "k",
     "--omega", "1.2", "--alpha", "1", "--step", "0.1", "--max-points", "41", "--n", "10"],
    ["simulate", "--model", "blowflies", "--set", "mu=7", "--set", "beta=105", "--n", "20",
     "--t-end", "30", "--rel-tol", "1e-7", "--abs-tol", "1e-9", "--history", "const:2",
     "--period", "--out", "{out}"],
    ["simulate", "--model", "fluidflow", "--n", "8", "--t-end", "10",
     "--history", "const:0.3,2.2", "--out", "{out}"],
    ["eig", "--model", "blowflies", "--set", "mu=4", "--set", "beta=35", "--n", "10"],
    ["eig", "--model", "fluidflow", "--n", "8"],
    ["charfn", "--model", "blowflies", "--n", "10", "--lambda", "0.1+2.3i"],
    ["charfn", "--model", "fluidflow", "--n", "12", "--lambda=-0.2+1.1i"],
    ["chart-blowfly", "--n", "40", "--omega-min", "1.6", "--omega-max", "3.1",
     "--steps", "200", "--out", "{out}"],
    ["chart-blowfly", "--n", "3", "--omega-min", "2.9", "--omega-max", "3.2",
     "--steps", "60"],
    ["mesh", "--n", "4"],
    ["mesh", "--n", "7"],
    # exit 1: omega collapses during the Newton, and a lag solve at an
    # eigenvalue of D (n = 4) is refused as ill-conditioned
    ["hopf", *_BLOWFLY_HOPF[:6], "--omega", "0.3", "--alpha", "35", "--n", "10"],
    ["charfn", "--model", "blowflies", "--n", "4",
     "--lambda=-1.917684056336766+4.661504263757562i"],
]


def build() -> dict:
    """The numpy and BLAS build and the machine, the keys of exact mode."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def run_case(argv) -> dict:
    """Run one argv through cli.main in process: exit code, stdout, stderr
    and the --out file's text (None without --out)."""
    from chebdde import cli

    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out")
        args = [a.replace("{corpus}", CORPUS_DIR).replace("{out}", out_path) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        out = None
        if "{out}" in argv and os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as handle:
                out = handle.read()
    return {"argv": list(argv), "code": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "out": out}


def _close(a: float, b: float, floored: bool) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    diff = abs(a - b)
    return diff <= REL_TOL * max(abs(a), abs(b)) or (floored and diff <= ABS_FLOOR)


def _is_floored(name) -> bool:
    return isinstance(name, str) and any(part in name for part in _FLOORED)


def _json_diffs(got, want, key, where) -> list:
    """Differences between two parsed JSON values; numbers by _close, with
    the floor decided by the nearest enclosing key."""
    numbers = (int, float)
    if (isinstance(got, numbers) and isinstance(want, numbers)
            and not isinstance(got, bool) and not isinstance(want, bool)):
        return [] if _close(float(got), float(want), _is_floored(key)) else [
            f"{where}: {got!r} != {want!r}"]
    if isinstance(got, dict) and isinstance(want, dict) and got.keys() == want.keys():
        return [d for k in want for d in _json_diffs(got[k], want[k], k, f"{where}.{k}")]
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _json_diffs(g, w, key, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


_NUMBER = re.compile(r"^-?(\d+\.?\d*(e[-+]?\d+)?|inf|nan)$")


def _csv_diffs(got: str, want: str, where: str) -> list:
    """Differences between two CSV texts, cell by cell; the header names
    the floored columns."""
    got_rows = [line.split(",") for line in got.split("\n")]
    want_rows = [line.split(",") for line in want.split("\n")]
    if len(got_rows) != len(want_rows) or got_rows[0] != want_rows[0]:
        return [f"{where}: {len(got_rows)} lines, header {got_rows[0]} != "
                f"{len(want_rows)} lines, header {want_rows[0]}"]
    header = want_rows[0]
    diffs = []
    for row, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        if len(g_row) != len(w_row):
            diffs.append(f"{where} line {row + 1}: {g_row} != {w_row}")
            continue
        for col, (g, w) in enumerate(zip(g_row, w_row)):
            if g == w:
                continue
            name = header[col] if col < len(header) else None
            if not (_NUMBER.match(g) and _NUMBER.match(w)
                    and _close(float(g), float(w), _is_floored(name))):
                diffs.append(f"{where} line {row + 1} {name}: {g} != {w}")
    return diffs


def _text_diffs(got, want, where: str) -> list:
    """Differences between two outputs in numeric mode: JSON documents and
    CSV tables number by number, anything else as text."""
    if got == want:
        return []
    if got is None or want is None:
        return [f"{where}: {got!r} != {want!r}"]
    try:
        got_doc, want_doc = json.loads(got), json.loads(want)
    except ValueError:
        pass
    else:
        return _json_diffs(got_doc, want_doc, None, where)
    if "," in want:
        return _csv_diffs(got, want, where)
    return [f"{where}: {got!r} != {want!r}"]


def _stderr_diffs(got: str, want: str) -> list:
    """stderr holds at most one JSON error object per line."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"stderr: {got!r} != {want!r}"]
    return [d for g, w in zip(got_lines, want_lines) for d in _text_diffs(g, w, "stderr")]


def compare(got: dict, want: dict, exact: bool) -> list:
    """Differences between a rerun case and its record, in either mode."""
    keys = ("code", "stdout", "stderr", "out")
    if exact:
        return [f"{key}: bytes differ" for key in keys if got[key] != want[key]]
    diffs = [] if got["code"] == want["code"] else [f"code: {got['code']} != {want['code']}"]
    diffs += _text_diffs(got["stdout"], want["stdout"], "stdout")
    diffs += _stderr_diffs(got["stderr"], want["stderr"])
    diffs += _text_diffs(got["out"], want["out"], "out")
    return diffs


def load() -> dict:
    with open(CORPUS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def regenerate() -> dict:
    """Run every case and write the corpus with the build it ran on."""
    corpus = {"build": build(), "cases": [run_case(argv) for argv in CASES]}
    with open(CORPUS_FILE, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=1)
        handle.write("\n")
    return corpus


if __name__ == "__main__":
    done = regenerate()
    codes = [case["code"] for case in done["cases"]]
    print(f"{len(codes)} cases, exit codes {sorted(set(codes))}, build {done['build']}")
