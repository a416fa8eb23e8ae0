"""The model at a parameter point as one object, and the layer exports."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import chebdde

from chebdde.discretize import charfn_eval, make_system
from chebdde.model import blowflies

LAYERS = ["cheb_mesh", "model", "discretize", "analytic", "hopf", "simulate"]


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_exists(layer):
    module = importlib.import_module(f"chebdde.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_degree_operators_are_shared_and_read_only():
    ps = make_system(blowflies(), 6)
    other = make_system(blowflies(mu=5.0, beta=60.0), 6)
    assert other.op is ps.op and other.diff is ps.diff and other.mesh is ps.mesh
    for arr in (ps.op, ps.diff.D, ps.diff.d0, ps.mesh.nodes, ps.mesh.bary_weights):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_rhs_compiles_on_first_use():
    ps = make_system(blowflies(), 4)
    assert "rhs_fn" not in vars(ps)
    charfn_eval(ps, 1j)
    assert "rhs_fn" not in vars(ps)  # analysis never compiles the rhs
    assert ps.rhs_fn is ps.rhs_fn


# Runs each command in one fresh interpreter, in order, and prints after each
# whether scipy.linalg is loaded; loading is permanent, so the commands that
# need no degree-n solve go first and `hopf --n 10`, which does, goes last.
_COMMANDS = [
    ["simulate", "--model", "blowflies", "--n", "6", "--t-end", "2",
     "--history", "const:2.3"],
    ["eig", "--model", "blowflies", "--n", "10"],
    ["mesh", "--n", "4"],
    ["hopf", "--model", "blowflies", "--param", "beta", "--set", "mu=3",
     "--analytic", "--omega", "2", "--alpha", "30"],
    ["curve", "--model", "blowflies", "--params", "mu,beta", "--seed-param",
     "beta", "--set", "mu=3", "--analytic", "--omega", "2.4", "--alpha", "29",
     "--step", "0.5", "--max-points", "5"],
    ["hopf", "--model", "blowflies", "--param", "beta", "--set", "mu=3",
     "--n", "10", "--omega", "2", "--alpha", "30"],
]
_PROBE = """
import contextlib, io, json, sys
import chebdde.cli
loaded = [sorted(m for m in sys.modules if m.startswith("scipy"))]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = chebdde.cli.main(argv)
    loaded.append([code, "scipy.linalg" in sys.modules])
print(json.dumps(loaded))
"""


def test_scipy_loads_only_for_degree_n_solves():
    # importing scipy.linalg costs about 0.27 s and 26 MB, and scipy.integrate
    # another 0.3 s and 23 MB (an integrator from it has to be weighed
    # against that); chebdde.cli loads neither, and only degree-n lag
    # solves and the Schur-factored charts load scipy.linalg
    src = os.path.dirname(os.path.dirname(chebdde.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(_COMMANDS)],
                         env=env, capture_output=True, text=True, check=True)
    at_import, *runs = json.loads(out.stdout)
    assert at_import == []
    assert runs == [[0, False]] * (len(_COMMANDS) - 1) + [[0, True]]
