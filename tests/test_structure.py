"""The model at a parameter point as one object, and the layer exports."""

import importlib
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


def test_cli_import_leaves_scipy_integrate_out():
    # importing scipy.integrate on top of chebdde.cli raises the peak RSS
    # from 57.8 to 79.6 MB (+21.8 MB) and costs about 0.2 s, on every
    # command; an integrator from it has to be weighed against that
    src = os.path.dirname(os.path.dirname(chebdde.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, chebdde.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
