"""The model at a parameter point as one object, and the layer exports."""

import dataclasses
import fnmatch
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import chebdde

from chebdde import analytic, cheb_mesh, discretize, simulate
from chebdde import model as model_layer
from chebdde.discretize import make_system
from chebdde.model import blowflies
from _reference import charfn_eval, trilinear_form

LAYERS = ["cheb_mesh", "model", "discretize", "analytic", "hopf", "simulate"]


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_exists(layer):
    module = importlib.import_module(f"chebdde.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# What only tests used: the oracles now in tests/_reference.py (the ODE-side
# eigenvectors, resolvent and projection among them), the deleted wrapper
# analytic.boundary_point, the unread property LinearPart.terms, and
# aliases of one expression each (LinearPart.delays copied model.delays)
_TEST_ONLY = [
    (cheb_mesh, ["lagrange_eval", "interpolate", "lebesgue_constant"]),
    (model_layer, ["_slot_vector", "bilinear_form", "trilinear_form", "collapsed_rhs"]),
    (analytic, ["_b1_n2", "lambda_prime_n2", "lambda_prime_n2_re", "boundary_point",
                "c_blowfly"]),
    (discretize, ["charfn_eval", "charfn_dlambda", "charfn_dalpha", "eigvec_right",
                  "eigvec_left", "resolvent_apply", "projection_apply"]),
    (simulate, ["estimate_period"]),
    (simulate.Trajectory, ["component"]),
    (model_layer.DdeModel, ["rhs_text"]),
    (model_layer.LinearPart, ["terms", "delays", "dim"]),
    (model_layer.Jet3, ["constant", "variable"]),
]


def _has(owner, name) -> bool:
    """An attribute, or a dataclass field (one without a default is not a
    class attribute)."""
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return hasattr(owner, name) or name in {f.name for f in fields}


_LOADED_FILES = """
import json, sys
import chebdde.cli
print(json.dumps([getattr(m, "__file__", None) or "" for m in list(sys.modules.values())]))
"""


def test_the_library_holds_no_test_only_code():
    left = [f"{owner.__name__}.{name}" for owner, names in _TEST_ONLY
            for name in names if _has(owner, name)]
    assert left == []
    # tests/ is importable in the child, yet the CLI loads nothing from it
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(chebdde.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests_dir, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _LOADED_FILES],
                         env=env, capture_output=True, text=True, check=True)
    files = json.loads(out.stdout)
    assert [f for f in files if os.path.abspath(f).startswith(tests_dir + os.sep)] == []


def test_degree_operators_are_shared_and_read_only():
    ps = make_system(blowflies(), 6)
    other = make_system(blowflies(mu=5.0, beta=60.0), 6)
    assert other.op is ps.op and other.diff is ps.diff and other.mesh is ps.mesh
    for arr in (ps.op, ps.diff.D, ps.diff.d0, ps.mesh.nodes, ps.mesh.bary_weights):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_every_benchmark_target_exists():
    # the benchmark wraps callables by name, and a named metric whose target
    # is gone reads null in its result; tracer.py is loaded by path, read only
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracer", os.path.join(root, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = list(tracer.discover()[1])
    patterns = [pat for _, pats, _ in tracer.NAMED.values() for pat in pats]
    patterns += list(tracer.RESULT_COUNTERS)
    patterns += [pat for pair in tracer.NESTED.values() for pats in pair for pat in pats]
    unmatched = [pat for pat in patterns
                 if not any(fnmatch.fnmatchcase(name, pat) for name in names)]
    assert unmatched == []


def test_rhs_compiles_on_first_use():
    ps = make_system(blowflies(), 4)
    assert "rhs_fn" not in vars(ps)
    charfn_eval(ps, 1j)
    assert "rhs_fn" not in vars(ps)  # analysis never compiles the rhs
    assert ps.rhs_fn is ps.rhs_fn


def test_third_derivative_compiles_on_first_use():
    model = blowflies(mu=4.0, beta=40.0)
    ps = make_system(model, 4)
    charfn_eval(ps, 1j)
    # the equilibrium and the linearization need no third derivative
    assert "_third" not in vars(model.derivs)
    e1 = {(0, 1): 1.0}
    trilinear_form(model, ps.equilibrium, e1, e1, e1)
    assert model.derivs._third is model.derivs._third
    assert model.with_params(beta=50.0).derivs._third is model.derivs._third


# Runs each command in one fresh interpreter, in order, and prints after each
# whether scipy.linalg and scipy.integrate are loaded; loading is permanent,
# so the one command that needs it, the degree-n chart, goes last.
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
    ["lyap", "--model", "fluidflow", "--param", "k", "--n", "10", "--omega", "1.2",
     "--alpha", "1"],
    ["curve", "--model", "blowflies", "--params", "mu,beta", "--seed-param",
     "beta", "--set", "mu=3", "--n", "10", "--omega", "2.4", "--alpha", "29",
     "--step", "0.5", "--max-points", "5"],
    ["converge", "--model", "blowflies", "--param", "beta", "--set", "mu=4",
     "--n-list", "4,8"],
    ["chart-blowfly", "--n", "40", "--omega-min", "1.6", "--omega-max", "3.1",
     "--steps", "50"],
]
_PROBE = """
import contextlib, io, json, sys
import chebdde.cli
loaded = [sorted(m for m in sys.modules if m.startswith("scipy"))]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = chebdde.cli.main(argv)
    loaded.append([code, "scipy.linalg" in sys.modules, "scipy.integrate" in sys.modules])
print(json.dumps(loaded))
"""


def test_scipy_loads_only_for_degree_n_solves():
    # importing scipy.linalg costs about 0.27 s and 26 MB, and scipy.integrate
    # another 0.3 s and 23 MB (an integrator from it has to be weighed
    # against that); chebdde.cli loads neither, the lag solves behind the
    # degree-n Hopf commands run on numpy.linalg, only the Schur-factored
    # degree-n chart loads scipy.linalg, and no command, the time stepping
    # of simulate included, loads scipy.integrate
    src = os.path.dirname(os.path.dirname(chebdde.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(_COMMANDS)],
                         env=env, capture_output=True, text=True, check=True)
    at_import, *runs = json.loads(out.stdout)
    assert at_import == []
    assert runs == [[0, False, False]] * (len(_COMMANDS) - 1) + [[0, True, False]]
