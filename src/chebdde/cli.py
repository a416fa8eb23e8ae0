"""Command-line front end over the mesh, spectrum, Hopf and simulation layers.

Every subcommand writes one primary artifact, CSV or JSON, to stdout or to
--out (written to a temp file and renamed, so a failed run never leaves a
half-written file). Numerical failures exit 1 with the error payload as JSON
on stderr; usage problems exit 2.
"""

import argparse
import cmath
import json
import math
import os
import sys
import tempfile

import numpy as np

from ._expr import evaluate, param_names, parse_expr, state_symbols
from .analytic import admissible_omegas, boundary_points
from .cheb_mesh import diff_matrix, make_mesh
from .discretize import assemble_An, charfn_det, eigenvalues, make_system
from .errors import ChebddeError, UnknownSymbolError
from .hopf import convergence_study, find_hopf, trace_hopf_curve
from .model import get_model
from .simulate import integrate, period_report, sample_history


def _fmt(value) -> str:
    """Full-precision CSV cell: repr for floats, str for the rest."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _column(cells) -> list:
    """The _fmt text of one column's cells; a column of only floats or only
    ints (bool excluded) is formatted in bulk."""
    kinds = set(map(type, cells))
    if kinds <= {float, np.float64}:
        return list(map(repr, map(float, cells)))
    if kinds <= {int, np.int64}:
        return list(map(str, map(int, cells)))
    return list(map(_fmt, cells))


def _csv(header, columns) -> str:
    """CSV text with _fmt cells, formatted column by column."""
    lines = [",".join(header), *map(",".join, zip(*map(_column, columns), strict=True))]
    return "\n".join(lines) + "\n"


def _plain(obj):
    """JSON-safe copy: complex -> {re, im}, non-finite floats -> null."""
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(val) for val in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _plain(float(obj.real)), "im": _plain(float(obj.imag))}
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if math.isfinite(val) else None
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _json(obj) -> str:
    return json.dumps(_plain(obj), indent=2) + "\n"


def _emit(text: str, path):
    if path is None:
        sys.stdout.write(text)
        return
    # a unique temp file, so concurrent runs never share one; mkstemp makes
    # it private, so give it the mode a plain open() would
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(fd, 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or []:
        name, sep, val = pair.partition("=")
        if not sep or not name:
            raise argparse.ArgumentTypeError(f"expected name=value, got {pair!r}")
        try:
            out[name] = float(val)
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-numeric value in {pair!r}") from None
        if not math.isfinite(out[name]):
            raise argparse.ArgumentTypeError(f"non-finite value in {pair!r}")
    return out


def _load_model(args):
    model = get_model(args.model)
    overrides = _parse_overrides(getattr(args, "set", None))
    if overrides:
        model = model.with_params(**overrides)
    return model


def _override_pair(text):
    _parse_overrides([text])
    return text


def _positive_int(text):
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if val < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {val}")
    return val


def _positive_float(text):
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(val) or val <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return val


def _finite_float(text):
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return val


def _complex_arg(text):
    try:
        val = complex(text.replace("i", "j").replace("I", "j").replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a complex number like 0.1+2.3i, got {text!r}"
        ) from None
    if not cmath.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a finite complex number, got {text!r}")
    return val


def _int_list(text):
    try:
        vals = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers like 4,6,8, got {text!r}") from None
    if not vals or any(v < 1 for v in vals):
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return vals


def _name_pair(text):
    names = [part.strip() for part in text.split(",")]
    if len(names) != 2 or not all(names):
        raise argparse.ArgumentTypeError(f"expected two names like k,c, got {text!r}")
    return tuple(names)


def _lyap_payload(point) -> dict:
    return {key: getattr(point, key)
            for key in ("param", "alpha", "omega", "c", "sigma", "a2")}


def _hopf_payload(point) -> dict:
    verdict = point.nonresonance
    return {
        **_lyap_payload(point),
        "simplicity_margin": point.simplicity_margin,
        "nonresonance": {
            "ok": verdict.ok,
            "margins": [{"k": k, "margin": m} for k, m in verdict.margins],
            "failures": list(verdict.failures),
            "axis_clearance": verdict.axis_clearance,
            "near_axis": list(verdict.near_axis),
        },
        "residuals": list(point.residuals),
    }


def _cmd_mesh(args):
    mesh = make_mesh(args.n)
    diff = diff_matrix(mesh)
    header = ["label"] + [f"j{k}" for k in range(args.n + 1)]
    labels = ["node", "weight"] + [f"d{i + 1}" for i in range(args.n)]
    table = np.vstack([mesh.nodes, mesh.bary_weights, np.column_stack([diff.d0, diff.D])])
    return [(_csv(header, [labels, *table.T.tolist()]), args.out)]


def _cmd_eig(args):
    model = _load_model(args)
    vals = eigenvalues(assemble_An(make_system(model, args.n)))
    return [(_csv(["re", "im"], [vals.real.tolist(), vals.imag.tolist()]), args.out)]


def _cmd_charfn(args):
    model = _load_model(args)
    lam = args.lam
    det_n = charfn_det(make_system(model, args.n), lam)
    det_0 = charfn_det(make_system(model), lam)
    header = ["re_lambda", "im_lambda", "re_delta_n", "im_delta_n", "re_delta_0", "im_delta_0"]
    row = (lam.real, lam.imag, det_n.real, det_n.imag, det_0.real, det_0.imag)
    return [(_csv(header, ([cell] for cell in row)), args.out)]


def _find_point(args, model):
    # --n and --analytic exclude each other, so n is None for the exact problem
    return find_hopf(make_system(model, args.n), args.param, args.omega, args.alpha)


def _cmd_hopf(args):
    point = _find_point(args, _load_model(args))
    return [(_json(_hopf_payload(point)), args.out)]


def _cmd_lyap(args):
    point = _find_point(args, _load_model(args))
    return [(_json(_lyap_payload(point)), args.out)]


def _cmd_curve(args):
    model = _load_model(args)
    seed_param = args.seed_param or args.params[1]
    start = find_hopf(make_system(model, args.n), seed_param, args.omega, args.alpha)
    curve = trace_hopf_curve(model, args.params, start, args.step,
                             max_points=args.max_points, n=args.n)
    header = list(curve.names) + ["omega", "step", "residual", "iterations", "simplicity"]
    diags = [[getattr(diag, key) for diag in curve.diagnostics]
             for key in ("residual", "iterations", "simplicity")]
    columns = [*curve.points.T.tolist(), curve.steps.tolist(), *diags]
    return [(_csv(header, columns), args.out)]


def _cmd_converge(args):
    model = get_model(args.model)
    fixed = _parse_overrides(args.set)
    rows = convergence_study(model, args.param, fixed, args.n_list,
                             omega_guess=args.omega, alpha_guess=args.alpha,
                             reference=args.reference)
    header = ["n", "alpha_err", "omega_err", "a2_err", "sigma",
              "simplicity", "nonres_margin", "failure"]
    columns = [[getattr(row, key) for row in rows] for key in header]
    columns[-1] = [failure or "" for failure in columns[-1]]
    return [(_csv(header, columns), args.out)]


def _history_fn(text, model, parser):
    kind, sep, body = text.partition(":")
    if not sep or kind not in ("const", "expr"):
        parser.error(f"--history must be const:VAL or expr:STRING, got {text!r}")
    if kind == "const":
        try:
            vals = np.array([float(part) for part in body.split(",")], dtype=float)
        except ValueError:
            parser.error(f"non-numeric constant history {body!r}")
        if len(vals) == 1:
            return lambda theta: float(vals[0])
        if len(vals) != model.dim:
            parser.error(f"constant history has {len(vals)} components, model has {model.dim}")
        return lambda theta: vals
    trees = [parse_expr(part) for part in body.split(";") if part.strip()]
    if len(trees) == 1 and model.dim > 1:
        trees = trees * model.dim
    if len(trees) != model.dim:
        parser.error(f"history has {len(trees)} expressions, model has {model.dim}")
    base = dict(model.params)
    # checked before any sample, as make_model checks the rhs
    for tree in trees:
        unknown = param_names(tree) - {*base, "theta"}
        if unknown:
            raise UnknownSymbolError(f"unknown parameters {sorted(unknown)} in the history")
        if state_symbols(tree):
            raise UnknownSymbolError("the history is a function of theta alone, "
                                     "not of state symbols")

    def phi(theta):
        env = dict(base)
        env["theta"] = theta
        out = np.array([evaluate(tree, {}, env) for tree in trees], dtype=float)
        return float(out[0]) if model.dim == 1 else out

    return phi


def _cmd_simulate(args):
    model = _load_model(args)
    if args.period and args.out is None:
        args.parser.error("--period writes JSON to stdout; direct the CSV with --out")
    ps = make_system(model, args.n)
    phi = _history_fn(args.history, model, args.parser)
    traj = integrate(ps, sample_history(ps, phi), args.t_end,
                     rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    header = ["t"] + [f"y{i}" for i in range(model.dim)]
    columns = [traj.times.tolist(), *traj.states[:, : model.dim].T.tolist()]
    outputs = [(_csv(header, columns), args.out)]
    if args.period:
        report = period_report(traj, component=args.component, skip=args.skip)
        outputs.append((_json(report), None))
    return outputs


def _cmd_chart_blowfly(args):
    header = ["source", "omega", "b1", "b2", "mu", "beta_over_mu", "re_c"]
    blocks = []
    for source, degree in (("dde", None), ("discretized", args.n)):
        omegas = admissible_omegas(args.omega_min, args.omega_max, args.steps, degree)
        # a pass of its own over the kept omegas: zeta_n's last bits depend
        # on which shifts share a sweep, so the grid's values would differ
        omega, b1, b2, mu, beta, re_c = boundary_points(omegas, degree)
        blocks.append([[source] * omega.size,
                       *(col.tolist() for col in (omega, b1, b2, mu, beta / mu, re_c))])
    return [(_csv(header, [dde + disc for dde, disc in zip(*blocks)]), args.out)]


def _add_model_opts(sub, param=True):
    sub.add_argument("--model", required=True,
                     help="built-in model name or a model definition file")
    sub.add_argument("--set", action="append", metavar="NAME=VALUE", type=_override_pair,
                     default=[], help="override a model parameter")
    if param:
        sub.add_argument("--param", required=True, help="bifurcation parameter name")


def _add_search_opts(sub):
    sub.add_argument("--omega", required=True, type=_positive_float,
                     help="initial guess for the critical frequency")
    sub.add_argument("--alpha", required=True, type=_finite_float,
                     help="initial guess for the parameter value")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_positive_int, help="collocation degree")
    group.add_argument("--analytic", action="store_true",
                       help="use the exact characteristic function")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chebdde",
        description="Chebyshev collocation tools for delay differential equations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("mesh", help="nodes, quadrature weights and differentiation rows")
    sub.add_argument("--n", required=True, type=_positive_int)
    sub.set_defaults(func=_cmd_mesh)

    sub = subs.add_parser("eig", help="spectrum of the collocation matrix")
    sub.add_argument("--n", required=True, type=_positive_int)
    sub.add_argument("--model", required=True)
    sub.add_argument("--set", "--param", action="append", metavar="NAME=VALUE",
                     type=_override_pair, default=[], dest="set",
                     help="override a model parameter")
    sub.set_defaults(func=_cmd_eig)

    sub = subs.add_parser("charfn", help="characteristic determinants at one lambda")
    _add_model_opts(sub, param=False)
    sub.add_argument("--n", required=True, type=_positive_int)
    sub.add_argument("--lambda", dest="lam", required=True, type=_complex_arg,
                     help="evaluation point, e.g. 0.1+2.3i")
    sub.set_defaults(func=_cmd_charfn)

    sub = subs.add_parser("hopf", help="locate a Hopf point and report its diagnostics")
    _add_model_opts(sub)
    _add_search_opts(sub)
    sub.set_defaults(func=_cmd_hopf)

    sub = subs.add_parser("lyap", help="Lyapunov coefficient and branch direction at a Hopf point")
    _add_model_opts(sub)
    _add_search_opts(sub)
    sub.set_defaults(func=_cmd_lyap)

    sub = subs.add_parser("curve", help="trace a critical curve in two parameters")
    _add_model_opts(sub, param=False)
    sub.add_argument("--params", required=True, type=_name_pair, metavar="P1,P2",
                     help="the two continuation parameters")
    sub.add_argument("--seed-param", default=None,
                     help="parameter freed for the seed search (default: P2)")
    _add_search_opts(sub)
    sub.add_argument("--step", required=True, type=_positive_float,
                     help="initial arclength step")
    sub.add_argument("--max-points", type=_positive_int, default=400)
    sub.set_defaults(func=_cmd_curve)

    sub = subs.add_parser("converge", help="critical-point errors over a list of degrees")
    _add_model_opts(sub)
    sub.add_argument("--n-list", required=True, type=_int_list, metavar="N1,N2,...")
    sub.add_argument("--reference", choices=["analytic", "finest"], default=None)
    sub.add_argument("--omega", type=_positive_float, default=None)
    sub.add_argument("--alpha", type=_finite_float, default=None)
    sub.set_defaults(func=_cmd_converge)

    sub = subs.add_parser("simulate", help="integrate the collocated system from a history")
    _add_model_opts(sub, param=False)
    sub.add_argument("--n", required=True, type=_positive_int)
    sub.add_argument("--t-end", required=True, type=_positive_float)
    sub.add_argument("--history", required=True,
                     help="const:VAL[,VAL...] or expr:STRING in theta (';' between components)")
    sub.add_argument("--period", action="store_true",
                     help="also print a JSON period report to stdout")
    sub.add_argument("--component", type=int, default=0)
    sub.add_argument("--skip", type=float, default=0.6)
    sub.add_argument("--rel-tol", type=_positive_float, default=1e-6)
    sub.add_argument("--abs-tol", type=_positive_float, default=1e-9)
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("chart-blowfly", help="Hopf boundary chart rows, exact and discretized")
    sub.add_argument("--n", required=True, type=_positive_int)
    sub.add_argument("--omega-min", required=True, type=_positive_float)
    sub.add_argument("--omega-max", required=True, type=_positive_float)
    sub.add_argument("--steps", required=True, type=_positive_int)
    sub.set_defaults(func=_cmd_chart_blowfly)

    for sub_parser in subs.choices.values():
        sub_parser.add_argument("--out", default=None, metavar="PATH",
                                help="write the primary output here instead of stdout")
        sub_parser.set_defaults(parser=sub_parser)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # every reported value meets a finiteness check, so numpy's
        # floating-point warnings would only put noise ahead of the payload
        with np.errstate(all="ignore"):
            for text, path in args.func(args):
                _emit(text, path)
    except ChebddeError as exc:
        sys.stderr.write(json.dumps(_plain(exc.payload())) + "\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        # numpy's message names the allocation; a bare MemoryError has none
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
