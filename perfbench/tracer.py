"""Outside-in layer trace of chebdde.

The tracer wraps each layer's public callables from outside the package and
records one span per call: name, parent, start and end. Spans stay in memory
until the run ends. The layer metrics are computed from them then.

Callables are found by walking the layer modules, so `<layer>.calls` and
`<layer>.self_s` stay defined when functions are renamed or merged. A named
metric whose target functions no longer exist is reported as missing.
"""

import fnmatch
import functools
import importlib
import inspect
from time import perf_counter

#: the layers, bottom-up; functions of the private helper modules are owned
#: by the first of these that exposes them under a public name
LAYERS = ("cheb_mesh", "model", "discretize", "analytic", "hopf", "simulate", "cli")

#: callables that are not chebdde's own but are wrapped at a chebdde binding:
#: the LU factorization behind the cached lag solves
EXTRA_TARGETS = (("discretize", "lu_factor"),)

# Named function metrics: name -> (kind, span-name patterns, unit). Kinds:
# calls, self (self time) and total (inclusive time) sum over every span
# whose name matches a pattern.
NAMED = {
    "discretize.rhs.calls": ("calls", ["discretize.rhs"], "count"),
    "discretize.rhs.self_s": ("self", ["discretize.rhs"], "s"),
    "simulate.integrate.self_s": ("self", ["simulate.integrate"], "s"),
    "simulate.period_report.self_s": ("self", ["simulate.period_report"], "s"),
    "model.eval_jet3.calls": ("calls", ["model.eval_jet3"], "count"),
    "model.eval_jet3.self_s": ("self", ["model.eval_jet3"], "s"),
    "model.linearize.calls": ("calls", ["model.linearize"], "count"),
    "model.linearize.total_s": ("total", ["model.linearize"], "s"),
    "model.param_jacobians.calls": ("calls", ["model.param_jacobians"], "count"),
    "model.param_jacobians.total_s": ("total", ["model.param_jacobians"], "s"),
    "model.equilibrium_solve.calls": ("calls", ["model.equilibrium_solve"], "count"),
    "model.equilibrium_solve.self_s": ("self", ["model.equilibrium_solve"], "s"),
    "discretize.lag_solve.calls": ("calls", ["discretize.*.lag_solve"], "count"),
    "discretize.charfn.calls": ("calls", ["discretize.charfn_*"], "count"),
    "discretize.charfn.self_s": ("self", ["discretize.charfn_*"], "s"),
    "discretize.eigenvalues.calls": ("calls", ["discretize.eigenvalues"], "count"),
    "discretize.eigenvalues.self_s": ("self", ["discretize.eigenvalues"], "s"),
    "hopf.find_hopf.calls": ("calls", ["hopf.find_hopf"], "count"),
    "hopf.hopf_point.self_s": ("self", ["hopf.hopf_point"], "s"),
    "analytic.lag_solve_last.calls": ("calls", ["analytic.lag_solve_last"], "count"),
    "analytic.lag_solve_last.self_s": ("self", ["analytic.lag_solve_last"], "s"),
    "analytic.delta0.calls": ("calls", ["analytic.delta0_*"], "count"),
    "cheb_mesh.build.calls": ("calls", ["cheb_mesh.make_mesh", "cheb_mesh.diff_matrix"], "count"),
    "cheb_mesh.build.self_s": ("self", ["cheb_mesh.make_mesh", "cheb_mesh.diff_matrix"], "s"),
    "cli.main.self_s": ("self", ["cli.main"], "s"),
}

# Counters read off result objects: span name -> {counter: reader}.
RESULT_COUNTERS = {
    "simulate.integrate": {
        "accepted_steps": lambda traj: len(traj.times) - 1,
    },
    "hopf.find_hopf": {
        # one residual per Newton evaluation; the last one is the converged check
        "newton_iterations": lambda point: len(point.residuals) - 1,
    },
    "hopf.trace_hopf_curve": {
        "curve_points": lambda curve: len(curve.points),
        "corrector_iterations": lambda curve: sum(d.iterations for d in curve.diagnostics),
    },
}

#: (child patterns, ancestor patterns): spans of the first kind nested in one
#: of the second, for the ratios that must not count unrelated calls
NESTED = {
    "factorizations": (["discretize.lu_factor"], ["discretize.*.lag_solve"]),
    "curve_builds": (["model.equilibrium_solve"], ["hopf.trace_hopf_curve"]),
    "integrate_rhs": (["discretize.rhs"], ["simulate.integrate"]),
}


def _layer_of(module_name: str):
    short = module_name.rpartition(".")[2]
    return short if module_name.startswith("chebdde.") and short in LAYERS else None


def _is_own(obj) -> bool:
    module = getattr(obj, "__module__", None) or ""
    return module == "chebdde" or module.startswith("chebdde.")


def discover(package="chebdde"):
    """Public callables per layer as {span name: (owner object, attribute, callable)}.

    A function is named `<layer>.<name>` after the layer that defines it or,
    for the private helper modules, the first layer exposing it. Public
    methods of public classes are included as `<layer>.<Class>.<method>`.
    """
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{package}.{layer}")
        except ImportError:
            continue
    targets = {}
    seen = set()
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if name.startswith("_") or id(obj) in seen or not _is_own(obj):
                continue
            owner = _layer_of(obj.__module__)
            if owner not in (None, layer):
                continue  # re-exported from another layer; named there
            seen.add(id(obj))
            if inspect.isclass(obj):
                if issubclass(obj, BaseException):
                    continue
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        targets[f"{layer}.{name}.{meth}"] = (obj, meth, fn)
            elif callable(obj):
                targets[f"{layer}.{name}"] = (module, name, obj)
    for layer, name in EXTRA_TARGETS:
        module = modules.get(layer)
        if module is not None and callable(getattr(module, name, None)):
            targets[f"{layer}.{name}"] = (module, name, getattr(module, name))
    return modules, targets


class Tracer:
    """Wraps the discovered callables and records their spans."""

    def __init__(self, package="chebdde"):
        self.modules, self.targets = discover(package)
        self.span_names = sorted(self.targets)
        self.name_of = []
        self.parent = []
        self.start = []
        self.end = []
        self.stack = []
        self.counters = {}  # counter -> total, or None once a reader failed
        self._patched = []  # (owner, attribute, original) to undo install()
        self._package = importlib.import_module(package)

    def install(self):
        """Replace every binding of every target, at each layer module and
        the package, with its wrapper."""
        wrappers = {}
        for index, name in enumerate(self.span_names):
            owner, attr, fn = self.targets[name]
            wrapper = self._wrap(index, name, fn)
            wrappers[id(fn)] = wrapper
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
        for module in [self._package, *self.modules.values()]:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every binding install() replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, index, name, fn):
        readers = RESULT_COUNTERS.get(name, {})
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(name_of)
            name_of.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            for counter, read in readers.items():
                self._count_result(counter, read, result)
            return result

        return wrapper

    def _count_result(self, counter, read, result):
        if counter in self.counters and self.counters[counter] is None:
            return
        try:
            value = read(result)
        except (AttributeError, TypeError):
            self.counters[counter] = None  # the result no longer carries it
            return
        self.counters[counter] = self.counters.get(counter, 0) + value

    def spans(self):
        """(name, parent id, start, end) of every recorded span, in call order."""
        for sid, index in enumerate(self.name_of):
            yield self.span_names[index], self.parent[sid], self.start[sid], self.end[sid]

    def write_spans(self, path):
        with open(path, "w") as handle:
            handle.write("id,name,parent,start,end\n")
            for sid, (name, parent, t0, t1) in enumerate(self.spans()):
                handle.write(f"{sid},{name},{parent},{t0!r},{t1!r}\n")

    def summary(self) -> dict:
        """Per span name: calls, self seconds and total seconds; per nested
        pair: nested span count; plus the result counters."""
        n_names = len(self.span_names)
        calls = [0] * n_names
        total = [0.0] * n_names
        selfs = [0.0] * n_names
        child = [0.0] * len(self.name_of)
        for sid in range(len(self.name_of) - 1, -1, -1):
            dur = self.end[sid] - self.start[sid]
            index = self.name_of[sid]
            calls[index] += 1
            total[index] += dur
            selfs[index] += dur - child[sid]
            if self.parent[sid] >= 0:
                child[self.parent[sid]] += dur
        nested = {}
        for key, (kids, ancestors) in NESTED.items():
            kid_set = self._indices(kids)
            anc_set = self._indices(ancestors)
            inside = [False] * len(self.name_of)
            count = 0
            for sid, index in enumerate(self.name_of):
                up = self.parent[sid]
                inside[sid] = up >= 0 and (inside[up] or self.name_of[up] in anc_set)
                if inside[sid] and index in kid_set:
                    count += 1
            nested[key] = count if kid_set and anc_set else None
        return {
            "functions": {
                name: {"calls": calls[i], "self_s": selfs[i], "total_s": total[i]}
                for i, name in enumerate(self.span_names)
            },
            "nested": nested,
            "counters": dict(self.counters),
        }

    def _indices(self, patterns) -> set:
        return {i for i, name in enumerate(self.span_names)
                if any(fnmatch.fnmatchcase(name, pat) for pat in patterns)}


def _matching(functions: dict, patterns) -> list:
    return [name for name in functions
            if any(fnmatch.fnmatchcase(name, pat) for pat in patterns)]


def _ratio(num, den):
    """num / den; None when either is missing, 0 when there was no work."""
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(summary: dict, jobs: int) -> dict:
    """Per-job per-layer metrics {name: (value or None when missing, unit)}.

    Counts and times are totals over the traced jobs divided by `jobs`;
    ratios are taken between totals.
    """
    functions, counters, nested = summary["functions"], summary["counters"], summary["nested"]

    def per_job(value):
        return None if value is None else value / jobs

    def summed(patterns, key):
        names = _matching(functions, patterns)
        return sum(functions[n][key] for n in names) if names else None

    def counter(name):
        """A result counter; 0 when its span exists but never ran."""
        if name in counters:
            return counters[name]
        spans = [span for span, readers in RESULT_COUNTERS.items() if name in readers]
        return 0 if any(span in functions for span in spans) else None

    totals = {}
    for layer in LAYERS:
        totals[f"{layer}.calls"] = (summed([f"{layer}.*"], "calls"), "count")
        totals[f"{layer}.self_s"] = (summed([f"{layer}.*"], "self_s"), "s")
    key_of = {"calls": "calls", "self": "self_s", "total": "total_s"}
    for metric, (kind, patterns, unit) in NAMED.items():
        totals[metric] = (summed(patterns, key_of[kind]), unit)
    rhs_calls = totals["discretize.rhs.calls"][0]
    rhs_self = totals["discretize.rhs.self_s"][0]
    steps = counter("accepted_steps")
    lag_calls = totals["discretize.lag_solve.calls"][0]
    factorizations = nested["factorizations"]
    hits = None if lag_calls is None or factorizations is None else lag_calls - factorizations
    points = counter("curve_points")
    totals["simulate.accepted_steps"] = (steps, "count")
    totals["discretize.lag_solve.factorizations"] = (factorizations, "count")
    totals["hopf.newton_iterations"] = (counter("newton_iterations"), "count")
    totals["hopf.curve.points"] = (points, "count")
    totals["hopf.curve.corrector_iterations"] = (counter("corrector_iterations"), "count")
    out = {name: (per_job(value), unit) for name, (value, unit) in totals.items()}
    us_per_call = _ratio(rhs_self, rhs_calls)
    out["discretize.rhs.us_per_call"] = (None if us_per_call is None else 1e6 * us_per_call, "us")
    out["simulate.rhs_per_step"] = (_ratio(nested["integrate_rhs"], steps), "1")
    out["discretize.lag_solve.hit_ratio"] = (_ratio(hits, lag_calls), "1")
    out["hopf.curve.builds_per_point"] = (_ratio(nested["curve_builds"], points), "1")
    return out
