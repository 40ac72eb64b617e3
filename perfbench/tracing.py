"""Per-layer tracing from outside the package.

Only a traced run installs this.  `Tracer.install()` replaces the module
attributes that callers resolve at call time with timing wrappers, so calls
made from inside the package are caught as well, and wraps `solve_ivp` as
bound in `beamspec.quasi` to count integrator work.  Every call becomes a span
(name, start, end, parent span, operation id, pass) kept in memory; metrics
and self times are derived from the spans after the run, and the spans are
written out at the end.
"""

import functools
import json
from collections import defaultdict
from time import perf_counter

from beamspec import cli, fem, quasi, spectrum


def _pencil_dim(op):
    return {"dim": op.stiffness.shape[0]}


# (module, attribute, span name, attrs of the result): the layers' public
# functions as their callers look them up
PATCHES = (
    (cli, "main", "cli.main", None),
    (cli, "load_system", "config.load_system", None),
    (cli, "solve_modes", "spectrum.solve_modes", None),
    (cli, "verify", "spectrum.verify", None),
    (spectrum, "scan", "spectrum.scan", None),
    (spectrum, "refine", "spectrum.refine", None),
    (spectrum, "eigenpair", "spectrum.eigenpair", None),
    (spectrum, "interface_matrix", "spectrum.interface_matrix", None),
    (spectrum, "det_slope", "spectrum.det_slope", None),
    (spectrum, "step_classify", "spectrum.step_classify", None),
    (spectrum, "left_fundamental", "fundamental.left_fundamental", None),
    (spectrum, "right_fundamental", "fundamental.right_fundamental", None),
    (fem, "assemble", "fem.assemble", _pencil_dim),
    (fem, "solve_generalized", "fem.solve_generalized", None),
)

# counters that must repeat exactly between passes, runs and seeds
DETERMINISTIC = ("quasi.ivp_calls", "quasi.rk_steps", "quasi.rhs_evals",
                 "spectrum.det_evals", "spectrum.scan_points",
                 "spectrum.refine_det_evals")


class Span:
    __slots__ = ("id", "parent", "op", "pass_no", "name", "start", "end", "attrs")

    def __init__(self, id, parent, op, pass_no, name):
        self.id = id
        self.parent = parent
        self.op = op
        self.pass_no = pass_no
        self.name = name
        self.start = perf_counter()
        self.end = None
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.pass_no = None
        self._stack = []
        self._restore = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.op, self.pass_no, name)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """fn(*args, **kwargs) inside a span; attrs(result) is stored on it."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if attrs is not None:
            span.attrs = attrs(result)
        return result

    def _patch(self, module, attr, wrapper):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        for module, attr, name, attrs in PATCHES:
            real = getattr(module, attr)
            wrapper = functools.wraps(real)(
                functools.partial(self.call, name, real, attrs=attrs))
            self._patch(module, attr, wrapper)
        real_ivp = quasi.solve_ivp
        self._patch(quasi, "solve_ivp", functools.wraps(real_ivp)(
            functools.partial(self._solve_ivp, real_ivp)))

    def uninstall(self):
        while self._restore:
            module, attr, real = self._restore.pop()
            setattr(module, attr, real)

    def _solve_ivp(self, real, fun, t_span, y0, *args, **kwargs):
        rhs_s = 0.0

        def timed_rhs(t, y):
            nonlocal rhs_s
            t0 = perf_counter()
            out = fun(t, y)
            rhs_s += perf_counter() - t0
            return out

        span = self._open("quasi.solve_ivp")
        try:
            sol = real(timed_rhs, t_span, y0, *args, **kwargs)
        finally:
            self._close(span)
        # steps: solve_ivp keeps every accepted step when t_eval is not given;
        # status 1 means the overflow event ended the call (a renormalisation)
        span.attrs = {"nfev": int(sol.nfev), "steps": len(sol.t) - 1,
                      "status": int(sol.status), "rhs_s": rhs_s}
        return sol

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op, "pass": s.pass_no,
                    "name": s.name, "start": s.start, "end": s.end,
                    "attrs": s.attrs}) + "\n")


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def layer_metrics(spans):
    """Per-layer metrics of one pass, from its spans."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def under(span, name):
        parent = span.parent
        while parent is not None:
            p = by_id[parent]
            if p.name == name:
                return True
            parent = p.parent
        return False

    ivp = named("quasi.solve_ivp")
    nfev = sum(s.attrs["nfev"] for s in ivp)
    dets = named("spectrum.interface_matrix")
    refines = named("spectrum.refine")
    scan_points = sum(1 for s in dets if under(s, "spectrum.scan"))
    refined_in_solve = sum(1 for s in refines if under(s, "spectrum.solve_modes"))
    refine_dets = sum(1 for s in dets if under(s, "spectrum.refine"))
    pairs = named("fundamental.left_fundamental") + named("fundamental.right_fundamental")
    dim = max((s.attrs["dim"] for s in named("fem.assemble")), default=0)
    return {
        "quasi.ivp_calls": len(ivp),
        "quasi.rk_steps": sum(s.attrs["steps"] for s in ivp),
        "quasi.rhs_evals": nfev,
        "quasi.renorms": sum(1 for s in ivp if s.attrs["status"] == 1),
        "quasi.ivp_s": sum(s.duration for s in ivp),
        "quasi.rhs_us": 1e6 * sum(s.attrs["rhs_s"] for s in ivp) / nfev if nfev else 0.0,
        "spectrum.solve_calls": len(named("spectrum.solve_modes")),
        "spectrum.scan_s": total("spectrum.scan"),
        "spectrum.scan_calls": len(named("spectrum.scan")),
        "spectrum.scan_points": scan_points,
        "spectrum.scan_yield": refined_in_solve / scan_points if scan_points else 0.0,
        "spectrum.det_evals": len(dets),
        "spectrum.det_ms": 1e3 * total("spectrum.interface_matrix") / len(dets) if dets else 0.0,
        "spectrum.det_self_ms": 1e3 * sum(own[s.id] for s in dets) / len(dets) if dets else 0.0,
        "spectrum.refine_s": total("spectrum.refine"),
        "spectrum.refine_det_evals": refine_dets / len(refines) if refines else 0.0,
        "spectrum.eigenpair_s": total("spectrum.eigenpair"),
        "spectrum.eigenpair_self_s": sum(own[s.id] for s in named("spectrum.eigenpair")),
        "spectrum.verify_s": total("spectrum.verify"),
        "spectrum.det_slope_s": total("spectrum.det_slope"),
        "spectrum.step_classify_s": total("spectrum.step_classify"),
        "fundamental.pair_calls": len(pairs),
        "fundamental.pair_s": sum(s.duration for s in pairs),
        "fem.assemble_s": total("fem.assemble"),
        "fem.eigensolve_s": total("fem.solve_generalized"),
        "fem.dofs": dim,
        # computed from array shapes, not measured: the assembled K and B
        # (two DOFs per node, before the two hinge DOFs are dropped), the
        # constrained pencil, and the full eigenvector matrix eigh returns
        "fem.dense_bytes": 8 * (2 * (dim + 2) ** 2 + 3 * dim ** 2) if dim else 0,
        "config.load_s": total("config.load_system"),
        "cli.self_s": sum(own[s.id] for s in named("cli.main")),
    }
