"""The three benchmark workloads: their fixed operation lists and checks.

Each workload names its operations by a stable id.  `run_op(op)` does the
timed work through the package's public entry points, resolved as module
attributes at call time so that a traced run sees every call.  `check(results)`
runs after a pass, untimed, and grades every operation against its acceptance
criterion, returning `{op: Outcome}`.
"""

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from beamspec import cli, config, fem, spectrum

SHOOTING_TOL = 1e-7          # acceptance criterion 1
FEM_RAW_TOL = 1e-4           # acceptance criterion 6, raw
FEM_RICHARDSON_TOL = 1e-6    # acceptance criterion 6, Richardson
MODES = 6

SHIPPED_CONFIGS = ("uniform_m0", "variable_m1")
HIGH_MODES = range(1, 41)
HIGH_HALF_WIDTH = 0.05
FEM_MESHES = (40, 80, 160, 320)


@dataclass
class Outcome:
    ok: bool
    rel_errors: list = field(default_factory=list)
    detail: str = ""


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)


def load_reference(path):
    """{config name: [lambda_1 .. lambda_6]} from reference.json."""
    table = {}
    for row in json.loads(Path(path).read_text())["rows"]:
        table.setdefault(row["config"], []).append(row["lambda"])
    return table


def _failure(exc):
    return Outcome(False, detail=f"{type(exc).__name__}: {exc}")


class Workload:
    name = ""
    ops = ()

    def layer_extras(self, results):
        """Per-layer metrics that only this workload can compute."""
        return {"fem.err_320": 0.0}


class Shipped(Workload):
    """`beamspec verify <cfg> --modes 6`, called in process through cli.main."""

    name = "shipped"

    def __init__(self, root, out_dir, reference):
        self.root = root
        self.out_dir = out_dir
        self.reference = reference
        self.ops = list(SHIPPED_CONFIGS)

    def _out(self, op):
        return self.out_dir / f"verify-{op}.json"

    def run_op(self, op):
        cfg = str(self.root / "configs" / f"{op}.json")
        return cli.main(["verify", cfg, "--modes", str(MODES),
                         "--out", str(self._out(op))])

    def check(self, results):
        graded = {}
        for op, rc in results.items():
            if isinstance(rc, Exception):
                graded[op] = _failure(rc)
                continue
            if rc != cli.EXIT_OK:
                graded[op] = Outcome(False, detail=f"exit code {rc}")
                continue
            lams = [m["lambda"] for m in
                    json.loads(self._out(op).read_text())["simplicity"]]
            errors = [rel_err(lam, ref) for lam, ref in zip(lams, self.reference[op])]
            ok = len(lams) == MODES and max(errors) <= SHOOTING_TOL
            graded[op] = Outcome(ok, errors, f"{len(lams)} modes, max rel err "
                                             f"{max(errors):.2e}")
        return graded


class HighModes(Workload):
    """Uniform M=0, modes 1..40: refine on a one-root bracket, then eigenpair."""

    name = "high_modes"

    def __init__(self, systems):
        self.system = systems["uniform_m0"]
        self.ops = [f"n={n}" for n in HIGH_MODES]

    @staticmethod
    def exact(op):
        return (int(op[2:]) * math.pi / 2.0) ** 4

    def run_op(self, op):
        centre = int(op[2:]) * math.pi / 2.0
        bracket = (centre - HIGH_HALF_WIDTH, centre + HIGH_HALF_WIDTH)
        lam = spectrum.refine(self.system, bracket)
        pair = spectrum.eigenpair(self.system, lam, index=int(op[2:]))
        return pair.lam

    def check(self, results):
        graded = {}
        for op, lam in results.items():
            if isinstance(lam, Exception):
                graded[op] = _failure(lam)
                continue
            err = rel_err(lam, self.exact(op))
            graded[op] = Outcome(err <= SHOOTING_TOL, [err], f"rel err {err:.2e}")
        return graded


class FemLadder(Workload):
    """FEM assemble + dense eigensolve at 40..320 elements on every config."""

    name = "fem_ladder"

    def __init__(self, systems, reference):
        self.systems = systems
        self.reference = reference
        self.ops = [f"{name}@{e}" for name in sorted(systems) for e in FEM_MESHES]

    def run_op(self, op):
        name, elements = op.split("@")
        return fem.solve_generalized(
            fem.assemble(self.systems[name], int(elements)), MODES)

    def check(self, results):
        graded = {}
        for op, spec in results.items():
            if isinstance(spec, Exception):
                graded[op] = _failure(spec)
                continue
            name, elements = op.split("@")
            ref = self.reference[name]
            errors = [rel_err(float(v), r) for v, r in zip(spec.values, ref)]
            ok = max(errors) <= FEM_RAW_TOL
            detail = f"raw {max(errors):.2e}"
            coarse = results.get(f"{name}@{int(elements) // 2}")
            if coarse is not None:
                if isinstance(coarse, Exception):
                    ok = False
                    detail += ", coarse mesh failed"
                else:
                    rich = [row.rel_error_richardson
                            for row in fem.compare(ref, coarse, spec)]
                    errors += rich
                    ok = ok and max(rich) <= FEM_RICHARDSON_TOL
                    detail += f", richardson {max(rich):.2e}"
            graded[op] = Outcome(ok, errors, detail)
        return graded

    def layer_extras(self, results):
        """Worst raw relative error on the finest mesh: the rounding floor."""
        finest = [max(rel_err(float(v), r) for v, r in
                      zip(spec.values, self.reference[op.split("@")[0]]))
                  for op, spec in results.items()
                  if op.endswith(f"@{FEM_MESHES[-1]}") and not isinstance(spec, Exception)]
        return {"fem.err_320": max(finest, default=0.0)}


def build(name, root, out_dir):
    """Load configs and the reference table, and return the workload."""
    systems = {p.stem: config.load_system(p)
               for p in sorted((root / "configs").glob("*.json"))}
    reference = load_reference(Path(__file__).resolve().parent / "reference.json")
    if name == "shipped":
        return Shipped(root, out_dir, reference)
    if name == "high_modes":
        return HighModes(systems)
    if name == "fem_ladder":
        return FemLadder(systems, reference)
    raise ValueError(f"unknown workload {name!r}")


def warm_up(root):
    """One determinant sample and one tiny FEM solve: loads the lazy parts of
    scipy (solve_ivp, LAPACK) before anything is timed."""
    system = config.load_system(root / "configs" / "uniform_m0.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spectrum.interface_matrix(system, 10.0)
        fem.solve_generalized(fem.assemble(system, 4), 2)
