"""Write perfbench/reference.json: the first six eigenvalues of every shipped
config, from shooting at rel_tol = 1e-13, each cross-checked independently.

    python3 perfbench/make_reference.py

Every row is checked against the closed form (n pi/2)**4 where one exists
(uniform M=0, and even n at every uniform mass) and against the 40/80-element
Richardson value of the finite-element oracle; the script exits 1 and writes
nothing if a check fails.  Takes a few minutes on two cores.
"""

import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"     # as in run.py: reproducible eigh

from beamspec import config, fem, spectrum  # noqa: E402

MODES = 6
REL_TOL = 1e-13
LAMBDA_TOL = 1e-14          # Brent stopping tolerance in lambda
CLOSED_FORM_TOL = 1e-10
RICHARDSON_TOL = 1e-6
OUT = Path(__file__).resolve().parent / "reference.json"


def closed_form(system, n):
    """(n pi/2)**4 where the uniform system has it exactly, else None."""
    uniform = all(p.rho == (1.0,) and p.sigma == (1.0,) and p.q == (0.0,)
                  for p in (system.left, system.right))
    if uniform and (system.mass == 0.0 or n % 2 == 0):
        return (n * math.pi / 2.0) ** 4
    return None


def reference_rows(name, system):
    # brackets from the default-tolerance scan that solve_modes uses; refine
    # re-evaluates both bracket ends at REL_TOL and rejects a lost sign change
    s_max = spectrum.suggest_s_max(system, MODES)
    brackets = spectrum.scan(system, s_max)
    if len(brackets) < MODES:
        raise SystemExit(f"{name}: only {len(brackets)} brackets below s={s_max:g}")
    coarse = fem.solve_generalized(fem.assemble(system, 40), MODES).values
    fine = fem.solve_generalized(fem.assemble(system, 80), MODES).values
    rows = []
    for n, bracket in enumerate(brackets[:MODES], start=1):
        lam = spectrum.refine(system, bracket, tol_lambda_rel=LAMBDA_TOL,
                              rel_tol=REL_TOL)
        rich = (16.0 * fine[n - 1] - coarse[n - 1]) / 15.0
        exact = closed_form(system, n)
        row = {
            "config": name,
            "n": n,
            "lambda": lam,
            "source": f"shooting rel_tol={REL_TOL:g}, Brent tol {LAMBDA_TOL:g} in lambda",
            "bracket_s": list(bracket),
            "closed_form": exact,
            "closed_form_rel_diff": None if exact is None else abs(lam - exact) / exact,
            "richardson_40_80": float(rich),
            "richardson_rel_diff": abs(rich - lam) / lam,
        }
        if exact is not None and row["closed_form_rel_diff"] > CLOSED_FORM_TOL:
            raise SystemExit(f"{name} n={n}: closed form off by "
                             f"{row['closed_form_rel_diff']:.2e}")
        if row["richardson_rel_diff"] > RICHARDSON_TOL:
            raise SystemExit(f"{name} n={n}: Richardson off by "
                             f"{row['richardson_rel_diff']:.2e}")
        rows.append(row)
        print(f"{name} n={n} lambda={lam!r} closed={row['closed_form_rel_diff']} "
              f"richardson={row['richardson_rel_diff']:.2e}", flush=True)
    return rows


def main():
    rows = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        rows.extend(reference_rows(path.stem, config.load_system(path)))
    doc = {
        "description": "first six eigenvalues of the shipped configs; "
                       "written by perfbench/make_reference.py",
        "modes": MODES,
        "rel_tol": REL_TOL,
        "closed_form_tol": CLOSED_FORM_TOL,
        "richardson_tol": RICHARDSON_TOL,
        "rows": rows,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()
