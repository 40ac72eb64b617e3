"""Command-line front end: spectra, verification, mode shapes, mass sweeps
and finite-element cross-checks, emitted as CSV (with a commented manifest
header) or JSON.

Exit codes: 0 success, 2 usage or configuration error, 3 solver failure,
4 verification violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import __version__
from .config import ConfigError, load_system
from .fem import assemble, compare, solve_generalized
from .quasi import REL_TOL_MAX, REL_TOL_MIN, IntegrationError
from .spectrum import solve_modes, verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VIOLATION = 4


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render(args, extras, header, body, wall_clock):
    """The output text: the manifest, built once, then the body.

    A CSV body (header, then rows) follows the manifest as `# key: value`
    lines and the wall-clock line; a JSON body (header None, a dict) gets
    the manifest under "manifest".
    """
    manifest = {"command": args.command, "config": args.config, "tol": args.tol,
                "modes": args.modes, "seed": None, "version": __version__, **extras}
    if header is None:
        manifest["wall_clock_s"] = round(wall_clock, 3)
        return json.dumps({**body, "manifest": manifest}, indent=2) + "\n"
    lines = [f"# {key}: {'-' if val is None else _fmt(val)}" for key, val in manifest.items()]
    lines += [f"# wall_clock_s: {wall_clock:.3f}", ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in body]
    return "\n".join(lines) + "\n"


# Each handler takes the loaded system and returns (exit code, manifest
# extras, CSV header, rows); verify returns header None and its report dict.

def cmd_spectrum(system, args):
    pairs = solve_modes(system, args.modes, rel_tol=args.tol)
    rows = [(pair.index, pair.lam, pair.lam ** 0.25, pair.u0, pair.det_derivative,
             pair.sv_gap) for pair in pairs]
    return EXIT_OK, {}, ["n", "lambda", "s", "u0", "det_derivative", "sv_gap"], rows


def cmd_verify(system, args):
    pairs = solve_modes(system, args.modes, rel_tol=args.tol)
    report = verify(system, pairs)
    code = EXIT_OK if report.theorem1_consistent else EXIT_VIOLATION
    return code, {}, None, report.to_dict()


def cmd_modes(system, args):
    stations = args.stations if args.stations % 2 == 1 else args.stations + 1
    stations = max(stations, 129)   # eigenpair needs an odd count >= 129
    pairs = solve_modes(system, args.modes, rel_tol=args.tol,
                        stations_per_side=stations)
    rows = []
    for pair in pairs:
        for xs, mode in ((pair.xs_left, pair.mode_left),
                         (pair.xs_right, pair.mode_right)):
            for x, w in zip(xs, mode):
                rows.append((x, pair.index, w[0], w[1], w[2], w[3]))
    return (EXIT_OK, {"stations_per_side": stations},
            ["x", "n", "u", "du", "moment", "shear_q"], rows)


def cmd_sweep(system, args):
    try:
        masses = [float(tok) for tok in args.mass_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad --mass-list value: {args.mass_list!r}")
    if not masses or any(m < 0 for m in masses):
        raise ConfigError("--mass-list needs nonnegative numbers")
    rows = []
    for mass in masses:
        variant = dataclasses.replace(system, mass=mass)
        for pair in solve_modes(variant, args.modes, rel_tol=args.tol):
            rows.append((mass, pair.index, pair.lam))
    return EXIT_OK, {"mass_list": args.mass_list}, ["M", "n", "lambda"], rows


def cmd_oracle(system, args):
    pairs = solve_modes(system, args.modes, rel_tol=args.tol)
    shooting = [p.lam for p in pairs]
    coarse = solve_generalized(assemble(system, args.elements), args.modes)
    fine = solve_generalized(assemble(system, 2 * args.elements), args.modes)
    rows = [
        (r.index, r.shooting, r.oracle_coarse, r.oracle_fine, r.richardson,
         r.rel_error_coarse, r.rel_error_richardson, r.order)
        for r in compare(shooting, coarse, fine)
    ]
    return (EXIT_OK, {"elements_per_side": args.elements,
                      "oracle_steps": [coarse.steps, fine.steps]},
            ["n", "shooting", "oracle_coarse", "oracle_fine", "richardson",
             "rel_error_coarse", "rel_error_richardson", "order"], rows)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="beamspec",
        description="Spectral solver for two beam spans joined by a point mass",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, stations=False, masses=False, elements=False):
        p.add_argument("config", help="path to a JSON system configuration")
        p.add_argument("--modes", type=int, default=4, help="mode count (>= 1)")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="integration relative tolerance")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        if stations:
            p.add_argument("--stations", type=int, default=129,
                           help="sample stations per side (>= 65; raised to an "
                                "odd count >= 129)")
        if masses:
            p.add_argument("--mass-list", default="0,0.5,1,10",
                           help="comma-separated masses to sweep")
        if elements:
            p.add_argument("--elements", type=int, default=40,
                           help="finite elements per side (>= 4)")

    common(sub.add_parser("spectrum", help="eigenvalue table (CSV)"))
    common(sub.add_parser("verify", help="spectral-claims report (JSON)"))
    common(sub.add_parser("modes", help="sampled mode shapes (CSV)"), stations=True)
    common(sub.add_parser("sweep", help="eigenvalues across masses (CSV)"), masses=True)
    common(sub.add_parser("oracle", help="finite-element cross-check (CSV)"), elements=True)
    return parser


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "modes": cmd_modes,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # usage errors, checked before any solve; the first that applies is reported
    for bad, message in (
        (args.modes < 1, "--modes must be >= 1"),
        (not REL_TOL_MIN <= args.tol <= REL_TOL_MAX,   # also rejects NaN
         f"--tol must lie in [{REL_TOL_MIN:g}, {REL_TOL_MAX:g}]"),
        (getattr(args, "stations", 65) < 65, "--stations must be >= 65"),
        (getattr(args, "elements", 4) < 4, "--elements must be >= 4"),
        (args.command == "verify" and args.modes < 2, "verify needs --modes >= 2"),
        # the coarse mesh has 4 * elements degrees of freedom
        (args.command == "oracle" and args.modes > 4 * args.elements,
         "--modes must not exceed 4 * --elements"),
    ):
        if bad:
            print(f"error: {message}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        system = load_system(args.config)
        start = time.perf_counter()
        code, extras, header, body = _HANDLERS[args.command](system, args)
        text = _render(args, extras, header, body, time.perf_counter() - start)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as out:
                out.write(text)
        return code
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`); drop the rest of the
        # output, and point stdout at devnull so the final flush cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, RuntimeError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
