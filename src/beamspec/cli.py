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
from .spectrum import det_slope, solve_modes, verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VIOLATION = 4


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _manifest_lines(command, args, extra=None):
    lines = [
        f"# command: {command}",
        f"# config: {args.config}",
        f"# tol: {_fmt(args.tol)}",
        f"# modes: {getattr(args, 'modes', '-')}",
        "# seed: -",
        f"# version: {__version__}",
    ]
    for key, val in (extra or {}).items():
        lines.append(f"# {key}: {val}")
    return lines


def _write_csv(out, manifest, header, rows, wall_clock):
    for line in manifest:
        print(line, file=out)
    print(f"# wall_clock_s: {wall_clock:.3f}", file=out)
    print(",".join(header), file=out)
    for row in rows:
        print(",".join(_fmt(v) for v in row), file=out)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_spectrum(args):
    system = load_system(args.config)
    start = time.perf_counter()
    pairs = solve_modes(system, args.modes, rel_tol=args.tol)
    rows = []
    for pair in pairs:
        slope, _ = det_slope(system, pair.lam, args.tol)
        rows.append((pair.index, pair.lam, pair.lam ** 0.25, pair.u0,
                     slope, pair.sv_gap))
    wall = time.perf_counter() - start
    out, close = _open_out(args.out)
    try:
        _write_csv(out, _manifest_lines("spectrum", args),
                   ["n", "lambda", "s", "u0", "det_derivative", "sv_gap"],
                   rows, wall)
    finally:
        if close:
            out.close()
    return EXIT_OK


def cmd_verify(args):
    system = load_system(args.config)
    start = time.perf_counter()
    pairs = solve_modes(system, args.modes, rel_tol=args.tol)
    report = verify(system, pairs, rel_tol=args.tol)
    doc = report.to_dict()
    doc["manifest"] = {
        "command": "verify",
        "config": args.config,
        "tol": args.tol,
        "modes": args.modes,
        "seed": None,
        "version": __version__,
        "wall_clock_s": round(time.perf_counter() - start, 3),
    }
    out, close = _open_out(args.out)
    try:
        json.dump(doc, out, indent=2)
        out.write("\n")
    finally:
        if close:
            out.close()
    return EXIT_OK if report.theorem1_consistent else EXIT_VIOLATION


def cmd_modes(args):
    system = load_system(args.config)
    start = time.perf_counter()
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
    wall = time.perf_counter() - start
    out, close = _open_out(args.out)
    try:
        _write_csv(out, _manifest_lines("modes", args,
                                        {"stations_per_side": stations}),
                   ["x", "n", "u", "du", "moment", "shear_q"], rows, wall)
    finally:
        if close:
            out.close()
    return EXIT_OK


def cmd_sweep(args):
    system = load_system(args.config)
    try:
        masses = [float(tok) for tok in args.mass_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad --mass-list value: {args.mass_list!r}")
    if not masses or any(m < 0 for m in masses):
        raise ConfigError("--mass-list needs nonnegative numbers")
    start = time.perf_counter()
    rows = []
    for mass in masses:
        variant = dataclasses.replace(system, mass=mass)
        for pair in solve_modes(variant, args.modes, rel_tol=args.tol):
            rows.append((mass, pair.index, pair.lam))
    wall = time.perf_counter() - start
    out, close = _open_out(args.out)
    try:
        _write_csv(out, _manifest_lines("sweep", args,
                                        {"mass_list": args.mass_list}),
                   ["M", "n", "lambda"], rows, wall)
    finally:
        if close:
            out.close()
    return EXIT_OK


def cmd_oracle(args):
    system = load_system(args.config)
    start = time.perf_counter()
    pairs = solve_modes(system, args.modes, rel_tol=args.tol)
    shooting = [p.lam for p in pairs]
    coarse = solve_generalized(assemble(system, args.elements), args.modes)
    fine = solve_generalized(assemble(system, 2 * args.elements), args.modes)
    rows = [
        (r.index, r.shooting, r.oracle_coarse, r.oracle_fine, r.richardson,
         r.rel_error_coarse, r.rel_error_richardson, r.order)
        for r in compare(shooting, coarse, fine)
    ]
    wall = time.perf_counter() - start
    out, close = _open_out(args.out)
    try:
        _write_csv(out, _manifest_lines("oracle", args,
                                        {"elements_per_side": args.elements}),
                   ["n", "shooting", "oracle_coarse", "oracle_fine",
                    "richardson", "rel_error_coarse", "rel_error_richardson",
                    "order"],
                   rows, wall)
    finally:
        if close:
            out.close()
    return EXIT_OK


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
    if args.modes < 1:
        print("error: --modes must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if not REL_TOL_MIN <= args.tol <= REL_TOL_MAX:   # also rejects NaN
        print(f"error: --tol must lie in [{REL_TOL_MIN:g}, {REL_TOL_MAX:g}]",
              file=sys.stderr)
        return EXIT_CONFIG
    if getattr(args, "stations", 65) < 65:
        print("error: --stations must be >= 65", file=sys.stderr)
        return EXIT_CONFIG
    if getattr(args, "elements", 4) < 4:
        print("error: --elements must be >= 4", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`); drop the rest of the
        # output, and point stdout at devnull so the final flush cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ConfigError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, RuntimeError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
