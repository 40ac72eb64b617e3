"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria quantify over the shipped example systems (uniform and
variable coefficients at masses 0, 0.5, 1 and 10).
"""

import math
import time

import numpy as np
import pytest

import beamspec as bs
import conftest
from beamspec.fem import assemble, compare, solve_generalized
from beamspec.fundamental import (
    left_fundamental,
    right_fundamental,
    shear_identity_residual,
    vanishing_scan,
)
from beamspec.oscillation import (
    leighton_nehari_transform,
    positivity_propagation,
    random_profile,
    simple_zero_scan,
    transform_identity_residual,
)
from beamspec.spectrum import scan, solve_modes, verify

PI4 = math.pi ** 4


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_closed_form_spectrum():
    # uniform M=0: first four eigenvalues equal (n pi/2)^4 to 1e-7 relative,
    # computed from scratch in under 5 seconds
    system = bs.uniform_system(0.0)
    start = time.perf_counter()
    pairs = bs.solve_modes(system, 4)
    elapsed = time.perf_counter() - start
    worst = max(abs(p.lam - (n * math.pi / 2) ** 4) / (n * math.pi / 2) ** 4
                for n, p in enumerate(pairs, start=1))
    ok = worst <= 1e-7 and elapsed < 5.0
    report(1, ok, f"max rel err {worst:.2e} (tol 1e-7), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_symmetry_protected_modes(shipped_modes):
    worst_lam = 0.0
    worst_u0 = 0.0
    for name in ("uniform_m0", "uniform_m05", "uniform_m1", "uniform_m10"):
        pairs = shipped_modes[name]
        for target in (PI4, 16 * PI4):
            hits = [p for p in pairs if abs(p.lam - target) <= 1e-3 * target]
            assert len(hits) == 1, f"{name}: no unique mode near {target:g}"
            worst_lam = max(worst_lam, abs(hits[0].lam - target) / target)
            worst_u0 = max(worst_u0, abs(hits[0].u0))
    ok = worst_lam <= 1e-6 and worst_u0 <= 1e-7
    report(2, ok, f"max rel lam err {worst_lam:.2e} (tol 1e-6), "
                  f"max |u(0)| {worst_u0:.2e} (tol 1e-7)")


def test_criterion_3_positivity_orthogonality_rayleigh(shipped_systems, shipped_modes):
    worst_orth = 0.0
    worst_rayleigh = 0.0
    ordered = True
    for name, pairs in shipped_modes.items():
        system = shipped_systems[name]
        lams = [p.lam for p in pairs]
        ordered &= all(l > 0 for l in lams) and all(
            b > a for a, b in zip(lams, lams[1:]))
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                worst_orth = max(worst_orth,
                                 abs(bs.h_inner(system, pairs[i], pairs[j])))
            energy = bs.energy_form(system, pairs[i], pairs[i])
            worst_rayleigh = max(worst_rayleigh,
                                 abs(lams[i] - energy) / lams[i])
    ok = ordered and worst_orth <= 1e-7 and worst_rayleigh <= 1e-6
    report(3, ok, f"ordering {ordered}, max orthogonality {worst_orth:.2e} "
                  f"(tol 1e-7), max rayleigh {worst_rayleigh:.2e} (tol 1e-6)")


def test_criterion_4_simplicity(shipped_systems, shipped_modes):
    worst_gap = math.inf
    worst_margin = math.inf
    counts_match = True
    for name, pairs in shipped_modes.items():
        system = shipped_systems[name]
        rep = verify(system, pairs)
        worst_gap = min(worst_gap, min(m.sv_gap for m in rep.modes))
        worst_margin = min(worst_margin, min(m.det_margin for m in rep.modes))
        # identical root counts under grid refinement (same snapped ceiling)
        s_max = 0.02 * math.floor(conftest.heuristic_s_max(system, 6) / 0.02)
        counts_match &= len(scan(system, s_max, ds=0.02)) == \
            len(scan(system, s_max, ds=0.01))
    ok = worst_gap >= 1e3 and worst_margin >= 1e-6 and counts_match
    report(4, ok, f"min sv gap {worst_gap:.2e} (>= 1e3), min det margin "
                  f"{worst_margin:.2e} (>= 1e-6), root counts stable {counts_match}")


def test_criterion_5_sign_products(shipped_systems, shipped_modes):
    all_consistent = True
    for name, pairs in shipped_modes.items():
        rep = verify(shipped_systems[name], pairs)
        all_consistent &= rep.products_nonvanishing and rep.products_constant_sign
    rep0 = verify(shipped_systems["uniform_m0"], shipped_modes["uniform_m0"])
    worst = max(max(abs(m.product_left - (-m.lam)) / m.lam,
                    abs(m.product_right - (-m.lam)) / m.lam)
                for m in rep0.modes)
    flagged = bool(rep0.note) and "note" in rep0.to_dict()["sign_products"]
    ok = all_consistent and worst <= 1e-6 and flagged
    report(5, ok, f"nonvanishing+constant sign {all_consistent}, uniform M=0 "
                  f"products match -lambda_n to {worst:.2e} (tol 1e-6), "
                  f"discrepancy note flagged {flagged}")


def test_criterion_6_oracle_agreement():
    system = bs.variable_system(1.0)
    start = time.perf_counter()
    pairs = bs.solve_modes(system, 6)
    shooting = [p.lam for p in pairs]
    coarse = solve_generalized(assemble(system, 40), 6)
    fine = solve_generalized(assemble(system, 80), 6)
    rows = compare(shooting, coarse, fine)
    elapsed = time.perf_counter() - start
    worst_raw = max(r.rel_error_coarse for r in rows)
    worst_rich = max(r.rel_error_richardson for r in rows)
    worst_order = max(abs(r.order - 4.0) for r in rows)
    ok = (worst_raw <= 1e-4 and worst_rich <= 1e-6 and worst_order <= 0.5
          and elapsed < 30.0)
    report(6, ok, f"raw {worst_raw:.2e} (tol 1e-4), richardson {worst_rich:.2e} "
                  f"(tol 1e-6), order within {worst_order:.2f} of 4 (tol 0.5), "
                  f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_7_lemma_suites():
    rng = np.random.default_rng(20240817)
    trials = 100
    prop_pass = 0
    gauge_pass = 0
    worst_transform = 0.0
    for _ in range(trials):
        profile = random_profile(rng)
        lam = float(rng.uniform(0.1, 100.0))
        fwd = np.abs(rng.normal(size=4))
        bwd = np.abs(rng.normal(size=4)) * np.array([1.0, -1.0, 1.0, -1.0])
        if positivity_propagation(profile, lam, fwd, "forward").passed and \
                positivity_propagation(profile, lam, bwd, "backward").passed:
            prop_pass += 1
        td = leighton_nehari_transform(profile, 0.0, 1.0)
        if np.all(td.h > 0) and np.all(np.diff(td.t) > 0) and \
                np.all(td.h_flux >= -1e-12):
            gauge_pass += 1
        worst_transform = max(worst_transform, transform_identity_residual(td, lam, fwd))

    worst_identity = 0.0
    for system in (bs.uniform_system(0.0), bs.variable_system(1.0)):
        for lam in (2.0, 40.0, 120.0, 300.0, 700.0):
            lf = left_fundamental(system, lam)
            rf = right_fundamental(system, lam)
            worst_identity = max(
                worst_identity,
                float(np.max(shear_identity_residual(lf, np.linspace(-1.0, 0.0, 64)))),
                float(np.max(shear_identity_residual(rf, np.linspace(0.0, 1.0, 64)))))

    scans_ok = True
    lambdas = np.linspace(20.0, 520.0, 10)
    for side in ("left", "right"):
        rep = vanishing_scan(bs.variable_system(1.0), side, lambdas)
        scans_ok &= rep.ok and rep.n_points == 200

    ok = (prop_pass == trials and gauge_pass == trials
          and worst_transform <= 1e-6 and worst_identity <= 1e-9 and scans_ok)
    report(7, ok, f"positivity {prop_pass}/{trials}, gauge {gauge_pass}/{trials}, "
                  f"max transform residual {worst_transform:.2e} (tol 1e-6), "
                  f"max pairing identity residual {worst_identity:.2e} (tol 1e-9), "
                  f"200-point vanishing scans ok {scans_ok}")


def test_criterion_8_simple_interior_zeros(shipped_systems, shipped_modes):
    all_simple = True
    checked = 0
    for name in ("uniform_m0", "variable_m0"):
        system = shipped_systems[name]
        for pair in shipped_modes[name][:4]:
            for zero in simple_zero_scan(system, pair):
                checked += 1
                all_simple &= zero.simple
    ok = all_simple and checked >= 6
    report(8, ok, f"{checked} interior zeros located across first four modes "
                  f"of both mass-free systems, all simple: {all_simple}")


def test_criterion_9_mass_monotonicity(shipped_modes):
    names = ["uniform_m0", "uniform_m05", "uniform_m1", "uniform_m10"]
    lams = np.array([[p.lam for p in shipped_modes[m]] for m in names])
    u0 = [abs(p.u0) for p in shipped_modes["uniform_m0"]]
    non_increasing = all(
        np.all(np.diff(lams[:, n]) <= 1e-9 * lams[:-1, n]) for n in range(6))
    strict = all(np.all(np.diff(lams[:, n]) < 0)
                 for n in range(6) if u0[n] > 1e-4)
    ok = non_increasing and strict
    report(9, ok, f"lambda_n non-increasing across M in {{0,0.5,1,10}} "
                  f"{non_increasing}; strictly decreasing for modes with "
                  f"u(0) != 0 {strict}")
