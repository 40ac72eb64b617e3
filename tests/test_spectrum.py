import dataclasses
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import beamspec.quasi as quasi
import beamspec.spectrum as spectrum
import conftest
from beamspec import cli, fem
from beamspec.config import (MIRROR, eval_coeff, mirrored, serialize_system, uniform_system,
                             variable_system)
from beamspec.fundamental import LEFT_UNIT_SHEAR, LEFT_UNIT_SLOPE
from beamspec.quasi import DEFAULT_REL_TOL, GROWTH_BOUND, _batch_final_states
from beamspec.spectrum import (
    DEFAULT_DS,
    BracketError,
    char_det,
    det_slope,
    eigenpair,
    energy_form,
    h_inner,
    interface_matrix,
    refine,
    refine_brackets,
    scan,
    solve_modes,
    step_classify,
    suggest_s_max,
    verify,
)
from test_fundamental import slope_zero_lam

# entries per bracket in a Newton pass: x, x -+ d and the symmetric fan
NEWTON_POINTS = 3 + 2 * len(spectrum.NEWTON_FAN)

UNIFORM = uniform_system()
UNIFORM_M1 = uniform_system(1.0)
PI4 = math.pi ** 4
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def reference_lams():
    """{config name: its first six eigenvalues} from perfbench/reference.json."""
    table = {}
    for row in json.loads(REFERENCE.read_text())["rows"]:
        table.setdefault(row["config"], []).append(row["lambda"])
    return table


def exact_det4(rows):
    """Exact determinant of a 4x4 rational matrix by cofactor expansion."""
    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    return det([[Fraction(v) for v in row] for row in rows])


def test_lam0_determinant_symbolic():
    # joint states at lam = 0 follow from the exact polynomial solutions:
    # left pair -> (1,1,0,0), (1/6,1/2,1,1); right pair -> (1,-1,0,0), (1/6,-1/2,1,-1)
    rows = [
        [1, Fraction(1, 6), -1, Fraction(-1, 6)],
        [1, Fraction(1, 2), 1, Fraction(1, 2)],
        [0, 1, 0, -1],
        [0, 1, 0, 1],
    ]
    assert exact_det4(rows) == Fraction(-4)


def det_value(system, lam):
    sign, log_abs = char_det(system, lam)
    return sign * math.exp(log_abs)


def test_lam0_determinant_numeric():
    assert det_value(UNIFORM, 0.0) == pytest.approx(-4.0, rel=1e-10)


def test_mass_does_not_enter_at_lam0():
    a0, _ = interface_matrix(UNIFORM, 0.0)
    a7, _ = interface_matrix(uniform_system(7.0), 0.0)
    np.testing.assert_allclose(a0, a7, rtol=1e-12)


def test_det_small_at_eigenvalue():
    lam = (math.pi / 2) ** 4
    matrix, _ = interface_matrix(UNIFORM, lam)
    row_norm_product = float(np.prod(np.linalg.norm(matrix, axis=1)))
    assert abs(det_value(UNIFORM, lam)) <= 1e-6 * row_norm_product


def test_det_bounded_away_between_roots():
    lam = ((math.pi / 2) ** 4 + math.pi ** 4) / 2
    matrix, _ = interface_matrix(UNIFORM, lam)
    row_norm_product = float(np.prod(np.linalg.norm(matrix, axis=1)))
    assert abs(det_value(UNIFORM, lam)) > 1e-3 * row_norm_product


def test_det_mass_independent_at_antisymmetric_root():
    # where the null mode has u(0) = 0 the mass term cannot move the determinant
    matrix, _ = interface_matrix(UNIFORM, PI4)
    scale = float(np.prod(np.linalg.norm(matrix, axis=1)))
    assert abs(det_value(UNIFORM, PI4) - det_value(UNIFORM_M1, PI4)) <= 1e-9 * scale


def test_scan_uniform_m0():
    brackets = scan(UNIFORM, s_max=7.0, ds=0.02)
    assert len(brackets) == 4
    roots = [refine(UNIFORM, b) for b in brackets]
    exact = [(n * math.pi / 2) ** 4 for n in (1, 2, 3, 4)]
    np.testing.assert_allclose(roots, exact, rtol=1e-9)


def test_scan_below_first_root_empty():
    assert scan(UNIFORM, s_max=1.0, ds=0.02) == []


def test_scan_mass_shifts_first_bracket_down():
    brackets = scan(UNIFORM_M1, s_max=7.0, ds=0.02)
    lam1 = refine(UNIFORM_M1, brackets[0])
    assert lam1 < (math.pi / 2) ** 4
    # the u(0)=0 root at pi^4 persists
    lam2 = refine(UNIFORM_M1, brackets[1])
    assert lam2 == pytest.approx(PI4, rel=1e-9)


@pytest.mark.parametrize("mass", [0.5, 1.0, 10.0])
def test_symmetry_protected_root(mass):
    system = uniform_system(mass)
    bracket = (math.pi - 0.01, math.pi + 0.01)
    lam = refine(system, bracket)
    assert lam == pytest.approx(PI4, rel=1e-6)


def test_refine_rejects_bad_bracket():
    with pytest.raises(BracketError):
        refine(UNIFORM, (0.5, 0.6))



def test_refine_brackets_of_no_brackets():
    assert refine_brackets(UNIFORM, []) == []


def test_refine_brackets_rejects_bad_bracket():
    with pytest.raises(BracketError):
        refine_brackets(UNIFORM, [(1.56, 1.58), (0.5, 0.6)])


def misplace_second_seed(monkeypatch):
    """Seeds whose second lies between the roots pi/2 and pi of uniform M=0."""
    def seeds(system, count):
        lams = fem.seed_eigenvalues(system, count)
        lams[1] = (math.pi * 3 / 4) ** 4
        return lams

    monkeypatch.setattr(spectrum, "seed_eigenvalues", seeds)


def test_misplaced_seed_is_recovered_by_the_scan(monkeypatch, capsys):
    # an uncertified seed sends the solve to scan's brackets, which hold
    # every root up to suggest_s_max
    misplace_second_seed(monkeypatch)
    assert cli.main(["spectrum", "configs/uniform_m0.json", "--modes", "3"]) == cli.EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")][1:]
    np.testing.assert_allclose([float(row[1]) for row in rows],
                               (np.arange(1, 4) * math.pi / 2) ** 4, rtol=1e-10, atol=0)


def test_fallback_with_too_few_brackets_raises(monkeypatch, capsys):
    # a scan ceiling below s_3 = 3 pi/2 leaves two brackets for three modes:
    # a solver failure, exit 3
    misplace_second_seed(monkeypatch)
    monkeypatch.setattr(spectrum, "suggest_s_max", lambda system, count: 4.0)
    with pytest.raises(BracketError, match="scan found 2 sign changes, not 3"):
        solve_modes(UNIFORM, 3)
    assert cli.main(["spectrum", "configs/uniform_m0.json", "--modes", "3"]) == cli.EXIT_SOLVER
    assert "scan found 2 sign changes" in capsys.readouterr().err


def stopping_width(s, tol_lambda_rel=1e-10):
    """The bracket width at which refine_brackets stops, in s."""
    return tol_lambda_rel / 40.0 * np.abs(s) + 1e-14


def find_root_pinned(system, brackets):
    """Roots in s of refine_brackets' descaled determinant by scipy's
    find_root, at the stopping tolerances of refine_brackets."""
    from scipy.optimize.elementwise import find_root

    s_lo, s_hi = (np.array(side) for side in zip(*brackets))
    sign, log_abs = spectrum._batch_dets(system, np.concatenate([s_lo, s_hi]) ** 4,
                                         DEFAULT_REL_TOL)
    ref = np.maximum(log_abs[:s_lo.size], log_abs[s_lo.size:])

    def descaled(s, ref):
        sign, log_abs = spectrum._batch_dets(system, s ** 4, DEFAULT_REL_TOL)
        return sign * np.exp(np.minimum(log_abs - ref, 700.0))

    theirs = find_root(descaled, (s_lo, s_hi), args=(ref,),
                       tolerances={"xatol": 1e-14, "xrtol": 1e-10 / 40.0})
    assert theirs.success.all()
    return theirs.x


@pytest.mark.parametrize("name", sorted(conftest.SHIPPED_BUILDERS))
def test_newton_refinement_matches_find_root(shipped_systems, shipped_modes, name):
    # the roots refined on the scan's brackets and the certified seeds that
    # solve_modes reports alike lie within two stopping widths of scipy's
    # roots, and the determinant changes sign across their stopping interval
    system = shipped_systems[name]
    brackets = scan(system, suggest_s_max(system, 6))
    theirs = find_root_pinned(system, brackets[:6])
    for lams in (refine_brackets(system, brackets[:6]), [p.lam for p in shipped_modes[name]]):
        s = np.array(lams) ** 0.25
        assert np.all(np.abs(s - theirs) <= 2.0 * stopping_width(s))
        for s_i, w in zip(s, stopping_width(s)):
            assert char_det(system, (s_i - w) ** 4)[0] * char_det(system, (s_i + w) ** 4)[0] < 0


def test_newton_refinement_matches_find_root_to_mode_40():
    # the high_modes benchmark brackets: one root each, lam up to 2.4e7
    brackets = [(n * math.pi / 2 - 0.05, n * math.pi / 2 + 0.05) for n in range(1, 41)]
    theirs = find_root_pinned(UNIFORM, brackets)
    s = np.array(refine_brackets(UNIFORM, brackets)) ** 0.25
    assert np.all(np.abs(s - theirs) <= 2.0 * stopping_width(s))


@pytest.mark.parametrize("stations", [129, 257])
def test_simpson_port_matches_scipy(stations):
    from scipy.integrate import simpson

    xs = np.linspace(-1.0, 0.0, stations)
    for x in (xs, -xs[::-1] + 0.0):
        for y in (np.sin(7.0 * x) ** 2 * (1.0 + x), np.exp(x) - x ** 3):
            assert spectrum._simpson(y, x) == simpson(y, x=x)
    with pytest.raises(ValueError):
        spectrum._simpson(xs[1:], xs[1:])


@pytest.mark.parametrize("name", sorted(conftest.SHIPPED_BUILDERS))
def test_refine_brackets_matches_scalar_refine(shipped_systems, shipped_modes, name):
    # solve_modes' seeds land within 1e-11 of the reference eigenvalues and
    # of the lock-step refinement on the scan's brackets, and within one
    # stopping width of it in s.  Each bracket alone gives the same bits as
    # in the batch
    system = shipped_systems[name]
    lams = [p.lam for p in shipped_modes[name]]
    np.testing.assert_allclose(lams, reference_lams()[name], rtol=1e-11, atol=0)
    brackets = scan(system, suggest_s_max(system, 6))
    fresh = refine_brackets(system, brackets[:6])
    assert [refine(system, b) for b in brackets[:6]] == fresh
    np.testing.assert_allclose(lams, fresh, rtol=1e-11, atol=0)
    s = np.array(lams) ** 0.25
    assert np.all(np.abs(np.array(fresh) ** 0.25 - s) <= stopping_width(s))


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_refine_closed_form_to_mode_40(mass):
    # u(0) = 0 makes lam = (n pi/2)**4 for every mass: all modes at M = 0,
    # the even ones at M = 1; without orthonormalisation the determinant
    # loses its sign change from mode 24 on
    # all brackets are refined in one lock-step call; refine is its
    # one-bracket case and gives the same bits
    system = uniform_system(mass)
    ns = list(range(1, 41) if mass == 0.0 else range(2, 41, 2))
    brackets = [(n * math.pi / 2 - 0.05, n * math.pi / 2 + 0.07) for n in ns]
    lams = refine_brackets(system, brackets)
    for i in (0, -1):
        assert refine(system, brackets[i]) == lams[i]
    for n, lam in zip(ns, lams):
        s = n * math.pi / 2
        assert abs(lam - s ** 4) <= 1e-10 * s ** 4, n


def assembled_modes(system, lams, indices):
    """solve_modes' assembly of the modes at lams, from one _probe pass."""
    xs = np.linspace(-1.0, 0.0, spectrum.DEFAULT_MODE_STATIONS)
    return spectrum._modes(system, lams, indices, xs,
                           *spectrum._probe(system, lams, DEFAULT_REL_TOL, xs)[:-1])


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_modes_closed_form_to_mode_40(monkeypatch, mass):
    # at the exact lam = (n pi/2)**4 the mode is sin(n pi (x+1)/2) on both
    # spans (every n at M = 0, the even n, which have u(0) = 0, at M = 1);
    # the scalar path returned the wrong shape from mode 17 on
    # all modes come from one batched pass, as in solve_modes; eigenpair is
    # its one-lam case, one pass of 5 entries, and gives the same bits
    system = uniform_system(mass)
    ns = list(range(1, 41) if mass == 0.0 else range(2, 41, 2))
    lams = [(n * math.pi / 2) ** 4 for n in ns]
    pairs = assembled_modes(system, lams, ns)
    passes = count_passes(monkeypatch)
    for i in (0, -1):
        alone = eigenpair(system, lams[i], index=ns[i])
        np.testing.assert_array_equal(alone.coeffs, pairs[i].coeffs)
        np.testing.assert_array_equal(alone.mode_left, pairs[i].mode_left)
        np.testing.assert_array_equal(alone.mode_right, pairs[i].mode_right)
    assert [p.size for p in passes] == [5, 5]
    for n, pair in zip(ns, pairs):
        x = np.concatenate([pair.xs_left, pair.xs_right])
        u = np.concatenate([pair.mode_left[:, 0], pair.mode_right[:, 0]])
        exact = np.sin(n * math.pi * (x + 1.0) / 2.0)
        scale = (u @ exact) / (exact @ exact)
        assert np.max(np.abs(u / scale - exact)) <= 1e-5, n
        assert pair.sv_gap >= 1e3, n


def test_uniform_m0_closed_form_to_1e11(uniform_m0_modes):
    exact = [(n * math.pi / 2) ** 4 for n in range(1, 7)]
    np.testing.assert_allclose([p.lam for p in uniform_m0_modes], exact,
                               rtol=1e-11, atol=0)


def test_solve_modes_bit_identical(variable_m1):
    first = solve_modes(variable_m1, 6)
    again = solve_modes(variable_m1, 6)
    assert [p.lam for p in first] == [p.lam for p in again]
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a.coeffs, b.coeffs)


# upper grid index j of every bracket (s_(j-1), s_j) of scan(system,
# heuristic_s_max(system, 6), ds=0.01), as the Dormand-Prince 5(4) scan found
# them; the scan's brackets must not depend on its integrator
BRACKETS_DS_001 = {
    "uniform_m0": [158, 315, 472, 629, 786, 943, 1100],
    "uniform_m05": [142, 315, 438, 629, 741, 943, 1048],
    "uniform_m1": [132, 315, 424, 629, 729, 943, 1038],
    "uniform_m10": [86, 315, 398, 629, 710, 943, 1023],
    "variable_m0": [162, 319, 469, 631, 779, 944, 1089, 1257, 1400],
    "variable_m1": [142, 319, 429, 628, 732, 938, 1040, 1247, 1352],
}


@pytest.mark.parametrize("name", sorted(BRACKETS_DS_001))
def test_scan_brackets_unchanged_at_ds_001(shipped_systems, name):
    system = shipped_systems[name]
    brackets = scan(system, conftest.heuristic_s_max(system, 6), ds=0.01)
    assert [(round(lo / 0.01), round(hi / 0.01)) for lo, hi in brackets] == \
        [(j - 1, j) for j in BRACKETS_DS_001[name]]

def test_scan_counts_stable_under_refinement(uniform_m0):
    s_max = 9.42
    coarse = scan(uniform_m0, s_max, ds=0.02)
    fine = scan(uniform_m0, s_max, ds=0.01)
    assert len(coarse) == len(fine)


@pytest.mark.parametrize("name", ["uniform_m0", "variable_m1"])
def test_batched_signs_follow_the_root_count(shipped_systems, name):
    # every grid point of the scan, not only the brackets: the sign flips
    # once at every root below s, the roots being n pi/2 on uniform_m0 and
    # the reference eigenvalues on variable_m1 (grid points below the sixth)
    system = shipped_systems[name]
    if name == "uniform_m0":
        roots = math.pi / 2 * np.arange(1, 9)
        n = int(math.floor(conftest.heuristic_s_max(system, 6) / DEFAULT_DS + 1e-9))
    else:
        roots = np.array(reference_lams()[name]) ** 0.25
        n = int(math.ceil(roots[-1] / DEFAULT_DS)) - 1
    s = DEFAULT_DS * np.arange(1, n + 1)
    assert s[-1] < roots[-1]
    sign, _ = spectrum._batch_dets(system, s ** 4, DEFAULT_REL_TOL)
    crossed = np.sum(roots[None, :] < s[:, None], axis=1)
    np.testing.assert_array_equal(sign, sign[0] * (-1) ** crossed)


@pytest.mark.parametrize("side", ["left", "right"])
def test_mixed_batch_matches_scalar_endpoints(side):
    # 240**4 grows past GROWTH_BOUND, is integrated in segments and ends on
    # an orthonormal pair; 10 in the same batch is integrated as it is
    profile = getattr(variable_system(), side)
    if side == "left":
        x_from, inits = -1.0, [LEFT_UNIT_SLOPE, LEFT_UNIT_SHEAR]
    else:
        x_from, inits = 1.0, [MIRROR * LEFT_UNIT_SLOPE, MIRROR * LEFT_UNIT_SHEAR]
    lams = [10.0, 240.0 ** 4]
    segments = quasi._segments((profile,), np.array(lams), x_from, 0.0)[0]
    assert segments[0] == 1 and segments[1] > 1
    shot = _batch_final_states(profile, lams, x_from, 0.0, inits)
    finals, log_scale = shot.frames[:, -1], shot.log_scale
    assert log_scale[0] == 0.0 and log_scale[1] > math.log(GROWTH_BOUND)
    ref = [conftest.reference_final_states(profile, lam, x_from, 0.0, inits)
           for lam in lams]

    big, ref_big = np.max(np.abs(finals[0])), np.max(np.abs(ref[0]))
    np.testing.assert_allclose(finals[0] / big, ref[0] / ref_big, rtol=0, atol=1e-12)
    assert abs(log_scale[0] + math.log(big) - math.log(ref_big)) <= 5e-9

    q = finals[1].T
    np.testing.assert_allclose(q.T @ q, np.eye(2), rtol=0, atol=1e-13)
    for column in ref[1]:
        assert np.linalg.norm(column - q @ (q.T @ column)) <= 1e-13 * np.linalg.norm(column)


def assert_mirrored_pass_exact(system, lams):
    """The right span integrated as its mirror on (-1, 0), next to the left
    span in one batch, gives the bits of the two one-profile calls."""
    left_inits = [LEFT_UNIT_SLOPE, LEFT_UNIT_SHEAR]
    both = _batch_final_states((system.left, mirrored(system.right)), lams,
                               -1.0, 0.0, left_inits)
    left = _batch_final_states(system.left, lams, -1.0, 0.0, left_inits)
    right = _batch_final_states(system.right, lams, 1.0, 0.0,
                                [MIRROR * LEFT_UNIT_SLOPE, MIRROR * LEFT_UNIT_SHEAR])
    log_l, log_r = left.log_scale, right.log_scale
    left, right = left.frames[:, -1], right.frames[:, -1]
    np.testing.assert_array_equal(both.frames[0, :, -1], left)
    np.testing.assert_array_equal(both.frames[1, :, -1] * MIRROR, right)
    np.testing.assert_array_equal(both.log_scale, [log_l, log_r])

    sign, log_abs = spectrum._batch_dets(system, lams, DEFAULT_REL_TOL)
    matrices = spectrum._build_matrix(left, right, system.mass, lams)
    col_log = np.stack([log_l, log_l, log_r, log_r], axis=-1) / 2.0
    ref_sign, ref_log_abs = spectrum._signed_log_det(matrices, col_log)
    np.testing.assert_array_equal(sign, ref_sign)
    np.testing.assert_array_equal(log_abs, ref_log_abs)
    return log_r


@pytest.mark.parametrize("name", sorted(conftest.SHIPPED_BUILDERS))
def test_mirrored_pass_matches_one_profile_calls(shipped_systems, name):
    # every grid point of the scan
    system = shipped_systems[name]
    n = int(math.floor(conftest.heuristic_s_max(system, 6) / DEFAULT_DS + 1e-9))
    assert_mirrored_pass_exact(system, (DEFAULT_DS * np.arange(1, n + 1)) ** 4)


def test_mirrored_pass_matches_in_mixed_batch():
    # 240**4 grows past GROWTH_BOUND and is integrated in segments, in the
    # mirror as on the right span; 10 in the same batch is one segment and
    # is not orthonormalised
    system = variable_system()
    lams = np.array([10.0, 240.0 ** 4])
    for profile, x_from in ((system.right, 1.0), (mirrored(system.right), -1.0)):
        segments = quasi._segments((profile,), lams, x_from, 0.0)[0]
        assert segments[0] == 1 and segments[1] > 1
    log_r = assert_mirrored_pass_exact(system, lams)
    assert log_r[0] == 0.0 and log_r[1] > math.log(GROWTH_BOUND)


def test_reported_lams_are_certified_seeds(shipped_systems, shipped_modes):
    # every shipped mode reports its Galerkin seed, bit for bit, and the
    # determinant changes sign across the seed -+ c, c half the stopping width
    for name, pairs in shipped_modes.items():
        system = shipped_systems[name]
        seeds = fem.seed_eigenvalues(system, len(pairs))
        assert [p.lam for p in pairs] == seeds.tolist(), name
        s = seeds ** 0.25
        c = stopping_width(s) / 2.0
        sign, _ = spectrum._batch_dets(system, np.concatenate([s - c, s + c]) ** 4,
                                       DEFAULT_REL_TOL)
        assert np.all(sign[:s.size] * sign[s.size:] < 0), name


def test_seeds_that_skip_a_root_fail_the_zero_count(monkeypatch, capsys):
    # seeds that skip the second root give mode 2 the shape of mode 3: its
    # two interior sign changes, not one, make the solve a solver failure
    def seeds(system, count):
        return np.delete(fem.seed_eigenvalues(system, count + 1), 1)

    monkeypatch.setattr(spectrum, "seed_eigenvalues", seeds)
    with pytest.raises(RuntimeError, match="mode 2 at lam=.* has 2 interior sign changes, not 1"):
        solve_modes(UNIFORM, 4)
    assert cli.main(["spectrum", "configs/uniform_m0.json", "--modes", "4"]) == cli.EXIT_SOLVER
    assert "interior sign changes" in capsys.readouterr().err


def test_seeds_closed_form_to_mode_40(monkeypatch):
    # uniform M=0: the seeds are (n pi/2)**4 to 1e-11 up to mode 40, and the
    # mode pass certifies every one of them, with no fallback refinement;
    # so it does at M = 1 and 10 to mode 40 and on variable_m1 to mode 20
    seeds = fem.seed_eigenvalues(UNIFORM, 40)
    exact = (np.arange(1, 41) * math.pi / 2) ** 4
    np.testing.assert_allclose(seeds, exact, rtol=1e-11, atol=0)

    def no_fallback(*args, **kwargs):
        raise AssertionError("a seed was not certified")

    monkeypatch.setattr(spectrum, "refine_brackets", no_fallback)
    for system, count in ((UNIFORM, 40), (UNIFORM_M1, 40), (uniform_system(10.0), 40),
                          (variable_system(1.0), 20)):
        pairs = solve_modes(system, count)
        assert [p.lam for p in pairs] == fem.seed_eigenvalues(system, count).tolist()


def test_uncertified_seeds_fall_back_to_refinement(monkeypatch):
    # on the near-floor config the shooting roots lie farther from the seeds
    # than w at the default tolerance, so no seed certifies: the first
    # `count` brackets of scan are refined and the modes come from a redone
    # mode pass, which certifies them
    system, count = conftest.near_floor_system(), 6
    s = fem.seed_eigenvalues(system, count) ** 0.25
    s_max = suggest_s_max(system, count)
    expected = refine_brackets(system, scan(system, s_max)[:count])
    passes = count_passes(monkeypatch)
    pairs = solve_modes(system, count)
    assert [p.lam for p in pairs] == expected
    assert np.all(np.abs(np.array(expected) ** 0.25 - s) > 5.0 * stopping_width(s))
    certify_pass, scan_pass, *refine_passes, mode_pass = passes
    assert certify_pass.size == 5 * count and refine_passes
    n = math.floor(s_max / DEFAULT_DS + 1e-9)
    np.testing.assert_array_equal(scan_pass, (DEFAULT_DS * np.arange(n + 1)) ** 4)
    np.testing.assert_array_equal(mode_pass[:count], expected)
    assert mode_pass.size == 5 * count
    redone = assembled_modes(system, expected, range(1, count + 1))
    for pair, again in zip(pairs, redone):
        np.testing.assert_array_equal(pair.mode_left, again.mode_left)
        np.testing.assert_array_equal(pair.mode_right, again.mode_right)


def test_refined_mode_without_a_certificate_raises(monkeypatch, tmp_path, capsys):
    # the fallback's modes carry the certificate too: a refined lam_3 off by
    # 1e-7 relative, a thousand times the tolerance, shows no sign change
    # across its s -+ w and fails the solve instead of being reported
    system = conftest.near_floor_system()
    real = spectrum.refine_brackets

    def off(*args):
        lams = real(*args)
        lams[2] *= 1.0 + 1e-7
        return lams

    monkeypatch.setattr(spectrum, "refine_brackets", off)
    with pytest.raises(BracketError, match="refined mode 3 at lam=117.76"):
        solve_modes(system, 6)
    config = tmp_path / "near_floor.json"
    config.write_text(serialize_system(system))
    assert cli.main(["spectrum", str(config), "--modes", "6"]) == cli.EXIT_SOLVER
    assert "refined mode 3" in capsys.readouterr().err


@pytest.mark.parametrize("floor, lam_1", [(1e-6, 0.00153686751048),
                                          (1e-8, 0.000152905090517)], ids=["1e-6", "1e-8"])
def test_near_floor_configs_solve(floor, lam_1):
    # the Galerkin seeds miss lam_1 by a factor of 4 and 40 here, so the
    # solve rests on the scan; lam_1 as the scan-and-refine solve gave it
    # before the seeded solve
    system = conftest.near_floor_system(floor)
    pairs = solve_modes(system, 4)
    assert pairs[0].lam == pytest.approx(lam_1, rel=1e-10, abs=0)
    assert verify(system, pairs).theorem1_consistent


def test_first_root_below_the_scan_step(monkeypatch):
    # uniform M = 1e9: not every seed certifies, and lam_1 lies below
    # DEFAULT_DS**4; the scan grid starts at s = 0, so it still brackets
    # lam_1, which is k/(M + 17/35 m) to O(1/M**2) relative (Rayleigh), k = 6
    # being the midpoint stiffness of the hinged beam of length 2, m = 2 its mass
    system = uniform_system(1e9)
    passes = count_passes(monkeypatch)
    pairs = solve_modes(system, 4)
    assert passes[1].size > 7 * 4     # the scan pass
    assert pairs[0].lam == pytest.approx(6.0 / (1e9 + 34.0 / 35.0), rel=1e-12, abs=0)
    assert verify(system, pairs).theorem1_consistent


def test_large_mass_keeps_the_mode_shapes():
    # uniform M = 1e12: at lam_6 the mass term M*lam*u(0) is about 8e15, and
    # in the left pair's columns it swamped their other rows in the modes'
    # SVD, so mode 6 showed 6 interior sign changes (RuntimeError, exit 3);
    # the even modes, whose u(0) = 0 leaves them alone, are (n pi/2)**4 with
    # the shape sin(n pi (x + 1)/2) for every M
    system = uniform_system(1e12)
    pairs = solve_modes(system, 6)
    for n in (2, 4, 6):
        pair = pairs[n - 1]
        assert pair.lam == pytest.approx((n * math.pi / 2) ** 4, rel=1e-10, abs=0)
        x = np.concatenate([pair.xs_left, pair.xs_right])
        u = np.concatenate([pair.mode_left[:, 0], pair.mode_right[:, 0]])
        exact = np.sin(n * math.pi * (x + 1.0) / 2.0)
        assert np.max(np.abs(u * (exact @ exact) / (u @ exact) - exact)) <= 1e-5, n
    assert verify(system, pairs).theorem1_consistent


def count_passes(monkeypatch):
    """The lam arrays of every batched integration the spectrum module runs
    from now on."""
    passes = []
    real = spectrum._batch_final_states

    def spy(profiles, lams, *args):
        passes.append(lams)
        return real(profiles, lams, *args)

    monkeypatch.setattr(spectrum, "_batch_final_states", spy)
    return passes


@pytest.mark.parametrize("name", sorted(conftest.SHIPPED_BUILDERS))
def test_solve_and_verify_pass_counts(monkeypatch, shipped_systems, name):
    # one pass at every supported tolerance, the certificate as wide as the
    # tolerance: per mode its seed, which alone records the stations, the
    # probe's s -+ h and the certificate's s -+ w; verify integrates nothing
    system = shipped_systems[name]
    passes = []
    real = spectrum._batch_final_states

    def spy(profiles, lams, *args):
        passes.append((lams, args[-1]))      # the last argument is `sampled`
        return real(profiles, lams, *args)

    monkeypatch.setattr(spectrum, "_batch_final_states", spy)
    for rel_tol in (1e-13, DEFAULT_REL_TOL, 1e-8, 1e-6):
        passes.clear()
        verify(system, solve_modes(system, 6, rel_tol=rel_tol))
        assert len(passes) == 1, rel_tol
        ((mode_pass, sampled),) = passes
        assert mode_pass.size == 5 * 6 and sampled == 6, rel_tol
        np.testing.assert_array_equal(mode_pass[:6], fem.seed_eigenvalues(system, 6),
                                      err_msg=f"rel_tol={rel_tol:g}")


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-6])
def test_loose_tolerance_residuals(shipped_systems, rel_tol):
    # above the default the modes are built at the certified seeds, and they
    # stay within the tolerance asked for: the relative Rayleigh residual
    # and every interface residual
    for name, system in shipped_systems.items():
        for pair in solve_modes(system, 6, rel_tol=rel_tol):
            rayleigh = abs(pair.lam - energy_form(system, pair, pair)) / pair.lam
            assert rayleigh <= rel_tol, (name, pair.index)
            assert np.all(pair.interface_residuals <= rel_tol), (name, pair.index)


@pytest.mark.parametrize("n", range(1, 41))
def test_refine_takes_the_first_point_with_the_ends(monkeypatch, n):
    # the high_modes benchmark brackets: the bracket ends and the points of
    # the midpoint share the first pass, and no bracket takes more than two
    passes = count_passes(monkeypatch)
    lam = refine(UNIFORM, (n * math.pi / 2 - 0.05, n * math.pi / 2 + 0.05))
    assert 1 <= len(passes) <= 2
    assert passes[0].size == 2 + NEWTON_POINTS
    assert abs(lam - (n * math.pi / 2) ** 4) <= 1e-10 * lam


@pytest.mark.parametrize("n", [8, 9, 10])
def test_two_segment_modes_match_closed_form(n):
    # uniform M = 0 modes 8-10 (s from 12.6 to 15.7) pass the one-segment
    # ceiling and are integrated as two segments; the high_modes benchmark's
    # refine and eigenpair put them within 1e-13 of (n pi/2)**4
    s = n * math.pi / 2
    assert quasi._segments((UNIFORM.left,), np.array([s ** 4]), -1.0, 0.0)[0][0] == 2
    lam = eigenpair(UNIFORM, refine(UNIFORM, (s - 0.05, s + 0.05)), index=n).lam
    assert abs(lam - s ** 4) <= 1e-13 * s ** 4


@pytest.mark.parametrize("bracket", [(0.5, 2.5), (1.58, 1.56)])
def test_refine_wide_and_reversed_brackets(monkeypatch, bracket):
    # Newton falls back to the midpoint while its steps leave the bracket;
    # a reversed bracket is the same bracket
    passes = count_passes(monkeypatch)
    lam = refine(UNIFORM, bracket)
    assert abs(lam - (math.pi / 2) ** 4) <= 1e-10 * lam
    assert len(passes) <= 6


def test_refine_pass_cap_raises(monkeypatch):
    # a bracket still open after MAX_REFINE_PASSES is a solver failure
    monkeypatch.setattr(spectrum, "MAX_REFINE_PASSES", 2)
    with pytest.raises(RuntimeError, match="root refinement failed on \\[0.5, 2.5\\]"):
        refine(UNIFORM, (0.5, 2.5))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_refine_rejects_bad_tolerance(monkeypatch, tol):
    # a usage error, raised before any integration
    passes = count_passes(monkeypatch)
    with pytest.raises(ValueError, match="tol_lambda_rel"):
        refine(UNIFORM, (1.56, 1.58), tol_lambda_rel=tol)
    with pytest.raises(ValueError, match="tol_lambda_rel"):
        refine_brackets(UNIFORM, [(1.56, 1.58)], tol_lambda_rel=tol)
    assert passes == []


def test_eigenpair_mode1_closed_form(uniform_m0_modes):
    pair = uniform_m0_modes[0]
    # H-normalized closed form is exactly sin(pi (x+1)/2)
    k = math.pi / 2
    exact = np.sin(k * (pair.xs_left + 1.0))
    np.testing.assert_allclose(pair.mode_left[:, 0], exact, atol=1e-9)
    assert pair.u0 == pytest.approx(1.0, abs=1e-9)
    assert pair.u0 == pytest.approx(np.max(np.abs(pair.mode_left[:, 0])), abs=1e-9)


def test_eigenpair_antisymmetric_mode_m1(uniform_m1_modes):
    pair = uniform_m1_modes[1]
    assert pair.lam == pytest.approx(PI4, rel=1e-9)
    assert abs(pair.u0) <= 1e-9
    k = math.pi
    exact = np.sin(k * (pair.xs_left + 1.0))
    sign = math.copysign(1.0, pair.mode_left[30, 0] * exact[30])
    np.testing.assert_allclose(pair.mode_left[:, 0], sign * exact, atol=1e-8)


def test_eigenpair_interface_residuals(shipped_modes):
    for pairs in shipped_modes.values():
        for pair in pairs:
            assert np.max(pair.interface_residuals) <= 1e-7


def test_eigenpair_conventions(uniform_m0_modes):
    for pair in uniform_m0_modes:
        assert np.linalg.norm(pair.coeffs) == pytest.approx(1.0, rel=1e-12)
        assert pair.coeffs[0] >= -1e-12
    # deterministic reassembly
    again = eigenpair(UNIFORM, uniform_m0_modes[0].lam, index=1)
    np.testing.assert_array_equal(again.coeffs, uniform_m0_modes[0].coeffs)


def test_eigenpair_singular_value_structure(uniform_m1_modes):
    # at a refined root the smallest singular value collapses while the
    # second smallest stays orders of magnitude above it (dim of the null
    # space is one); same-side columns lose independence like exp(-s), so
    # the gap ratio is the meaningful certificate, not sv[2] vs sv[0]
    for pair in uniform_m1_modes:
        sv = pair.singular_values
        assert sv[3] < 1e-6 * sv[0]
        assert pair.sv_gap >= 1e3


def test_h_norm_is_one(shipped_systems, shipped_modes):
    for name, pairs in shipped_modes.items():
        system = shipped_systems[name]
        for pair in pairs:
            assert h_inner(system, pair, pair) == pytest.approx(1.0, abs=1e-8)


def test_h_inner_orthogonality(uniform_m1_modes):
    for i in range(len(uniform_m1_modes)):
        for j in range(i + 1, len(uniform_m1_modes)):
            val = h_inner(UNIFORM_M1, uniform_m1_modes[i], uniform_m1_modes[j])
            assert abs(val) <= 1e-7


def test_h_inner_sin_modes(uniform_m0_modes):
    val = h_inner(UNIFORM, uniform_m0_modes[0], uniform_m0_modes[2])
    assert abs(val) <= 1e-7


def test_energy_form_rayleigh(uniform_m0_modes):
    assert energy_form(UNIFORM, uniform_m0_modes[0], uniform_m0_modes[0]) == \
        pytest.approx((math.pi / 2) ** 4, abs=1e-6 * (math.pi / 2) ** 4)
    for pair in uniform_m0_modes:
        e = energy_form(UNIFORM, pair, pair)
        assert e == pytest.approx(pair.lam, rel=1e-6)
        assert e > 0


@pytest.mark.parametrize("name", ["uniform_m1", "variable_m1"])
def test_verify_agrees_with_the_pairwise_forms(name, shipped_systems, shipped_modes):
    # verify reads all modes as one array; h_inner and energy_form read one
    # pair of it, so the Gram matrix is h_inner's over the pairs i <= j,
    # mirrored, and the Rayleigh residual energy_form's, to the last bit
    system, pairs = shipped_systems[name], shipped_modes[name]
    report = verify(system, pairs)
    n = len(pairs)
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = h_inner(system, pairs[i], pairs[j])
    assert np.array_equal(report.orthogonality, gram)
    assert report.rayleigh_max_residual == max(abs(p.lam - energy_form(system, p, p))
                                               for p in pairs)
    coarse = solve_modes(system, 6, stations_per_side=129)
    with pytest.raises(ValueError, match="modes must be sampled on the same stations"):
        verify(system, [coarse[0], *pairs[1:]])


def test_det_slope_margin(uniform_m0_modes):
    for pair in uniform_m0_modes:
        slope, margin = det_slope(UNIFORM, pair.lam)
        assert margin >= 1e-6
        assert slope != 0.0



def dense_probe(system, lam, rel_step=1e-4, vanish_rel=1e-6):
    """Slope, margin and step class one lam at a time: one determinant per
    side point, and slope pairings at x = 0 of the fundamental pairs
    integrated by plain scipy DOP853."""
    s = lam ** 0.25
    h = max(s, 1.0) * rel_step
    sign_lo, log_lo = char_det(system, (s - h) ** 4)
    sign_hi, log_hi = char_det(system, (s + h) ** 4)
    ref = max(log_lo, log_hi)
    f_lo = sign_lo * math.exp(log_lo - ref)
    f_hi = sign_hi * math.exp(log_hi - ref)
    vanished = 0
    for profile, x_from, inits in (
            (system.left, -1.0, [LEFT_UNIT_SLOPE, LEFT_UNIT_SHEAR]),
            (system.right, 1.0, [MIRROR * LEFT_UNIT_SLOPE, MIRROR * LEFT_UNIT_SHEAR])):
        wa, wb = conftest.reference_final_states(profile, lam, x_from, 0.0, inits)
        slope = wa[0] * wb[1] - wb[0] * wa[1]
        curvature = (wa[0] * wb[2] - wb[0] * wa[2]) / eval_coeff(profile, "sigma", 0.0)
        shear = wa[0] * wb[3] - wb[0] * wa[3]
        scale = max(abs(slope), abs(curvature), abs(shear))
        vanished += abs(slope) <= vanish_rel * scale
    return ((f_hi - f_lo) / (2.0 * h),
            abs(f_hi - f_lo) / (abs(f_hi) + abs(f_lo)),
            (1, 3, 2)[vanished])


@pytest.mark.parametrize("name", ["uniform_m1", "variable_m1", "uniform_m10"])
def test_probe_matches_dense_route(shipped_systems, shipped_modes, name):
    # the probe each eigenpair carries from the mode pass
    system = shipped_systems[name]
    for pair in shipped_modes[name]:
        ref_slope, ref_margin, ref_class = dense_probe(system, pair.lam)
        assert pair.step_class == ref_class
        assert abs(pair.det_margin - ref_margin) <= 1e-9
        assert pair.det_derivative == pytest.approx(ref_slope, rel=1e-6)

def test_verify_uniform_m0(uniform_m0_modes):
    report = verify(UNIFORM, uniform_m0_modes[:4])
    assert report.positivity and report.strict_ordering
    assert report.theorem1_consistent
    # closed form: both endpoint products equal -lambda_n (H-normalized modes)
    for m in report.modes:
        assert m.product_left == pytest.approx(-m.lam, rel=1e-6)
        assert m.product_right == pytest.approx(-m.lam, rel=1e-6)
    assert report.sign_left < 0 and report.sign_right < 0
    assert report.note


def test_verify_uniform_m1(uniform_m1_modes):
    report = verify(UNIFORM_M1, uniform_m1_modes)
    assert report.theorem1_consistent
    assert report.orthogonality_max_offdiag <= 1e-7
    assert all(m.sv_gap >= 1e3 for m in report.modes)
    doc = report.to_dict()
    assert set(doc) == {"positivity", "strict_ordering", "simplicity",
                        "sign_products", "orthogonality_max_offdiag",
                        "rayleigh_max_residual", "step_classes",
                        "theorem1_consistent"}


def test_verify_reports_the_pairs(uniform_m1_modes):
    # the report holds the checked pairs themselves; a pair assembled
    # without an index is numbered by its position
    bare = [eigenpair(UNIFORM_M1, pair.lam) for pair in uniform_m1_modes[:3]]
    assert all(pair.index is None for pair in bare)
    doc = verify(UNIFORM_M1, bare).to_dict()
    assert [m["n"] for m in doc["simplicity"]] == [1, 2, 3]
    # eigenpair at a solve_modes eigenvalue has its bits
    assert doc == verify(UNIFORM_M1, uniform_m1_modes[:3]).to_dict()
    report = verify(UNIFORM_M1, uniform_m1_modes)
    assert all(m is pair for m, pair in zip(report.modes, uniform_m1_modes, strict=True))
    for pair in bare:
        assert pair.product_left == pair.mode_left[0, 1] * pair.mode_left[0, 3]
        assert pair.product_right == pair.mode_right[-1, 1] * pair.mode_right[-1, 3]


def test_verify_needs_two_pairs(uniform_m0_modes):
    with pytest.raises(ValueError):
        verify(UNIFORM, uniform_m0_modes[:1])


def test_step_classify_generic(uniform_m1_modes):
    assert step_classify(UNIFORM_M1, uniform_m1_modes[0].lam) == 1


def test_step_classify_symmetric_double_vanish():
    # mirror-symmetric system: the two slope pairings coincide at the joint,
    # so a lam where one vanishes puts both at zero
    lam0 = slope_zero_lam(UNIFORM, "left", 0.0, 150.0, 300.0)
    assert step_classify(UNIFORM, lam0) == 2


def test_step_classify_one_sided_vanish():
    lam0 = slope_zero_lam(variable_system(), "left", 0.0, 100.0, 700.0)
    assert step_classify(variable_system(), lam0) == 3


def test_no_degeneracy_warnings(shipped_systems):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solve_modes(shipped_systems["uniform_m05"], 2)


def test_solve_modes_guards():
    with pytest.raises(ValueError):
        solve_modes(UNIFORM, 0)
    # checked before the scan: an even count, or one below 129
    for stations in (100, 258):
        with pytest.raises(ValueError, match="stations_per_side"):
            solve_modes(UNIFORM, 1, stations_per_side=stations)


def test_suggest_s_max_covers_requested_modes(shipped_systems):
    # the ceiling for n modes lies past s_n for every n
    for name, lams in reference_lams().items():
        for n, lam in enumerate(lams, start=1):
            assert lam ** 0.25 < suggest_s_max(shipped_systems[name], n), (name, n)


def test_suggest_s_max_covers_uniform_modes_to_40():
    # s_n = n pi/2: the bound is exact here, and the extra DEFAULT_DS keeps
    # a grid point past the root
    for n in range(1, 41):
        assert n * math.pi / 2 < suggest_s_max(UNIFORM, n) <= n * math.pi / 2 + DEFAULT_DS


@pytest.mark.parametrize("name", sorted(conftest.SHIPPED_BUILDERS))
def test_first_scan_brackets_the_requested_modes(shipped_systems, name):
    # the grid up to each ceiling holds a bracket for every mode requested,
    # so solve_modes does not stop on a missed root pair
    system = shipped_systems[name]
    brackets = scan(system, suggest_s_max(system, 6))
    for count in range(1, 7):
        last = math.floor(suggest_s_max(system, count) / DEFAULT_DS + 1e-9)
        assert sum(round(hi / DEFAULT_DS) <= last for _, hi in brackets) >= count


def test_mass_sweep_monotonicity(shipped_modes):
    masses = ["uniform_m0", "uniform_m05", "uniform_m1", "uniform_m10"]
    lams = np.array([[p.lam for p in shipped_modes[m]] for m in masses])
    for n in range(6):
        col = lams[:, n]
        assert np.all(np.diff(col) <= 1e-9 * col[:-1])
    # strict decrease for modes with u(0) != 0 (odd modes of the M=0 run)
    u0 = [abs(p.u0) for p in shipped_modes["uniform_m0"]]
    for n in range(6):
        if u0[n] > 1e-4:
            assert np.all(np.diff(lams[:, n]) < 0)


def test_symmetry_protected_across_masses(shipped_modes):
    masses = ["uniform_m0", "uniform_m05", "uniform_m1", "uniform_m10"]
    for target in (PI4, 16 * PI4):
        vals = []
        for m in masses:
            close = [p.lam for p in shipped_modes[m]
                     if abs(p.lam - target) < 0.01 * target]
            assert len(close) == 1
            vals.append(close[0])
        assert (max(vals) - min(vals)) <= 1e-8 * target


def test_dataclass_replace_mass_roundtrip():
    bumped = dataclasses.replace(UNIFORM, mass=2.5)
    assert bumped.mass == 2.5 and bumped.left == UNIFORM.left
