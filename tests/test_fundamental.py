import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

import beamspec.quasi as quasi
from beamspec.config import MIRROR, eval_coeff, uniform_system, variable_system
from beamspec.fundamental import (
    LEFT_UNIT_SHEAR,
    LEFT_UNIT_SLOPE,
    _pair_frames,
    _pairings,
    left_fundamental,
    right_fundamental,
    shear_identity_residual,
    subwronskians,
    vanishing_scan,
)
from beamspec.oscillation import leighton_nehari_transform
from beamspec.quasi import DEFAULT_REL_TOL, _batch_final_states, integrate

UNIFORM = uniform_system()
VARIABLE = variable_system()


def test_left_lam0_states():
    fset = left_fundamental(UNIFORM, 0.0)
    np.testing.assert_allclose(fset.unit_slope.final_state, [1, 1, 0, 0], atol=1e-13)
    np.testing.assert_allclose(fset.unit_shear.final_state, [1 / 6, 0.5, 1, 1],
                               atol=1e-13)
    assert fset.sign_ok is None   # pattern statement needs lam > 0


def test_right_lam0_states():
    fset = right_fundamental(UNIFORM, 0.0)
    np.testing.assert_allclose(fset.unit_slope.final_state, [1, -1, 0, 0], atol=1e-13)
    np.testing.assert_allclose(fset.unit_shear.final_state, [1 / 6, -0.5, 1, -1],
                               atol=1e-13)


def test_initial_data():
    lf = left_fundamental(UNIFORM, 2.0)
    rf = right_fundamental(UNIFORM, 2.0)
    np.testing.assert_allclose(lf.unit_slope.initial_state, [0, 1, 0, 0])
    np.testing.assert_allclose(lf.unit_shear.initial_state, [0, 0, 0, 1])
    np.testing.assert_allclose(rf.unit_slope.initial_state, [0, -1, 0, 0])
    np.testing.assert_allclose(rf.unit_shear.initial_state, [0, 0, 0, -1])


@pytest.mark.parametrize("lam", [(math.pi / 2) ** 4, 1.0, 40.0, 700.0])
def test_left_positivity(lam):
    for system in (UNIFORM, VARIABLE):
        fset = left_fundamental(system, lam)
        assert fset.sign_ok, fset.sign_violation


@pytest.mark.parametrize("lam", [(math.pi / 2) ** 4, 1.0, 40.0, 700.0])
def test_right_sign_pattern(lam):
    for system in (UNIFORM, VARIABLE):
        fset = right_fundamental(system, lam)
        assert fset.sign_ok, fset.sign_violation
        # spot-check the pattern (+,-,+,-) at an interior point, the end of
        # the unit-slope solution's own pass
        w = integrate(system.right, lam, 1.0, 0.4, fset.unit_slope.initial_state).final_state
        assert w[0] > 0 and w[1] < 0 and w[2] > 0 and w[3] < 0


@pytest.mark.parametrize("lam", [0.0, 700.0, 40.0 ** 4])
def test_pinned_pair_is_two_integrations(lam):
    # each pinned solution is its own pass: integrate of its initial state,
    # bit for bit, on both spans
    for fset, x_from, signs in ((left_fundamental(VARIABLE, lam), -1.0, np.ones(4)),
                                (right_fundamental(VARIABLE, lam), 1.0, MIRROR)):
        for traj, init in ((fset.unit_slope, LEFT_UNIT_SLOPE),
                           (fset.unit_shear, LEFT_UNIT_SHEAR)):
            alone = integrate(fset.profile, lam, x_from, 0.0, signs * init)
            assert np.array_equal(traj.xs, alone.xs)
            assert np.array_equal(traj.states, alone.states)
            assert traj.log_scale == alone.log_scale


def test_pinned_pair_is_one_pass(monkeypatch):
    # both pinned solutions of a span come from one pass with an initial
    # column per entry; their bits are two integrate calls' (see above)
    passes = []
    real = quasi._batch_final_states

    def spy(profiles, lams, *args, **kwargs):
        passes.append(len(lams))
        return real(profiles, lams, *args, **kwargs)

    monkeypatch.setattr(quasi, "_batch_final_states", spy)
    left_fundamental(VARIABLE, 40.0 ** 4)
    right_fundamental(VARIABLE, 700.0)
    assert passes == [2, 2]


def test_subwronskians_read_at_the_set_tolerance():
    # a set and its pairings are both integrated at DEFAULT_REL_TOL: the
    # pairings are _pairings' bit for bit, and _pairings reads the frames of
    # a pass at DEFAULT_REL_TOL, which another tolerance would change
    fset = left_fundamental(VARIABLE, 700.0)
    t = subwronskians(fset, -0.3)
    assert (t.slope, t.curvature, t.shear) == tuple(
        _pairings(VARIABLE.left, [700.0], -0.3)[:3, 0, 0])
    wa, wb, _ = _pair_frames(VARIABLE.left, [700.0], -0.3)
    for rel_tol, same in ((DEFAULT_REL_TOL, True), (1e-12, False)):
        frame = _batch_final_states(VARIABLE.left, [700.0], -1.0, [-0.3, 0.0],
                                    [LEFT_UNIT_SLOPE, LEFT_UNIT_SHEAR], rel_tol).frames[0, 0]
        assert np.array_equal(np.stack([wa[:, 0, 0], wb[:, 0, 0]]), frame) == same


def test_negative_lam_rejected():
    with pytest.raises(ValueError):
        left_fundamental(UNIFORM, -1.0)


def test_subwronskians_lam0():
    fset = left_fundamental(UNIFORM, 0.0)
    t = subwronskians(fset, 0.0)
    assert t.slope == pytest.approx(1 / 3, rel=1e-12)
    assert t.curvature == pytest.approx(1.0, rel=1e-12)
    assert t.shear == pytest.approx(1.0, rel=1e-12)


def test_subwronskians_vanish_at_start():
    for fset, x0 in ((left_fundamental(UNIFORM, 11.0), -1.0),
                     (right_fundamental(UNIFORM, 11.0), 1.0)):
        t = subwronskians(fset, x0)
        assert abs(t.slope) < 1e-12
        assert abs(t.curvature) < 1e-12
        assert abs(t.shear) < 1e-12


def uniform_pairings(s, xi):
    """Closed-form (slope, curvature, shear) pairings of the uniform left
    pair at lam = s**4, xi = x + 1."""
    sn, cs, sh, ch = math.sin(s * xi), math.cos(s * xi), math.sinh(s * xi), math.cosh(s * xi)
    return ((sn * ch - sh * cs) / (2 * s ** 3), sh * sn / s ** 2,
            (sh * cs + sn * ch) / (2 * s))


@pytest.mark.parametrize("s", [5.0, 20.0, 30.0, 40.0])
def test_subwronskians_closed_form_at_large_lam(s):
    # past GROWTH_BOUND the true columns are nearly parallel and their
    # minors cancel (the slope pairing at s = 40, x = 0 lost every digit);
    # the frame's minors do not.  The mirror flips the slope and shear
    # pairings.  x = -0.3 lies between stations.
    lf = left_fundamental(UNIFORM, s ** 4)
    rf = right_fundamental(UNIFORM, s ** 4)
    for x in (0.0, -0.3):
        exact = uniform_pairings(s, x + 1.0)
        for fset, x_at, signs in ((lf, x, (1, 1, 1)), (rf, -x, (-1, 1, -1))):
            t = subwronskians(fset, x_at)
            for got, sign, want in zip((t.slope, t.curvature, t.shear), signs, exact):
                assert got == pytest.approx(sign * want, rel=1e-8), (fset.side, x)


def test_shear_identity_uniform_lam0():
    fset = left_fundamental(UNIFORM, 0.0)
    assert shear_identity_residual(fset, 0.0) < 1e-12


def test_shear_identity_variable():
    fset = left_fundamental(VARIABLE, 50.0)
    assert shear_identity_residual(fset, -0.5) <= 1e-9


def test_shear_identity_at_start_is_zero():
    fset = left_fundamental(VARIABLE, 50.0)
    assert shear_identity_residual(fset, -1.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("system", [UNIFORM, VARIABLE])
def test_shear_identity_dense(system):
    for lam in (2.0, 120.0):
        lf = left_fundamental(system, lam)
        rf = right_fundamental(system, lam)
        assert np.max(shear_identity_residual(lf, np.linspace(-1.0, 0.0, 64))) <= 1e-9
        assert np.max(shear_identity_residual(rf, np.linspace(0.0, 1.0, 64))) <= 1e-9


@pytest.mark.parametrize("lam", [3e4, 40.0 ** 4])
def test_shear_identity_at_large_lam(lam):
    # the documented bound past lam = 700, at the sets' own stations
    system = variable_system(1.0)
    for fset in (left_fundamental(system, lam), right_fundamental(system, lam)):
        assert np.max(shear_identity_residual(fset, fset.unit_slope.xs)) <= 4e-9


@pytest.mark.parametrize("lam", [700.0, 40.0 ** 4])
def test_pair_is_read_one_way(lam):
    # points between the set's stations: a point read alone and the same
    # point among others come from the same steps of the same pass
    system = variable_system(1.0)
    xs = np.linspace(-0.97, -0.03, 8)
    for fset, points in ((left_fundamental(system, lam), xs),
                         (right_fundamental(system, lam), -xs)):
        assert not np.isin(points, fset.unit_slope.xs).any()
        np.testing.assert_array_equal(shear_identity_residual(fset, points),
                                      [shear_identity_residual(fset, x) for x in points])
        triple, alone = subwronskians(fset, points), [subwronskians(fset, x) for x in points]
        for name in ("slope", "curvature", "shear"):
            np.testing.assert_array_equal(getattr(triple, name),
                                          [getattr(t, name) for t in alone])


def test_points_outside_the_span_rejected():
    lf = left_fundamental(VARIABLE, 50.0)
    with pytest.raises(ValueError, match=r"^x=-1.5 outside span \[-1, 0\]$"):
        shear_identity_residual(lf, np.array([-1.5, -0.5]))
    with pytest.raises(ValueError, match=r"^x=0.25 outside span \[-1, 0\]$"):
        shear_identity_residual(lf, np.array([-0.5, 0.25]))
    with pytest.raises(ValueError, match=r"^x=-1.5 outside span \[-1, 0\]$"):
        shear_identity_residual(lf, -1.5)
    with pytest.raises(ValueError, match=r"^x=0.5 outside span \[-1, 0\]$"):
        subwronskians(lf, 0.5)


@pytest.mark.parametrize("end", [-1.0, 0.0])
def test_span_slack_is_one_rule(end):
    # a point 1e-13 past a span end is read at that end; 1e-11 past, every
    # entry point rejects it with one message that shows the point
    profile = VARIABLE.left
    lf = left_fundamental(VARIABLE, 50.0)
    other, outward = (0.0, -1.0) if end == -1.0 else (-1.0, 1.0)

    def calls(x):
        return (lambda: eval_coeff(profile, "sigma", x),
                lambda: integrate(profile, 1.0, x, other, (0, 1, 0, 0)),
                lambda: shear_identity_residual(lf, x),
                lambda: shear_identity_residual(lf, np.array([-0.5, x])),
                lambda: subwronskians(lf, x),
                lambda: leighton_nehari_transform(profile, *sorted((x, other))))

    near = end + outward * 1e-13
    for call in calls(near):
        call()
    assert subwronskians(lf, near).slope == subwronskians(lf, end).slope
    far = end + outward * 1e-11
    message = rf"^x={re.escape(repr(far))} outside span \[-1, 0\]$"
    for call in calls(far):
        with pytest.raises(ValueError, match=message):
            call()


def slope_zero_lam(system, side, x0, lam_lo, lam_hi):
    """lam where the slope pairing of the side vanishes at x0 (for tests)."""
    build = left_fundamental if side == "left" else right_fundamental

    def f(lam):
        return subwronskians(build(system, lam), x0).slope

    return brentq(f, lam_lo, lam_hi, xtol=1e-10)


def test_vanishing_scan_clean():
    lambdas = np.linspace(20.0, 520.0, 10)
    for side in ("left", "right"):
        report = vanishing_scan(VARIABLE, side, lambdas)
        assert report.n_points == 200
        assert report.ok, report.violations


def test_vanishing_at_actual_zero():
    # pin lam so the slope pairing vanishes exactly at the joint, then check
    # the other two pairings stay well away from zero there
    lam0 = slope_zero_lam(UNIFORM, "left", 0.0, 150.0, 300.0)
    fset = left_fundamental(UNIFORM, lam0)
    t = subwronskians(fset, 0.0)
    scale = max(abs(t.slope), abs(t.curvature), abs(t.shear))
    assert abs(t.slope) < 1e-8 * scale
    assert abs(t.curvature) > 1e-4 * scale
    assert abs(t.shear) > 1e-4 * scale
