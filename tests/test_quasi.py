import math

import numpy as np
import pytest

import beamspec.quasi as quasi
from beamspec.config import CoefficientProfile, uniform_system, variable_system
from beamspec.fundamental import left_fundamental, right_fundamental
from beamspec.oscillation import (
    BoundaryVariant,
    dim_check,
    positivity_propagation,
    simple_zero_scan,
)
from beamspec.quasi import _batch_final_states, integrate, integrate_scaled, vector_field
from beamspec.spectrum import char_det, eigenpair, probe, scan, solve_modes

UNIFORM_LEFT = uniform_system().left


def closed_form_state(s, tau):
    """Exact state of u'''' = s^4 u from (0,1,0,0) at tau = x + 1 (unit profile)."""
    if s == 0.0:
        return np.array([tau, 1.0, 0.0, 0.0])
    return np.array([
        (math.sinh(s * tau) + math.sin(s * tau)) / (2 * s),
        (math.cosh(s * tau) + math.cos(s * tau)) / 2,
        s * (math.sinh(s * tau) - math.sin(s * tau)) / 2,
        s * s * (math.cosh(s * tau) - math.cos(s * tau)) / 2,
    ])


def test_vector_field_examples():
    np.testing.assert_allclose(
        vector_field(UNIFORM_LEFT, 0.0, -0.5, (0, 1, 0, 0)), [1, 0, 0, 0])
    np.testing.assert_allclose(
        vector_field(UNIFORM_LEFT, 1.0, -0.2, (1, 0, 0, 0)), [0, 0, 0, 1])
    axial = CoefficientProfile("left", rho=(1.0,), sigma=(1.0,), q=(2.0,))
    np.testing.assert_allclose(
        vector_field(axial, 0.0, -0.5, (0, 1, 3, 5)), [1, 3, 7, 0])


def test_vector_field_domain_error():
    with pytest.raises(ValueError):
        vector_field(UNIFORM_LEFT, 0.0, 0.5, (0, 1, 0, 0))


def test_lam0_linear_solution():
    traj = integrate(UNIFORM_LEFT, 0.0, -1.0, 0.0, (0, 1, 0, 0))
    np.testing.assert_allclose(traj.final_state, [1, 1, 0, 0], atol=1e-13)


def test_lam0_cubic_solution():
    traj = integrate(UNIFORM_LEFT, 0.0, -1.0, 0.0, (0, 0, 0, 1))
    np.testing.assert_allclose(traj.final_state, [1 / 6, 0.5, 1, 1], atol=1e-13)


def test_zero_init_stays_zero():
    traj = integrate(UNIFORM_LEFT, 37.0, -1.0, 0.0, (0, 0, 0, 0))
    assert np.all(traj.states == 0.0)


def test_trajectory_stations():
    traj = integrate(UNIFORM_LEFT, 5.0, -1.0, 0.0, (0, 1, 0, 0), n_stations=65)
    assert traj.xs[0] == -1.0 and traj.xs[-1] == 0.0
    assert np.all(np.diff(traj.xs) > 0)
    assert len(traj.xs) == 65
    # dense output agrees with the stored stations
    mid = traj.xs[30]
    np.testing.assert_allclose(traj.state_at(mid), traj.states[30], rtol=1e-12)
    with pytest.raises(ValueError):
        traj.state_at(0.5)


def test_argument_guards():
    with pytest.raises(ValueError):
        integrate(UNIFORM_LEFT, 1.0, -1.0, 0.0, (0, 1, 0, 0), rel_tol=1e-5)
    with pytest.raises(ValueError):
        integrate(UNIFORM_LEFT, 1.0, -1.0, 0.0, (0, 1, 0, 0), rel_tol=1e-14)
    with pytest.raises(ValueError):
        integrate(UNIFORM_LEFT, 1.0, -2.0, 0.0, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        integrate(UNIFORM_LEFT, -1.0, -1.0, 0.0, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        integrate(UNIFORM_LEFT, 1.0, -1.0, 0.0, (0, 1, 0, 0), n_stations=10)


NON_FINITE_CALLS = {
    "integrate": lambda: integrate(UNIFORM_LEFT, math.nan, -1.0, 0.0, (0, 1, 0, 0)),
    "eigenpair": lambda: eigenpair(uniform_system(), math.nan),
    "char_det_nan": lambda: char_det(uniform_system(), math.nan),
    "char_det_inf": lambda: char_det(uniform_system(), math.inf),
    "probe": lambda: probe(uniform_system(), [math.nan]),
    "scan_nan": lambda: scan(uniform_system(), math.nan),
    "scan_inf": lambda: scan(uniform_system(), math.inf),
    "scan_ds_nan": lambda: scan(uniform_system(), 5.0, ds=math.nan),
    "vector_field": lambda: vector_field(UNIFORM_LEFT, math.nan, -0.5, (0, 1, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_lam_rejected(name):
    # NaN passes a `lam < 0` test: integrate and eigenpair then never
    # finished, and char_det returned a garbage sign
    with pytest.raises(ValueError):
        NON_FINITE_CALLS[name]()


def test_dop853_tableau_is_scipys():
    # quasi executes scipy's tableau file without importing scipy.integrate;
    # the arrays must be scipy's to the bit
    from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

    assert quasi._dop853 is not scipy_tableau
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER",
                 "A", "B", "C", "D", "E3", "E5"):
        np.testing.assert_array_equal(getattr(quasi._dop853, name),
                                      getattr(scipy_tableau, name), err_msg=name)


def test_no_call_goes_through_solve_ivp(monkeypatch):
    # one integration primitive: modes, fundamental pairs, trajectories and
    # the oscillation probes below all step the batched DOP853
    def banned(*args, **kwargs):
        raise AssertionError("solve_ivp called")

    monkeypatch.setattr(quasi, "solve_ivp", banned)
    # oscillation imports solve_ivp from scipy.integrate when it is called
    monkeypatch.setattr("scipy.integrate.solve_ivp", banned)
    system = uniform_system()
    pairs = solve_modes(system, 3)
    eigenpair(system, pairs[0].lam)
    left_fundamental(system, 40.0)
    right_fundamental(system, 40.0)
    integrate(UNIFORM_LEFT, 40.0, -1.0, 0.0, (0, 1, 0, 0))
    integrate_scaled(UNIFORM_LEFT, 40.0, -1.0, 0.0, (0, 1, 0, 0))
    assert positivity_propagation(system.right, 1.0, (0, 1, 0, 0)).passed
    assert dim_check(system.left, 1.0, BoundaryVariant("slope_vs_curvature", 1.0, 0.0)) == 1
    assert len(simple_zero_scan(system, pairs[2])) == 2


def test_linearity():
    rng = np.random.default_rng(5)
    profile = CoefficientProfile("left", rho=(2.0, 1.0), sigma=(1.0, 0.0, 1.0),
                                 q=(1.0, 1.0))
    rel_tol = 1e-10
    for lam in (3.0, 80.0):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        alpha, beta = 1.7, -0.6
        fa = integrate(profile, lam, -1.0, 0.0, a, rel_tol).final_state
        fb = integrate(profile, lam, -1.0, 0.0, b, rel_tol).final_state
        fab = integrate(profile, lam, -1.0, 0.0, alpha * a + beta * b,
                        rel_tol).final_state
        combo = alpha * fa + beta * fb
        scale = np.max(np.abs(combo))
        assert np.max(np.abs(fab - combo)) <= 10 * rel_tol * scale


def test_self_convergence():
    profile = CoefficientProfile("right", rho=(1.0, 0.0, 1.0), sigma=(2.0, -1.0),
                                 q=(1.0,))
    for rel_tol in (1e-8, 1e-10):
        f1 = integrate(profile, 200.0, 1.0, 0.0, (0, -1, 0, 0), rel_tol).final_state
        f2 = integrate(profile, 200.0, 1.0, 0.0, (0, -1, 0, 0), rel_tol / 2).final_state
        scale = np.max(np.abs(f2))
        assert np.max(np.abs(f1 - f2)) < rel_tol * scale


def test_quasi_derivatives_match_closed_form():
    # for the unit profile with q = 0, w3 = u'' and w4 = u'''
    lam = (math.pi / 2) ** 4
    s = lam ** 0.25
    traj = integrate(UNIFORM_LEFT, lam, -1.0, 0.0, (0, 1, 0, 0))
    for i in (32, 64, 96, 128):
        exact = closed_form_state(s, traj.xs[i] + 1.0)
        np.testing.assert_allclose(traj.states[i], exact, rtol=1e-10, atol=1e-12)


def test_scaled_matches_unscaled_at_desk_lam():
    for lam in (10.0, 1e4):
        plain = integrate(UNIFORM_LEFT, lam, -1.0, 0.0, (0, 1, 0, 0))
        scaled = integrate_scaled(UNIFORM_LEFT, lam, -1.0, 0.0, (0, 1, 0, 0))
        assert scaled.log_scale == 0.0
        np.testing.assert_allclose(scaled.states, plain.states, rtol=1e-12)


def test_scaled_huge_lam_matches_growth():
    lam = 1e12
    s = lam ** 0.25
    traj = integrate_scaled(UNIFORM_LEFT, lam, -1.0, 0.0, (0, 1, 0, 0))
    assert traj.log_scale > 0.0
    final = traj.final_state
    # closed-form logs: sinh/cosh terms dominated by exp(s)/2
    exact_logs = [
        s - math.log(2.0) - math.log(2 * s),
        s - 2 * math.log(2.0),
        s + math.log(s) - 2 * math.log(2.0),
        s + 2 * math.log(s) - 2 * math.log(2.0),
    ]
    for got, expect in zip(final, exact_logs):
        assert abs(math.log(abs(got)) + traj.log_scale - expect) < 1e-6


def test_scaled_superposition():
    a = np.array([0.0, 1.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    lam = 500.0
    fa = integrate_scaled(UNIFORM_LEFT, lam, -1.0, 0.0, a).final_state
    fb = integrate_scaled(UNIFORM_LEFT, lam, -1.0, 0.0, b).final_state
    fab = integrate_scaled(UNIFORM_LEFT, lam, -1.0, 0.0, a + b).final_state
    scale = np.max(np.abs(fab))
    assert np.max(np.abs(fab - (fa + fb))) <= 1e-10 * scale


def test_right_to_left_direction():
    traj = integrate(uniform_system().right, 0.0, 1.0, 0.0, (0, -1, 0, 0))
    np.testing.assert_allclose(traj.final_state, [1, -1, 0, 0], atol=1e-13)
    assert traj.xs[0] == 1.0 and traj.xs[-1] == 0.0
    assert np.all(np.diff(traj.xs) < 0)


@pytest.mark.parametrize("side", ["left", "right"])
def test_batch_result_does_not_depend_on_the_batch(side):
    # every lam steps on its own, so a lam integrated alone gives the same
    # bits as inside any batch (scipy's find_root needs an elementwise f);
    # the stations are read from dense output and leave the steps, and so
    # the last frame, as they are without them
    profile = getattr(variable_system(), side)
    x_from = -1.0 if side == "left" else 1.0
    inits = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    lams = [10.0, 3e3, 240.0 ** 4, 77.7, 1.5e5]
    stations = np.linspace(x_from, 0.0, 33)[1:]
    shot = _batch_final_states(profile, lams, x_from, stations, inits)
    ends = _batch_final_states(profile, lams, x_from, 0.0, inits)
    np.testing.assert_array_equal(ends.frames[:, 0], shot.frames[:, -1])
    np.testing.assert_array_equal(ends.log_scale, shot.log_scale)
    for i, lam in enumerate(lams):
        alone = _batch_final_states(profile, [lam], x_from, stations, inits)
        np.testing.assert_array_equal(alone.frames[0], shot.frames[i])
        np.testing.assert_array_equal(alone.epochs[0], shot.epochs[i])
        epochs = alone.epochs[0, -1] + 1
        np.testing.assert_array_equal(alone.r_factors[0], shot.r_factors[i, :epochs])
        assert alone.log_scale[0] == shot.log_scale[i]
