import math

import numpy as np
import pytest

import beamspec.quasi as quasi
from beamspec.config import CoefficientProfile, mirrored, uniform_system, variable_system
from beamspec.fundamental import left_fundamental, right_fundamental
from beamspec.oscillation import (
    BoundaryVariant,
    dim_check,
    leighton_nehari_transform,
    positivity_propagation,
    simple_zero_scan,
    transform_identity_residual,
)
from beamspec.quasi import _batch_final_states, integrate
from beamspec.spectrum import char_det, det_slope, eigenpair, scan, solve_modes

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


def test_axial_closed_form():
    # the q-term of the right-hand side: sigma = rho = 1, q = 2, lam = 0 from
    # (0, 1, 0, 0) gives u = sinh(r*tau)/r with r = sqrt(2), tau = x + 1,
    # and Tu = (sigma*u'')' - q*u' = 0
    axial = CoefficientProfile("left", rho=(1.0,), sigma=(1.0,), q=(2.0,))
    traj = integrate(axial, 0.0, -1.0, 0.0, (0, 1, 0, 0))
    r = math.sqrt(2.0)
    tau = traj.xs + 1.0
    exact = np.stack([np.sinh(r * tau) / r, np.cosh(r * tau), r * np.sinh(r * tau),
                      np.zeros_like(tau)], axis=1)
    assert traj.log_scale == 0.0
    assert np.max(np.abs(traj.states - exact)) <= 1e-10 * np.max(np.abs(exact))


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
    # a station read from dense output agrees with the end of its own pass
    mid = traj.xs[30]
    alone = integrate(UNIFORM_LEFT, 5.0, -1.0, mid, (0, 1, 0, 0), n_stations=65)
    np.testing.assert_allclose(alone.final_state, traj.states[30], rtol=1e-12)
    with pytest.raises(ValueError):
        integrate(UNIFORM_LEFT, 5.0, -1.0, 0.5, (0, 1, 0, 0))


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
    "det_slope": lambda: det_slope(uniform_system(), math.nan),
    "scan_nan": lambda: scan(uniform_system(), math.nan),
    "scan_inf": lambda: scan(uniform_system(), math.inf),
    "scan_ds_nan": lambda: scan(uniform_system(), 5.0, ds=math.nan),
    "transform_nan": lambda: transform_identity_residual(
        leighton_nehari_transform(UNIFORM_LEFT, -1.0, 0.0), math.nan, (0, 1, 0, 0)),
    "transform_inf": lambda: transform_identity_residual(
        leighton_nehari_transform(UNIFORM_LEFT, -1.0, 0.0), math.inf, (0, 1, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_lam_rejected(name):
    # NaN passes a `lam < 0` test: integrate, eigenpair and the warped
    # integration of transform_identity_residual then never finished, and
    # char_det returned a garbage sign
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
    # the step takes y_new as the argument of stage 12, f(x + h, y_new)
    np.testing.assert_array_equal(quasi._DOP_A[12, :12], quasi._DOP_B)
    assert quasi._DOP_C[12] == 1.0


def test_no_call_goes_through_solve_ivp(monkeypatch):
    # one integration primitive: modes, fundamental pairs, trajectories,
    # the gauge and the oscillation probes below all step the batched DOP853
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
    assert positivity_propagation(system.right, 1.0, (0, 1, 0, 0)).passed
    assert dim_check(system.left, 1.0, BoundaryVariant("slope_vs_curvature", 1.0, 0.0)) == 1
    assert len(simple_zero_scan(system, pairs[2])) == 2
    leighton_nehari_transform(system.right, 0.0, 1.0)


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
    # below GROWTH_BOUND the stored states are the true ones
    for lam in (10.0, 1e4):
        traj = integrate(UNIFORM_LEFT, lam, -1.0, 0.0, (0, 1, 0, 0))
        assert traj.log_scale == 0.0
        exact = np.array([closed_form_state(lam ** 0.25, x + 1.0) for x in traj.xs])
        assert np.max(np.abs(traj.states - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_scaled_huge_lam_matches_growth():
    lam = 1e12
    s = lam ** 0.25
    traj = integrate(UNIFORM_LEFT, lam, -1.0, 0.0, (0, 1, 0, 0))
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
    fa = integrate(UNIFORM_LEFT, lam, -1.0, 0.0, a).final_state
    fb = integrate(UNIFORM_LEFT, lam, -1.0, 0.0, b).final_state
    fab = integrate(UNIFORM_LEFT, lam, -1.0, 0.0, a + b).final_state
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


def test_sampled_entries_keep_their_bits():
    # entries past the first `sampled` lams of each profile record no
    # interior station; nothing else about any entry changes
    system = variable_system()
    profiles = (system.left, mirrored(system.right))
    inits = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    lams = [10.0, 240.0 ** 4, 3e3, 40.0 ** 4, 77.7]
    stations = np.linspace(-1.0, 0.0, 33)
    every = _batch_final_states(profiles, lams, -1.0, stations, inits)
    some = _batch_final_states(profiles, lams, -1.0, stations, inits, sampled=2)
    np.testing.assert_array_equal(some.frames[:, :2], every.frames[:, :2])
    np.testing.assert_array_equal(some.epochs[:, :2], every.epochs[:, :2])
    np.testing.assert_array_equal(some.frames[:, :, -1], every.frames[:, :, -1])
    np.testing.assert_array_equal(some.epochs[:, :, -1], every.epochs[:, :, -1])
    np.testing.assert_array_equal(some.r_factors, every.r_factors)
    np.testing.assert_array_equal(some.log_scale, every.log_scale)
    assert np.all(np.isnan(some.frames[:, 2:, :-1]))
    assert not np.any(np.isnan(every.frames))


@pytest.mark.parametrize("sampled", [-1, 3])
def test_sampled_out_of_range(sampled):
    with pytest.raises(ValueError, match="sampled"):
        _batch_final_states(UNIFORM_LEFT, [1.0, 2.0], -1.0, [-0.5, 0.0], (0, 1, 0, 0),
                            sampled=sampled)


def test_station_epochs_at_large_lam():
    # the s = 40 column is orthonormalised inside the span; each station is
    # read from the step that passed it, in that step's epoch, so its frame
    # times R_e ... R_1 is the true state (an epoch off by one would be off
    # by a factor of about GROWTH_BOUND)
    s_values = [40.0, 2.0, 12.0, 25.0]
    stations = np.linspace(-1.0, 0.0, 33)[1:]
    shot = _batch_final_states(UNIFORM_LEFT, np.array(s_values) ** 4, -1.0, stations,
                               (0.0, 1.0, 0.0, 0.0))
    assert shot.epochs[0, -2] > 1 and np.all(np.diff(shot.epochs[0, :-1]) >= 0)
    true = shot.frames[..., 0, :] * np.exp(quasi._station_log_det(shot))[..., None]
    for i, s in enumerate(s_values):
        for x, state in zip(stations[:-1], true[i, :-1]):
            exact = closed_form_state(s, x + 1.0)
            assert np.max(np.abs(state - exact)) <= 1e-8 * np.max(np.abs(exact)), (s, x)


def test_dense_output_blocks_keep_the_bits(monkeypatch):
    # the dense output is evaluated for a few recorded steps at a time; how
    # the steps are grouped changes no frame or epoch
    system = variable_system()
    profiles = (system.left, mirrored(system.right))
    inits = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    lams = [10.0, 3e3, 40.0 ** 4]
    stations = np.linspace(-1.0, 0.0, 65)
    shots = []
    for block in (1, 10 ** 6):
        monkeypatch.setattr(quasi, "_DENSE_BLOCK", block)
        shots.append(_batch_final_states(profiles, lams, -1.0, stations, inits))
    for a, b in zip(*shots):
        np.testing.assert_array_equal(a, b)
