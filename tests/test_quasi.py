import math

import numpy as np
import pytest

import beamspec.quasi as quasi
import conftest
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


def test_clamped_q_is_left_out():
    # the Taylor series reads q's polynomial; a q that config's clamp makes
    # zero across the span integrates as q = 0, bit for bit
    tiny = CoefficientProfile("left", rho=(1.0,), sigma=(1.0,), q=(-1e-13,))
    pair = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    got, want = (_batch_final_states(p, [10.0, 3e3], -1.0, [-0.5, 0.0], pair)
                 for p in (tiny, UNIFORM_LEFT))
    np.testing.assert_array_equal(got.frames, want.frames)
    np.testing.assert_array_equal(got.log_scale, want.log_scale)


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
    # a station read from its step's polynomial agrees with the end of its
    # own pass
    mid = traj.xs[30]
    alone = integrate(UNIFORM_LEFT, 5.0, -1.0, mid, (0, 1, 0, 0), n_stations=65)
    np.testing.assert_allclose(alone.final_state, traj.states[30], rtol=1e-12)
    with pytest.raises(ValueError):
        integrate(UNIFORM_LEFT, 5.0, -1.0, 0.5, (0, 1, 0, 0))


def final_state(profile, lam, x_from, init, rel_tol):
    """The state at x = 0 of one column integrated from x_from at rel_tol."""
    return _batch_final_states(profile, [lam], x_from, 0.0, init, rel_tol).frames[0, -1, 0]


def test_argument_guards():
    with pytest.raises(ValueError):
        final_state(UNIFORM_LEFT, 1.0, -1.0, (0, 1, 0, 0), 1e-5)
    with pytest.raises(ValueError):
        final_state(UNIFORM_LEFT, 1.0, -1.0, (0, 1, 0, 0), 1e-14)
    with pytest.raises(ValueError):
        integrate(UNIFORM_LEFT, 1.0, -2.0, 0.0, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        integrate(UNIFORM_LEFT, -1.0, -1.0, 0.0, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        integrate(UNIFORM_LEFT, 1.0, -1.0, 0.0, (0, 1, 0, 0), n_stations=10)
    with pytest.raises(ValueError, match="per-entry inits"):
        _batch_final_states(UNIFORM_LEFT, [1.0, 2.0], -1.0, 0.0, np.zeros((3, 1, 4)))
    with pytest.raises(ValueError, match="must differ"):
        integrate(UNIFORM_LEFT, 1.0, -0.5, -0.5, (0, 1, 0, 0))
    with pytest.raises(ValueError, match="stations must run"):
        _batch_final_states(UNIFORM_LEFT, [1.0], -0.5, [-0.6, 0.0], np.eye(4)[:1])


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


def test_recurrence_gives_the_matrix_powers():
    # with constant rho, sigma and q the system is w' = A w, so the Taylor
    # coefficients at any x are A**j w0 / j!; two lanes at different x and
    # lam, a pair of columns each
    rho, sigma, q = 2.0, 3.0, 0.5
    lams, xs = np.array([7.0, 40.0 ** 4]), np.array([-0.75, -0.25])
    y = np.random.default_rng(3).normal(size=(4, 2, 2))
    order = quasi._taylor_rule(quasi.DEFAULT_REL_TOL)[0]
    poly = np.tile(np.array([rho, sigma, q])[None, :, None], (1, 1, 2))
    series = quasi._taylor(y, poly, lams, xs, order, [1, 1, 1])
    assert series.shape == (order + 1, 4, 2, 2)
    for lane, lam in enumerate(lams):
        a = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0 / sigma, 0.0],
                      [0.0, q, 0.0, 1.0], [lam * rho, 0.0, 0.0, 0.0]])
        term = y[..., lane]
        for j in range(order + 1):
            got = series[j, ..., lane]
            assert np.max(np.abs(got - term)) <= 1e-14 * np.max(np.abs(term)), (lam, j)
            term = a @ term / (j + 1)


def test_no_call_goes_through_solve_ivp(monkeypatch):
    # one integration primitive: modes, fundamental pairs, trajectories,
    # the gauge and the oscillation probes below all step the batched Taylor
    # stepper
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
        fa = final_state(profile, lam, -1.0, a, rel_tol)
        fb = final_state(profile, lam, -1.0, b, rel_tol)
        fab = final_state(profile, lam, -1.0, alpha * a + beta * b, rel_tol)
        combo = alpha * fa + beta * fb
        scale = np.max(np.abs(combo))
        assert np.max(np.abs(fab - combo)) <= 10 * rel_tol * scale


def test_self_convergence():
    profile = CoefficientProfile("right", rho=(1.0, 0.0, 1.0), sigma=(2.0, -1.0),
                                 q=(1.0,))
    for rel_tol in (1e-8, 1e-10):
        f1 = final_state(profile, 200.0, 1.0, (0, -1, 0, 0), rel_tol)
        f2 = final_state(profile, 200.0, 1.0, (0, -1, 0, 0), rel_tol / 2)
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
    # the stations are read from the polynomials of the steps and leave the
    # steps, and so the last frame, as they are without them
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
    # interior station; nothing else about any entry changes, segmented
    # (240**4 is sampled, 40**4 is not) or not
    system = variable_system()
    profiles = (system.left, mirrored(system.right))
    inits = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    lams = [10.0, 240.0 ** 4, 3e3, 40.0 ** 4, 77.7]
    segments = quasi._segments(profiles, np.array(lams), -1.0, 0.0)[0].reshape(2, -1)
    assert np.all(segments[:, [0, 2, 4]] == 1) and np.all(segments[:, [1, 3]] > 1)
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
    # s = 40, 25 and 14 are integrated in segments (s = 14 in two), and a
    # station inside segment j is read in epoch j (one orthonormalisation
    # per segment chained before it); s = 2 and 12 are one segment and never
    # orthonormalise.  Either way its frame times R_e ... R_1 is the true
    # state (an epoch off by one would be off by a factor of about the
    # growth between orthonormalisations)
    s_values = [40.0, 2.0, 14.0, 25.0, 12.0]
    lams = np.array(s_values) ** 4
    stations = np.linspace(-1.0, 0.0, 33)[1:]
    segments = quasi._segments((UNIFORM_LEFT,), lams, -1.0, 0.0)[0]
    np.testing.assert_array_equal(segments[1:], [1, 2, 4, 1])
    assert segments[0] > 4
    shot = _batch_final_states(UNIFORM_LEFT, lams, -1.0, stations, (0.0, 1.0, 0.0, 0.0))
    for i in (0, 2, 3):
        m = segments[i]
        # the boundaries -1 + j/m strictly before each station
        bounds = -1.0 + 1.0 * np.arange(1, m) / m
        np.testing.assert_array_equal(
            shot.epochs[i, :-1], np.sum(bounds[None, :] < stations[:-1, None], axis=1))
        assert shot.epochs[i, -1] == m
    assert np.all(shot.epochs[[1, 4]] == 0) and np.all(shot.log_scale[[1, 4]] == 0.0)
    true = shot.frames[..., 0, :] * np.exp(quasi._station_log_det(shot))[..., None]
    for i, s in enumerate(s_values):
        for x, state in zip(stations[:-1], true[i, :-1]):
            exact = closed_form_state(s, x + 1.0)
            assert np.max(np.abs(state - exact)) <= 1e-8 * np.max(np.abs(exact)), (s, x)


@pytest.mark.parametrize("name", sorted(conftest.SHIPPED_BUILDERS))
def test_one_segment_pairs_stay_below_the_bound(shipped_systems, name):
    # the only growth control is the segment count fixed before the step
    # loop: every pinned pair that _segments leaves in one segment, for s in
    # (0, 25], is never orthonormalised and its raw frames stay below
    # GROWTH_BOUND at every station
    system = shipped_systems[name]
    profiles = (system.left, mirrored(system.right))
    s = np.linspace(0.05, 25.0, 500)
    one = np.all(quasi._segments(profiles, s ** 4, -1.0, 0.0)[0].reshape(2, -1) == 1, axis=0)
    shot = _batch_final_states(profiles, s[one] ** 4, -1.0, np.linspace(-1.0, 0.0, 33),
                               [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)])
    assert np.all(shot.epochs == 0) and np.all(shot.log_scale == 0.0)
    assert np.max(np.abs(shot.frames)) <= quasi.GROWTH_BOUND
    # the ceiling: s = 12.46 on a uniform span, 10.46 on the variable ones
    assert 10.0 < s[one].max() < 13.0


def test_entry_bits_do_not_depend_on_the_pass_size():
    # an entry's balanced-coordinate scale is the same power in a pass of
    # 1,000 lanes as in one of 2,500: a broadcast exponent once took numpy's
    # buffered loop past about 2,048 lanes and moved the last bits of 5 of
    # these entries
    lams = (0.02 * np.arange(1, 1001)) ** 4
    pair = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    alone = _batch_final_states(variable_system().left, lams, -1.0, 0.0, pair)
    more = _batch_final_states(variable_system().left, np.concatenate([lams, lams, lams[:500]]),
                               -1.0, 0.0, pair)
    np.testing.assert_array_equal(alone.frames, more.frames[:1000])
    np.testing.assert_array_equal(alone.log_scale, more.log_scale[:1000])


def closed_form_plane(s, tau):
    """An orthonormal basis (4, 2) of the plane of the uniform pinned pair
    from (0,1,0,0) and (0,0,0,1) at tau = x + 1, in balanced coordinates
    (the state divided by 1, s, s**2 and s**3): the span of (sinh, cosh,
    sinh, cosh), divided by cosh, and (sin, cos, -sin, -cos)."""
    t, sn, cs = math.tanh(s * tau), math.sin(s * tau), math.cos(s * tau)
    return np.linalg.qr(np.array([[t, sn], [1.0, cs], [t, -sn], [1.0, -cs]]))[0]


@pytest.mark.parametrize("s", [20.0, 40.0, 10 * math.pi, 20 * math.pi])
def test_segmented_frames_match_closed_form(s):
    # to s = 20 pi (mode 40 of the uniform beam): one column at every
    # station within 1e-10 of the closed form (the station test above
    # allows 1e-8), and the pinned pair's plane within 1e-10 in balanced
    # coordinates
    lam = np.array([s ** 4])
    assert quasi._segments((UNIFORM_LEFT,), lam, -1.0, 0.0)[0][0] > 1
    stations = np.linspace(-1.0, 0.0, 33)[1:]
    shot = _batch_final_states(UNIFORM_LEFT, lam, -1.0, stations, (0.0, 1.0, 0.0, 0.0))
    true = shot.frames[0, :, 0] * np.exp(quasi._station_log_det(shot)[0])[:, None]
    for x, state in zip(stations, true):
        exact = closed_form_state(s, x + 1.0)
        assert np.max(np.abs(state - exact)) <= 1e-10 * np.max(np.abs(exact)), x
    shot = _batch_final_states(UNIFORM_LEFT, lam, -1.0, stations,
                               [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)])
    balance = np.array([1.0, s, s * s, s ** 3])[:, None]
    for x, frame in zip(stations, shot.frames[0]):
        got = np.linalg.qr(frame.T / balance)[0]
        exact = closed_form_plane(s, x + 1.0)
        assert np.linalg.norm(got - exact @ (exact.T @ got)) <= 1e-10, x


def test_one_segment_entries_keep_their_bits(monkeypatch):
    # an entry whose growth stays below GROWTH_BOUND is one lane: next to
    # segmented entries (12**4 in two segments), and sampled or not, it has
    # the bits of a pass in which no entry is segmented
    system = variable_system()
    profiles = (system.left, mirrored(system.right))
    lams = [10.0, 25.0 ** 4, 10.0 ** 4, 40.0 ** 4, 3e3, 12.0 ** 4]
    segments = quasi._segments(profiles, np.array(lams), -1.0, 0.0)[0].reshape(2, -1)
    one = segments == 1
    assert one[:, [0, 2, 4]].all() and not one[:, [1, 3, 5]].any()
    assert np.all(segments[:, 5] == 2)
    stations = np.linspace(-1.0, 0.0, 33)
    columns = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    shots = [_batch_final_states(profiles, lams, -1.0, stations, columns[:k], sampled=3)
             for k in (1, 2)]
    real = quasi._segments
    monkeypatch.setattr(quasi, "_segments",
                        lambda *args: (np.ones_like(real(*args)[0]), real(*args)[1]))
    for k, shot in enumerate(shots, start=1):
        plain = _batch_final_states(profiles, lams, -1.0, stations, columns[:k], sampled=3)
        np.testing.assert_array_equal(shot.frames[one], plain.frames[one])
        np.testing.assert_array_equal(shot.epochs[one], plain.epochs[one])
        np.testing.assert_array_equal(shot.log_scale[one], plain.log_scale[one])
        for got, want, last in zip(shot.r_factors[one], plain.r_factors[one],
                                   plain.epochs[one][:, -1]):
            np.testing.assert_array_equal(got[:last + 1], want[:last + 1])


def test_segments_match_a_finer_cut(monkeypatch):
    # segmented entries against the same pass cut into twice as many
    # segments: the true column at every station of the sampled entries,
    # and the 2x2 minors of the true endpoint pair of all of them, which
    # the rel_tol of 1e-10 resolves
    system = variable_system()
    profiles = (system.left, mirrored(system.right))
    lams = [40.0 ** 4, 240.0 ** 4, 25.0 ** 4]
    stations = np.linspace(-1.0, 0.0, 33)
    column, pair = [(0.0, 1.0, 0.0, 0.0)], [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    shots = [_batch_final_states(profiles, lams, -1.0, stations, inits, sampled=2)
             for inits in (column, pair)]
    real = quasi._segments

    def finer(*args):
        m, mu = real(*args)
        assert np.all(m > 1)
        return 2 * m, mu

    monkeypatch.setattr(quasi, "_segments", finer)
    fine = [_batch_final_states(profiles, lams, -1.0, stations, inits, sampled=2)
            for inits in (column, pair)]
    for shot in (shots[0], fine[0]):
        assert np.all(np.isnan(shot.frames[:, 2:, :-1]))
        assert not np.any(np.isnan(shot.frames[:, :2]))
    got, want = (shot.frames[:, :2, :, 0] * np.exp(quasi._station_log_det(shot)[:, :2, :, None])
                 for shot in (shots[0], fine[0]))
    assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=-1, keepdims=True)) <= 1e-10
    got, want = (np.array([a[..., i] * b[..., j] - a[..., j] * b[..., i]
                           for i in range(4) for j in range(i + 1, 4)])
                 for a, b in (np.moveaxis(shot.frames[:, :, -1], -2, 0)
                              for shot in (shots[1], fine[1])))
    got = got * np.exp(shots[1].log_scale - fine[1].log_scale)
    assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) <= 1e-9


def test_stations_keep_the_bits():
    # a station is read from the polynomial of the step that passed it and
    # changes no step: with no, few or many stations, on one-segment entries
    # (to 10**4) and on segmented ones (13**4 in two segments), every last
    # frame, R and log scale keeps its bits
    system = variable_system()
    profiles = (system.left, mirrored(system.right))
    inits = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    lams = [10.0, 3e3, 10.0 ** 4, 13.0 ** 4, 40.0 ** 4]
    segments = quasi._segments(profiles, np.array(lams), -1.0, 0.0)[0].reshape(2, -1)
    assert np.all(segments[:, :3] == 1) and np.all(segments[:, 3] == 2)
    assert np.all(segments[:, 4] > 2)
    ends = _batch_final_states(profiles, lams, -1.0, 0.0, inits)
    # a segmented entry ends in epoch m: m - 1 chainings and the last frame's
    # orthonormalisation
    np.testing.assert_array_equal(ends.epochs[..., -1], np.where(segments > 1, segments, 0))
    for stations in ([-0.5, 0.0], np.linspace(-1.0, 0.0, 65), np.linspace(-1.0, 0.0, 257)[1:]):
        shot = _batch_final_states(profiles, lams, -1.0, stations, inits)
        np.testing.assert_array_equal(shot.frames[:, :, -1], ends.frames[:, :, -1])
        np.testing.assert_array_equal(shot.epochs[:, :, -1], ends.epochs[:, :, -1])
        np.testing.assert_array_equal(shot.r_factors, ends.r_factors)
        np.testing.assert_array_equal(shot.log_scale, ends.log_scale)


def test_every_station_is_read_on_its_own():
    # a station's frame and epoch come from the polynomial of the step that
    # passed it alone: read among 257 stations or as the only interior one,
    # on one-segment entries and on segmented ones, they keep their bits
    system = variable_system()
    profiles = (system.left, mirrored(system.right))
    inits = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    lams = [10.0, 3e3, 13.0 ** 4, 40.0 ** 4]
    xs = np.linspace(-1.0, 0.0, 257)
    shot = _batch_final_states(profiles, lams, -1.0, xs, inits)
    for j in (1, 50, 128, 129, 201, 255):
        alone = _batch_final_states(profiles, lams, -1.0, [xs[j], 0.0], inits)
        np.testing.assert_array_equal(shot.frames[:, :, j], alone.frames[:, :, 0])
        np.testing.assert_array_equal(shot.epochs[:, :, j], alone.epochs[:, :, 0])


@pytest.mark.parametrize("s", [10 * math.pi, 20 * math.pi])
def test_segment_matches_expm(s):
    # one segment of a segmented entry: the four balanced unit columns, in
    # the two pairs a segment integrates, over one segment's length; each
    # pair's plane within 1e-12 of expm in balanced coordinates, where the
    # system is v' = B v with B = D^-1 A D, D = diag(1, mu, mu**2, mu**3)
    from scipy.linalg import expm

    lam = np.array([s ** 4])
    m, mu = quasi._segments((UNIFORM_LEFT,), lam, -1.0, 0.0)
    assert m[0] > 1
    length, mu = 1.0 / m[0], mu[0]
    balance = mu ** np.arange(4.0)
    b = mu * np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                       [(s / mu) ** 4, 0.0, 0.0, 0.0]])
    exact = expm(b * length)
    for g in (0, 2):
        shot = _batch_final_states(UNIFORM_LEFT, lam, -1.0, -1.0 + length,
                                   np.diag(balance)[g:g + 2])
        got = np.linalg.qr(shot.frames[0, -1].T / balance[:, None])[0]
        want = np.linalg.qr(exact[:, g:g + 2])[0]
        assert np.linalg.norm(got - want @ (want.T @ got)) <= 1e-12, g
