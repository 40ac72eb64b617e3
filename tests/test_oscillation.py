import math

import numpy as np
import pytest

from beamspec.config import CoefficientProfile, uniform_system, variable_system
from beamspec.oscillation import (
    BoundaryVariant,
    TheoryViolationError,
    dim_check,
    leighton_nehari_transform,
    positivity_propagation,
    random_profile,
    simple_zero_scan,
    transform_identity_residual,
)
from beamspec.spectrum import eigenpair

UNIT_RIGHT = CoefficientProfile("right", (1.0,), (1.0,), (0.0,))
UNIT_Q1 = CoefficientProfile("right", (1.0,), (1.0,), (1.0,))


def test_forward_propagation_examples():
    assert positivity_propagation(UNIT_RIGHT, 1.0, (0, 1, 0, 0), "forward").passed
    assert positivity_propagation(UNIT_RIGHT, 1.0, (1, 0, 0, 0), "forward").passed


def test_backward_propagation():
    res = positivity_propagation(UNIT_RIGHT, 1.0, (1.0, -0.5, 0.2, -0.3), "backward")
    assert res.passed


def test_propagation_precondition_errors():
    with pytest.raises(ValueError, match="zero"):
        positivity_propagation(UNIT_RIGHT, 1.0, (0, 0, 0, 0), "forward")
    with pytest.raises(ValueError, match="sign pattern"):
        positivity_propagation(UNIT_RIGHT, 1.0, (0, -1, 0, 0), "forward")
    with pytest.raises(ValueError, match="sign pattern"):
        positivity_propagation(UNIT_RIGHT, 1.0, (0, 1, 0, 0), "backward")
    with pytest.raises(ValueError):
        positivity_propagation(UNIT_RIGHT, 0.0, (0, 1, 0, 0), "forward")
    with pytest.raises(ValueError):
        positivity_propagation(UNIT_RIGHT, 1.0, (0, 1, 0, 0), "sideways")


def test_gauge_identity_when_q_zero():
    td = leighton_nehari_transform(UNIT_RIGHT, 0.0, 1.0)
    np.testing.assert_allclose(td.h, 1.0, atol=1e-13)
    assert td.gamma == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(td.t, td.xs, atol=1e-13)
    np.testing.assert_allclose(td.sigma_tilde, 1.0, atol=1e-12)
    np.testing.assert_allclose(td.rho_tilde, 1.0, atol=1e-12)


def test_gauge_cosh_closed_form():
    td = leighton_nehari_transform(UNIT_Q1, 0.0, 1.0)
    np.testing.assert_allclose(td.h, np.cosh(td.xs), rtol=1e-10)
    assert td.gamma == pytest.approx(math.sinh(1.0), rel=1e-10)
    # h' = sinh >= 0 on [0, 1]
    np.testing.assert_allclose(td.h_flux, np.sinh(td.xs), rtol=1e-9, atol=1e-12)
    assert np.all(td.h_flux >= -1e-12)
    assert np.all(np.diff(td.t) > 0)


def test_transform_residual_q_zero_identity():
    assert transform_identity_residual(UNIT_RIGHT, 0.0, 1.0, 1.0, (0, 1, 0, 0)) <= 1e-10


def test_transform_residual_q1():
    assert transform_identity_residual(UNIT_Q1, 0.0, 1.0, 1.0, (0, 1, 0, 0)) <= 1e-7


def test_transform_residual_lam0_shear_relation():
    # with lambda_like = 0 the quasi-shear is conserved on both paths
    res = transform_identity_residual(UNIT_Q1, 0.0, 1.0, 0.0, (0, 1, 0, 0))
    assert res <= 1e-7


def test_randomized_positivity_and_transform():
    rng = np.random.default_rng(42)
    for _ in range(20):
        profile = random_profile(rng)
        lam = float(rng.uniform(0.1, 100.0))
        fwd = np.abs(rng.normal(size=4))
        res = positivity_propagation(profile, lam, fwd, "forward")
        assert res.passed, res
        bwd = np.abs(rng.normal(size=4)) * np.array([1.0, -1.0, 1.0, -1.0])
        res = positivity_propagation(profile, lam, bwd, "backward")
        assert res.passed, res
        td = leighton_nehari_transform(profile, 0.0, 1.0)
        assert np.all(td.h > 0) and np.all(np.diff(td.t) > 0)
        assert np.all(td.h_flux >= -1e-12)
        assert transform_identity_residual(profile, 0.0, 1.0, lam, fwd) <= 1e-6


def test_transform_subinterval():
    td = leighton_nehari_transform(UNIT_Q1, 0.2, 0.8)
    assert td.t[0] == pytest.approx(0.2) and td.t[-1] == pytest.approx(0.8)
    assert transform_identity_residual(UNIT_Q1, 0.2, 0.8, 5.0, (1, 1, 1, 1)) <= 1e-7


def test_simple_zero_scan_mode2(uniform_m0, uniform_m0_modes):
    zeros = simple_zero_scan(uniform_m0, uniform_m0_modes[1])
    assert len(zeros) == 1
    assert zeros[0].x == pytest.approx(0.0, abs=1e-9)
    assert zeros[0].simple


def test_simple_zero_scan_mode1_no_zeros(uniform_m0, uniform_m0_modes):
    assert simple_zero_scan(uniform_m0, uniform_m0_modes[0]) == []


def test_simple_zero_scan_counts_match_closed_form(uniform_m0, uniform_m0_modes):
    # mode n of the mass-free uniform system has n-1 interior zeros
    for n, pair in enumerate(uniform_m0_modes[:4], start=1):
        zeros = simple_zero_scan(uniform_m0, pair)
        assert len(zeros) == n - 1
        assert all(z.simple for z in zeros)


@pytest.mark.parametrize("n", [6, 17, 24, 40])
def test_simple_zero_scan_at_large_lam(n):
    # at lam = (n pi/2)**4 the mass-free uniform mode is sin(n pi (x+1)/2),
    # with simple zeros at -1 + 2k/n (x = 0 among them for even n); zeros
    # read through the spans' nearly parallel true columns were 26 at n = 24
    system = uniform_system()
    zeros = simple_zero_scan(system, eigenpair(system, (n * math.pi / 2) ** 4))
    assert len(zeros) == n - 1
    np.testing.assert_allclose([z.x for z in zeros], -1.0 + 2.0 * np.arange(1, n) / n,
                               rtol=0, atol=1e-9)
    assert all(z.simple for z in zeros)


def test_simple_zero_scan_variable(shipped_systems, shipped_modes):
    system = shipped_systems["variable_m0"]
    pair = shipped_modes["variable_m0"][2]
    zeros = simple_zero_scan(system, pair)
    assert zeros and all(z.simple for z in zeros)


def test_simple_zero_scan_requires_massless(uniform_m1, uniform_m1_modes):
    with pytest.raises(ValueError):
        simple_zero_scan(uniform_m1, uniform_m1_modes[0])


def test_dim_check_left_slope_variant():
    profile = uniform_system().left
    variant = BoundaryVariant("slope_vs_curvature", 1.0, 0.0)
    assert dim_check(profile, 1.0, variant) == 1


def test_dim_check_right_shear_variant():
    profile = uniform_system().right
    variant = BoundaryVariant("shear_vs_displacement", 1.0, 1.0)
    assert dim_check(profile, 1.0, variant) == 1


def test_dim_check_preconditions():
    with pytest.raises(ValueError):
        BoundaryVariant("slope_vs_curvature", 0.0, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        dim_check(uniform_system().left, 1.0,
                  BoundaryVariant("slope_vs_curvature", 1.0, 1.0))
    with pytest.raises(ValueError):
        dim_check(uniform_system().right, 1.0,
                  BoundaryVariant("slope_vs_curvature", 1.0, -1.0))
    with pytest.raises(ValueError):
        dim_check(uniform_system().left, 0.0,
                  BoundaryVariant("slope_vs_curvature", 1.0, 0.0))
    with pytest.raises(ValueError):
        BoundaryVariant("bogus", 1.0, 0.0)


def test_dim_check_never_two_on_lambda_grid():
    left = variable_system().left
    right = variable_system().right
    variants_left = [BoundaryVariant("slope_vs_curvature", 1.0, -0.5),
                     BoundaryVariant("shear_vs_displacement", 1.0, 0.0)]
    variants_right = [BoundaryVariant("slope_vs_curvature", 1.0, 0.5),
                      BoundaryVariant("shear_vs_displacement", 1.0, 1.0)]
    for lam in np.linspace(0.5, 200.0, 50):
        for v in variants_left:
            assert dim_check(left, float(lam), v) <= 1
        for v in variants_right:
            assert dim_check(right, float(lam), v) <= 1


def test_dim_check_past_growth_bound():
    # at s = 40 the pair is orthonormalised, and the rank is read in the
    # frame's basis of the family's plane
    system = variable_system()
    for profile, beta in ((system.left, -0.5), (system.right, 0.5)):
        for kind in ("slope_vs_curvature", "shear_vs_displacement"):
            assert dim_check(profile, 40.0 ** 4, BoundaryVariant(kind, 1.0, beta)) == 1


def test_gauge_rejects_bad_interval():
    with pytest.raises(ValueError):
        leighton_nehari_transform(UNIT_RIGHT, 0.8, 0.2)


def test_random_profiles_are_admissible():
    rng = np.random.default_rng(0)
    for _ in range(25):
        profile = random_profile(rng, side="left")
        assert profile.side == "left"
        xs = np.linspace(-1.0, 0.0, 201)
        assert np.polynomial.polynomial.polyval(xs, profile.rho).min() > 0
        assert np.polynomial.polynomial.polyval(xs, profile.q).min() >= 0
