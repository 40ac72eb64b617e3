import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import beamspec as bs
from beamspec.quasi import _dop853_tolerances

# the systems shipped as example configs; acceptance criteria quantify over these
SHIPPED_BUILDERS = {
    "uniform_m0": lambda: bs.uniform_system(0.0),
    "uniform_m05": lambda: bs.uniform_system(0.5),
    "uniform_m1": lambda: bs.uniform_system(1.0),
    "uniform_m10": lambda: bs.uniform_system(10.0),
    "variable_m0": lambda: bs.variable_system(0.0),
    "variable_m1": lambda: bs.variable_system(1.0),
}


def near_floor_system(floor=0.01):
    """Admissible, with a right-span sigma = floor + x**2 that nearly vanishes
    at the joint: no Galerkin seed of it lies within the certificate of its
    root at the default tolerance, so solve_modes refines scan's brackets."""
    return bs.BeamSystem(bs.CoefficientProfile("left", (1.0,), (1.0,), (0.0,)),
                         bs.CoefficientProfile("right", (1.0,), (floor, 0.0, 1.0), (0.0,)),
                         1.0)


@pytest.fixture(scope="session")
def shipped_systems():
    return {name: build() for name, build in SHIPPED_BUILDERS.items()}


@pytest.fixture(scope="session")
def shipped_modes(shipped_systems):
    """First six eigenpairs of every shipped system (shared: expensive)."""
    return {name: bs.solve_modes(system, 6)
            for name, system in shipped_systems.items()}


@pytest.fixture(scope="session")
def uniform_m0(shipped_systems):
    return shipped_systems["uniform_m0"]


@pytest.fixture(scope="session")
def uniform_m1(shipped_systems):
    return shipped_systems["uniform_m1"]


@pytest.fixture(scope="session")
def variable_m1(shipped_systems):
    return shipped_systems["variable_m1"]


@pytest.fixture(scope="session")
def uniform_m0_modes(shipped_modes):
    return shipped_modes["uniform_m0"]


@pytest.fixture(scope="session")
def uniform_m1_modes(shipped_modes):
    return shipped_modes["uniform_m1"]


def reference_final_states(profile, lam, x_from, x_to, inits, rel_tol=1e-10):
    """End states of initial columns (k, 4) by plain scipy DOP853, with no
    rescaling: a reference independent of the package's integrator.  The
    controller runs at the package's tolerances for rel_tol; growth up to
    e^240 stays inside the float range."""
    def rhs(x, y):
        sig, q, rho = (bs.eval_coeff(profile, name, x) for name in ("sigma", "q", "rho"))
        w = y.reshape(-1, 4).T
        return np.stack([w[1], w[2] / sig, w[3] + q * w[1], lam * rho * w[0]]).T.ravel()

    rtol, atol = _dop853_tolerances(rel_tol)
    sol = solve_ivp(rhs, (x_from, x_to), np.ravel(inits), method="DOP853",
                    rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(-1, 4)


def heuristic_s_max(system, count):
    """(count + 2) * pi/2 * max(sigma/rho)**(1/4), sampled on a 1001-point
    grid of each span: the scan ceiling solve_modes used before it had a
    proven bound.  Tests that need a ceiling well past mode six scan up to
    it, so they keep the grids their pinned results were taken on."""
    ratio = 0.0
    for profile in (system.left, system.right):
        lo, hi = profile.interval
        xs = np.linspace(lo, hi, 1001)
        ratio = max(ratio, float(np.max(bs.eval_coeff(profile, "sigma", xs)
                                        / bs.eval_coeff(profile, "rho", xs))))
    return (count + 2) * (math.pi / 2.0) * ratio ** 0.25
