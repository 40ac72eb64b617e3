"""Sign-propagation and transformation machinery for one-span solutions.

Four independent probes live here:

* positivity_propagation: a solution whose quasi-derivative quadruple starts
  nonnegative (and not identically zero) at one end stays strictly positive,
  component by component, across the span.  Backward runs use the adjusted
  pattern (u, -u', u'', -Tu).
* leighton_nehari_transform: the classical change of variables built from the
  gauge equation (sigma*h')' = q*h, h(a)=1, h'(a)=0, which removes the
  first-order term.  With q = 0 it reduces to the identity.
* transform_identity_residual: dual-path check that integrating in the
  original variable and in the warped variable produces states linked by the
  transform's derivative relations.
* simple_zero_scan / dim_check: interior zeros of mass-free modes are simple,
  and the solution space pinned by one extra joint condition stays
  one-dimensional.

Every integration here runs on quasi's integrator, the gauge included,
except the warped reference path of transform_identity_residual: the only
scipy solve_ivp call in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MIRROR, CoefficientProfile, critical_points, horner, in_span, rho_sigma_q
from .fundamental import _pair_frames, first_violation
from .quasi import DEFAULT_REL_TOL, _column, integrate

GAUGE_STATIONS = 257
TRANSFORM_CHECK_POINTS = 65
ZERO_SLOPE_REL = 1e-6
DIM_ZERO_REL = 1e-8


class TheoryViolationError(RuntimeError):
    """A mathematically guaranteed sign condition failed numerically."""


@dataclass(frozen=True)
class PropagationResult:
    passed: bool
    x: float | None = None
    component: int | None = None
    value: float | None = None


def positivity_propagation(profile, lambda_like, init, direction="forward",
                           rel_tol=DEFAULT_REL_TOL):
    """Propagate a sign-definite quadruple across the span; check it stays positive.

    Forward runs start at the span's left end with all four components >= 0;
    backward runs start at its right end with MIRROR * init, i.e.
    (u, -u', u'', -Tu), >= 0.  Either way the initial state must not be
    identically zero.  Stations beyond the start must show the
    (sign-adjusted) components strictly positive; a value below
    fundamental.SIGN_TOL counts as a violation and is reported with its
    location.
    """
    if lambda_like <= 0:
        raise ValueError("lambda_like must be > 0")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    init = np.asarray(init, dtype=float)
    signs = np.ones(4) if direction == "forward" else MIRROR
    adjusted0 = init * signs
    if np.any(adjusted0 < 0):
        raise ValueError("initial quadruple violates the direction's sign pattern")
    if not np.any(adjusted0 > 0):
        raise ValueError("initial quadruple must not be identically zero")

    lo, hi = profile.interval
    x_from, x_to = (lo, hi) if direction == "forward" else (hi, lo)
    traj = integrate(profile, lambda_like, x_from, x_to, init, rel_tol)
    violation = first_violation(traj, signs)
    if violation is None:
        return PropagationResult(passed=True)
    return PropagationResult(False, *violation)


@dataclass(frozen=True)
class TransformData:
    """Gauge function, warped coordinate and warped coefficients of a profile on [a, b]."""

    profile: CoefficientProfile
    a: float
    b: float
    gamma: float
    xs: np.ndarray
    h: np.ndarray
    h_flux: np.ndarray        # sigma * h'
    t: np.ndarray             # warped coordinate, t(a)=a, t(b)=b, increasing
    sigma_tilde: np.ndarray
    rho_tilde: np.ndarray


def leighton_nehari_transform(profile, a, b, rel_tol=DEFAULT_REL_TOL):
    """Solve the gauge equation and build the warped problem data at
    GAUGE_STATIONS stations.

    The gauge comes from quasi's integrator: at lam = 0 the unit-slope
    column (0, 1, 0, 0) started at x = a is exactly (integral of h, h,
    sigma*h', 0).  The warped coefficients are chosen so the warp preserves
    the equation exactly (same eigenvalues): with c = gamma/(b - a),

        sigma_tilde = (h/c)**3 * sigma,   rho_tilde = c * rho / h.

    With q = 0 the gauge is identically 1, gamma = b - a, and the warp is
    the identity.
    """
    in_span(profile.interval, (a, b))
    if not a < b:
        raise ValueError(f"need a < b, got [{a:g}, {b:g}]")
    gauge = integrate(profile, 0.0, a, b, (0.0, 1.0, 0.0, 0.0), rel_tol, GAUGE_STATIONS)
    xs = gauge.xs
    acc, h, flux, _ = (gauge.states * math.exp(gauge.log_scale)).T
    if np.any(h <= 0.0):
        i = int(np.argmax(h <= 0.0))
        raise TheoryViolationError(
            f"gauge function nonpositive at x={xs[i]:.6g} (value {h[i]:.6g})")
    gamma = float(acc[-1])
    if gamma <= 0.0:
        raise TheoryViolationError("gauge integral must be positive")
    t = (b - a) / gamma * acc + a
    if np.any(np.diff(t) <= 0.0):
        raise TheoryViolationError("warped coordinate is not strictly increasing")
    c = gamma / (b - a)
    rho, sig, _ = rho_sigma_q(profile.coeffs, xs)
    return TransformData(
        profile=profile, a=a, b=b, gamma=gamma, xs=xs, h=h, h_flux=flux, t=t,
        sigma_tilde=(h / c) ** 3 * sig,
        rho_tilde=c * rho / h,
    )


def transform_identity_residual(td, lambda_like, init, rel_tol=DEFAULT_REL_TOL):
    """Dual-path mismatch between original and warped integrations of the
    transform td (from leighton_nehari_transform).

    The warped equation (which has no first-order term) is integrated in t
    alongside the warp map x(t) itself, and the original equation in x to
    the points x(t).  At matched points the warped state must equal the
    image of the original state under the warp's derivative relations:

        W1 = u,   W2 = c*u'/h,   W3 = (h*(sigma*u'') - u'*(sigma*h'))/c,
        W4 = Tu,              with c = gamma/(b - a).

    The warped path runs on scipy's solve_ivp, the package's only use of it:
    it is independent of quasi's integrator, which carries the original
    path, and sigma_tilde and rho_tilde are not polynomials.

    Returns the worst relative mismatch over the four components at
    TRANSFORM_CHECK_POINTS points.  Each component is scaled by its own
    range, floored at 1e-3 of the overall state range so identically-
    vanishing components are not compared against their own integration
    noise.
    """
    from scipy.integrate import solve_ivp

    if not 0.0 <= lambda_like < math.inf:
        raise ValueError("lambda_like must be finite and >= 0")
    profile, a, b = td.profile, td.a, td.b
    c = td.gamma / (b - a)

    def rhs(t, y):
        # y = (x, h, sigma*h', W1, W2, W3, W4); the warped system has q = 0
        x, h = y[0], y[1]
        rho, sig, q = rho_sigma_q(profile.coeffs, x)
        dxdt = c / h
        sigma_tilde = (h / c) ** 3 * sig
        rho_tilde = c * rho / h
        return [
            dxdt,
            (y[2] / sig) * dxdt,
            q * c,
            y[4],
            y[5] / sigma_tilde,
            y[6],
            lambda_like * rho_tilde * y[3],
        ]

    init = np.asarray(init, dtype=float)
    y0 = [a, 1.0, 0.0, init[0], c * init[1], init[2] / c, init[3]]
    ts = np.linspace(a, b, TRANSFORM_CHECK_POINTS)
    sol = solve_ivp(rhs, (a, b), y0, method="DOP853",
                    rtol=max(rel_tol / 10.0, 2.3e-14), atol=rel_tol * 1e-6,
                    t_eval=ts)
    if not sol.success:
        raise RuntimeError(f"warped integration failed: {sol.message}")

    # the original equation integrated in x to the warp's points x(t)
    x_t, h_t, flux_t = sol.y[:3]
    x_traj = _column(profile, lambda_like, np.clip(x_t, a, b), init, rel_tol)
    w = x_traj.states.T * math.exp(x_traj.log_scale)
    images = np.stack([w[0], c * w[1] / h_t, (h_t * w[2] - w[1] * flux_t) / c, w[3]],
                      axis=1)
    warped = sol.y[3:7].T
    per_component = np.max(np.abs(images), axis=0)
    overall = max(float(np.max(per_component)), 1e-300)
    scales = np.maximum(per_component, 1e-3 * overall)
    return float(np.max(np.abs(warped - images) / scales))


@dataclass(frozen=True)
class ZeroInfo:
    x: float
    slope: float
    simple: bool


def simple_zero_scan(system, pair, rel_tol=DEFAULT_REL_TOL):
    """Locate interior sign-change zeros of a mass-free mode; check simplicity.

    Sign changes and slopes are read from the mode's own samples.  Each zero
    is located by integrating the sample state from the station before it,
    a short hop that stays well conditioned at large lam.  Each zero's |u'|
    must exceed ZERO_SLOPE_REL times the mode's slope scale.  Only defined for
    systems with mass = 0.
    """
    from scipy.optimize import brentq

    if system.mass != 0:
        raise ValueError("simple_zero_scan requires mass = 0")
    modes = np.concatenate([pair.mode_left, pair.mode_right])
    u_scale = float(np.max(np.abs(modes[:, 0])))
    slope_scale = float(np.max(np.abs(modes[:, 1])))

    # the spans' u(0) agree to the interface residual only: opposite signs
    # put a zero at the joint
    zeros = []
    if pair.mode_left[-1, 0] * pair.mode_right[0, 0] < 0:
        zeros.append((0.0, abs(float(pair.mode_left[-1, 1]))))
    # each span's zeros from its own samples; the left span starts at the
    # hinge x = -1, the right span's first station is x = 0
    for xs, mode, profile, first in ((pair.xs_left, pair.mode_left, system.left, 1),
                                     (pair.xs_right, pair.mode_right, system.right, 0)):
        for i in range(first, len(xs) - 1):
            if abs(mode[i, 0]) < 1e-13 * u_scale:
                zeros.append((float(xs[i]), abs(float(mode[i, 1]))))
            elif mode[i, 0] * mode[i + 1, 0] < 0:
                def state(x):
                    # a sample at its station, else a hop from the station before
                    for j in (i, i + 1):
                        if x == xs[j]:
                            return mode[j]
                    hop = _column(profile, pair.lam, np.array([xs[i], x]), mode[i], rel_tol)
                    return hop.final_state * math.exp(hop.log_scale)

                x0 = brentq(lambda x: float(state(x)[0]), xs[i], xs[i + 1], xtol=1e-13)
                zeros.append((float(x0), abs(float(state(x0)[1]))))

    out = []
    for x0, sl in sorted(zeros):
        if out and x0 - out[-1].x <= 1e-9:
            continue   # found twice: by a grid hit and a bracket, or on both spans
        out.append(ZeroInfo(x=x0, slope=sl, simple=sl > ZERO_SLOPE_REL * slope_scale))
    return out


@dataclass(frozen=True)
class BoundaryVariant:
    """One extra joint condition pinned on a span's hinged solution family.

    kind "slope_vs_curvature":      alpha*u'(0) = beta*u''(0)
    kind "shear_vs_displacement":   alpha*Tu(0) = beta*u(0)

    Left-span variants require alpha*beta <= 0, right-span ones
    alpha*beta >= 0, and (alpha, beta) != (0, 0).
    """

    kind: str
    alpha: float
    beta: float

    def __post_init__(self):
        if self.kind not in ("slope_vs_curvature", "shear_vs_displacement"):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ValueError("(alpha, beta) must not both be zero")


def dim_check(profile, lam, variant, rel_tol=DEFAULT_REL_TOL):
    """Measured dimension of the hinged family pinned by the variant condition.

    The hinged-end family of one span is two-dimensional; the variant adds a
    single linear functional, so the measured dimension is the nullity of a
    1x2 row (rank thresholded at DIM_ZERO_REL relative): 1 when the functional
    is nonzero on the family (the expected value), 2 only if it degenerates
    (never observed; would contradict the one-dimensionality statement).
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    prod = variant.alpha * variant.beta
    if profile.side == "left" and prod > 0:
        raise ValueError("left-span variants need alpha*beta <= 0")
    if profile.side == "right" and prod < 0:
        raise ValueError("right-span variants need alpha*beta >= 0")
    # the pair's frame at x = 0: the row's rank does not depend on the basis
    w1, w2 = (w[:, 0, 0] for w in _pair_frames(profile, [lam], 0.0, rel_tol)[:2])
    # the variant's functional on a state w: alpha*w[i] - beta*w[j]/d
    if variant.kind == "slope_vs_curvature":
        i, j, d = 1, 2, rho_sigma_q(profile.coeffs, 0.0)[1]
    else:
        i, j, d = 3, 0, 1.0
    row = np.array([variant.alpha * w[i] - variant.beta * w[j] / d for w in (w1, w2)])
    scale = (abs(variant.alpha) * max(abs(w1[i]), abs(w2[i]))
             + abs(variant.beta) * max(abs(w1[j]), abs(w2[j])) / d)
    rank = 0 if np.max(np.abs(row)) <= DIM_ZERO_REL * max(scale, 1e-300) else 1
    return 2 - rank


def random_profile(rng, side="right"):
    """An admissible random profile by rejection sampling: degree <= 3, P(q = 0) = 1/4."""
    interval = (-1.0, 0.0) if side == "left" else (0.0, 1.0)

    def draw_positive(floor):
        while True:
            deg = int(rng.integers(0, 4))
            c0 = float(rng.uniform(0.4, 3.0))
            coeffs = [c0] + [float(rng.uniform(-0.5, 0.5) * c0) for _ in range(deg)]
            if np.min(horner(coeffs, critical_points(coeffs, interval))) >= floor:
                return tuple(coeffs)

    def draw_nonneg():
        if rng.uniform() < 0.25:
            return (0.0,)
        while True:
            deg = int(rng.integers(0, 4))
            c0 = float(rng.uniform(0.0, 2.0))
            coeffs = [c0] + [float(rng.uniform(-0.3, 0.3)) for _ in range(deg)]
            if np.min(horner(coeffs, critical_points(coeffs, interval))) >= 0.0:
                return tuple(coeffs)

    return CoefficientProfile(
        side=side,
        rho=draw_positive(0.05),
        sigma=draw_positive(0.05),
        q=draw_nonneg(),
    )
