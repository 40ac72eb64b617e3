"""Fundamental solution pairs for each span and their subwronskians.

Each span carries a pair of solutions pinned by hinged data at its outer end.
The left pair starts at x = -1 with (u, u', sigma*u'', Tu) = (0,1,0,0)
(unit slope) and (0,0,0,1) (unit quasi-shear); the right pair starts at
x = +1 from their mirror images, MIRROR * (0,1,0,0) and MIRROR * (0,0,0,1)
(config.MIRROR).  For lam > 0 every component of the left pair is strictly
positive on (-1, 0] and the right pair carries the sign pattern MIRROR =
(+,-,+,-) on [0, 1); both facts are checked on construction.

The subwronskians of a pair (u1, u2) are the bilinear pairings

    slope     = u1*u2'  - u2*u1'
    curvature = u1*u2'' - u2*u1''
    shear     = u1*Tu2  - u2*Tu1

whose zeros in (x, lam) flag eigenvalues of auxiliary clamped problems.
The shear pairing also equals u1'*sigma*u2'' - u2'*sigma*u1'', which is
used here as an independent accuracy monitor.

The pairs are integrated by quasi's one integrator (quasi._batch_final_states)
and held as Trajectory objects.  Past quasi.GROWTH_BOUND the true columns
are nearly parallel and their 2x2 minors cancel, so the pairings are read
from the pair's orthonormal frames, whose minors times det R lose no digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MIRROR, eval_stacked
from .quasi import (DEFAULT_REL_TOL, DEFAULT_STATIONS, Trajectory, _advance,
                    _batch_final_states, _columns, _station_log_det)

LEFT_UNIT_SLOPE = (0.0, 1.0, 0.0, 0.0)
LEFT_UNIT_SHEAR = (0.0, 0.0, 0.0, 1.0)

SIGN_TOL = -1e-12

# each span's outer end and the signs of its pinned pair: the right span's
# pinned data and sign pattern are the left span's under MIRROR
_SPANS = {"left": (-1.0, np.ones(4)), "right": (1.0, MIRROR)}

VANISH_ZERO_REL = 1e-8
VANISH_APART_REL = 1e-4


@dataclass(frozen=True)
class FundamentalSet:
    """The two pinned solutions of one span at a given lam.

    sign_ok records the span's sign-pattern check (None when lam == 0,
    where the pattern statement does not apply).  frames (S, 2, 4) and
    log_det (S,) come from the same integration: at each station the true
    pair's 2x2 minors are the frame's times exp(log_det).
    """

    side: str
    lam: float
    profile: object
    unit_slope: Trajectory
    unit_shear: Trajectory
    sign_ok: bool | None
    sign_violation: tuple | None
    frames: np.ndarray
    log_det: np.ndarray


@dataclass(frozen=True)
class SubwronskianTriple:
    """The three pairings of a fundamental pair at one point."""

    slope: float
    curvature: float
    shear: float
    x: float
    lam: float


def span_pair(profile, lam, rel_tol=DEFAULT_REL_TOL, n_stations=DEFAULT_STATIONS):
    """Integrate the pinned pair of one span from its outer end to x = 0:
    its two Trajectory objects, frames and log det (see quasi._columns)."""
    x_from, signs = _SPANS[profile.side]
    inits = [signs * LEFT_UNIT_SLOPE, signs * LEFT_UNIT_SHEAR]
    return _columns(profile, lam, np.linspace(x_from, 0.0, n_stations), inits, rel_tol)


def first_violation(traj, signs):
    """First station beyond the start where a sign-adjusted component is
    below SIGN_TOL, as (x, component, adjusted value); None if there is none."""
    adjusted = traj.states[1:] * signs
    bad = np.argwhere(adjusted < SIGN_TOL)
    if not bad.size:
        return None
    i, comp = bad[0]
    return float(traj.xs[1 + i]), int(comp), float(adjusted[i, comp])


def _pattern_check(trajectories, signs):
    """All sign-adjusted components strictly positive beyond the start."""
    for name, tr in zip(("unit_slope", "unit_shear"), trajectories):
        violation = first_violation(tr, signs)
        if violation is not None:
            return False, (name, *violation)
    return True, None


def _fundamental(system, side, lam, rel_tol):
    profile = getattr(system, side)
    pair, frames, log_det = span_pair(profile, lam, rel_tol)
    ok, violation = (None, None) if lam == 0 else _pattern_check(pair, _SPANS[side][1])
    return FundamentalSet(side, lam, profile, *pair, ok, violation, frames, log_det)


def left_fundamental(system, lam, rel_tol=DEFAULT_REL_TOL):
    """Pinned pair of the left span; positivity on (-1, 0] checked for lam > 0."""
    return _fundamental(system, "left", lam, rel_tol)


def right_fundamental(system, lam, rel_tol=DEFAULT_REL_TOL):
    """Pinned pair of the right span; pattern (+,-,+,-) on [0, 1) checked for lam > 0."""
    return _fundamental(system, "right", lam, rel_tol)


def pairings(wa, wb, sigma):
    """(slope, curvature, shear) pairings of two states (u, u', sigma*u'', Tu).

    The component axis comes first, so stacked states pair elementwise with
    sigma broadcast against them.
    """
    return (wa[0] * wb[1] - wb[0] * wa[1],
            (wa[0] * wb[2] - wb[0] * wa[2]) / sigma,
            wa[0] * wb[3] - wb[0] * wa[3])


def _frame_at(fset, x):
    """The pair's frame at x (2, 4) and the log of the factor that turns its
    minors into the true pairings; the frame pair is integrated in one call."""
    traj = fset.unit_slope
    i, frame, log_r = _advance(fset.profile, fset.lam, traj.xs, fset.frames, x, traj.rel_tol)
    return frame, fset.log_det[i] + log_r


def subwronskians(fset, x):
    """Evaluate the three pairings of the set at x from its frames."""
    (wa, wb), log_det = _frame_at(fset, x)
    factor = math.exp(log_det)
    slope, curvature, shear = pairings(wa, wb, eval_stacked(fset.profile.sigma, "sigma", x))
    return SubwronskianTriple(
        slope=slope * factor,
        curvature=curvature * factor,
        shear=shear * factor,
        x=float(x),
        lam=fset.lam,
    )


def shear_identity_residual(fset, x):
    """|shear - (u1'*sigma*u2'' - u2'*sigma*u1'')| / max(1, |shear|) at x.

    The two expressions agree identically; the residual measures integration
    accuracy and should stay below 1e-9 for rel_tol <= 1e-10.  A point x
    gives a float; a 1-D array of points gives an array, read as the
    stations of one pass from the span's outer end, as in vanishing_scan.
    """
    if np.ndim(x) == 0:
        (wa, wb), log_det = _frame_at(fset, x)
        factor = math.exp(log_det)
    else:
        x_from = _SPANS[fset.side][0]
        # the points and x = 0, in the direction of integration, -x_from
        stations, where = np.unique(np.append(x, 0.0) * -x_from, return_inverse=True)
        shot = _batch_final_states(fset.profile, [fset.lam], x_from, stations * -x_from,
                                   fset.frames[0], fset.unit_slope.rel_tol)
        wa, wb = np.moveaxis(shot.frames[0, where[:-1]], 0, -1)
        factor = np.exp(_station_log_det(shot)[0, where[:-1]])
    lhs = pairings(wa, wb, 1.0)[2] * factor
    rhs = (wa[1] * wb[2] - wb[1] * wa[2]) * factor
    residual = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
    return float(residual) if np.ndim(x) == 0 else residual


@dataclass(frozen=True)
class VanishingScanReport:
    """Result of the non-simultaneous-vanishing probe over an (x, lam) grid."""

    side: str
    n_points: int
    scale: float
    near_zero_points: int
    ok: bool
    violations: tuple


def vanishing_scan(system, side, lambdas, n_x=20, rel_tol=DEFAULT_REL_TOL):
    """Probe that no two subwronskians vanish together at any (x, lam).

    At every grid point where one pairing has magnitude below
    VANISH_ZERO_REL * scale, the other two must exceed VANISH_APART_REL *
    scale, where scale is the largest magnitude seen over the whole scan.
    All lambdas are integrated in one batched pass with the x grid as
    stations, and the pairings read from the frames as in subwronskians.
    """
    x_from, signs = _SPANS[side]
    profile = getattr(system, side)
    xs = np.linspace(x_from, 0.0, n_x + 1)[1:]
    shot = _batch_final_states(profile, lambdas, x_from, xs,
                               [signs * LEFT_UNIT_SLOPE, signs * LEFT_UNIT_SHEAR], rel_tol)
    wa, wb = np.moveaxis(shot.frames, (2, 3), (0, 1))
    # (3, points), points ordered by lam, then x
    vals = (np.stack(pairings(wa, wb, eval_stacked(profile.sigma, "sigma", xs)))
            * np.exp(_station_log_det(shot))).reshape(3, -1)
    mags = np.abs(vals)
    scale = float(np.max(mags))
    near = mags < VANISH_ZERO_REL * scale
    violations = [(float(lambdas[k // xs.size]), float(xs[k % xs.size]), int(i),
                   tuple(vals[:, k].tolist()))
                  for k, i in zip(*np.nonzero(near.T))
                  if np.min(np.delete(mags[:, k], i)) <= VANISH_APART_REL * scale]
    return VanishingScanReport(
        side=side,
        n_points=vals.shape[1],
        scale=scale,
        near_zero_points=int(np.count_nonzero(near)),
        ok=not violations,
        violations=tuple(violations),
    )
