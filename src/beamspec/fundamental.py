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

The pinned pair is one pass with an initial column per entry, bit for
bit two passes of quasi.integrate.  The pairings are read at given points
from one joint pass of the pair's frames with the points as stations
(_pair_frames).  Both run at quasi.DEFAULT_REL_TOL,
so a set and its pairings share one tolerance.  A pair whose growth
passes quasi.GROWTH_BOUND is integrated in segments (quasi._segments); its
true columns are nearly parallel and their 2x2 minors cancel, so the
pairings are read from the frames, whose minors times det R lose no digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MIRROR, in_span, rho_sigma_q
from .quasi import DEFAULT_STATIONS, Trajectory, _batch_final_states, _columns, _station_log_det

LEFT_UNIT_SLOPE = (0.0, 1.0, 0.0, 0.0)
LEFT_UNIT_SHEAR = (0.0, 0.0, 0.0, 1.0)
_LEFT_PAIR = np.array([LEFT_UNIT_SLOPE, LEFT_UNIT_SHEAR])

SIGN_TOL = -1e-12

# each span's outer end and the signs of its pinned pair: the right span's
# pinned data and sign pattern are the left span's under MIRROR
_SPANS = {"left": (-1.0, np.ones(4)), "right": (1.0, MIRROR)}

VANISH_ZERO_REL = 1e-8
VANISH_APART_REL = 1e-4
VANISH_X_POINTS = 20


@dataclass(frozen=True)
class FundamentalSet:
    """The two pinned solutions of one span at a given lam.

    sign_ok records the span's sign-pattern check (None when lam == 0,
    where the pattern statement does not apply).
    """

    side: str
    lam: float
    profile: object
    unit_slope: Trajectory
    unit_shear: Trajectory
    sign_ok: bool | None
    sign_violation: tuple | None


@dataclass(frozen=True)
class SubwronskianTriple:
    """The three pairings of a fundamental pair at a point, or arrays over points."""

    slope: float
    curvature: float
    shear: float


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


def _fundamental(system, side, lam):
    profile = getattr(system, side)
    x_from, signs = _SPANS[side]
    pair = _columns(profile, [lam, lam], np.linspace(x_from, 0.0, DEFAULT_STATIONS),
                    signs * _LEFT_PAIR)
    ok, violation = (None, None) if lam == 0 else _pattern_check(pair, signs)
    return FundamentalSet(side, lam, profile, *pair, ok, violation)


def left_fundamental(system, lam):
    """Pinned pair of the left span; positivity on (-1, 0] checked for lam > 0."""
    return _fundamental(system, "left", lam)


def right_fundamental(system, lam):
    """Pinned pair of the right span; pattern (+,-,+,-) on [0, 1) checked for lam > 0."""
    return _fundamental(system, "right", lam)


def pairings(wa, wb, sigma):
    """(slope, curvature, shear) pairings of two states (u, u', sigma*u'', Tu).

    The component axis comes first, so stacked states pair elementwise with
    sigma broadcast against them.
    """
    return (wa[0] * wb[1] - wb[0] * wa[1],
            (wa[0] * wb[2] - wb[0] * wa[2]) / sigma,
            wa[0] * wb[3] - wb[0] * wa[3])


def _pair_frames(profile, lams, x):
    """The span's pinned pair at the points x for each of N lams: the two
    frame columns (4, N, P) and log det R_e ... R_1 (N, P), whose exp turns
    the frame's 2x2 minors into the true pairings.  One pass from the
    span's outer end to x = 0 with the points as stations; a point within
    config.SPAN_SLACK past a span end is read at that end.
    """
    x_from, signs = _SPANS[profile.side]
    x = in_span(profile.interval, x)
    # the points and x = 0, in the direction of integration, -x_from
    stations, where = np.unique(np.append(x, 0.0) * -x_from, return_inverse=True)
    shot = _batch_final_states(profile, lams, x_from, stations * -x_from, signs * _LEFT_PAIR)
    wa, wb = np.moveaxis(shot.frames[:, where[:-1]], (2, 3), (0, 1))
    return wa, wb, _station_log_det(shot)[:, where[:-1]]


def _pairings(profile, lams, x):
    """The slope, curvature and shear pairings of the span's pinned pair at
    the points x for each of N lams, and the shear's second form
    u1'*sigma*u2'' - u2'*sigma*u1'', as an array (4, N, P): the frame's
    minors (see _pair_frames) times exp(log det R_e ... R_1)."""
    wa, wb, log_det = _pair_frames(profile, lams, x)
    sigma = rho_sigma_q(profile.coeffs, np.asarray(x, dtype=float))[1]
    return (np.stack([*pairings(wa, wb, sigma), wa[1] * wb[2] - wb[1] * wa[2]])
            * np.exp(log_det))


def subwronskians(fset, x):
    """The three pairings of the set at x from its frames: floats for a
    point x, arrays for a 1-D array of points (read in one pass)."""
    vals = _pairings(fset.profile, [fset.lam], x)[:3, 0]
    return SubwronskianTriple(*(vals[:, 0].tolist() if np.ndim(x) == 0 else vals))


def shear_identity_residual(fset, x):
    """|shear - (u1'*sigma*u2'' - u2'*sigma*u1'')| / max(1, |shear|) at x.

    The two expressions agree identically; the residual measures integration
    accuracy: at the default tolerance it stays below 1e-9 up to lam = 700 and
    below 4e-9 up to lam = 40**4 (variable_system(1.0), 129 stations per span:
    1.64e-9 at lam = 3e4, 3.04e-9 at 40**4).  A point x gives a float; a 1-D
    array of points gives an array.
    """
    lhs, rhs = _pairings(fset.profile, [fset.lam], x)[2:, 0]
    residual = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
    return float(residual[0]) if np.ndim(x) == 0 else residual


@dataclass(frozen=True)
class VanishingScanReport:
    """Result of the non-simultaneous-vanishing probe over an (x, lam) grid."""

    side: str
    n_points: int
    scale: float
    near_zero_points: int
    ok: bool
    violations: tuple


def vanishing_scan(system, side, lambdas):
    """Probe that no two subwronskians vanish together at any (x, lam).

    At every grid point where one pairing has magnitude below
    VANISH_ZERO_REL * scale, the other two must exceed VANISH_APART_REL *
    scale, where scale is the largest magnitude seen over the whole scan.
    The grid is VANISH_X_POINTS points of x past the outer end for every
    lam, all read in one batched pass (see _pair_frames).
    """
    profile = getattr(system, side)
    xs = np.linspace(_SPANS[side][0], 0.0, VANISH_X_POINTS + 1)[1:]
    # (3, points), points ordered by lam, then x
    vals = _pairings(profile, lambdas, xs)[:3].reshape(3, -1)
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
