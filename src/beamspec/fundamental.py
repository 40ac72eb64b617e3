"""Fundamental solution pairs for each span and their subwronskians.

Each span carries a pair of solutions pinned by hinged data at its outer end.
The left pair starts at x = -1 with (u, u', sigma*u'', Tu) = (0,1,0,0)
(unit slope) and (0,0,0,1) (unit quasi-shear); the right pair starts at
x = +1 with (0,-1,0,0) and (0,0,0,-1).  For lam > 0 every component of the
left pair is strictly positive on (-1, 0] and the right pair carries the
sign pattern (+,-,+,-) on [0, 1); both facts are checked on construction.

The subwronskians of a pair (u1, u2) are the bilinear pairings

    slope     = u1*u2'  - u2*u1'
    curvature = u1*u2'' - u2*u1''
    shear     = u1*Tu2  - u2*Tu1

whose zeros in (x, lam) flag eigenvalues of auxiliary clamped problems.
The shear pairing also equals u1'*sigma*u2'' - u2'*sigma*u1'', which is
used here as an independent accuracy monitor.

The pairs are integrated by quasi's one integrator (quasi._batch_final_states)
and held as Trajectory objects; pairings between stations come from
Trajectory.state_at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import horner
from .quasi import DEFAULT_REL_TOL, DEFAULT_STATIONS, Trajectory, _columns

LEFT_UNIT_SLOPE = (0.0, 1.0, 0.0, 0.0)
LEFT_UNIT_SHEAR = (0.0, 0.0, 0.0, 1.0)
RIGHT_UNIT_SLOPE = (0.0, -1.0, 0.0, 0.0)
RIGHT_UNIT_SHEAR = (0.0, 0.0, 0.0, -1.0)

SIGN_TOL = -1e-12


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
    """The three pairings of a fundamental pair at one point."""

    slope: float
    curvature: float
    shear: float
    x: float
    lam: float


def span_pair(profile, lam, rel_tol=DEFAULT_REL_TOL, n_stations=DEFAULT_STATIONS):
    """Integrate the pinned pair of one span from its outer end to x = 0."""
    if profile.side == "left":
        inits = [LEFT_UNIT_SLOPE, LEFT_UNIT_SHEAR]
        x_from, x_to = -1.0, 0.0
    else:
        inits = [RIGHT_UNIT_SLOPE, RIGHT_UNIT_SHEAR]
        x_from, x_to = 1.0, 0.0
    return _columns(profile, lam, np.linspace(x_from, x_to, n_stations), inits, rel_tol)


def _pattern_check(trajectories, signs):
    """All sign-adjusted components strictly positive beyond the start."""
    signs = np.asarray(signs, dtype=float)
    for name, tr in zip(("unit_slope", "unit_shear"), trajectories):
        adjusted = tr.states[1:] * signs
        bad = np.argwhere(adjusted < SIGN_TOL)
        if bad.size:
            i, comp = bad[0]
            return False, (name, float(tr.xs[1 + i]), int(comp),
                           float(tr.states[1 + i, comp]))
    return True, None


def left_fundamental(system, lam, rel_tol=DEFAULT_REL_TOL, n_stations=DEFAULT_STATIONS):
    """Pinned pair of the left span; positivity on (-1, 0] checked for lam > 0."""
    pair = span_pair(system.left, lam, rel_tol, n_stations)
    ok, violation = (None, None) if lam == 0 else _pattern_check(pair, (1, 1, 1, 1))
    return FundamentalSet("left", lam, system.left, pair[0], pair[1], ok, violation)


def right_fundamental(system, lam, rel_tol=DEFAULT_REL_TOL, n_stations=DEFAULT_STATIONS):
    """Pinned pair of the right span; pattern (+,-,+,-) on [0, 1) checked for lam > 0."""
    pair = span_pair(system.right, lam, rel_tol, n_stations)
    ok, violation = (None, None) if lam == 0 else _pattern_check(pair, (1, -1, 1, -1))
    return FundamentalSet("right", lam, system.right, pair[0], pair[1], ok, violation)


def subwronskians(fset, x):
    """Evaluate the three pairings of the set at x (see Trajectory.state_at)."""
    wa = fset.unit_slope.state_at(x)
    wb = fset.unit_shear.state_at(x)
    # products of two stored states: true value needs exp(2 * log_scale)
    factor = math.exp(2.0 * fset.unit_slope.log_scale)
    sig = horner(fset.profile.sigma, x)
    return SubwronskianTriple(
        slope=(wa[0] * wb[1] - wb[0] * wa[1]) * factor,
        curvature=(wa[0] * wb[2] - wb[0] * wa[2]) / sig * factor,
        shear=(wa[0] * wb[3] - wb[0] * wa[3]) * factor,
        x=float(x),
        lam=fset.lam,
    )


def shear_identity_residual(fset, x):
    """|shear - (u1'*sigma*u2'' - u2'*sigma*u1'')| / max(1, |shear|) at x.

    The two expressions agree identically; the residual measures integration
    accuracy and should stay below 1e-9 for rel_tol <= 1e-10.
    """
    wa = fset.unit_slope.state_at(x)
    wb = fset.unit_shear.state_at(x)
    factor = math.exp(2.0 * fset.unit_slope.log_scale)
    lhs = (wa[0] * wb[3] - wb[0] * wa[3]) * factor
    rhs = (wa[1] * wb[2] - wb[1] * wa[2]) * factor
    return abs(lhs - rhs) / max(1.0, abs(lhs))


@dataclass(frozen=True)
class VanishingScanReport:
    """Result of the non-simultaneous-vanishing probe over an (x, lam) grid."""

    side: str
    n_points: int
    scale: float
    near_zero_points: int
    ok: bool
    violations: tuple


def vanishing_scan(system, side, lambdas, n_x=20, rel_tol=DEFAULT_REL_TOL,
                   zero_rel=1e-8, apart_rel=1e-4):
    """Probe that no two subwronskians vanish together at any (x, lam).

    At every grid point where one pairing has magnitude below
    zero_rel * scale, the other two must exceed apart_rel * scale, where
    scale is the largest magnitude seen over the whole scan.
    """
    build = left_fundamental if side == "left" else right_fundamental
    triples = []
    for lam in lambdas:
        fset = build(system, lam, rel_tol)
        if side == "left":
            xs = np.linspace(-1.0, 0.0, n_x + 1)[1:]
        else:
            xs = np.linspace(1.0, 0.0, n_x + 1)[1:]
        for x in xs:
            t = subwronskians(fset, x)
            triples.append((lam, float(x), (t.slope, t.curvature, t.shear)))
    scale = max(max(abs(v) for v in vals) for _, _, vals in triples)
    near_zero = 0
    violations = []
    for lam, x, vals in triples:
        for i in range(3):
            if abs(vals[i]) < zero_rel * scale:
                near_zero += 1
                others = [abs(vals[j]) for j in range(3) if j != i]
                if min(others) <= apart_rel * scale:
                    violations.append((lam, x, i, vals))
    return VanishingScanReport(
        side=side,
        n_points=len(triples),
        scale=scale,
        near_zero_points=near_zero,
        ok=not violations,
        violations=tuple(violations),
    )
