"""First-order quasi-derivative integration of the beam equation on one span.

State layout (dimensionless): w = (u, u', sigma*u'', Tu) where
Tu = (sigma*u'')' - q*u'.  In these variables the fourth-order equation
(sigma*u'')'' - (q*u')' = lam*rho*u becomes the first-order system

    w1' = w2,   w2' = w3/sigma,   w3' = w4 + q*w2,   w4' = lam*rho*w1,

and no derivative of sigma or q is ever evaluated.  u'' is recovered as
w3/sigma when needed.

Two drivers integrate it:

* scalar (one lam): DOP853, adaptive 8th-order embedded pair with dense
  output, used for single-lam work (root refinement, determinant slope,
  fundamental pairs and mode assembly);
* batched (many lam at once): a Dormand-Prince 5(4) pair stepped with
  numpy over a lam axis, used by the determinant scan.  All lam share one
  step sequence, and the step error is a max over every component, so the
  hardest lam of the batch sets the step.

Both renormalize the state to unit max-norm whenever it exceeds 1e100
(the batched driver per lam), accumulating the removed factors as a log,
so the exponential growth at large lam never overflows and determinant
signs stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .config import eval_coeff, horner

OVERFLOW_LIMIT = 1e100
REL_TOL_MIN = 1e-13
REL_TOL_MAX = 1e-6
DEFAULT_REL_TOL = 1e-10
DEFAULT_STATIONS = 129


class IntegrationError(RuntimeError):
    """The adaptive integrator gave up (typically step-size underflow)."""

    def __init__(self, message, x):
        super().__init__(f"{message} (at x={x:.6g})")
        self.x = x


def vector_field(profile, lam, x, state):
    """Right-hand side (w2, w3/sigma, w4 + q*w2, lam*rho*w1) at one point."""
    lo, hi = profile.interval
    if not (lo - 1e-12 <= x <= hi + 1e-12):
        raise ValueError(f"x={x:g} outside span [{lo:g}, {hi:g}]")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    w1, w2, w3, w4 = (float(c) for c in state)
    sig = horner(profile.sigma, x)
    q = horner(profile.q, x)
    if q < 0.0:
        q = 0.0
    rho = horner(profile.rho, x)
    return np.array([w2, w3 / sig, w4 + q * w2, lam * rho * w1])


@dataclass(frozen=True)
class Trajectory:
    """Dense integration record for one initial state.

    Stored states carry a common scaling: true value = states * exp(log_scale).
    For desk-scale lam the scaling never triggers and log_scale is 0.
    """

    lam: float
    xs: np.ndarray
    states: np.ndarray
    log_scale: float
    segments: tuple = field(repr=False, compare=False, default=())
    column: int = field(repr=False, compare=False, default=0)

    @property
    def initial_state(self):
        return self.states[0]

    @property
    def final_state(self):
        return self.states[-1]

    def state_at(self, x):
        """Dense-output state at any covered x, in the stored (common) scale."""
        for sol, log_before in self.segments:
            lo, hi = sorted((sol.t_min, sol.t_max))
            if lo - 1e-12 <= x <= hi + 1e-12:
                w = sol(min(max(x, lo), hi))
                w = w[4 * self.column:4 * self.column + 4]
                return w * math.exp(log_before - self.log_scale)
        raise ValueError(f"x={x:g} not covered by this trajectory")


def _rhs(profile, lam, ncols):
    rho_c, sig_c, q_c = profile.rho, profile.sigma, profile.q

    def rhs(x, y):
        # plain-float arithmetic: this is the innermost hot path of every scan
        x = float(x)
        rho = horner(rho_c, x)
        sig = horner(sig_c, x)
        q = horner(q_c, x)
        if q < 0.0:
            q = 0.0
        lr = lam * rho
        yl = y.tolist()
        out = [0.0] * len(yl)
        for j in range(0, 4 * ncols, 4):
            out[j] = yl[j + 1]
            out[j + 1] = yl[j + 2] / sig
            out[j + 2] = yl[j + 3] + q * yl[j + 1]
            out[j + 3] = lr * yl[j]
        return out

    return rhs


def _check_args(profile, lam, x_from, x_to, rel_tol):
    if np.min(lam) < 0:
        raise ValueError("lam must be >= 0")
    if not (REL_TOL_MIN <= rel_tol <= REL_TOL_MAX):
        raise ValueError(f"rel_tol must lie in [{REL_TOL_MIN:g}, {REL_TOL_MAX:g}]")
    lo, hi = profile.interval
    for x in (x_from, x_to):
        if not (lo - 1e-12 <= x <= hi + 1e-12):
            raise ValueError(f"x={x:g} outside span [{lo:g}, {hi:g}]")
    if x_from == x_to:
        raise ValueError("x_from and x_to must differ")


def _run(profile, lam, x_from, x_to, inits, rel_tol, n_stations, scaled):
    """Shared integration driver.

    inits is a (k, 4) block of initial states propagated jointly (the system
    is linear, so columns do not interact).  With n_stations=None only the
    endpoint states are produced (fast path for determinant scans).
    Returns (stations xs or None, station states or None, final states (k,4),
    log_scale, segments).
    """
    _check_args(profile, lam, x_from, x_to, rel_tol)
    inits = np.atleast_2d(np.asarray(inits, dtype=float))
    k = inits.shape[0]
    y = inits.reshape(-1).copy()
    rhs = _rhs(profile, lam, k)
    # run the controller a notch tighter than requested so the global error
    # lands comfortably inside rel_tol
    rtol = max(rel_tol / 10.0, 2.3e-14)
    atol = rel_tol * 1e-6
    direction = 1.0 if x_to > x_from else -1.0

    events = None
    log_scale = 0.0
    if scaled:
        big = float(np.max(np.abs(y)))
        if big > OVERFLOW_LIMIT:
            y /= big
            log_scale = math.log(big)

        def too_big(x, yv):
            return float(np.max(np.abs(yv))) - OVERFLOW_LIMIT

        too_big.terminal = True
        events = (too_big,)

    want_dense = n_stations is not None
    xs = np.linspace(x_from, x_to, n_stations) if want_dense else None
    station_states = np.empty((n_stations, 4 * k)) if want_dense else None
    station_logs = np.empty(n_stations) if want_dense else None
    segments = []
    fill = 0
    start = x_from
    while True:
        sol = solve_ivp(
            rhs, (start, x_to), y, method="DOP853",
            rtol=rtol, atol=atol, dense_output=want_dense, events=events,
        )
        if sol.status == -1:
            raise IntegrationError(sol.message, float(sol.t[-1]))
        stop = float(sol.t[-1])
        if want_dense:
            segments.append((sol.sol, log_scale))
            j = fill
            while j < n_stations and (xs[j] - stop) * direction <= 1e-12:
                j += 1
            if j > fill:
                block = sol.sol(xs[fill:j])
                station_states[fill:j] = block.T
                station_logs[fill:j] = log_scale
                fill = j
        y_end = sol.y[:, -1].copy()
        if sol.status == 1:
            # overflow guard fired: renormalize and continue from the event point
            norm = float(np.max(np.abs(y_end)))
            y = y_end / norm
            log_scale += math.log(norm)
            start = stop
            continue
        break

    if want_dense:
        if fill != n_stations:
            raise IntegrationError("integration stopped before the far end", stop)
        station_states *= np.exp(station_logs - log_scale)[:, None]
    finals = y_end.reshape(k, 4)
    return xs, station_states, finals, log_scale, tuple(segments)


def _trajectories(profile, lam, x_from, x_to, inits, rel_tol=DEFAULT_REL_TOL,
                  n_stations=DEFAULT_STATIONS, scaled=False):
    """Integrate k initial states jointly; returns one Trajectory per state."""
    xs, states, _, log_scale, segments = _run(
        profile, lam, x_from, x_to, inits, rel_tol, n_stations, scaled)
    k = states.shape[1] // 4
    return [
        Trajectory(lam=lam, xs=xs, states=states[:, 4 * i:4 * i + 4],
                   log_scale=log_scale, segments=segments, column=i)
        for i in range(k)
    ]


def _final_states(profile, lam, x_from, x_to, inits, rel_tol=DEFAULT_REL_TOL,
                  scaled=True):
    """Endpoint states only (no dense output); returns ((k,4), log_scale)."""
    _, _, finals, log_scale, _ = _run(
        profile, lam, x_from, x_to, inits, rel_tol, None, scaled)
    return finals, log_scale


def integrate(profile, lam, x_from, x_to, init, rel_tol=DEFAULT_REL_TOL,
              n_stations=DEFAULT_STATIONS):
    """Propagate one quasi-derivative state across the span with dense output."""
    if n_stations < 64:
        raise ValueError("need at least 64 stations")
    return _trajectories(profile, lam, x_from, x_to, [init], rel_tol,
                         n_stations, scaled=False)[0]


def integrate_scaled(profile, lam, x_from, x_to, init, rel_tol=DEFAULT_REL_TOL,
                     n_stations=DEFAULT_STATIONS):
    """Like integrate, but overflow-safe: states renormalized past 1e100.

    The returned trajectory equals the unscaled one times exp(log_scale).
    """
    if n_stations < 64:
        raise ValueError("need at least 64 stations")
    return _trajectories(profile, lam, x_from, x_to, [init], rel_tol,
                         n_stations, scaled=True)[0]


# Dormand-Prince 5(4) tableau; the last stage of a step is the first of the
# next (FSAL), and _DP_E gives the embedded error from all seven stages.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = (
    None,
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200,
                  -22 / 525, 1 / 40])


def _batch_final_states(profile, lams, x_from, x_to, inits,
                        rel_tol=DEFAULT_REL_TOL):
    """Endpoint states of k initial states for N values of lam at once.

    All lam share one adaptive step sequence.  The step error is the max
    over every component of every lam (an RMS would average away the error
    of the largest lam).  Each lam carries its own overflow log scale.
    Returns (finals (N, k, 4), log_scale (N,)): the true endpoint state of
    column j at lams[i] is finals[i, j] * exp(log_scale[i]).
    """
    lams = np.asarray(lams, dtype=float)
    _check_args(profile, lams, x_from, x_to, rel_tol)
    inits = np.atleast_2d(np.asarray(inits, dtype=float))
    rtol = max(rel_tol / 10.0, 2.3e-14)
    atol = rel_tol * 1e-6
    # component-major layout (4, N, k): every RHS row is one contiguous slice
    y = np.empty((4, lams.size, inits.shape[0]))
    y[:] = inits.T[:, None, :]
    lam = lams[:, None]
    log_scale = np.zeros(lams.size)
    stages = np.empty((7,) + y.shape)
    # stage sums use einsum, not tensordot: the BLAS matrix-vector product
    # goes multithreaded past ~1000 lam and then ran 8x slower per step on
    # two cores shared with another process

    def rhs(w, sig, q, rho, out):
        out[0] = w[1]
        np.divide(w[2], sig, out=out[1])
        np.multiply(w[1], q, out=out[2])
        out[2] += w[3]
        np.multiply(w[0], lam * rho, out=out[3])

    coeffs = [eval_coeff(profile, name, x_from) for name in ("sigma", "q", "rho")]
    rhs(y, *coeffs, stages[0])
    x = x_from
    span = abs(x_to - x_from)
    direction = 1.0 if x_to > x_from else -1.0
    h = 0.01 * span   # first trial; the controller shrinks it as needed
    while x != x_to:
        last = h >= abs(x_to - x)
        if last:
            h = abs(x_to - x)
        hs = direction * h
        if x + hs == x:
            raise IntegrationError("step size underflow", x)
        xs = x + _DP_C[1:] * hs
        sig, q, rho = (eval_coeff(profile, name, xs) for name in ("sigma", "q", "rho"))
        for i in range(1, 6):
            rhs(y + hs * np.einsum("i,i...->...", _DP_A[i], stages[:i]),
                sig[i - 1], q[i - 1], rho[i - 1], stages[i])
        y_new = y + hs * np.einsum("i,i...->...", _DP_B, stages[:6])
        rhs(y_new, sig[4], q[4], rho[4], stages[6])
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.max(np.abs(np.einsum("i,i...->...", _DP_E, stages)) / scale)) * h
        if err <= 1.0:
            x = x_to if last else x + hs
            y = y_new
            stages[0] = stages[6]
            if np.max(np.abs(y)) > OVERFLOW_LIMIT:
                big = np.abs(y).max(axis=2).max(axis=0)
                over = big > OVERFLOW_LIMIT
                # rescale the state and the carried FSAL stage alike
                y[:, over] /= big[over][:, None]
                stages[0][:, over] /= big[over][:, None]
                log_scale[over] += np.log(big[over])
            grow = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
        else:
            grow = max(0.2, 0.9 * err ** -0.2)
        h *= grow
    return y.transpose(1, 2, 0), log_scale
