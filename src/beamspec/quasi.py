"""First-order quasi-derivative integration of the beam equation on one span.

State layout (dimensionless): w = (u, u', sigma*u'', Tu) where
Tu = (sigma*u'')' - q*u'.  In these variables the fourth-order equation
(sigma*u'')'' - (q*u')' = lam*rho*u becomes the first-order system

    w1' = w2,   w2' = w3/sigma,   w3' = w4 + q*w2,   w4' = lam*rho*w1,

and no derivative of sigma or q is ever evaluated.  u'' is recovered as
w3/sigma when needed.

Two drivers integrate it, both with the DOP853 tableau:

* scalar (one lam): scipy's solve_ivp with dense output, used for single
  brackets (refine), fundamental pairs and mode assembly;
* batched (many lam at once): the same tableau stepped with numpy over an
  axis of entries, one (coefficient set, lam) pair each, used for every
  endpoint-only evaluation of a solve (the determinant scan, lock-step root
  refinement and the simplicity probe).  Each entry takes its own steps,
  its step error being a max over its components, so its result does not
  depend on the rest of the batch.  The solve puts both spans in one pass:
  the right span enters as its mirror on (-1, 0) (config.mirrored), whose
  state is (u, -u', sigma*u'', -Tu); those sign flips are exact, so the
  mirror reproduces the right span's endpoint states bit for bit.

Both renormalize the state to unit max-norm whenever it exceeds 1e100
(the batched driver per entry), accumulating the removed factors as a log,
so the exponential growth at large lam never overflows and determinant
signs stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop853

from .config import CoefficientProfile, eval_stacked, horner, stack_coeffs

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


# DOP853 tableau (Hairer, Norsett & Wanner), taken from the (private)
# module that scipy's solve_ivp(method="DOP853") reads, so both drivers step
# the same method and the coefficients have one source.  Stages 0..11 make
# a step; f(x + h, y_new) of an accepted step is the next step's stage 0
# (FSAL).  E5 and E3 give the 5th- and 3rd-order error estimates from
# stages 0..11.
_DOP_A = _dop853.A[:_dop853.N_STAGES, :_dop853.N_STAGES]
_DOP_B = _dop853.B
_DOP_C = _dop853.C[:_dop853.N_STAGES]
_DOP_E5 = _dop853.E5[:_dop853.N_STAGES]
_DOP_E3 = _dop853.E3[:_dop853.N_STAGES]


def _batch_final_states(profiles, lams, x_from, x_to, inits,
                        rel_tol=DEFAULT_REL_TOL):
    """Endpoint states of k initial states for N values of lam at once.

    profiles is one CoefficientProfile or a sequence of P profiles on the
    same span; every (profile, lam) pair is one batch entry with its own
    coefficient set.  Every entry takes its own adaptive DOP853 steps,
    advanced together as numpy operations over an entry axis, so the result
    of one entry does not depend on which others share the batch; an entry
    leaves the batch when it reaches x_to.  The step error of an entry is
    DOP853's combined 5th/3rd-order estimate, taken per component and maxed
    over all its components (an RMS would average away the error of the
    fastest-growing one).  Each entry carries its own overflow log scale.
    Returns (finals, log_scale) of shapes (N, k, 4) and (N,) for one
    profile, (P, N, k, 4) and (P, N) for a sequence: the true endpoint
    state of column j is finals[..., i, j, :] * exp(log_scale[..., i]).
    """
    single = isinstance(profiles, CoefficientProfile)
    if single:
        profiles = (profiles,)
    lams = np.asarray(lams, dtype=float)
    for profile in profiles:
        _check_args(profile, lams, x_from, x_to, rel_tol)
    inits = np.atleast_2d(np.asarray(inits, dtype=float))
    rtol = max(rel_tol / 10.0, 2.3e-14)
    atol = rel_tol * 1e-6
    n_stages = _DOP_C.size
    n = len(profiles) * lams.size
    # layout (4 components, k columns, n entries): the entry is the
    # contiguous axis, so every per-entry factor broadcasts along it
    finals = np.empty((4, inits.shape[0], n))
    final_log = np.zeros(n)
    # the running entries: their index, coefficient columns
    # (degree + 1, entries), lam, position, next trial step, state, log
    # scale and FSAL stage
    idx = np.arange(n)
    rho_c, sig_c, q_c = (np.repeat(stack_coeffs(profiles, name), lams.size, axis=1)
                       for name in ("rho", "sigma", "q"))
    lam = np.tile(lams, len(profiles))
    x = np.full(n, float(x_from))
    h = np.full(n, 0.01 * abs(x_to - x_from))   # first trial
    y = np.empty_like(finals)
    y[:] = inits.T[:, :, None]
    log_scale = np.zeros(n)
    direction = 1.0 if x_to > x_from else -1.0

    def rhs(w, sig, q, lam_rho, out):
        out[0] = w[1]
        np.divide(w[2], sig, out=out[1])
        np.multiply(w[1], q, out=out[2])
        out[2] += w[3]
        np.multiply(w[0], lam_rho, out=out[3])

    def coeffs(x):
        # sigma, q and lam*rho at points x (..., entries)
        return (eval_stacked(sig_c, "sigma", x), eval_stacked(q_c, "q", x),
                lam * eval_stacked(rho_c, "rho", x))

    def combine(weights, upto):
        # stage sums use einsum, not tensordot: the BLAS matrix-vector
        # product goes multithreaded past ~1000 entries and then ran 8x
        # slower per step on two cores shared with another process
        return np.einsum("i,i...->...", weights[:upto], stages[:upto])

    f0 = np.empty_like(y)
    rhs(y, *coeffs(x), f0)
    while idx.size:
        stages = np.empty((n_stages,) + y.shape)
        stages[0] = f0
        rest = np.abs(x_to - x)
        last = h >= rest
        h = np.where(last, rest, h)
        hs = direction * h
        stuck = x + hs == x
        if stuck.any():
            raise IntegrationError("step size underflow", float(x[stuck][0]))
        # the last abscissa is x + h (C[11] = 1), where f0 of the next step
        # is taken too
        sig, q, lam_rho = coeffs(x + _DOP_C[1:, None] * hs)
        for i in range(1, n_stages):
            rhs(y + hs * combine(_DOP_A[i], i), sig[i - 1], q[i - 1], lam_rho[i - 1],
                stages[i])
        y_new = y + hs * combine(_DOP_B, n_stages)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err5 = combine(_DOP_E5, n_stages) / scale
        err3 = combine(_DOP_E3, n_stages) / scale
        err5 *= err5
        denom = np.sqrt(err5 + 0.01 * err3 * err3)
        err = np.max(np.divide(err5, denom, out=np.zeros_like(err5), where=denom > 0.0),
                     axis=(0, 1)) * h
        ok = err <= 1.0
        x = np.where(ok, np.where(last, x_to, x + hs), x)
        y = np.where(ok, y_new, y)
        # stage 11 is spent once the error is known: its slot takes f(x + h, y_new)
        rhs(y_new, sig[-1], q[-1], lam_rho[-1], stages[-1])
        f0 = np.where(ok, stages[-1], f0)
        big = np.abs(y).max(axis=(0, 1))
        over = big > OVERFLOW_LIMIT
        if over.any():
            # rescale the state and the carried FSAL stage alike
            y[..., over] /= big[over]
            f0[..., over] /= big[over]
            log_scale[over] += np.log(big[over])
        with np.errstate(divide="ignore"):
            h = h * np.clip(0.9 * err ** -0.125, 0.2, 10.0)
        done = ok & last
        if done.any():
            finals[..., idx[done]] = y[..., done]
            final_log[idx[done]] = log_scale[done]
            keep = ~done
            idx, lam, x, h = idx[keep], lam[keep], x[keep], h[keep]
            rho_c, sig_c, q_c = rho_c[:, keep], sig_c[:, keep], q_c[:, keep]
            y, f0, log_scale = y[..., keep], f0[..., keep], log_scale[keep]
    finals = finals.transpose(2, 1, 0)
    if single:
        return finals, final_log
    shape = (len(profiles), lams.size)
    return finals.reshape(shape + finals.shape[1:]), final_log.reshape(shape)
