"""First-order quasi-derivative integration of the beam equation on one span.

State layout (dimensionless): w = (u, u', sigma*u'', Tu) where
Tu = (sigma*u'')' - q*u'.  In these variables the fourth-order equation
(sigma*u'')'' - (q*u')' = lam*rho*u becomes the first-order system

    w1' = w2,   w2' = w3/sigma,   w3' = w4 + q*w2,   w4' = lam*rho*w1,

and no derivative of sigma or q is ever evaluated.  u'' is recovered as
w3/sigma when needed.

One integrator steps it, _batch_final_states: the DOP853 tableau stepped
with numpy over an axis of entries, one (coefficient set, lam) pair each.
Each entry takes its own steps, its step error being a max over its
components, so its result does not depend on the rest of the batch.  An
entry integrates one column or a pair and keeps it orthonormal past
GROWTH_BOUND (stepwise orthonormalisation, Conte 1966): it carries on from
the frame Q of Y = Q R and returns every R, so neither overflow nor the
alignment of the two columns with the fastest-growing solution costs a
determinant its sign or a mode its shape.  At each requested station the
entry's frame and its epoch (the number of orthonormalisations so far) are
recorded, read from DOP853's dense output inside the span and from a step
clipped to land on the far end.  Every determinant, every mode and every
Trajectory comes from this integrator.  The solve puts both spans in
one pass: the right span enters as its mirror on (-1, 0)
(config.mirrored), whose state is (u, -u', sigma*u'', -Tu); those sign
flips are exact, so the mirror reproduces the right span's states bit for
bit.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import CoefficientProfile, eval_coeff, eval_stacked, stack_coeffs

# The integrator orthonormalises an entry's columns once its state passes this
# bound.  Both columns pick up the fastest-growing solution, so the plane
# they span is resolved only to about eps times the growth since the last
# orthonormalisation, and eigenvalue errors at large lam scale with the
# bound (uniform M=0, modes 1-40: 2e-16 at 1e4, 1e-11 at 1e7, 4e-9 at
# 1e10).  The shipped modes (s <= 10) grow to less than 1e6, so at 1e7 they
# are integrated as plain pairs; orthonormalising at every step instead
# doubled the steps of the scan.
GROWTH_BOUND = 1e7
REL_TOL_MIN = 1e-13
REL_TOL_MAX = 1e-6
DEFAULT_REL_TOL = 1e-10
DEFAULT_STATIONS = 129


class IntegrationError(RuntimeError):
    """The adaptive integrator gave up (typically step-size underflow)."""

    def __init__(self, message, x):
        super().__init__(f"{message} (at x={x:.6g})")
        self.x = x


def _check_lam(lam):
    lam = np.asarray(lam)
    # NaN fails both comparisons
    if not np.all((lam >= 0) & (lam < math.inf)):
        raise ValueError("lam must be finite and >= 0")


def vector_field(profile, lam, x, state):
    """Right-hand side (w2, w3/sigma, w4 + q*w2, lam*rho*w1) at one point."""
    sig, q, rho = (eval_coeff(profile, name, x) for name in ("sigma", "q", "rho"))
    _check_lam(lam)
    w1, w2, w3, w4 = (float(c) for c in state)
    return np.array([w2, w3 / sig, w4 + q * w2, lam * rho * w1])


@dataclass(frozen=True)
class Trajectory:
    """One integrated column at stations xs, the first being its start.

    Stored states carry a common scaling: true value = states * exp(log_scale).
    While the column stays below GROWTH_BOUND log_scale is 0.  profile and
    rel_tol let state_at integrate between stations.
    """

    lam: float
    xs: np.ndarray
    states: np.ndarray
    log_scale: float
    profile: CoefficientProfile
    rel_tol: float

    @property
    def initial_state(self):
        return self.states[0]

    @property
    def final_state(self):
        return self.states[-1]

    def state_at(self, x):
        """State at any covered x, in the stored (common) scale.

        Integrates from the nearest station before x (in the direction of
        integration) through _batch_final_states.
        """
        lo, hi = sorted((self.xs[0], self.xs[-1]))
        if not lo - 1e-12 <= x <= hi + 1e-12:
            raise ValueError(f"x={x:g} not covered by this trajectory")
        x = min(max(x, lo), hi)
        direction = 1.0 if self.xs[-1] > self.xs[0] else -1.0
        i = int(np.count_nonzero((x - self.xs) * direction >= 0.0)) - 1
        if x == self.xs[i]:
            return self.states[i]
        shot = _batch_final_states(self.profile, [self.lam], self.xs[i], x,
                                   [self.states[i]], self.rel_tol)
        return shot.frames[0, -1, 0] * math.exp(shot.log_scale[0])


def _check_args(profile, lam, x_from, x_to, rel_tol):
    _check_lam(lam)
    if not (REL_TOL_MIN <= rel_tol <= REL_TOL_MAX):
        raise ValueError(f"rel_tol must lie in [{REL_TOL_MIN:g}, {REL_TOL_MAX:g}]")
    lo, hi = profile.interval
    for x in (x_from, x_to):
        if not (lo - 1e-12 <= x <= hi + 1e-12):
            raise ValueError(f"x={x:g} outside span [{lo:g}, {hi:g}]")
    if x_from == x_to:
        raise ValueError("x_from and x_to must differ")


def _columns(profile, lam, xs, inits, rel_tol):
    """Integrate one or two initial states jointly; one Trajectory each.

    xs are the stations, from the start in the direction of integration.
    At a station of epoch e the true columns are the frame times
    R_e ... R_1; that product is carried with its own log scale, so it
    cannot overflow, and the last one sets the common log_scale.
    """
    shot = _batch_final_states(profile, [lam], xs[0], xs, inits, rel_tol)
    frames, epochs = shot.frames[0], shot.epochs[0]
    products, logs = [np.eye(len(inits))], [0.0]
    for r in shot.r_factors[0, 1:epochs[-1] + 1]:
        p = r @ products[-1]
        big = float(np.max(np.abs(p)))
        products.append(p / big)
        logs.append(logs[-1] + math.log(big))
    products = np.array(products)[epochs]
    scale = np.exp(np.array(logs)[epochs] - logs[-1])
    # column i of the true pair is sum_j frame[:, j] * product[j, i]
    states = np.einsum("sjc,sji->sic", frames, products) * scale[:, None, None]
    return [Trajectory(lam, xs, states[:, i], logs[-1], profile, rel_tol)
            for i in range(len(inits))]


def integrate(profile, lam, x_from, x_to, init, rel_tol=DEFAULT_REL_TOL,
              n_stations=DEFAULT_STATIONS):
    """Propagate one quasi-derivative state across the span; true states,
    log_scale 0 (they overflow where the solution does)."""
    traj = integrate_scaled(profile, lam, x_from, x_to, init, rel_tol, n_stations)
    return dataclasses.replace(traj, states=traj.states * np.exp(traj.log_scale),
                               log_scale=0.0)


def integrate_scaled(profile, lam, x_from, x_to, init, rel_tol=DEFAULT_REL_TOL,
                     n_stations=DEFAULT_STATIONS):
    """Like integrate, but overflow-safe: the state is normalised whenever
    it passes GROWTH_BOUND.

    The returned trajectory equals the unscaled one times exp(log_scale).
    """
    if n_stations < 64:
        raise ValueError("need at least 64 stations")
    return _columns(profile, lam, np.linspace(x_from, x_to, n_stations), [init],
                    rel_tol)[0]


def __getattr__(name):
    # perfbench's tracer wraps quasi.solve_ivp, which nothing here calls; it
    # is resolved on request, so importing quasi leaves scipy.integrate alone
    if name != "solve_ivp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import solve_ivp
    return solve_ivp


# DOP853 tableau (Hairer, Norsett & Wanner), from the (private) module that
# scipy's DOP853 solver reads.  It is executed from its file, which imports
# numpy only: find_spec locates scipy without importing it, so neither
# scipy.integrate nor the rest of scipy it pulls in loads.  Stages 0..11
# make a step; stage 12 is f(x + h, y_new), which an accepted step hands on
# as the next step's stage 0 (FSAL).  E5 and E3 give the 5th- and 3rd-order
# error estimates from stages 0..11.  Stages 13..15 and D give the step's
# 7th-order dense output.
_spec = importlib.util.spec_from_file_location(
    f"{__name__}._dop853",
    Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    / "integrate" / "_ivp" / "dop853_coefficients.py")
_dop853 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_dop853)
_N_STAGES = _dop853.N_STAGES
_DOP_A = _dop853.A
_DOP_B = _dop853.B
_DOP_C = _dop853.C
_DOP_D = _dop853.D
_DOP_E5 = _dop853.E5[:_N_STAGES]
_DOP_E3 = _dop853.E3[:_N_STAGES]


def _orthonormalise(y, *carried):
    """Gram-Schmidt of the columns y = Q R, shape (4, k, entries), k = 1 or 2.

    One column is just normalised.  The second column is orthogonalised
    twice, since once loses the orthogonality of nearly parallel columns.
    Returns Q, R (entries, k, k), log det R and every array of carried
    (same layout) mapped by R^-1; det R is positive, so determinant signs
    stay exact.
    """
    a = y[:, 0]
    r11 = np.sqrt(np.sum(a * a, axis=0))
    q1 = a / r11
    if y.shape[1] == 1:
        return (q1[:, None], r11[:, None, None], np.log(r11),
                *(f / r11 for f in carried))
    b = y[:, 1]
    r12 = np.sum(q1 * b, axis=0)
    b = b - r12 * q1
    again = np.sum(q1 * b, axis=0)
    b = b - again * q1
    r12 = r12 + again
    r22 = np.sqrt(np.sum(b * b, axis=0))
    mapped = []
    for f in carried:
        f1 = f[:, 0] / r11
        mapped.append(np.stack([f1, (f[:, 1] - r12 * f1) / r22], axis=1))
    r = np.zeros((r11.size, 2, 2))
    r[:, 0, 0], r[:, 0, 1], r[:, 1, 1] = r11, r12, r22
    return (np.stack([q1, b / r22], axis=1), r, np.log(r11 * r22), *mapped)


Shot = namedtuple("Shot", "frames epochs r_factors log_scale")


def _batch_final_states(profiles, lams, x_from, stations, inits,
                        rel_tol=DEFAULT_REL_TOL):
    """Frames of one or two initial columns at stations, for N values of lam at once.

    profiles is one CoefficientProfile or a sequence of P profiles on the
    same span; every (profile, lam) pair is one batch entry with its own
    coefficient set.  stations run in the direction of integration from
    x_from on (which may be the first) to the far end (a scalar is that end
    alone).  Every entry takes its own adaptive DOP853 steps, advanced
    together as numpy operations over an entry axis, so the result of one
    entry does not depend on which others share the batch; its last step is
    clipped to land on the far end, where it leaves the batch, and its
    frames at the other stations come from the dense output of the step
    that passed them.
    The step error of an entry is DOP853's combined 5th/3rd-order estimate,
    taken per component and maxed over all its components (an RMS would
    average away the error of the fastest-growing one).  Once an entry's
    state passes GROWTH_BOUND its columns are replaced by an orthonormal
    basis Q of their span (Y = Q R), and an entry that did so ends on an
    orthonormal frame.

    Returns a Shot whose leading axes ... are (N,) for one profile and
    (P, N) for P: frames (..., S, k, 4), the entry's frame at each station,
    one row per column; epochs (..., S), its orthonormalisations before
    each station; r_factors (..., E + 1, k, k), the R of its j-th
    orthonormalisation at index j (the identity at 0 and past its last);
    log_scale (...), log det of all its R.  At a station of epoch e the true
    columns are frame R_e ... R_1 (as 4 x k matrices), so the combination
    of the initial columns with coefficients c_0 is frame c_e, where
    c_j = R_j c_(j-1); the 2x2 minors of a true endpoint pair are those of
    its last frame times exp(log_scale).
    """
    single = isinstance(profiles, CoefficientProfile)
    if single:
        profiles = (profiles,)
    lams = np.asarray(lams, dtype=float)
    stations = np.atleast_1d(np.asarray(stations, dtype=float))
    x_to = float(stations[-1])
    direction = 1.0 if x_to > x_from else -1.0
    for profile in profiles:
        _check_args(profile, lams, x_from, x_to, rel_tol)
    if not (np.all(np.diff(stations) * direction > 0.0)
            and (stations[0] - x_from) * direction >= 0.0):
        raise ValueError("stations must run strictly from x_from to the far end")
    rtol = max(rel_tol / 10.0, 2.3e-14)
    atol = rel_tol * 1e-6
    n = len(profiles) * lams.size
    inits = np.atleast_2d(np.asarray(inits, dtype=float))
    k = inits.shape[0]
    # layout (4 components, k columns, n entries): the entry is the
    # contiguous axis, so every per-entry factor broadcasts along it
    frames = np.empty((4, k, stations.size, n))
    epochs = np.empty((stations.size, n), dtype=int)
    final_log = np.zeros(n)
    events = []     # (entries, their epoch, R) of every orthonormalisation
    # the running entries: their index, coefficient columns
    # (degree + 1, entries), lam, position, next trial step, next station,
    # state, epoch, log scale and FSAL stage
    idx = np.arange(n)
    rho_c, sig_c, q_c = (np.repeat(stack_coeffs(profiles, name), lams.size, axis=1)
                       for name in ("rho", "sigma", "q"))
    lam = np.tile(lams, len(profiles))
    x = np.full(n, float(x_from))
    # first trial: the whole way on a short span, as from state_at
    h = np.full(n, min(0.01, abs(x_to - x_from)))
    nxt = np.zeros(n, dtype=int)
    y = np.empty((4, k, n))
    y[:] = inits.T[:, :, None]
    epoch = np.zeros(n, dtype=int)
    log_scale = np.zeros(n)

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
    # interior stations in the direction of integration, for searchsorted
    ahead = stations[:-1] * direction
    while idx.size:
        stages = np.empty((_DOP_C.size,) + y.shape)
        stages[0] = f0
        rest = np.abs(x_to - x)
        last = h >= rest
        h = np.where(last, rest, h)
        hs = direction * h
        stuck = x + hs == x
        if stuck.any():
            # a last step may be shorter than one ulp of x: it lands on x_to
            stuck &= ~last
            if stuck.any():
                raise IntegrationError("step size underflow", float(x[stuck][0]))
        # the last abscissa is x + h (C[11] = 1), where stage 12 is taken too
        sig, q, lam_rho = coeffs(x + _DOP_C[1:_N_STAGES, None] * hs)
        for i in range(1, _N_STAGES):
            rhs(y + hs * combine(_DOP_A[i], i), sig[i - 1], q[i - 1], lam_rho[i - 1],
                stages[i])
        y_new = y + hs * combine(_DOP_B, _N_STAGES)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err5 = combine(_DOP_E5, _N_STAGES) / scale
        err3 = combine(_DOP_E3, _N_STAGES) / scale
        err5 *= err5
        denom = np.sqrt(err5 + 0.01 * err3 * err3)
        err = np.max(np.divide(err5, denom, out=np.zeros_like(err5), where=denom > 0.0),
                     axis=(0, 1)) * h
        ok = err <= 1.0
        rhs(y_new, sig[-1], q[-1], lam_rho[-1], stages[_N_STAGES])
        x_new = np.where(ok, np.where(last, x_to, x + hs), x)
        reached = np.searchsorted(ahead, x_new * direction, side="right") if ahead.size else nxt
        if ahead.size and (reached > nxt).any():
            # the interior stations this step passed, read from its dense
            # output in the epoch of the step
            sig, q, lam_rho = coeffs(x + _DOP_C[_N_STAGES + 1:, None] * hs)
            for j, i in enumerate(range(_N_STAGES + 1, _DOP_C.size)):
                rhs(y + hs * combine(_DOP_A[i], i), sig[j], q[j], lam_rho[j], stages[i])
            # DOP853's interpolant, highest power first, in Horner form in
            # theta and 1 - theta; row i of `at` is each entry's i-th
            # station of this step
            dy = y_new - y
            poly = [*(hs * np.einsum("ji,i...->j...", _DOP_D[::-1], stages)),
                    2.0 * dy - hs * (stages[_N_STAGES] + stages[0]), hs * stages[0] - dy, dy]
            at = nxt + np.arange(np.max(reached - nxt))[:, None]
            theta = ((stations[np.minimum(at, ahead.size - 1)] - x) / hs)[:, None, None, :]
            factors = (theta, 1.0 - theta)
            w = poly[0] * theta
            for j, f in enumerate(poly[1:], start=1):
                w = (w + f) * factors[j % 2]
            row, col = np.nonzero(at < reached)
            at, entries = at[row, col], idx[col]
            frames[:, :, at, entries] = w[row, :, :, col].transpose(1, 2, 0) + y[..., col]
            epochs[at, entries] = epoch[col]
            nxt = reached
        x = x_new
        y = np.where(ok, y_new, y)
        f0 = np.where(ok, stages[_N_STAGES], f0)
        grown = np.abs(y).max(axis=(0, 1)) > GROWTH_BOUND
        if grown.any():
            y[..., grown], r, log_det_r, f0[..., grown] = _orthonormalise(
                y[..., grown], f0[..., grown])
            log_scale[grown] += log_det_r
            epoch[grown] += 1
            events.append((idx[grown], epoch[grown], r))
        with np.errstate(divide="ignore"):
            h = h * np.clip(0.9 * err ** -0.125, 0.2, 10.0)
        done = ok & last
        if done.any():
            frames[:, :, -1, idx[done]] = y[..., done]
            epochs[-1, idx[done]] = epoch[done]
            final_log[idx[done]] = log_scale[done]
            keep = ~done
            idx, lam, x, h, nxt = idx[keep], lam[keep], x[keep], h[keep], nxt[keep]
            rho_c, sig_c, q_c = rho_c[:, keep], sig_c[:, keep], q_c[:, keep]
            y, f0 = y[..., keep], f0[..., keep]
            epoch, log_scale = epoch[keep], log_scale[keep]
    fired = epochs[-1] > 0
    if fired.any():
        frames[:, :, -1, fired], r, log_det_r = _orthonormalise(frames[:, :, -1, fired])
        final_log[fired] += log_det_r
        epochs[-1, fired] += 1
        events.append((np.flatnonzero(fired), epochs[-1, fired], r))
    r_factors = np.tile(np.eye(k), (n, np.max(epochs[-1], initial=0) + 1, 1, 1))
    for entries, at, r in events:
        r_factors[entries, at] = r
    lead = (lams.size,) if single else (len(profiles), lams.size)
    return Shot(*(a.reshape(lead + a.shape[1:]) for a in
                  (frames.transpose(3, 2, 1, 0), epochs.T, r_factors, final_log)))
