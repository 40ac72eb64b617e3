"""First-order quasi-derivative integration of the beam equation on one span.

State layout (dimensionless): w = (u, u', sigma*u'', Tu) where
Tu = (sigma*u'')' - q*u'.  In these variables the fourth-order equation
(sigma*u'')'' - (q*u')' = lam*rho*u becomes the first-order system

    w1' = w2,   w2' = w3/sigma,   w3' = w4 + q*w2,   w4' = lam*rho*w1,

and no derivative of sigma or q is ever evaluated.  u'' is recovered as
w3/sigma when needed.

One integrator steps it, _batch_final_states: the DOP853 tableau stepped
with numpy over an axis of entries, one (coefficient set, lam) pair each;
config.rho_sigma_q evaluates their stacked coefficient columns, and
config.in_span checks that a pass starts and ends inside the span.
Each entry takes its own steps, its step error being a max over its
components, so its result does not depend on the rest of the batch.  An
entry integrates one column or a pair and keeps it orthonormal past
GROWTH_BOUND (stepwise orthonormalisation, Conte 1966): it carries on from
the frame Q of Y = Q R and returns every R, so neither overflow nor the
alignment of the two columns with the fastest-growing solution costs a
determinant its sign or a mode its shape.  At each requested station the
entry's frame and its epoch (the number of orthonormalisations so far) are
recorded, read from DOP853's dense output inside the span and from a step
clipped to land on the far end.  The dense output is evaluated outside
the step loop, for a few steps that passed a station at once, and only for
the entries whose stations are read.  Every determinant, every mode and every
Trajectory comes from this integrator, and a point between stations is
read as a station of a new pass; the public entry point is integrate,
one solution across a span, overflow-safe: its true states are the stored
ones times exp(log_scale).  The solve puts both spans in
one pass: the right span enters as its mirror on (-1, 0)
(config.mirrored), whose state is (u, -u', sigma*u'', -Tu); those sign
flips are exact, so the mirror reproduces the right span's states bit for
bit.
"""

from __future__ import annotations

import importlib.util
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .config import CoefficientProfile, in_span, rho_sigma_q

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
# steps whose dense output is evaluated together: they share its fixed
# numpy calls, and their kept stages stay small (at 8 or more, the peak RSS
# of repeated high-mode solves crept up pass by pass)
_DENSE_BLOCK = 4


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


@dataclass(frozen=True)
class Trajectory:
    """One solution at the stations xs of one pass, the first being its start.

    Stored states carry a common scaling: true value = states * exp(log_scale),
    so they cannot overflow.  While the solution stays below GROWTH_BOUND,
    log_scale is 0 and the states are the true ones.
    """

    lam: float
    xs: np.ndarray
    states: np.ndarray
    log_scale: float

    @property
    def initial_state(self):
        return self.states[0]

    @property
    def final_state(self):
        return self.states[-1]


def _check_args(profile, lam, x_from, x_to, rel_tol):
    _check_lam(lam)
    if not (REL_TOL_MIN <= rel_tol <= REL_TOL_MAX):
        raise ValueError(f"rel_tol must lie in [{REL_TOL_MIN:g}, {REL_TOL_MAX:g}]")
    in_span(profile.interval, (x_from, x_to))
    if x_from == x_to:
        raise ValueError("x_from and x_to must differ")


def _station_log_det(shot):
    """log det R_e ... R_1 at every station of a Shot, shape (..., S) for
    any leading axes.  At a station of epoch e the true columns are the
    frame times R_e ... R_1, so their k x k minors are the frame's times
    exp of this."""
    return np.take_along_axis(np.cumsum(np.linalg.slogdet(shot.r_factors)[1], axis=-1),
                              shot.epochs, axis=-1)


def _column(profile, lam, xs, init, rel_tol):
    """Integrate one initial state through the stations xs, the first being
    its start, in one pass.

    At a station the true state is the frame times exp of the station's
    log det (see _station_log_det); the Trajectory stores it relative to
    the last station's, which sets log_scale, so it cannot overflow.
    """
    shot = _batch_final_states(profile, [lam], xs[0], xs, init, rel_tol)
    log_det = _station_log_det(shot)[0]
    states = shot.frames[0, :, 0] * np.exp(log_det - log_det[-1])[:, None]
    return Trajectory(lam, xs, states, float(log_det[-1]))


def integrate(profile, lam, x_from, x_to, init, rel_tol=DEFAULT_REL_TOL,
              n_stations=DEFAULT_STATIONS):
    """Propagate one quasi-derivative state across the span, from x_from to
    x_to, as a Trajectory at n_stations equispaced stations.

    Overflow-safe: the state is normalised whenever it passes GROWTH_BOUND,
    and the true states are the returned ones times exp(log_scale);
    log_scale stays 0 until the first normalisation.
    """
    if n_stations < 64:
        raise ValueError("need at least 64 stations")
    return _column(profile, lam, np.linspace(x_from, x_to, n_stations), init, rel_tol)


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


def _rhs(w, sig, q, lam_rho, out):
    out[0] = w[1]
    np.divide(w[2], sig, out=out[1])
    np.multiply(w[1], q, out=out[2])
    out[2] += w[3]
    np.multiply(w[0], lam_rho, out=out[3])


def _coefficients(cols, x):
    """sigma, q and lam*rho at points x (..., entries), from the entries'
    coefficient columns and lam, cols = (rho, sigma, q, lam)."""
    rho, sigma, q = rho_sigma_q(cols[:3], x)
    return sigma, q, cols[3] * rho


def _fill_stages(stages, first, y, hs, coeffs):
    """DOP853 stages first, first + 1, ... of steps hs from y, in place, one
    per row of coeffs (see _coefficients); the last two rows of stages are
    scratch, and the last keeps the argument of the last stage.  Stage sums
    use einsum, not tensordot: the BLAS matrix-vector product goes
    multithreaded past ~1000 entries and then ran 8x slower per step on two
    cores shared with another process."""
    tmp, arg = stages[-2:]
    for i, (sig, q, lam_rho) in enumerate(zip(*coeffs), start=first):
        np.einsum("i,i...->...", _DOP_A[i, :i], stages[:i], out=tmp)
        np.multiply(hs, tmp, out=tmp)
        np.add(y, tmp, out=arg)
        _rhs(arg, sig, q, lam_rho, stages[i])


def _dense_output(records, stations, cols, frames, epochs):
    """Write the interior stations that recorded steps passed into frames
    and epochs, each read from the dense output of its step, in the epoch of
    that step: stages 13..15 and DOP853's interpolant for all the steps at
    once.  A record (see _batch_final_states) holds, for a step's entries,
    the rows of its stage array; x and hs; and their index, first and
    past-last station and epoch.  cols are all the entries' (see
    _coefficients).  Empties records.
    """
    kept, (x, hs), (entry, lo, hi, epoch) = (np.concatenate(a, axis=-1) for a in zip(*records))
    records.clear()
    y, y_new = kept[_N_STAGES + 1], kept[-1]
    stages = np.empty((_DOP_C.size + 2,) + y.shape)
    stages[:_N_STAGES + 1] = kept[:_N_STAGES + 1]
    _fill_stages(stages, _N_STAGES + 1, y, hs, _coefficients(
        tuple(c[..., entry] for c in cols), x + _DOP_C[_N_STAGES + 1:, None] * hs))
    # the interpolant, highest power first, in Horner form in theta and
    # 1 - theta; row `step` of each station is the step that passed it
    dy = y_new - y
    poly = [*(hs * np.einsum("ji,i...->j...", _DOP_D[::-1], stages[:_DOP_C.size])),
            2.0 * dy - hs * (stages[_N_STAGES] + stages[0]), hs * stages[0] - dy, dy]
    step = np.repeat(np.arange(lo.size), hi - lo)
    at = lo[step] + np.arange(step.size) - np.searchsorted(step, step)
    theta = (stations[at] - x[step]) / hs[step]
    factors = (theta, 1.0 - theta)
    w = poly[0][..., step] * theta
    for j, f in enumerate(poly[1:], start=1):
        w = (w + f[..., step]) * factors[j % 2]
    frames[:, :, at, entry[step]] = w + y[..., step]
    epochs[at, entry[step]] = epoch[step]


def _batch_final_states(profiles, lams, x_from, stations, inits,
                        rel_tol=DEFAULT_REL_TOL, sampled=None):
    """Frames of one or two initial columns at stations, for N values of lam at once.

    profiles is one CoefficientProfile or a sequence of P profiles on the
    same span; every (profile, lam) pair is one batch entry with its own
    coefficient set.  stations run in the direction of integration from
    x_from on (which may be the first) to the far end (a scalar is that end
    alone).  Every entry takes its own adaptive DOP853 steps, advanced
    together as numpy operations over an entry axis, so the result of one
    entry does not depend on which others share the batch; its last step is
    clipped to land on the far end, where it leaves the batch.  Its frames
    at the other stations come from the dense output of the step that
    passed them, evaluated outside the step loop for _DENSE_BLOCK such
    steps at once, and for the rest after the last step.
    Only the first `sampled` lams of each profile (all by default) record
    these interior stations; the interior frames of the rest are NaN, and
    everything else they return is as if they were sampled.
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
    sampled = lams.size if sampled is None else sampled
    if not 0 <= sampled <= lams.size:
        raise ValueError(f"sampled must lie in [0, {lams.size}]")
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
    frames = np.full((4, k, stations.size, n), np.nan)
    epochs = np.zeros((stations.size, n), dtype=int)
    final_log = np.zeros(n)
    events = []     # (entries, their epoch, R) of every orthonormalisation
    records = []    # what the dense output needs of steps past a station
    # the running entries: their index, coefficient columns (degree + 1,
    # entries; see config.rho_sigma_q) and lam, position, next trial step,
    # next station, epoch and log scale; and, as rows of one array, the
    # stages 0..12 of a step (stage 0 is FSAL), the state y and two scratch
    # rows (see _fill_stages).  The arrays shrink only when entries finish.
    idx = np.arange(n)
    all_cols = cols = (*(np.repeat(list(zip_longest(*c, fillvalue=0.0)), lams.size, axis=1)
                         for c in zip(*(p.coeffs for p in profiles))),
                       np.tile(lams, len(profiles)))
    x = np.full(n, float(x_from))
    # first trial: the whole way on a short span, as for a hop between stations
    h = np.full(n, min(0.01, abs(x_to - x_from)))
    # interior stations in the direction of integration, for searchsorted;
    # an entry that is not sampled starts past all of them
    ahead = stations[:-1] * direction
    nxt = np.where(np.tile(np.arange(lams.size) < sampled, len(profiles)), 0, ahead.size)
    stages = np.empty((_DOP_C.size, 4, k, n))
    y, y_new = stages[_N_STAGES + 1], stages[-1]
    y[:] = inits.T[:, :, None]
    epoch = np.zeros(n, dtype=int)
    log_scale = np.zeros(n)
    _rhs(y, *_coefficients(cols, x), stages[0])
    while idx.size:
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
        # stage 12 is f(x + h, y_new) (A[12] = B, C[12] = 1), and its
        # argument y_new stays in the last scratch row
        _fill_stages(stages, 1, y, hs,
                     _coefficients(cols, x + _DOP_C[1:_N_STAGES + 1, None] * hs))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err5 = np.einsum("i,i...->...", _DOP_E5, stages[:_N_STAGES]) / scale
        err3 = np.einsum("i,i...->...", _DOP_E3, stages[:_N_STAGES]) / scale
        err5 *= err5
        denom = np.sqrt(err5 + 0.01 * err3 * err3)
        err = np.divide(err5, denom, out=np.zeros(err5.shape), where=denom > 0.0).max(
            axis=(0, 1)) * h
        ok = err <= 1.0
        x_new = np.where(ok, np.where(last, x_to, x + hs), x)
        if ahead.size:
            reached = np.searchsorted(ahead, x_new * direction, side="right")
            passed = reached > nxt
            if passed.any():
                records.append((stages[..., passed], np.stack((x, hs))[:, passed],
                               np.stack((idx, nxt, reached, epoch))[:, passed]))
                nxt = np.maximum(nxt, reached)
                if len(records) == _DENSE_BLOCK:
                    _dense_output(records, stations, all_cols, frames, epochs)
        x = x_new
        np.copyto(y, y_new, where=ok)
        np.copyto(stages[0], stages[_N_STAGES], where=ok)
        grown = np.abs(y).max(axis=(0, 1)) > GROWTH_BOUND
        if grown.any():
            y[..., grown], r, log_det_r, stages[0][..., grown] = _orthonormalise(
                y[..., grown], stages[0][..., grown])
            log_scale[grown] += log_det_r
            epoch[grown] += 1
            events.append((idx[grown], epoch[grown], r))
        with np.errstate(divide="ignore"):
            h = h * np.minimum(np.maximum(0.9 * err ** -0.125, 0.2), 10.0)
        done = ok & last
        if done.any():
            frames[:, :, -1, idx[done]] = y[..., done]
            epochs[-1, idx[done]] = epoch[done]
            final_log[idx[done]] = log_scale[done]
            keep = ~done
            idx, x, h, nxt = idx[keep], x[keep], h[keep], nxt[keep]
            cols = tuple(c[..., keep] for c in cols)
            epoch, log_scale = epoch[keep], log_scale[keep]
            # compress, not a mask: a masked last axis would come out
            # entry-major, and every row operation after it strided
            stages = np.compress(keep, stages, axis=-1)
            y, y_new = stages[_N_STAGES + 1], stages[-1]
    if records:
        _dense_output(records, stations, all_cols, frames, epochs)
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
