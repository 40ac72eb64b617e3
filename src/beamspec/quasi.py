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
config.in_span checks that a pass starts and ends inside the span, and
_dop853_tolerances maps its rel_tol to DOP853's rtol and atol.
Each entry takes its own steps, its step error being a max over its
components, so its result does not depend on the rest of the batch.  An
entry integrates one column or a pair, shared or its own, and keeps it
orthonormal past GROWTH_BOUND (stepwise orthonormalisation, Conte 1966): it
returns every R of Y = Q R, so neither overflow nor the alignment of the
two columns with the fastest-growing solution costs a determinant its sign
or a mode its shape.  An entry whose a-priori growth would pass
GROWTH_BOUND (a large lam) is integrated as segments of bounded growth
instead, side by side in the same step loop (multiple shooting; Ascher,
Mattheij & Russell, Numerical Solution of Boundary Value Problems for
ODEs, 1995): a segment after the first starts from the balanced unit
columns, and the segments are chained by QR in balanced coordinates after
the loop, so the entry takes the steps of one segment, not of the span.  At
each requested station the entry's frame and its epoch (the number of
orthonormalisations so far) are recorded, read from DOP853's dense output
inside a segment and from a step clipped to land on its end.  The dense
output is evaluated outside the step loop, for a few steps that passed a
station at once, and only for the entries whose stations are read.  Every
determinant, every mode and every Trajectory comes from this integrator,
and a point between stations is read as a station of a new pass; the
public entry point is integrate, one solution across a span,
overflow-safe: its true states are the stored ones times exp(log_scale).
The solve puts both spans in one pass: the right span enters as its
mirror on (-1, 0) (config.mirrored), whose state is (u, -u', sigma*u'',
-Tu); those sign flips are exact, so the mirror reproduces the right
span's states bit for bit.
"""

from __future__ import annotations

import importlib.util
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat, zip_longest
from pathlib import Path

import numpy as np

from .config import CoefficientProfile, critical_points, in_span, rho_sigma_q

# The integrator orthonormalises an entry's columns once its state passes this
# bound, and integrates an entry whose a-priori growth passes it in segments
# (see _segments).  Both columns pick up the fastest-growing solution, so the
# plane they span is resolved only to about eps times the growth since the
# last orthonormalisation, and eigenvalue errors at large lam scale with the
# bound.  Uniform M=0, refine on modes 1-40, worst error over modes 1-10 and
# over modes 11-40: 2.0e-12 and 1.4e-12 at 1e4, 7.5e-12 and 2.4e-12 at 1e7,
# 3.0e-11 and 6.1e-10 at 1e10 (without segments, modes 11-40 read 2.1e-12,
# 7.5e-12 and 5.4e-9).  The shipped modes (s <= 10) grow to
# less than 1e6, so at 1e7 they are integrated as plain pairs in one segment;
# orthonormalising at every step instead doubled the steps of the scan.
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


def _check_args(profile, lams, x_from, x_to, rel_tol):
    # NaN fails both comparisons
    if not np.all((lams >= 0) & (lams < math.inf)):
        raise ValueError("lam must be finite and >= 0")
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


def _dop853_tolerances(rel_tol):
    """DOP853's (rtol, atol) at rel_tol, for this module and the warped path."""
    return max(rel_tol / 10.0, 2.3e-14), rel_tol * 1e-6


def _columns(profile, lams, xs, inits):
    """Integrate one initial state per lam through the stations xs, the first
    being their start, in one pass at DEFAULT_REL_TOL: a Trajectory each.

    At a station the true state is the frame times exp of the station's
    log det (see _station_log_det); a Trajectory stores it relative to
    the last station's, which sets log_scale, so it cannot overflow.
    """
    shot = _batch_final_states(profile, lams, xs[0], xs, np.asarray(inits, dtype=float)[:, None])
    log_det = _station_log_det(shot)
    states = shot.frames[:, :, 0] * np.exp(log_det - log_det[:, -1:])[..., None]
    return [Trajectory(lam, xs, st, float(ld[-1])) for lam, st, ld in zip(lams, states, log_det)]


def integrate(profile, lam, x_from, x_to, init, n_stations=DEFAULT_STATIONS):
    """Propagate one quasi-derivative state across the span at DEFAULT_REL_TOL,
    from x_from to x_to, as a Trajectory at n_stations equispaced stations.

    Overflow-safe: the state is normalised whenever it passes GROWTH_BOUND
    (or chained from segments, see _batch_final_states), and the true states
    are the returned ones times exp(log_scale); log_scale stays 0 until the
    first normalisation.
    """
    if n_stations < 64:
        raise ValueError("need at least 64 stations")
    return _columns(profile, [lam], np.linspace(x_from, x_to, n_stations), [init])[0]


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
_DOP_C = _dop853.C
_DOP_D = _dop853.D
_DOP_E = np.stack([_dop853.E5[:_N_STAGES], _dop853.E3[:_N_STAGES]])


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


def _rhs(w, div, q, lam_rho, out):
    """f(w) into out: rows 0-2 are w[1:] / (1, sigma, 1) (div), row 3 is
    lam*rho*w[0], and q*w[1] joins row 2 unless q is None."""
    np.divide(w[1:], div, out=out[:3])
    np.multiply(w[0], lam_rho, out=out[3])
    if q is not None:
        out[2] += w[1] * q


def _coefficients(cols, x):
    """The arguments of _rhs per row of points x (rows, entries), from the
    entries' coefficient columns and lam, cols = (rho, sigma, q, lam): the
    divisors (1, sigma, 1), q (None in a pass whose q columns are empty) and
    lam*rho."""
    rho, sigma, q = rho_sigma_q(cols[:3], x)
    div = np.ones((x.shape[0], 3, 1, x.shape[1]))
    div[:, 1, 0] = sigma
    return zip(div, q if cols[2].size else repeat(None), cols[3] * rho)


def _fill_stages(stages, first, y, hs, coeffs):
    """DOP853 stages first, first + 1, ... of steps hs from y, in place, one
    per row of coeffs (see _coefficients); the last two rows of stages are
    scratch, and the last keeps the argument of the last stage.  Stage sums
    use einsum, not tensordot: the BLAS matrix-vector product goes
    multithreaded past ~1000 entries and then ran 8x slower per step on two
    cores shared with another process."""
    tmp, arg = stages[-2:]
    for i, args in enumerate(coeffs, start=first):
        np.einsum("i,i...->...", _DOP_A[i, :i], stages[:i], out=tmp)
        np.multiply(hs, tmp, out=tmp)
        np.add(y, tmp, out=arg)
        _rhs(arg, *args, stages[i])


def _dense_output(records, stations, cols, frames, epochs, row):
    """Write the interior stations that recorded steps passed into frames
    and epochs, each read from the dense output of its step, in the epoch of
    that step: stages 13..15 and DOP853's interpolant for all the steps at
    once.  A record (see _batch_final_states) holds, for a step's lanes,
    the rows of its stage array; x and hs; and their index, first and
    past-last station and epoch.  cols are all the lanes' (see
    _coefficients), and lane i is row[i] of frames and epochs.  Empties
    records.
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
    frames[:, :, at, row[entry[step]]] = w + y[..., step]
    epochs[at, row[entry[step]]] = epoch[step]


def _segments(profiles, lams, x_from, x_to):
    """Every entry's segment count m and growth-rate bound mu, profile-major.

    No solution of the span grows faster than exp(mu |x|), mu**2 being the
    larger root of sigma k**4 - q k**2 = lam rho with sigma at its least and
    q and rho at their greatest over the pass (config.critical_points).  An
    entry whose growth bound exp(mu L) over the pass of length L stays below
    GROWTH_BOUND is one segment.  Any other is cut into the fewest equal
    segments whose propagators are conditioned below GROWTH_BOUND: they
    carry the decaying solutions as well, exp(-mu |x|), so a segment's
    growth stays below the bound's square root.
    """
    lo, hi = sorted((x_from, x_to))
    rates = []
    for p in profiles:
        rho, sigma, q = (rho_sigma_q(p.coeffs, critical_points(c, (lo, hi)))[i]
                         for i, c in enumerate(p.coeffs))
        a = np.max(q) / (2.0 * np.min(sigma))
        rates.append(np.sqrt(a + np.sqrt(a * a + lams * np.max(rho) / np.min(sigma))))
    mu = np.concatenate(rates)
    exponent = mu * (hi - lo) / math.log(GROWTH_BOUND)
    return np.where(exponent <= 1.0, 1, np.ceil(2.0 * exponent)).astype(int), mu


def _batch_final_states(profiles, lams, x_from, stations, inits,
                        rel_tol=DEFAULT_REL_TOL, sampled=None):
    """Frames of one or two initial columns at stations, for N values of lam at once.

    profiles is one CoefficientProfile or a sequence of P profiles on the
    same span; every (profile, lam) pair is one batch entry with its own
    coefficient set.  inits holds the initial columns (k, 4), k = 1 or 2,
    shared by every entry, or per entry (..., k, 4) with the leading axes
    of the result.  stations run in the direction of integration from
    x_from on (which may be the first) to the far end (a scalar is that end
    alone).  Every entry takes its own adaptive DOP853 steps, advanced
    together as numpy operations over an axis of lanes, so the result of one
    entry does not depend on which others share the batch; a lane's last
    step is clipped to land on its far end, where it leaves the batch.  Its
    frames at the other stations come from the dense output of the step that
    passed them, evaluated outside the step loop for _DENSE_BLOCK such
    steps at once, and for the rest after the last step.
    Only the first `sampled` lams of each profile (all by default) record
    these interior stations; the interior frames of the rest are NaN, and
    everything else they return is as if they were sampled.
    The step error of a lane is DOP853's combined 5th/3rd-order estimate,
    taken per component and maxed over all its components (an RMS would
    average away the error of the fastest-growing one).

    An entry whose growth bound stays below GROWTH_BOUND (see _segments) is
    one lane, from its initial columns; once its state passes GROWTH_BOUND
    its columns are replaced by an orthonormal basis Q of their span
    (Y = Q R), and an entry that did so ends on an orthonormal frame.  Any
    other entry is m segments of bounded growth, all integrated side by side
    (multiple shooting): segment 0 is a lane from the initial columns, and
    each later segment is 4/k lanes from the balanced unit columns at its
    start, diag(1, mu, sigma mu**2, sigma mu**3), in which a solution
    growing like exp(mu x) has components of one size.  After the loop the
    segments are chained: segment j's frame is its lanes' states times Q_j,
    where Q_j R_j is the end of segment j - 1 in balanced coordinates, and
    the last segment's end is orthonormalised as it stands.

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
    rtol, atol = _dop853_tolerances(rel_tol)
    lead = (lams.size,) if single else (len(profiles), lams.size)
    n = len(profiles) * lams.size
    inits = np.asarray(inits, dtype=float)
    if inits.ndim > 2 and inits.shape[:-2] != lead:
        raise ValueError(f"per-entry inits must have leading axes {lead}")
    inits = np.atleast_2d(inits)
    k = inits.shape[-2]
    # the lanes: the n entries' segments 0, then segments 1 .. m - 1 of each
    # entry in turn, each as 4/k lanes (group g holds columns g*k, ...)
    m, mu = _segments(profiles, lams, x_from, x_to)
    groups = 4 // k
    extra = (m - 1) * groups
    first = n + np.cumsum(extra) - extra     # each entry's first lane of segment 1
    offset = np.arange(np.sum(extra)) - np.repeat(first - n, extra)
    parent = np.concatenate([np.arange(n), np.repeat(np.arange(n), extra)])
    seg = np.concatenate([np.zeros(n, dtype=int), 1 + offset // groups])
    m_lane = m[parent]
    x_start = x_from + (x_to - x_from) * seg / m_lane
    x_end = np.where(seg + 1 == m_lane, x_to, x_from + (x_to - x_from) * (seg + 1) / m_lane)
    lanes = parent.size
    # the lanes that record interior stations, each in its row of frames
    # and epochs: every entry's segment 0 and the later segments of the
    # sampled entries (an entry that is not sampled starts past them all)
    samples = np.tile(np.arange(lams.size) < sampled, len(profiles))[parent]
    recording = samples | (seg == 0)
    row = np.where(recording, np.cumsum(recording) - 1, -1)
    # layout (4 components, k columns, rows or lanes): the lane is the
    # contiguous axis, so every per-lane factor broadcasts along it; ends
    # holds each lane's state at its far end, with its epoch and log scale
    frames = np.full((4, k, stations.size, row.max() + 1), np.nan)
    epochs = np.zeros((stations.size, row.max() + 1), dtype=int)
    ends = np.empty((4, k, lanes))
    end_epoch = np.zeros(lanes, dtype=int)
    final_log = np.zeros(lanes)
    events = []     # (entries, their epoch, R) of every orthonormalisation
    records = []    # what the dense output needs of steps past a station
    # every lane's coefficient columns (degree + 1, lanes; see
    # config.rho_sigma_q; q's are empty in a pass without q) and lam
    cols = (*(np.repeat(list(zip_longest(*c, fillvalue=0.0)), lams.size, axis=1)
              for c in zip(*(p.coeffs for p in profiles))), np.tile(lams, len(profiles)))
    if not any(any(p.q) for p in profiles):
        cols = (cols[0], cols[1], np.empty((0, n)), cols[3])
    all_cols = cols = tuple(c[..., parent] for c in cols)
    # the balanced unit columns of the later segments' lanes
    rate = mu[parent[n:]]
    sigma = rho_sigma_q(tuple(c[..., n:] for c in cols[:3]), x_start[n:])[1]
    balance = np.stack([np.ones(rate.size), rate, sigma * rate ** 2, sigma * rate ** 3])
    # the running lanes: their index, columns, position, far end, next trial
    # step, growth bound, next station, epoch and log scale; and, as rows of
    # one array, the stages 0..12 of a step (stage 0 is FSAL), the state y
    # and two scratch rows (see _fill_stages).  The arrays shrink only when
    # lanes finish.
    idx = np.arange(lanes)
    x = x_start
    # first trial: the whole way on a short span, as for a hop between stations
    h = np.minimum(0.01, np.abs(x_end - x_start))
    bound = np.where(m_lane > 1, math.inf, GROWTH_BOUND)
    # interior stations in the direction of integration, for searchsorted;
    # a later segment starts past those of the segments before it
    ahead = stations[:-1] * direction
    nxt = np.where(samples, np.where(seg > 0, np.searchsorted(
        ahead, x_start * direction, side="right"), 0), ahead.size)
    stages = np.empty((_DOP_C.size, 4, k, lanes))
    y, y_new = stages[_N_STAGES + 1], stages[-1]
    y[..., :n] = inits.reshape(-1, k, 4).transpose(2, 1, 0)
    y[..., n:] = 0.0
    diag = (offset % groups) * k + np.arange(k)[:, None]
    y[diag, np.arange(k)[:, None], np.arange(n, lanes)] = balance[diag, np.arange(lanes - n)]
    epoch = np.zeros(lanes, dtype=int)
    log_scale = np.zeros(lanes)
    (args,) = _coefficients(cols, x[None])
    _rhs(y, *args, stages[0])
    while idx.size:
        rest = np.abs(x_end - x)
        last = h >= rest
        h = np.where(last, rest, h)
        hs = direction * h
        x_hs = x + hs
        stuck = x_hs == x
        if stuck.any():
            # a last step may be shorter than one ulp of x: it lands on its end
            stuck &= ~last
            if stuck.any():
                raise IntegrationError("step size underflow", float(x[stuck][0]))
        # stage 12 is f(x + h, y_new) (A[12] = B, C[12] = 1), and its
        # argument y_new stays in the last scratch row
        _fill_stages(stages, 1, y, hs,
                     _coefficients(cols, x + _DOP_C[1:_N_STAGES + 1, None] * hs))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err5, err3 = np.einsum("ji,i...->j...", _DOP_E, stages[:_N_STAGES]) / scale
        err5 *= err5
        denom = np.sqrt(err5 + 0.01 * err3 * err3)
        err = (err5 / np.maximum(denom, 1e-300)).max(axis=(0, 1)) * h
        ok = err <= 1.0
        x_new = np.where(ok, np.where(last, x_end, x_hs), x)
        if ahead.size:
            reached = np.searchsorted(ahead, x_new * direction, side="right")
            passed = reached > nxt
            if passed.any():
                records.append((stages[..., passed], np.stack((x, hs))[:, passed],
                               np.stack((idx, nxt, reached, epoch))[:, passed]))
                nxt = np.maximum(nxt, reached)
                if len(records) == _DENSE_BLOCK:
                    _dense_output(records, stations, all_cols, frames, epochs, row)
        x = x_new
        np.copyto(y, y_new, where=ok)
        np.copyto(stages[0], stages[_N_STAGES], where=ok)
        grown = np.abs(y).max(axis=(0, 1)) > bound
        if grown.any():
            y[..., grown], r, log_det_r, stages[0][..., grown] = _orthonormalise(
                y[..., grown], stages[0][..., grown])
            log_scale[grown] += log_det_r
            epoch[grown] += 1
            events.append((idx[grown], epoch[grown], r))
        h = h * np.minimum(np.maximum(0.9 * np.maximum(err, 1e-300) ** -0.125, 0.2), 10.0)
        done = ok & last
        if done.any():
            ends[..., idx[done]] = y[..., done]
            end_epoch[idx[done]] = epoch[done]
            final_log[idx[done]] = log_scale[done]
            keep = ~done
            idx, x, x_end, h, bound, nxt = (a[keep] for a in (idx, x, x_end, h, bound, nxt))
            cols = tuple(c[..., keep] for c in cols)
            epoch, log_scale = epoch[keep], log_scale[keep]
            # compress, not a mask: a masked last axis would come out
            # lane-major, and every row operation after it strided
            stages = np.compress(keep, stages, axis=-1)
            y, y_new = stages[_N_STAGES + 1], stages[-1]
    if records:
        _dense_output(records, stations, all_cols, frames, epochs, row)
    frames[:, :, -1, :n], epochs[-1, :n] = ends[..., :n], end_epoch[:n]
    _chain(frames, epochs, ends, final_log, events, m, first, groups, balance, row)
    fired = np.flatnonzero(epochs[-1, :n] > 0)
    if fired.size:
        frames[:, :, -1, fired], r, log_det_r = _orthonormalise(frames[:, :, -1, fired])
        final_log[fired] += log_det_r
        epochs[-1, fired] += 1
        events.append((fired, epochs[-1, fired], r))
    r_factors = np.tile(np.eye(k), (n, np.max(epochs[-1, :n], initial=0) + 1, 1, 1))
    for entries, at, r in events:
        r_factors[entries, at] = r
    return Shot(*(a.reshape(lead + a.shape[1:]) for a in
                  (frames[..., :n].transpose(3, 2, 1, 0), epochs[:, :n].T, r_factors,
                   final_log[:n])))


def _combine(psi, q):
    """The states psi (4, 4, ..., entries) of the balanced unit columns times
    the columns q (4, k, entries): the states of q, (4, k, ..., entries)."""
    q = q.reshape(q.shape[:2] + (1,) * (psi.ndim - 3) + q.shape[2:])
    out = psi[:, 0, None] * q[0]
    for b in range(1, 4):
        out += psi[:, b, None] * q[b]
    return out


def _chain(frames, epochs, ends, final_log, events, m, first, groups, balance, row):
    """Chain the segments of the entries with m > 1, in place (see
    _batch_final_states): lane e (e < m.size) is entry e's segment 0, whose
    far end frames and epochs hold in their last station, first[e] +
    (j - 1)*groups + g is its segment j's group g, ends holds every lane's
    state at its far end, balance (4, lanes - m.size) the later lanes'
    balanced unit columns, and row[i] the row of frames where lane i
    recorded its stations (-1 if it recorded none).  Leaves the last
    segment's end, in epoch m - 1, in the last station.
    """
    n = m.size
    for j in range(1, np.max(m, initial=1)):
        e = np.flatnonzero(m > j)
        lane = first[e] + (j - 1) * groups + np.arange(groups)[:, None]
        q, r, log_det_r = _orthonormalise(frames[:, :, -1, e] / balance[:, None, lane[0] - n])
        final_log[e] += log_det_r
        events.append((e, j, r))
        frames[:, :, -1, e] = _combine(np.concatenate([ends[..., g] for g in lane], axis=1), q)
        epochs[-1, e] = j
        sampled = row[lane[0]] >= 0
        psi = np.concatenate([frames[..., :-1, row[g]] for g in lane[:, sampled]], axis=1)
        seg = _combine(psi, q[..., sampled])
        at, of = np.nonzero(~np.isnan(seg[0, 0]))
        frames[:, :, at, e[sampled][of]] = seg[:, :, at, of]
        epochs[at, e[sampled][of]] = j
