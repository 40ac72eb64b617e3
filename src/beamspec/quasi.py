"""First-order quasi-derivative integration of the beam equation on one span.

State layout (dimensionless): w = (u, u', sigma*u'', Tu) where
Tu = (sigma*u'')' - q*u'.  In these variables the fourth-order equation
(sigma*u'')'' - (q*u')' = lam*rho*u becomes the first-order system

    w1' = w2,   w2' = w3/sigma,   w3' = w4 + q*w2,   w4' = lam*rho*w1,

and no derivative of sigma or q is ever evaluated.  u'' is recovered as
w3/sigma when needed.

One integrator steps it, _batch_final_states: a Taylor-series stepper run
with numpy over an axis of entries, one (coefficient set, lam) pair each.
The coefficients are polynomials, so a step's Taylor coefficients follow
from a short linear recurrence (_taylor) to an order set by rel_tol
(_taylor_rule, through _dop853_tolerances, the one map from rel_tol to
integrator tolerances, which the DOP853 warped reference path reads too),
and a step spans a few e-folds; config.in_span checks that a pass starts
and ends inside the span.  Each entry takes its own steps, so its result
does not depend on the rest of the batch.  An entry integrates one column
or a pair, shared or its own.  Its growth is bounded once, before the step
loop (_segments): an entry whose raw states stay below GROWTH_BOUND is one
lane from its initial columns, and any other is integrated as segments of
bounded growth, one lane each, side by side in the same step loop (multiple
shooting; Ascher, Mattheij & Russell, Numerical Solution of Boundary Value
Problems for ODEs, 1995): a segment after the first carries the four
balanced unit columns, and the segments are chained by QR in balanced
coordinates after the loop, so the entry takes the steps of one segment,
not of the span.  The chain returns every R of Y = Q R, so neither overflow
nor the alignment of the two columns with the fastest-growing solution
costs a determinant its sign or a mode its shape.  Each station is read
from the polynomial of the step that passed it, by the lane of its
segment, into its entry's one slot, with the segment as its epoch (the
number of orthonormalisations before it), and only for the entries whose
stations are read.  Every determinant, every
mode and every Trajectory comes from this integrator, and a point between
stations is read as a station of a new pass; the public entry point is
integrate, one solution across a span, overflow-safe: its true states are
the stored ones times exp(log_scale).
The solve puts both spans in one pass: the right span enters as its
mirror on (-1, 0) (config.mirrored), whose state is (u, -u', sigma*u'',
-Tu); those sign flips are exact, so the mirror reproduces the right
span's states bit for bit, and a mirror-symmetric system, whose mirror is
its left span, integrates that span once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import CoefficientProfile, critical_points, in_span, rho_sigma_q

# An entry whose raw states would pass this bound is integrated in segments
# (see _segments), the only growth control of the integrator.  Both columns
# pick up the fastest-growing solution, so the plane they span is resolved
# only to about eps times the growth across a segment, and eigenvalue errors
# at large lam scale with the bound.  Uniform M=0, refine and eigenpair on
# modes 1-40, worst error over modes 1-10 and over modes 11-40: 1.4e-14 and
# 4.2e-15 at 1e4, 5.7e-13 (mode 7, one segment) and 3.5e-14 at 1e7, 2.0e-11
# and 6.4e-13 at 1e10.  At 1e7 a pinned pair is one segment up to s = 12.46
# on a uniform span and s = 10.46 on the variable ones; the shipped modes
# (s <= 9.43) grow to less than 7e5, so they are integrated as plain pairs.
GROWTH_BOUND = 1e7
REL_TOL_MIN = 1e-13
REL_TOL_MAX = 1e-6
DEFAULT_REL_TOL = 1e-10
DEFAULT_STATIONS = 129


class IntegrationError(RuntimeError):
    """The integrator gave up (a step too short to move x)."""

    def __init__(self, message, x):
        super().__init__(f"{message} (at x={x:.6g})")
        self.x = x


@dataclass(frozen=True)
class Trajectory:
    """One solution at the stations xs of one pass, the first being its start.

    Stored states carry a common scaling: true value = states * exp(log_scale),
    so they cannot overflow.  An entry integrated in one segment (see
    _segments) has log_scale 0, and its states are the true ones.
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
    """DOP853's (rtol, atol) at rel_tol: the warped reference path's
    tolerances, and the Taylor order of this module (_taylor_rule)."""
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

    Overflow-safe: a solution whose growth would pass GROWTH_BOUND is
    chained from segments (see _batch_final_states), and the true states
    are the returned ones times exp(log_scale); log_scale is 0 for a
    solution integrated in one segment.
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


def _orthonormalise(y):
    """Gram-Schmidt of the columns y = Q R, shape (4, k, entries), k = 1 or 2.

    One column is just normalised.  The second column is orthogonalised
    twice, since once loses the orthogonality of nearly parallel columns.
    Returns Q, R (entries, k, k) and log det R; det R is positive, so
    determinant signs stay exact.
    """
    a = y[:, 0]
    r11 = np.sqrt(np.sum(a * a, axis=0))
    q1 = a / r11
    if y.shape[1] == 1:
        return q1[:, None], r11[:, None, None], np.log(r11)
    b = y[:, 1]
    r12 = np.sum(q1 * b, axis=0)
    b = b - r12 * q1
    again = np.sum(q1 * b, axis=0)
    b = b - again * q1
    r12 = r12 + again
    r22 = np.sqrt(np.sum(b * b, axis=0))
    r = np.zeros((r11.size, 2, 2))
    r[:, 0, 0], r[:, 0, 1], r[:, 1, 1] = r11, r12, r22
    return np.stack([q1, b / r22], axis=1), r, np.log(r11 * r22)


Shot = namedtuple("Shot", "frames epochs r_factors log_scale")


def _segments(profiles, lams, x_from, x_to):
    """Every entry's segment count m and growth-rate bound mu, profile-major.

    No solution of the span grows faster than exp(mu |x|), mu**2 being the
    larger root of sigma k**4 - q k**2 = lam rho with sigma at its least and
    q and rho at their greatest over the pass (config.critical_points).  An
    entry is one segment if the raw states of the uniform pinned pair at
    that rate, mu**2 exp(mu L) / 4 over the pass of length L, stay below
    GROWTH_BOUND (tested in logs, which cannot overflow).  Any other is cut
    into the fewest equal segments, at least two, whose propagators are
    conditioned below GROWTH_BOUND: they carry the decaying solutions as
    well, exp(-mu |x|), so a segment's growth stays below the bound's square
    root.
    """
    lo, hi = sorted((x_from, x_to))
    rates = []
    for p in profiles:
        rho, sigma, q = (rho_sigma_q(p.coeffs, critical_points(c, (lo, hi)))[i]
                         for i, c in enumerate(p.coeffs))
        a = np.max(q) / (2.0 * np.min(sigma))
        rates.append(np.sqrt(a + np.sqrt(a * a + lams * np.max(rho) / np.min(sigma))))
    mu = np.concatenate(rates)
    growth = mu * (hi - lo)
    one = growth + 2.0 * np.log(np.maximum(mu, 1.0)) - math.log(4.0) <= math.log(GROWTH_BOUND)
    m = np.maximum(np.ceil(2.0 * growth / math.log(GROWTH_BOUND)), 2.0)
    return np.where(one, 1, m).astype(int), mu


def _taylor_rule(rel_tol):
    """The order p of the Taylor steps at rel_tol and the share of the
    estimated radius of convergence that a step covers (see
    _batch_final_states): p = ceil(-ln atol) for DOP853's atol at rel_tol,
    and the share 1/e, so that the first neglected term is about e**-(p + 1)
    of the step's start, below atol (Jorba & Zou, Exp. Math. 14 (2005)
    99-117, at twice their order and half their e-folds per order).  With
    rtol in place of atol, mode 6 of variable_m1 was 2.8e-11 off."""
    return math.ceil(-math.log(_dop853_tolerances(rel_tol)[1])), 1.0 / math.e


def _taylor(y, poly, lam, x, order, lengths):
    """The Taylor coefficients (order + 1, 4, k, lanes) at x of the solutions
    from y (4, k, lanes), lane by lane.  poly (degree + 1, 3, lanes) holds the
    lanes' ascending coefficients of rho, sigma and q about 0, lengths their
    padded lengths (q's is 0 in a pass without q).  Shifted to x by Horner,
    they give the recurrence, for the t**j coefficient W_j:

        (j + 1) W_(j+1) = (W2_j, D_j, W4_j + (q W2)_j, lam (rho W1)_j),

    D being the series of w3/sigma, D_j = (W3_j - sum_i>0 sigma_i D_(j-i)) /
    sigma_0, and (rho W1)_j = rho_0 (W1_j + sum_i>0 (rho_i / rho_0) W1_(j-i)).
    A lane of lower degree than the pass adds only exact zeros, so its bits
    do not depend on the batch.
    """
    c = poly.copy()
    for i in range(c.shape[0] - 1):
        for j in range(c.shape[0] - 2, i - 1, -1):
            c[j] += x * c[j + 1]
    rho, sigma, q = c[:, 0], c[:, 1], c[:, 2]
    inverse = 1.0 / sigma[0]
    one = np.ones_like(inverse)
    # the factors of the four rows of W_(j+1), one row per order
    factors = (np.stack([one, inverse, one, lam * rho[0]])[:, None]
               / np.arange(1.0, order + 1.0)[:, None, None, None])
    rho = rho / rho[0]
    w = np.empty((order + 1,) + y.shape)
    w[0] = y
    quotient = np.empty((order,) + y.shape[1:]) if lengths[1] > 1 else None
    for j in range(order):
        # W_(j+1) is built in place: the rows of W_j shifted, updated, scaled
        nxt = w[j + 1]
        nxt[:3] = w[j, 1:]
        nxt[3] = w[j, 0]
        if lengths[1] > 1:
            for i in range(1, min(j + 1, lengths[1])):
                nxt[1] -= sigma[i] * quotient[j - i]
            quotient[j] = nxt[1] * inverse
        for i in range(min(j + 1, lengths[2])):
            nxt[2] += q[i] * w[j - i, 1]
        for i in range(1, min(j + 1, lengths[0])):
            nxt[3] += rho[i] * w[j - i, 0]
        nxt *= factors[j]
    return w


def _evaluate(series, t):
    """The polynomials with coefficients series (p + 1, ...) at t, by
    Horner.  t broadcasts against series[0], so a trailing axis of length 1
    reads each lane at a row of points (its stations)."""
    acc = series[-1] * t
    for c in series[-2:0:-1]:
        acc += c
        acc *= t
    return acc + series[0]


def _batch_final_states(profiles, lams, x_from, stations, inits,
                        rel_tol=DEFAULT_REL_TOL, sampled=None):
    """Frames of one or two initial columns at stations, for N values of lam at once.

    profiles is one CoefficientProfile or a sequence of P profiles on the
    same span; every (profile, lam) pair is one batch entry with its own
    coefficient set.  inits holds the initial columns (k, 4), k = 1 or 2,
    shared by every entry, or per entry (..., k, 4) with the leading axes
    of the result.  stations run in the direction of integration from
    x_from on (which may be the first) to the far end (a scalar is that end
    alone).  Every entry takes its own Taylor-series steps, advanced
    together as numpy operations over an axis of lanes, so the result of one
    entry does not depend on which others share the batch; a lane's last
    step is clipped to land on its far end, where it leaves the batch.  Its
    frames at the other stations are the polynomial of the step that passed
    them, read by one Horner pass per step over the stations it passed.
    Only the first `sampled` lams of each profile (all by default) record
    these interior stations; the interior frames of the rest are NaN, and
    everything else they return is as if they were sampled.
    A step is the Taylor polynomial of order p at its start (see _taylor;
    p from _taylor_rule).  Its length is a share (_taylor_rule) of the
    radius of convergence estimated from the last two orders, the least
    over j = p - 1, p and the lane's columns of (|W_0| / |W_j|)**(1/j), |.|
    being a column's max norm in the balanced coordinates
    diag(1, mu, mu**2, mu**3) (mu from _segments, at least 1); no step is
    rejected.  The series reads q as its polynomial, which differs from
    config.rho_sigma_q's clamped q by less than 1e-12 where q dips into
    [MIN_Q, 0); a q that the clamp makes zero across the span is left out.

    An entry whose growth stays below GROWTH_BOUND (see _segments) is one
    lane from its initial columns, and is never orthonormalised.  Any other
    entry is m segments of bounded growth, one lane each, all integrated
    side by side (multiple shooting): segment 0 from the initial columns
    (in such a pass every segment 0 has 4 - k more, zero, which never
    shorten a step), each later one from the four balanced unit columns at
    its start, diag(1, mu, sigma mu**2, sigma mu**3), in which a solution
    growing like exp(mu x) has components of one size.  A lane writes the
    stations it passes, which lie in no other segment, into its entry's
    slot, with its segment as their epoch.  After the loop the segments are
    chained: a station of segment j > 0 takes the unit columns' states
    times Q_j, where Q_j R_j is the end of segment j - 1 in balanced
    coordinates, and the last segment's end is orthonormalised as it stands.

    Returns a Shot whose leading axes ... are (N,) for one profile and
    (P, N) for P: frames (..., S, k, 4), the entry's frame at each station,
    one row per column; epochs (..., S), its orthonormalisations before
    each station (a station's segment; m at the far end of a segmented
    entry, 0 throughout a one-segment one); r_factors (..., E + 1, k, k),
    the R of its j-th orthonormalisation at index j (the identity at 0 and
    past its last); log_scale (...), log det of all its R.  At a station of
    epoch e the true columns are frame R_e ... R_1 (as 4 x k matrices), so
    the combination of the initial columns with coefficients c_0 is frame
    c_e, where c_j = R_j c_(j-1); the 2x2 minors of a true endpoint pair are
    those of its last frame times exp(log_scale).
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
    order, share = _taylor_rule(rel_tol)
    lead = (lams.size,) if single else (len(profiles), lams.size)
    n = len(profiles) * lams.size
    inits = np.asarray(inits, dtype=float)
    if inits.ndim > 2 and inits.shape[:-2] != lead:
        raise ValueError(f"per-entry inits must have leading axes {lead}")
    inits = np.atleast_2d(inits)
    k = inits.shape[-2]
    # the lanes: the n entries' segments 0, then segments 1 .. m - 1 of each
    # entry in turn, one lane each; in a pass with a later segment every lane
    # carries four columns, segment 0's last 4 - k zero
    m, mu = _segments(profiles, lams, x_from, x_to)
    first = n + np.cumsum(m - 1) - (m - 1)     # each entry's lane of segment 1
    parent = np.concatenate([np.arange(n), np.repeat(np.arange(n), m - 1)])
    seg = np.concatenate([np.zeros(n, dtype=int),
                          np.arange(parent.size - n) - np.repeat(first - n - 1, m - 1)])
    m_lane = m[parent]
    x_start = x_from + (x_to - x_from) * seg / m_lane
    x_end = np.where(seg + 1 == m_lane, x_to, x_from + (x_to - x_from) * (seg + 1) / m_lane)
    lanes = parent.size
    columns = k if lanes == n else 4
    # the sampled entries' lanes write the stations they pass into their
    # entry's slot, with their segment as the epoch; layout (4 components,
    # columns, stations, entries or lanes): the lane is the contiguous axis,
    # so every per-lane factor broadcasts along it; ends holds each lane's
    # state at its far end
    samples = np.tile(np.arange(lams.size) < sampled, len(profiles))[parent]
    frames = np.full((4, columns, stations.size, n), np.nan)
    epochs = np.zeros((stations.size, n), dtype=int)
    ends = np.empty((4, columns, lanes))
    # every lane's coefficients (degree + 1, 3, lanes) of rho, sigma and q,
    # zero-padded to the pass's highest degree, and lam
    lengths = [max(len(p.coeffs[i]) for p in profiles) for i in range(3)]
    poly = np.zeros((max(lengths), 3, len(profiles)))
    for j, p in enumerate(profiles):
        for i, c in enumerate(p.coeffs):
            poly[:len(c), i, j] = c
        if not np.any(rho_sigma_q(p.coeffs, critical_points(p.q, p.interval))[2]):
            poly[:, 2, j] = 0.0
    if not poly[:, 2].any():
        lengths[2] = 0
    poly = np.repeat(poly, lams.size, axis=2)[..., parent]
    lam = np.tile(lams, len(profiles))[parent]
    # the balanced unit columns of the later segments' lanes, and the scale
    # of every lane's balanced coordinates: the power of a full exponent
    # array, whose bits do not depend on the number of lanes (a broadcast
    # exponent takes numpy's buffered loop past about 2,048 lanes)
    rate = mu[parent[n:]]
    sigma = rho_sigma_q(tuple(poly[:, i, n:] for i in range(3)), x_start[n:])[1]
    balance = np.stack([np.ones(rate.size), rate, sigma * rate ** 2, sigma * rate ** 3])
    scale = np.power(np.tile(np.maximum(mu[parent], 1.0), (4, 1)),
                     np.repeat(-np.arange(4.0)[:, None], lanes, axis=1))[:, None]
    # the running lanes: their index, position, far end, next station and
    # state y; the arrays shrink only when lanes finish
    idx = np.arange(lanes)
    x = x_start
    # interior stations in the direction of integration, for searchsorted;
    # a later segment starts past those of the segments before it
    ahead = stations[:-1] * direction
    nxt = np.where(samples, np.where(seg > 0, np.searchsorted(
        ahead, x_start * direction, side="right"), 0), ahead.size)
    y = np.zeros((4, columns, lanes))
    y[:, :k, :n] = inits.reshape(-1, k, 4).transpose(2, 1, 0)
    y[..., n:] = np.eye(4)[:, :columns, None] * balance[:, None]
    while idx.size:
        series = _taylor(y, poly, lam, x, order, lengths)
        norms = np.abs(series[[0, -2, -1]] * scale).max(axis=1)
        ratio = norms[1:] / np.maximum(norms[0], 1e-300)
        inverse_radius = np.maximum(ratio[0] ** (1.0 / (order - 1)), ratio[1] ** (1.0 / order))
        h = share / np.maximum(inverse_radius.max(axis=0), 1e-300)
        rest = np.abs(x_end - x)
        last = h >= rest
        hs = direction * np.where(last, rest, h)
        x_new = np.where(last, x_end, x + hs)
        stuck = (x_new == x) & ~last
        if stuck.any():
            raise IntegrationError("step size underflow", float(x[stuck][0]))
        if ahead.size:
            reached = np.searchsorted(ahead, x_new * direction, side="right")
            count = np.maximum(reached - nxt, 0)
            if count.any():
                # every station a step passed, read from its polynomial; each
                # lane's are padded with its last one to the most any lane passed
                read = np.flatnonzero(count)
                width = np.arange(count.max())
                valid = width < count[read, None]
                at = nxt[read, None] + np.minimum(width, count[read, None] - 1)
                values = _evaluate(series[..., read, None], stations[at] - x[read, None])
                lane = idx[np.repeat(read, count[read])]
                frames[:, :, at[valid], parent[lane]] = values[..., valid]
                epochs[at[valid], parent[lane]] = seg[lane]
                nxt = np.maximum(nxt, reached)
        y, x = _evaluate(series, hs), x_new
        if last.any():
            ends[..., idx[last]] = y[..., last]
            keep = ~last
            idx, x, x_end, nxt, lam = (a[keep] for a in (idx, x, x_end, nxt, lam))
            # compress, not a mask: a masked last axis would come out
            # lane-major, and every row operation after it strided
            y, poly, scale = (np.compress(keep, a, axis=-1) for a in (y, poly, scale))
    # an entry's far end is its last segment's
    frames[:, :, -1] = ends[..., np.where(m > 1, first + m - 2, np.arange(n))]
    epochs[-1] = m - 1
    r_factors, log_scale = _chain(frames, epochs, ends, m, first, balance, k)
    return Shot(*(a.reshape(lead + a.shape[1:]) for a in
                  (frames[:, :k].transpose(3, 2, 1, 0), epochs.T, r_factors, log_scale)))


def _combine(psi, q):
    """The states psi (4, 4, entries) of the balanced unit columns times the
    columns q (4, k, entries): the states of q, (4, k, entries)."""
    out = psi[:, 0, None] * q[0]
    for b in range(1, 4):
        out += psi[:, b, None] * q[b]
    return out


def _chain(frames, epochs, ends, m, first, balance, k):
    """Chain the segments of the entries with m > 1 into frames of their k
    initial columns, in place (see _batch_final_states), and return their
    r_factors and log_scale.  Lane e (e < m.size) is entry e's segment 0
    and first[e] + j - 1 its segment j, ends holds every lane's state at its
    far end, balance (4, lanes - m.size) the later lanes' balanced unit
    columns, and frames the states of those columns at every station of
    epoch j > 0, the last one included.  Leaves each segmented entry's
    orthonormalised far end, in epoch m, in the last station.
    """
    n = m.size
    top = np.max(m, initial=1)
    if top == 1:
        return np.tile(np.eye(k), (n, 1, 1, 1)), np.zeros(n)
    r_factors = np.tile(np.eye(k), (n, top + 1, 1, 1))
    log_scale = np.zeros(n)
    qs = np.zeros((4, k, top, n))     # each entry's Q_j, in balanced coordinates
    end = ends[:, :k, :n].copy()      # each entry's end of segment j - 1
    for j in range(1, top):
        e = np.flatnonzero(m > j)
        lane = first[e] + j - 1
        qs[:, :, j, e], r_factors[e, j], log_det_r = _orthonormalise(
            end[..., e] / balance[:, None, lane - n])
        log_scale[e] += log_det_r
        end[..., e] = _combine(ends[..., lane], qs[:, :, j, e])
    at, of = np.nonzero(epochs > 0)
    frames[:, :k, at, of] = _combine(frames[:, :, at, of], qs[:, :, epochs[at, of], of])
    segmented = np.flatnonzero(m > 1)
    frames[:, :k, -1, segmented], r, log_det_r = _orthonormalise(frames[:, :k, -1, segmented])
    r_factors[segmented, m[segmented]] = r
    log_scale[segmented] += log_det_r
    epochs[-1, segmented] += 1
    return r_factors, log_scale
