"""Characteristic determinant, eigenvalue location and spectral verification.

The joint conditions at x = 0 for a mode u = a*u1 + b*u2 (left span) and
v = c*v1 + d*v2 (right span) form a 4x4 matrix in (a, b, c, d) with the
fixed row order

    R1: u(0) - v(0)
    R2: u'(0) - v'(0)
    R3: sigma_l*u''(0) - sigma_r*v''(0)
    R4: T u(0) - T v(0) + M*lam*u(0)

Eigenvalues are the zeros of its determinant.  Every determinant comes
from one batched pass of Taylor-series steps (quasi._batch_final_states)
that integrates the left span next to the right span mirrored onto
(-1, 0), or that span once if the system is mirror-symmetric; a span
whose growth would pass a fixed bound is integrated in chained segments
and ends on an orthonormal column pair, so the determinant is tracked as
(sign, log magnitude) without the cancellation between the two
exponentially growing columns at large lam.  solve_modes
takes its eigenvalues from fem.seed_eigenvalues, a p-version Galerkin
solve, or, if a seed is not certified, refines scan's brackets.  Either
way one batched pass with stations builds every mode with its simplicity
probes and its certificate, a determinant sign change across s -+ w (w
five of refine_brackets' stopping widths at max(TOL_LAMBDA_REL, rel_tol));
every eigenvalue being simple (the paper's theorem), that bracket holds
one root.  eigenpair is the one-lam case at the defaults.  The joint null
vector of the last frames is carried back through the orthonormalisations,
so the modes keep their shape at large lam too.  refine_brackets refines
sign-change brackets in lock step by a bracketed Newton iteration, one
batched pass per iteration (refine is the one-bracket case); scan finds
them on a uniform grid in s = lam**(1/4), where the roots are
asymptotically equispaced, from one stacked determinant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .config import MIRROR, critical_points, in_span, mirrored, rho_sigma_q
from .fem import seed_eigenvalues
from .fundamental import LEFT_UNIT_SHEAR, LEFT_UNIT_SLOPE, pairings
# perfbench's tracer wraps these two names; the module itself does not call them
from .fundamental import left_fundamental, right_fundamental  # noqa: F401
from .quasi import DEFAULT_REL_TOL, Shot, _batch_final_states

DEFAULT_DS = 0.02
DEFAULT_MODE_STATIONS = 257   # per side; keeps Simpson quadrature error ~1e-8
MIN_MODE_STATIONS = 129       # per side, and odd for Simpson's rule
SIGN_CONVENTION_EPS = 1e-12
DEGENERACY_GAP = 1e3
PROBE_REL_STEP = 1e-4
VANISH_REL = 1e-6
NEWTON_REL_STEP = 1e-6
NEWTON_FAN = (1.0, 4.0, 16.0)
MAX_REFINE_PASSES = 100
TOL_LAMBDA_REL = 1e-10
CERTIFY_WIDTHS = 5.0   # certificate half-width, in stopping widths

SIGN_NOTE = (
    "published sign conventions for the endpoint products u'*Tu disagree "
    "between sources; this report asserts only that both products are "
    "nonzero with a mode-independent sign, and records the measured signs"
)


class BracketError(ValueError):
    """A bracket without a determinant sign change, or fewer brackets than modes."""


def _build_matrix(left_states, right_states, mass, lam):
    """Joint matrix from the endpoint pairs; stacks over leading axes.

    left_states and right_states have shape (..., 2, 4) and lam shape (...).
    """
    left = np.swapaxes(left_states, -1, -2).copy()
    left[..., 3, :] += mass * np.asarray(lam)[..., None] * left[..., 0, :]
    return np.concatenate([left, -np.swapaxes(right_states, -1, -2)], axis=-1)


def interface_matrix(system, lam):
    """The 4x4 joint-condition matrix at lam, as (matrix, col_log_scale).

    Each span's two columns are its endpoint pair as integrated; for a span
    integrated in segments (growth past quasi.GROWTH_BOUND, see
    quasi._segments) they are an orthonormal basis of the same plane
    instead.  Either way the true determinant is
    det(matrix) * exp(sum(col_log_scale)).
    """
    _, matrices, col_log = _batch_matrices(system, np.array([float(lam)]), DEFAULT_REL_TOL)
    return matrices[0], col_log[0]


def _unit_columns(matrices):
    """Stacked matrices (..., 4, 4) with every column scaled to unit max-norm,
    and the norms removed (..., 4); a zero column keeps norm 1."""
    norms = np.max(np.abs(matrices), axis=-2)
    norms[norms == 0.0] = 1.0
    return matrices / norms[..., None, :], norms


def _signed_log_det(matrices, col_log_scale):
    """(sign, log |det|) of stacked joint matrices (..., 4, 4).

    Columns are normalized to unit max-norm before the determinant, and the
    removed norms join the per-column log scales (..., 4) in the magnitude.
    """
    unit, norms = _unit_columns(matrices)
    d = np.linalg.det(unit)
    sign = np.sign(d).astype(int)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(d)) + np.sum(np.log(norms) + col_log_scale, axis=-1)
    log_abs[sign == 0] = -math.inf
    return sign, log_abs


def char_det(system, lam):
    """Characteristic determinant at lam, sign-exact: (sign, log |det|)."""
    sign, log_abs = _batch_dets(system, np.array([float(lam)]), DEFAULT_REL_TOL)
    return int(sign[0]), float(log_abs[0])


def _descale(sign, log_abs, ref):
    """Determinant values sign * exp(log_abs - ref), capped at exp(700)."""
    return sign * np.exp(np.minimum(log_abs - ref, 700.0))


def _batch_matrices(system, lams, rel_tol, stations=(0.0,), sampled=None):
    """Both spans' frames and the joint matrices at every lam, in one batched pass.

    The right span is integrated as its mirror on (-1, 0), next to the left
    span and from the same pinned data (the mirror of the right span's unit
    slope and unit shear at x = +1); sign flips are exact, so its states
    equal those of the right span integrated from x = +1 to the last bit.
    A mirror-symmetric system, whose mirrored right span is its left span,
    integrates that one profile and repeats its Shot for the right span: an
    entry's bits do not depend on its batch, so they are the two-profile
    pass's.  Returns (shot, matrices, col_log): the Shot of the left and the
    mirrored right span (leading axes (2, N)), the joint matrices (N, 4, 4)
    from their last frames, and per-column log scales (N, 4), each column
    carrying half of its span's log scale.  Only the first `sampled` lams
    (all by default) record the interior stations.
    """
    right = mirrored(system.right)
    profiles = (system.left,) if right == system.left else (system.left, right)
    shot = _batch_final_states(profiles, lams, -1.0, stations,
                               [LEFT_UNIT_SLOPE, LEFT_UNIT_SHEAR], rel_tol, sampled)
    if len(profiles) == 1:
        shot = Shot._make(np.concatenate([a, a]) for a in shot)
    matrices = _build_matrix(shot.frames[0, :, -1], shot.frames[1, :, -1] * MIRROR,
                             system.mass, lams)
    return shot, matrices, np.repeat(shot.log_scale.T / 2.0, 2, axis=-1)


def _batch_dets(system, lams, rel_tol):
    """(sign, log |det|) at every lam, in one batched pass."""
    _, matrices, col_log = _batch_matrices(system, lams, rel_tol)
    return _signed_log_det(matrices, col_log)


def scan(system, s_max, ds=DEFAULT_DS):
    """Sign-change brackets of the determinant on the grid s = j*ds <= s_max.

    Roots of fourth-order problems are asymptotically equispaced in
    s = lam**(1/4), so a fine enough ds skips none; j starts at 0, as a
    large mass can put lam_1 below ds**4.  All grid points are integrated
    together at DEFAULT_REL_TOL (see quasi._batch_final_states).
    """
    if not 0.0 < s_max < math.inf:
        raise ValueError("s_max must be finite and > 0")
    if not 0.0 < ds < math.inf:
        raise ValueError("ds must be finite and > 0")
    s = ds * np.arange(int(math.floor(s_max / ds + 1e-9)) + 1)
    sign = _batch_dets(system, s ** 4, DEFAULT_REL_TOL)[0]
    # an exact zero on a grid point is vanishingly unlikely; the point is
    # skipped and its neighbours bracket the root
    s, sign = s[sign != 0], sign[sign != 0]
    j = np.flatnonzero(sign[1:] != sign[:-1])
    return list(zip(s[j].tolist(), s[j + 1].tolist()))


def refine(system, bracket, tol_lambda_rel=TOL_LAMBDA_REL, rel_tol=DEFAULT_REL_TOL):
    """Root of the determinant inside one sign-change bracket, to tol_lambda_rel in lam.

    The one-bracket case of refine_brackets.
    """
    return refine_brackets(system, [bracket], tol_lambda_rel, rel_tol)[0]


def refine_brackets(system, brackets, tol_lambda_rel=TOL_LAMBDA_REL, rel_tol=DEFAULT_REL_TOL):
    """Roots inside many sign-change brackets at once, to tol_lambda_rel in lam.

    Eigenvalues are simple, so each bracket holds one root, where the
    determinant's slope is nonzero, and all brackets are refined in lock step
    by a bracketed Newton iteration in s.  Each pass integrates, per
    unfinished bracket and in one batch, the Newton point x, x -+ d for the
    slope (d = NEWTON_REL_STEP*|x|) and x -+ k*c for k in NEWTON_FAN, where
    c is half the stopping width (see _stopping_width).  The points inside the
    bracket narrow it to the sign change nearest the next Newton point, which
    then stands for the root if it lies in the bracket (else the end with the
    smaller |det| does); a bracket stops once it is no wider than the
    stopping width.  A Newton point that is not finite or leaves the bracket
    is replaced by the midpoint.  The bracket ends share the first pass with
    the points of the midpoint, from which Newton starts.
    Returns the eigenvalues in bracket order.
    """
    if not 0.0 < tol_lambda_rel < math.inf:
        raise ValueError("tol_lambda_rel must be finite and > 0")
    if not brackets:
        return []
    lo, hi = np.sort(np.array(brackets, dtype=float), axis=1).T
    n = lo.size
    points = _newton_points(lo + 0.5 * (hi - lo), tol_lambda_rel)
    sign, log_abs = (a.reshape(n, -1) for a in _batch_dets(
        system, np.column_stack([lo, hi, points]).ravel() ** 4, rel_tol))
    bad = np.flatnonzero(sign[:, 0] * sign[:, 1] >= 0)
    if bad.size:
        i = bad[0]
        raise BracketError(
            f"determinant does not change sign on [{lo[i]:g}, {hi[i]:g}]")
    ref = np.max(log_abs[:, :2], axis=1)
    f = _descale(sign, log_abs, ref[:, None])
    f_lo, f_hi, f = f[:, 0], f[:, 1], f[:, 2:]
    roots, running = np.full(n, math.nan), np.arange(n)
    for _ in range(MAX_REFINE_PASSES):
        if points is None:
            points = _newton_points(np.where((lo < r) & (r < hi), r, lo + 0.5 * (hi - lo)),
                                    tol_lambda_rel)
            sign, log_abs = _batch_dets(system, points.ravel() ** 4, rel_tol)
            f = _descale(sign.reshape(points.shape), log_abs.reshape(points.shape),
                         ref[running, None])
        with np.errstate(all="ignore"):     # a flat or non-finite slope: midpoint
            r = points[:, 0] - f[:, 0] * (points[:, 2] - points[:, 1]) / (f[:, 2] - f[:, 1])
        # near a root at large lam the determinant's rounding noise can flip
        # its sign more than once, so keep the sign change nearest r
        inside = (lo[:, None] < points) & (points < hi[:, None])
        xs = np.column_stack([lo, np.where(inside, points, lo[:, None]), hi])
        fs = np.column_stack([f_lo, np.where(inside, f, f_lo[:, None]), f_hi])
        order = np.argsort(xs, axis=1)
        xs, fs = np.take_along_axis(xs, order, 1), np.take_along_axis(fs, order, 1)
        at = np.nan_to_num(r)[:, None]
        gap = np.maximum(np.maximum(xs[:, :-1] - at, at - xs[:, 1:]), 0.0)
        gap[np.sign(fs[:, :-1]) * np.sign(fs[:, 1:]) > 0] = math.inf
        j = np.argmin(gap, axis=1)[:, None]
        lo, hi, f_lo, f_hi = (np.take_along_axis(a, j + k, 1)[:, 0]
                              for a, k in ((xs, 0), (xs, 1), (fs, 0), (fs, 1)))
        root = np.where((lo <= r) & (r <= hi), r,
                        np.where(np.abs(f_lo) < np.abs(f_hi), lo, hi))
        done = hi - lo <= _stopping_width(root, tol_lambda_rel)
        roots[running[done]] = root[done]
        running, lo, hi, f_lo, f_hi, r = (a[~done] for a in (running, lo, hi, f_lo, f_hi, r))
        if not running.size:
            return (roots ** 4).tolist()
        points = None
    i = running[0]
    raise RuntimeError(f"root refinement failed on [{brackets[i][0]:g}, {brackets[i][1]:g}]")


def _stopping_width(x, tol_lambda_rel):
    """The bracket width in s at which refine_brackets stops near x."""
    # lam = s**4 has four times the relative error of s: /4 would just meet
    # tol_lambda_rel, /40 leaves a factor of ten
    return max(tol_lambda_rel / 40.0, 4e-16) * np.abs(x) + 1e-14


def _lambda_tol(rel_tol):
    """A solve's tolerance in lam: rel_tol, but never below TOL_LAMBDA_REL."""
    return max(TOL_LAMBDA_REL, rel_tol)


def _newton_points(x, tol_lambda_rel):
    """Columns x, x - d, x + d, x - k*c, x + k*c (k in NEWTON_FAN) of a Newton
    pass, with d = NEWTON_REL_STEP*|x| and c half the stopping width."""
    d, c = NEWTON_REL_STEP * np.abs(x), 0.5 * _stopping_width(x, tol_lambda_rel)
    fan = np.outer(c, NEWTON_FAN)
    return np.column_stack([x, x - d, x + d, x[:, None] - fan, x[:, None] + fan])


@dataclass(frozen=True)
class Eigenpair:
    """One normalized mode: eigenvalue, joint null vector, dense samples.

    coeffs = (a, b, c, d) has unit Euclidean norm with the sign convention
    a >= 0 (b > 0 when a vanishes).  Mode samples are scaled separately to
    unit H-norm, i.e. samples = (a*u1 + b*u2, c*v1 + d*v2) / ||.||_H;
    each sample row is (u, u', sigma*u'', Tu).  det_derivative, det_margin
    and step_class are the simplicity probe at lam (see _probe).
    product_left and product_right are the endpoint products u'*Tu at the
    hinges x = -1 and x = +1.
    """

    index: int | None
    lam: float
    coeffs: np.ndarray
    xs_left: np.ndarray
    mode_left: np.ndarray
    xs_right: np.ndarray
    mode_right: np.ndarray
    u0: float
    interface_residuals: np.ndarray
    singular_values: np.ndarray
    det_derivative: float
    det_margin: float
    step_class: int

    @property
    def sv_gap(self):
        sv = self.singular_values
        return float(sv[2] / max(sv[3], 1e-300))

    @property
    def product_left(self):
        return float(self.mode_left[0, 1] * self.mode_left[0, 3])

    @property
    def product_right(self):
        return float(self.mode_right[-1, 1] * self.mode_right[-1, 3])


def _simpson(y, x):
    """Composite Simpson rule over an odd number of stations x, along the
    last axis of y (any leading axes are integrated independently).

    scipy.integrate.simpson's formula for (possibly uneven) spacings, term
    for term, so the result has its bits; a row of a C-contiguous y sums
    as the same row alone would.
    """
    if x.size % 2 == 0:
        raise ValueError("Simpson's rule needs an odd number of stations")
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, ratio = h0 + h1, h0 / h1
    return np.sum(hsum / 6.0 * (y[..., :-2:2] * (2.0 - 1.0 / ratio)
                                + y[..., 1::2] * (hsum * (hsum / (h0 * h1)))
                                + y[..., 2::2] * (2.0 - ratio)), axis=-1)


def eigenpair(system, lam, index=None):
    """The normalized mode at a refined eigenvalue lam: the one-lam case of
    the assembly in solve_modes at the defaults, with the same bits."""
    xs = np.linspace(-1.0, 0.0, DEFAULT_MODE_STATIONS)
    return _modes(system, [lam], [index], xs, *_probe(system, [lam], DEFAULT_REL_TOL, xs)[:-1])[0]


def _mass_free(left):
    """The left pair's last frames (N, 2, 4) rebased as L T, T (N, 2, 2), so
    that the column with the smaller |u(0)| gets u(0) = 0: in the joint
    matrix the mass term M*lam*u(0) then sits in one column alone, and a
    large mass cannot swamp the other column's rows.  Returns (L T, T)."""
    entries = np.arange(left.shape[0])
    u = left[:, :, 0]
    pivot = (np.abs(u[:, 1]) > np.abs(u[:, 0])).astype(int)
    other = 1 - pivot
    alpha = np.divide(u[entries, other], u[entries, pivot],
                      out=np.zeros(entries.size), where=u[entries, pivot] != 0.0)
    rebased = left.copy()
    rebased[entries, other] -= alpha[:, None] * left[entries, pivot]
    rebased[entries, other, 0] = 0.0
    rebase = np.tile(np.eye(2), (entries.size, 1, 1))
    rebase[entries, pivot, other] = -alpha
    return rebased, rebase


def _modes(system, lams, indices, xs, shot, slopes, margins, classes):
    """Normalized modes at eigenvalues lams from _probe's pass to the stations xs.

    The joint null vector is the last right singular vector of the joint
    matrix of the last frames, with the left pair rebased by _mass_free and
    every column scaled to unit max-norm (singular_values are that
    matrix's).  It is carried back one epoch at a time, c_(j-1) =
    R_j^-1 c_j, each R_j being upper triangular with a positive diagonal;
    the R_j grow in the direction of integration, so this recursion is
    stable.  A station of epoch e then holds the mode as its frame times
    c_e.
    """
    lams = np.asarray(lams, dtype=float)
    left, rebase = _mass_free(shot.frames[0, :, -1])
    unit, norms = _unit_columns(_build_matrix(left, shot.frames[1, :, -1] * MIRROR,
                                              system.mass, lams))
    _, svals, vt = np.linalg.svd(unit)
    null = vt[:, -1] / norms
    null[:, :2] = np.einsum("nij,nj->ni", rebase, null[:, :2])
    # coeffs[span, entry, epoch]: the span's pair coefficients in that epoch
    r = shot.r_factors
    coeffs = np.empty(r.shape[:3] + (2,))
    coeffs[..., -1, :] = null.reshape(-1, 2, 2).swapaxes(0, 1)
    for j in range(r.shape[2] - 1, 0, -1):
        c2 = coeffs[..., j, 1] / r[..., j, 1, 1]
        coeffs[..., j - 1, 1] = c2
        coeffs[..., j - 1, 0] = (coeffs[..., j, 0] - r[..., j, 0, 1] * c2) / r[..., j, 0, 0]
    per_station = np.take_along_axis(coeffs, shot.epochs[..., None], axis=2)
    modes = (per_station[..., :1] * shot.frames[..., 0, :]
             + per_station[..., 1:] * shot.frames[..., 1, :])
    xs_r = -xs[::-1] + 0.0      # + 0.0: x = 0 as 0.0, not -0.0
    rho_l, rho_r = (rho_sigma_q(side.coeffs, x)[0] for side, x in ((system.left, xs),
                                                                   (system.right, xs_r)))
    # the squared H-norms, one Simpson rule per span over the stacked modes:
    # u in station order, C-contiguous, so each mode sums as it would alone
    u = np.ascontiguousarray(modes[..., 0])
    h_sq = (_simpson(rho_l * u[0] ** 2, xs) + _simpson(rho_r * u[1, :, ::-1] ** 2, xs_r)
            + system.mass * u[0, :, -1] ** 2)
    pairs = []
    for i, (lam, index) in enumerate(zip(lams.tolist(), indices)):
        sv = svals[i]
        if sv[2] < DEGENERACY_GAP * sv[3]:
            warnings.warn(f"near-degenerate joint matrix at lam={lam:g}: "
                          f"singular values {sv}", RuntimeWarning)
        c = coeffs[:, i, 0].reshape(4)
        c = c / np.linalg.norm(c)
        sign = -1.0 if c[0] < -SIGN_CONVENTION_EPS or (
            abs(c[0]) <= SIGN_CONVENTION_EPS and c[1] < 0) else 1.0
        mode_l, mode_r = modes[0, i], (modes[1, i] * MIRROR)[::-1]
        h = sign * math.sqrt(h_sq[i])
        mode_l, mode_r, u0 = mode_l / h, mode_r / h, float(u[0, i, -1]) / h
        wl, wr = mode_l[-1], mode_r[0]
        residual = wl - wr
        residual[3] += system.mass * lam * wl[0]
        # one common scale for all four rows: the joint-state magnitude
        scale = max(float(np.max(np.abs(wl))), float(np.max(np.abs(wr))),
                    abs(system.mass * lam * wl[0]), 1e-300)
        pairs.append(Eigenpair(index=index, lam=lam, coeffs=sign * c, xs_left=xs,
                               mode_left=mode_l, xs_right=xs_r, mode_right=mode_r, u0=u0,
                               interface_residuals=np.abs(residual) / scale,
                               singular_values=sv, det_derivative=float(slopes[i]),
                               det_margin=float(margins[i]), step_class=int(classes[i])))
    return pairs


def _forms(system, pairs, i, j):
    """H-products and energy forms of the pairs (pairs[i_k], pairs[j_k]), as
    two arrays like i, from one Simpson rule per span, with the stations
    checked once.  The modes are copied into one stack in station order (a
    reversed mode_right too), so each pair sums to the bits of the pair
    alone, in its operand order: (rho u_i) u_j + M u_i(0) u_j(0) and
    (w3_i w3_j) / sigma + (q w2_i) w2_j.
    """
    for name in ("xs_left", "xs_right"):
        grids = [getattr(p, name) for p in pairs]
        if len({g.size for g in grids}) > 1 or not np.allclose(np.stack(grids), grids[0]):
            raise ValueError("modes must be sampled on the same stations")
    terms = []
    for side, xs, mode in ((system.left, pairs[0].xs_left, "mode_left"),
                           (system.right, pairs[0].xs_right, "mode_right")):
        rho, sigma, q = rho_sigma_q(side.coeffs, in_span(side.interval, xs))
        # the components (4, modes, stations), then each pair's two modes
        stack = np.stack([getattr(p, mode) for p in pairs]).transpose(2, 0, 1)
        a, b = stack[:, i], stack[:, j]
        terms.extend(_simpson(np.stack([rho * a[0] * b[0], a[2] * b[2] / sigma,
                                        q * a[1] * b[1]]), xs))
    u0 = np.array([p.u0 for p in pairs])
    h = terms[0] + terms[3] + system.mass * u0[i] * u0[j]
    return h, terms[1] + terms[2] + terms[4] + terms[5]


def h_inner(system, phi, psi):
    """Weighted product int(rho_l u u) + int(rho_r v v) + M u(0) u(0): the
    one-pair reader of verify's Gram matrix."""
    return float(_forms(system, (phi, psi), 0, 1)[0])


def energy_form(system, phi, psi):
    """int(sigma u'' u'') + int(q u' u') over both spans (u'' from w3/sigma):
    the one-pair reader of verify's energies."""
    return float(_forms(system, (phi, psi), 0, 1)[1])


def _probe(system, lams, rel_tol, stations=(0.0,)):
    """Simplicity slope, margin, joint step class and certificate at every lam, batched.

    One _batch_matrices pass to the given stations covers s, s -+ h and
    s -+ w for every lam (s = lam**0.25, h = max(s, 1) * PROBE_REL_STEP,
    w CERTIFY_WIDTHS stopping widths at _lambda_tol(rel_tol)); only the
    lams themselves record the interior stations, since the other entries
    are read at x = 0 alone.  Returns the Shot of the lams alone, then four
    arrays:

    * slope: centred difference in s of the determinant, descaled by the
      larger of its two log magnitudes;
    * margin = |f+ - f-| / (|f+| + |f-|), a dimensionless simplicity
      indicator: ~1 at a simple root (the two side values have opposite
      signs), ~0 at a double root;
    * step class, the regime of the slope subwronskians at the joint, read
      from the endpoint pairs at lam: 1 when both spans' slope pairings are
      nonzero at x = 0, 2 when both vanish (below VANISH_REL of their own
      triple's scale), 3 when exactly one vanishes;
    * certified: the determinant changes sign across s -+ w, as narrow a
      bracket as a determinant at rel_tol resolves, so it holds one root.
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.size
    s = lams ** 0.25
    h = np.maximum(s, 1.0) * PROBE_REL_STEP
    w = CERTIFY_WIDTHS * _stopping_width(s, _lambda_tol(rel_tol))
    shot, matrices, col_log = _batch_matrices(
        system, np.concatenate([lams, np.concatenate([s - h, s + h, s - w, s + w]) ** 4]),
        rel_tol, stations, n)
    sign, log_abs = _signed_log_det(matrices[n:], col_log[n:])
    ref = np.maximum(log_abs[:n], log_abs[n:2 * n])
    f_lo = _descale(sign[:n], log_abs[:n], ref)
    f_hi = _descale(sign[n:2 * n], log_abs[n:2 * n], ref)
    slope = (f_hi - f_lo) / (2.0 * h)
    margin = np.abs(f_hi - f_lo) / (np.abs(f_hi) + np.abs(f_lo) + 1e-300)

    # pairings of the two columns at x = 0 on both spans (the mirror flips
    # the sign of the slope and shear pairings, which the test ignores);
    # an orthonormalised pair gives them divided by det R > 0, a factor
    # common to the three that cancels in the relative test
    wa, wb = np.moveaxis(shot.frames[:, :n, -1], (2, 3), (0, 1))
    sigma = np.array([[rho_sigma_q(p.coeffs, 0.0)[1]] for p in (system.left, system.right)])
    triple = pairings(wa, wb, sigma)
    scale = np.max(np.abs(triple), axis=0)
    vanished = np.sum(np.abs(triple[0]) <= VANISH_REL * scale, axis=0)
    step_class = np.array([1, 3, 2])[vanished]
    return (Shot(*(a[:, :n] for a in shot)), slope, margin, step_class,
            sign[2 * n:3 * n] * sign[3 * n:] < 0)


def det_slope(system, lam):
    """(slope, margin) of the determinant at lam: the one-lam case of _probe."""
    slope, margin = _probe(system, [lam], DEFAULT_REL_TOL)[1:3]
    return float(slope[0]), float(margin[0])


def step_classify(system, lam):
    """Step class (1, 2 or 3) of the joint at lam: the one-lam case of _probe."""
    return int(_probe(system, [lam], DEFAULT_REL_TOL)[3][0])


def suggest_s_max(system, count):
    """Scan ceiling past the first `count` eigenvalues, in s = lam**(1/4).

    By the min-max principle, lam_n is at most the largest Rayleigh quotient
    (int sigma u''**2 + q u'**2) / (int rho u**2 + M u(0)**2) over the span
    of sin(j pi (x + 1)/2), j <= n, which are admissible here.  The mass
    only adds to the denominator, so with sigma_max, q_max and rho_min over
    both spans the quotient is at most that of a uniform massless beam,
    whose modes these are: lam_n <= (sigma_max k**4 + q_max k**2) / rho_min
    with k = n pi/2.  One DEFAULT_DS more keeps a grid point past the root
    where the bound is exact (uniform M = 0).
    """
    # each coefficient at its critical points, over both spans
    rho, sigma, q = values = [], [], []
    for profile in (system.left, system.right):
        for i, coeffs in enumerate(profile.coeffs):
            values[i].extend(rho_sigma_q(profile.coeffs,
                                         critical_points(coeffs, profile.interval))[i])

    k = count * math.pi / 2.0
    lam = (max(sigma) * k ** 4 + max(q) * k ** 2) / min(rho)
    return float(lam ** 0.25) + DEFAULT_DS


def solve_modes(system, count, rel_tol=DEFAULT_REL_TOL,
                stations_per_side=DEFAULT_MODE_STATIONS):
    """First `count` eigenpairs, ascending: Galerkin seeds certified by shooting.

    One _probe pass builds every mode at its seed lam_g (of Galerkin degree
    count + 16, so lam_n's last bits depend on count), which is reported if
    its certificate holds.  If one does not, scan's first `count` brackets
    up to suggest_s_max are refined to _lambda_tol(rel_tol) (BracketError
    if fewer) and the mode pass is redone; a refined mode without a
    certificate is a BracketError too.  Mode n must show n - 1 interior
    sign changes of u, else RuntimeError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if stations_per_side < MIN_MODE_STATIONS or stations_per_side % 2 == 0:
        raise ValueError(f"stations_per_side must be odd and >= {MIN_MODE_STATIONS}")
    lams = seed_eigenvalues(system, count)
    xs = np.linspace(-1.0, 0.0, stations_per_side)
    *probe, certified = _probe(system, lams, rel_tol, xs)
    if not certified.all():
        brackets = scan(system, suggest_s_max(system, count))
        if len(brackets) < count:
            raise BracketError(f"scan found {len(brackets)} sign changes, not {count}")
        lams = refine_brackets(system, brackets[:count], _lambda_tol(rel_tol), rel_tol)
        *probe, certified = _probe(system, lams, rel_tol, xs)
    if not certified.all():
        i = int(np.argmin(certified))
        raise BracketError(f"refined mode {i + 1} at lam={lams[i]:g} shows no determinant "
                           "sign change across its certificate bracket")
    pairs = _modes(system, lams, range(1, count + 1), xs, *probe)
    for pair in pairs:
        # u(0) once: the two spans' values of a node there can differ in sign;
        # exact zeros (the hinges) are skipped
        u = np.concatenate([pair.mode_left[:, 0], pair.mode_right[1:, 0]])
        changes = np.count_nonzero(np.diff(np.signbit(u[u != 0.0])))
        if changes != pair.index - 1:
            raise RuntimeError(
                f"mode {pair.index} at lam={pair.lam:g} has {changes} interior sign "
                f"changes, not {pair.index - 1}: the seeds skipped or repeated a root")
    return pairs


@dataclass(frozen=True)
class VerificationReport:
    """Numerical evidence for the spectral claims.

    modes holds the Eigenpairs that were checked, in order, each numbered
    (a pair without an index gets its position, from 1); to_dict reports
    per mode the probe and singular values they carry, and their endpoint
    products.
    """

    modes: tuple
    positivity: bool
    strict_ordering: bool
    orthogonality: np.ndarray
    orthogonality_max_offdiag: float
    rayleigh_max_residual: float
    products_nonvanishing: bool
    products_constant_sign: bool
    sign_left: int
    sign_right: int
    theorem1_consistent: bool
    note: ClassVar[str] = SIGN_NOTE

    def to_dict(self):
        return {
            "positivity": self.positivity,
            "strict_ordering": self.strict_ordering,
            "simplicity": [
                {
                    "n": m.index,
                    "lambda": m.lam,
                    "det_derivative": m.det_derivative,
                    "det_margin": m.det_margin,
                    "sv_smallest": float(m.singular_values[3]),
                    "sv_second": float(m.singular_values[2]),
                    "sv_gap": m.sv_gap,
                }
                for m in self.modes
            ],
            "sign_products": {
                "left": [m.product_left for m in self.modes],
                "right": [m.product_right for m in self.modes],
                "nonvanishing": self.products_nonvanishing,
                "constant_sign": self.products_constant_sign,
                "note": self.note,
            },
            "orthogonality_max_offdiag": self.orthogonality_max_offdiag,
            "rayleigh_max_residual": self.rayleigh_max_residual,
            "step_classes": [m.step_class for m in self.modes],
            "theorem1_consistent": self.theorem1_consistent,
        }


def verify(system, eigenpairs):
    """Check positivity, ordering, simplicity, sign products and orthogonality,
    reading the modes as whole arrays: one _forms call gives the H-Gram
    matrix (h_inner of every pair) and the energies behind
    rayleigh_max_residual (energy_form of each mode with itself)."""
    if len(eigenpairs) < 2:
        raise ValueError("need at least two eigenpairs")
    n = len(eigenpairs)
    modes = tuple(pair if pair.index is not None else replace(pair, index=k + 1)
                  for k, pair in enumerate(eigenpairs))

    # the pairs i <= j, mirrored into the lower triangle
    i, j = np.triu_indices(n)
    gram = np.empty((n, n))
    gram[i, j], energy = _forms(system, eigenpairs, i, j)
    gram[j, i] = gram[i, j]
    offdiag = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))

    lams = [p.lam for p in eigenpairs]
    positivity = all(l > 0 for l in lams)
    ordering = all(b > a for a, b in zip(lams, lams[1:]))
    nonvanishing = all(
        abs(m.product_left) > 1e-10 * m.lam and abs(m.product_right) > 1e-10 * m.lam
        for m in modes)
    sign_left = int(math.copysign(1, modes[0].product_left))
    sign_right = int(math.copysign(1, modes[0].product_right))
    constant_sign = nonvanishing and all(
        math.copysign(1, m.product_left) == sign_left
        and math.copysign(1, m.product_right) == sign_right
        for m in modes)
    simple = all(m.sv_gap >= DEGENERACY_GAP and m.det_margin >= 1e-6 for m in modes)
    consistent = positivity and ordering and simple and nonvanishing and constant_sign

    return VerificationReport(
        modes=modes,
        positivity=positivity,
        strict_ordering=ordering,
        orthogonality=gram,
        orthogonality_max_offdiag=offdiag,
        rayleigh_max_residual=max(abs(lam - e) for lam, e in zip(lams, energy[i == j].tolist())),
        products_nonvanishing=nonvanishing,
        products_constant_sign=constant_sign,
        sign_left=sign_left,
        sign_right=sign_right,
        theorem1_consistent=consistent,
    )
