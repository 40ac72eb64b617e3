"""Characteristic determinant, eigenvalue location and spectral verification.

The joint conditions at x = 0 for a mode u = a*u1 + b*u2 (left span) and
v = c*v1 + d*v2 (right span) form a 4x4 matrix in (a, b, c, d) with the
fixed row order

    R1: u(0) - v(0)
    R2: u'(0) - v'(0)
    R3: sigma_l*u''(0) - sigma_r*v''(0)
    R4: T u(0) - T v(0) + M*lam*u(0)

Eigenvalues are the zeros of its determinant.  Every determinant comes
from one batched DOP853 pass (quasi._batch_final_states) that integrates
the left span next to the right span mirrored onto (-1, 0); past a fixed
growth bound each span's column pair is kept orthonormal, so the
determinant is tracked as (sign, log magnitude) without the cancellation
between the two exponentially growing columns at large lam.  The scan runs
on a uniform grid in s = lam**(1/4), where the roots are asymptotically
equispaced, and reads all determinant signs from one stacked determinant.
The paper's theorem (every eigenvalue is simple) makes each bracket hold
one root, so solve_modes refines all brackets in lock step, one batched
pass per iteration, starting from the determinant values the scan kept at
the bracket ends (refine is the one-bracket case); verify reads the
simplicity slope and the joint step class of every mode from one batched
probe.  solve_modes assembles all its modes from one more batched pass with
stations (eigenpair is the one-lam case): the joint null vector of the last
frames is carried back through the orthonormalisations, so the modes keep
their shape at large lam too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import GRID_POINTS, eval_coeff, mirrored
from .fundamental import LEFT_UNIT_SHEAR, LEFT_UNIT_SLOPE
# perfbench's tracer wraps these two names; the module itself does not call them
from .fundamental import left_fundamental, right_fundamental  # noqa: F401
from .quasi import DEFAULT_REL_TOL, _batch_final_states

DEFAULT_DS = 0.02
DEFAULT_MODE_STATIONS = 257   # per side; keeps Simpson quadrature error ~1e-8
SIGN_CONVENTION_EPS = 1e-12
DEGENERACY_GAP = 1e3

SIGN_NOTE = (
    "published sign conventions for the endpoint products u'*Tu disagree "
    "between sources; this report asserts only that both products are "
    "nonzero with a mode-independent sign, and records the measured signs"
)


class BracketError(ValueError):
    """refine() was handed an interval without a determinant sign change."""


@dataclass(frozen=True)
class InterfaceMatrix:
    """Joint-condition matrix at one lam, stored in per-side scaled form.

    Each span's two columns are its endpoint pair as integrated; once the
    span's growth passed quasi.GROWTH_BOUND they are an orthonormal basis of
    the same plane instead.  Either way the true determinant is
    det(matrix) * exp(sum(col_log_scale)).
    """

    lam: float
    matrix: np.ndarray
    col_log_scale: np.ndarray


@dataclass(frozen=True)
class DeterminantSample:
    """Sign-exact determinant value with magnitude kept in log form."""

    s: float
    lam: float
    sign: int
    log_abs: float

    @property
    def value(self):
        if self.sign == 0:
            return 0.0
        if self.log_abs > 700.0:
            return self.sign * math.inf
        return self.sign * math.exp(self.log_abs)


def _build_matrix(left_states, right_states, mass, lam):
    """Joint matrix from the endpoint pairs; stacks over leading axes.

    left_states and right_states have shape (..., 2, 4) and lam shape (...).
    """
    left = np.swapaxes(left_states, -1, -2).copy()
    left[..., 3, :] += mass * np.asarray(lam)[..., None] * left[..., 0, :]
    return np.concatenate([left, -np.swapaxes(right_states, -1, -2)], axis=-1)


def interface_matrix(system, lam, rel_tol=DEFAULT_REL_TOL):
    """Assemble the 4x4 joint-condition matrix at lam."""
    _, matrices, col_log = _batch_matrices(system, np.array([float(lam)]), rel_tol)
    return InterfaceMatrix(lam=lam, matrix=matrices[0], col_log_scale=col_log[0])


def _signed_log_det(matrices, col_log_scale):
    """(sign, log |det|) of stacked joint matrices (..., 4, 4).

    Columns are normalized to unit max-norm before the determinant, and the
    removed norms join the per-column log scales (..., 4) in the magnitude.
    """
    norms = np.max(np.abs(matrices), axis=-2)
    singular = np.any(norms == 0.0, axis=-1)
    norms = np.where(norms == 0.0, 1.0, norms)
    d = np.linalg.det(matrices / norms[..., None, :])
    d[singular] = 0.0
    sign = np.sign(d).astype(int)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(d)) + np.sum(np.log(norms) + col_log_scale, axis=-1)
    log_abs[sign == 0] = -math.inf
    return sign, log_abs


def char_det(system, lam, rel_tol=DEFAULT_REL_TOL):
    """Characteristic determinant at lam, recorded with s = lam**0.25."""
    _, sign, log_abs = _batch_dets(system, np.array([float(lam)]), rel_tol)
    return DeterminantSample(s=lam ** 0.25, lam=lam, sign=int(sign[0]),
                             log_abs=float(log_abs[0]))


class _Brackets(list):
    """Sign-change brackets of a scan, plus what extending and refining need.

    n is the number of grid points s = j*ds scanned so far, last the
    (s, (sign, log |det|)) of the last one with a nonzero determinant, and
    ends[i] the (sign, log |det|) at the low and at the high end of
    bracket i.
    """

    def __init__(self):
        super().__init__()
        self.n = 0
        self.last = None
        self.ends = []


# the right span's quasi-derivative state from its mirror on (-1, 0):
# (u, u', sigma*u'', Tu) = MIRROR * (v, v', sigma*v'', Tv) with v(x) = u(-x)
MIRROR = np.array([1.0, -1.0, 1.0, -1.0])


def _batch_matrices(system, lams, rel_tol, stations=(0.0,)):
    """Both spans' frames and the joint matrices at every lam, in one batched pass.

    The right span is integrated as its mirror on (-1, 0), next to the left
    span and from the same pinned data (the mirror of the right span's unit
    slope and unit shear at x = +1); sign flips are exact, so its states
    equal those of the right span integrated from x = +1 to the last bit.
    Returns (shot, matrices, col_log): the Shot of the left and the
    mirrored right span (leading axes (2, N)), the joint matrices (N, 4, 4)
    from their last frames, and per-column log scales (N, 4), each column
    carrying half of its span's log scale.
    """
    shot = _batch_final_states((system.left, mirrored(system.right)), lams, -1.0,
                               stations, [LEFT_UNIT_SLOPE, LEFT_UNIT_SHEAR], rel_tol)
    matrices = _build_matrix(shot.frames[0, :, -1], shot.frames[1, :, -1] * MIRROR,
                             system.mass, lams)
    return shot, matrices, np.repeat(shot.log_scale.T / 2.0, 2, axis=-1)


def _batch_dets(system, lams, rel_tol):
    """Endpoint pairs and (sign, log |det|) at every lam, in one batched pass.

    Returns (pairs, sign, log_abs), pairs of shape (2, N, 2, 4) holding the
    left and the mirrored right endpoint pairs.
    """
    shot, matrices, col_log = _batch_matrices(system, lams, rel_tol)
    return (shot.frames[:, :, -1], *_signed_log_det(matrices, col_log))


def _grid_dets(system, s, rel_tol):
    """(sign, log |det|) at every s of a grid, in one batched pass."""
    return _batch_dets(system, s ** 4, rel_tol)[1:]


def _extend_scan(system, brackets, s_max, ds, rel_tol):
    """Add the grid points in (previous ceiling, s_max] to brackets, in place.

    Only the new points are integrated; the signs already found are kept.
    """
    n = int(math.floor(s_max / ds + 1e-9))
    if n <= brackets.n:
        return brackets
    s = ds * np.arange(brackets.n + 1, n + 1)
    sign, log_abs = _grid_dets(system, s, rel_tol)
    for s_j, det in zip(s.tolist(), zip(sign.tolist(), log_abs.tolist())):
        if det[0] == 0:
            # exact zero on a grid point: vanishingly unlikely; skip the point
            # and let the neighbours bracket the root
            continue
        if brackets.last is not None and det[0] != brackets.last[1][0]:
            brackets.append((brackets.last[0], s_j))
            brackets.ends.append((brackets.last[1], det))
        brackets.last = (s_j, det)
    brackets.n = n
    return brackets


def scan(system, s_max, ds=DEFAULT_DS, rel_tol=DEFAULT_REL_TOL):
    """Sign-change brackets of the determinant on the uniform s-grid.

    Roots of fourth-order problems are asymptotically equispaced in
    s = lam**(1/4), so a fine enough ds skips none.  All grid points are
    integrated together (see quasi._batch_final_states).
    """
    if not 0.0 < s_max < math.inf:
        raise ValueError("s_max must be finite and > 0")
    if not 0.0 < ds < math.inf:
        raise ValueError("ds must be finite and > 0")
    return _extend_scan(system, _Brackets(), s_max, ds, rel_tol)


def refine(system, bracket, tol_lambda_rel=1e-10, rel_tol=DEFAULT_REL_TOL):
    """Root of the determinant inside one sign-change bracket, to tol_lambda_rel in lam.

    The one-bracket case of refine_brackets.
    """
    return refine_brackets(system, [bracket], tol_lambda_rel, rel_tol)[0]


def refine_brackets(system, brackets, tol_lambda_rel=1e-10, rel_tol=DEFAULT_REL_TOL,
                    ends=None):
    """Roots inside many sign-change brackets at once, to tol_lambda_rel in lam.

    Eigenvalues are simple, so each bracket holds one root and the brackets
    are independent: all are refined in lock step by Chandrupatla's method
    (_chandrupatla), and every pass evaluates the determinant at one new s
    per unfinished bracket in one batched integration.  ends, when given,
    holds the (sign, log |det|) at the low and the high end of every bracket
    as a scan found them (its ends attribute); they are then not integrated
    again.  Returns the eigenvalues in bracket order.
    """
    s_lo, s_hi = (np.array(side, dtype=float) for side in zip(*brackets))
    n = s_lo.size
    if ends is None:
        _, sign, log_abs = _batch_dets(system, np.concatenate([s_lo, s_hi]) ** 4, rel_tol)
    else:
        # low ends first, then high ends, as in the pass above
        sign, log_abs = np.array(ends, dtype=float).T.reshape(2, -1)
        sign = sign.astype(int)
    bad = np.flatnonzero(sign[:n] * sign[n:] >= 0)
    if bad.size:
        i = bad[0]
        raise BracketError(
            f"determinant does not change sign on [{s_lo[i]:g}, {s_hi[i]:g}]")
    ref = np.maximum(log_abs[:n], log_abs[n:])
    f = sign * np.exp(np.minimum(log_abs - np.tile(ref, 2), 700.0))

    def descaled(s, running):
        _, sign, log_abs = _batch_dets(system, s ** 4, rel_tol)
        return sign * np.exp(np.minimum(log_abs - ref[running], 700.0))

    # xrtol is relative in s, and lam = s**4 has four times the relative
    # error: /4 would just meet tol_lambda_rel, /40 leaves a factor of ten
    s, converged = _chandrupatla(descaled, s_lo, s_hi, f[:n], f[n:], xatol=1e-14,
                                 xrtol=max(tol_lambda_rel / 40.0, 4e-16))
    if not np.all(converged):
        i = int(np.flatnonzero(~converged)[0])
        raise RuntimeError(f"root refinement failed on [{s_lo[i]:g}, {s_hi[i]:g}]")
    return (s ** 4).tolist()


def _chandrupatla(func, x1, x2, f1, f2, xatol, xrtol):
    """Roots of func in the brackets [x1, x2], elementwise (Chandrupatla 1997).

    f1 and f2 are func at x1 and x2, of opposite signs.  func(x, running)
    gets the trial points of the brackets still running and their indices.
    A port of the Chandrupatla step of scipy.optimize.elementwise.find_root
    at fatol = smallest normal, frtol = 0: the same update order and
    tolerances, so each root has the bits find_root gives.  Returns the
    roots and whether each converged (a root that did not is nan).
    """
    n = x1.size
    x, converged = np.full(n, math.nan), np.zeros(n, dtype=bool)
    running = np.arange(n)
    x3 = f3 = None
    t = 0.5
    fatol = np.finfo(float).smallest_normal
    # find_root's default cap: log2(max) - log2(smallest normal) evaluations
    for evaluations in range(2047):
        # Chandrupatla's termination test; x_min is the end with smaller |f|
        i = np.abs(f1) < np.abs(f2)
        x_min, f_min = np.where(i, x1, x2), np.where(i, f1, f2)
        small = np.abs(f_min) <= fatol
        invalid = ~small & ((np.sign(f1) == np.sign(f2))
                            | ~(np.isfinite(x1) & np.isfinite(x2))
                            | (np.isnan(f1) & np.isnan(f2)))
        x_min[invalid] = math.nan
        dx = np.abs(x2 - x1)
        tol = np.abs(x_min) * xrtol + xatol
        done = small | (dx < tol)
        stop = done | invalid
        x[running[stop]], converged[running[stop]] = x_min[stop], done[stop]
        go = ~stop
        running = running[go]
        if not running.size or evaluations == 2046:
            break
        x1, f1, x2, f2, dx, tol = x1[go], f1[go], x2[go], f2[go], dx[go], tol[go]
        if x3 is not None:
            x3, f3 = x3[go], f3[go]
            # inverse quadratic interpolation where it is safe, else bisection
            xi1 = (x1 - x2) / (x3 - x2)
            with np.errstate(divide="ignore", invalid="ignore"):
                phi1 = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            j = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
            f1j, f2j, f3j, alphaj = f1[j], f2[j], f3[j], alpha[j]
            t = np.full_like(alpha, 0.5)
            t[j] = (f1j / (f1j - f2j) * f3j / (f3j - f2j)
                    - alphaj * f1j / (f3j - f1j) * f2j / (f2j - f3j))
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
        x_new = x1 + t * (x2 - x1)
        f_new = func(x_new, running)
        # keep the sign change in [x1, x2]; x3 is the end dropped
        x3, f3 = x2.copy(), f2.copy()
        same = np.sign(f_new) == np.sign(f1)
        x3[same], f3[same] = x1[same], f1[same]
        x2[~same], f2[~same] = x1[~same], f1[~same]
        x1, f1 = x_new, f_new
    return x, converged


@dataclass(frozen=True)
class Eigenpair:
    """One normalized mode: eigenvalue, joint null vector, dense samples.

    coeffs = (a, b, c, d) has unit Euclidean norm with the sign convention
    a >= 0 (b > 0 when a vanishes).  Mode samples are scaled separately to
    unit H-norm, i.e. samples = (a*u1 + b*u2, c*v1 + d*v2) / ||.||_H;
    each sample row is (u, u', sigma*u'', Tu).
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

    @property
    def sv_gap(self):
        sv = self.singular_values
        return float(sv[2] / max(sv[3], 1e-300))


def _simpson(y, x):
    """Composite Simpson rule over an odd number of stations x.

    scipy.integrate.simpson's formula for (possibly uneven) spacings, term
    for term, so the result has its bits.
    """
    if x.size % 2 == 0:
        raise ValueError("Simpson's rule needs an odd number of stations")
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, ratio = h0 + h1, h0 / h1
    return np.sum(hsum / 6.0 * (y[:-2:2] * (2.0 - 1.0 / ratio)
                                + y[1::2] * (hsum * (hsum / (h0 * h1)))
                                + y[2::2] * (2.0 - ratio)))


def eigenpair(system, lam, rel_tol=DEFAULT_REL_TOL,
              stations_per_side=DEFAULT_MODE_STATIONS, index=None):
    """Assemble the normalized mode at a refined eigenvalue lam.

    The one-lam case of the assembly in solve_modes, with the same bits.
    """
    return _eigenpairs(system, [lam], rel_tol, stations_per_side, [index])[0]


def _eigenpairs(system, lams, rel_tol, stations_per_side, indices):
    """Normalized modes at refined eigenvalues lams, from one batched pass.

    Both spans are integrated to stations_per_side stations as in
    _batch_matrices.  The joint null vector comes from the last frames and
    is carried back one epoch at a time, c_(j-1) = R_j^-1 c_j, each R_j
    being upper triangular with a positive diagonal; the R_j grow in the
    direction of integration, so this recursion is stable.  A station of
    epoch e then holds the mode as its frame times c_e.
    """
    if stations_per_side < 129 or stations_per_side % 2 == 0:
        raise ValueError("stations_per_side must be odd and >= 129")
    lams = np.asarray(lams, dtype=float)
    xs = np.linspace(-1.0, 0.0, stations_per_side)
    shot, matrices, _ = _batch_matrices(system, lams, rel_tol, xs)
    norms = np.max(np.abs(matrices), axis=-2)
    norms[norms == 0.0] = 1.0
    _, svals, vt = np.linalg.svd(matrices / norms[:, None, :])
    # coeffs[span, entry, epoch]: the span's pair coefficients in that epoch
    r = shot.r_factors
    coeffs = np.empty(r.shape[:3] + (2,))
    coeffs[..., -1, :] = (vt[:, -1] / norms).reshape(-1, 2, 2).swapaxes(0, 1)
    for j in range(r.shape[2] - 1, 0, -1):
        c2 = coeffs[..., j, 1] / r[..., j, 1, 1]
        coeffs[..., j - 1, 1] = c2
        coeffs[..., j - 1, 0] = (coeffs[..., j, 0] - r[..., j, 0, 1] * c2) / r[..., j, 0, 0]
    per_station = np.take_along_axis(coeffs, shot.epochs[..., None], axis=2)
    modes = (per_station[..., :1] * shot.frames[..., 0, :]
             + per_station[..., 1:] * shot.frames[..., 1, :])
    xs_r = -xs[::-1] + 0.0      # + 0.0: x = 0 as 0.0, not -0.0
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
        u0 = float(mode_l[-1, 0])
        h_sq = (_simpson(eval_coeff(system.left, "rho", xs) * mode_l[:, 0] ** 2, xs)
                + _simpson(eval_coeff(system.right, "rho", xs_r) * mode_r[:, 0] ** 2, xs_r)
                + system.mass * u0 ** 2)
        h = sign * math.sqrt(h_sq)
        mode_l, mode_r, u0 = mode_l / h, mode_r / h, u0 / h
        wl, wr = mode_l[-1], mode_r[0]
        residual = wl - wr
        residual[3] += system.mass * lam * wl[0]
        # one common scale for all four rows: the joint-state magnitude
        scale = max(float(np.max(np.abs(wl))), float(np.max(np.abs(wr))),
                    abs(system.mass * lam * wl[0]), 1e-300)
        pairs.append(Eigenpair(index=index, lam=lam, coeffs=sign * c, xs_left=xs,
                               mode_left=mode_l, xs_right=xs_r, mode_right=mode_r, u0=u0,
                               interface_residuals=np.abs(residual) / scale,
                               singular_values=sv))
    return pairs


def _check_same_stations(phi, psi):
    if (len(phi.xs_left) != len(psi.xs_left)
            or not np.allclose(phi.xs_left, psi.xs_left)
            or not np.allclose(phi.xs_right, psi.xs_right)):
        raise ValueError("modes must be sampled on the same stations")


def h_inner(system, phi, psi):
    """Weighted product int(rho_l u u) + int(rho_r v v) + M u(0) u(0)."""
    _check_same_stations(phi, psi)
    rho_l = eval_coeff(system.left, "rho", phi.xs_left)
    rho_r = eval_coeff(system.right, "rho", phi.xs_right)
    return float(
        _simpson(rho_l * phi.mode_left[:, 0] * psi.mode_left[:, 0], phi.xs_left)
        + _simpson(rho_r * phi.mode_right[:, 0] * psi.mode_right[:, 0], phi.xs_right)
        + system.mass * phi.u0 * psi.u0
    )


def energy_form(system, phi, psi):
    """int(sigma u'' u'') + int(q u' u') over both spans (u'' from w3/sigma)."""
    _check_same_stations(phi, psi)
    out = 0.0
    for side, xs, m_phi, m_psi in (
        (system.left, phi.xs_left, phi.mode_left, psi.mode_left),
        (system.right, phi.xs_right, phi.mode_right, psi.mode_right),
    ):
        sig = eval_coeff(side, "sigma", xs)
        q = eval_coeff(side, "q", xs)
        out += _simpson(m_phi[:, 2] * m_psi[:, 2] / sig, xs)
        out += _simpson(q * m_phi[:, 1] * m_psi[:, 1], xs)
    return float(out)


def probe(system, lams, rel_tol=DEFAULT_REL_TOL, rel_step=1e-4, vanish_rel=1e-6):
    """Simplicity slope, margin and joint step class at every lam, batched.

    One batched integration covers s - h, s and s + h for every lam
    (s = lam**0.25, h = max(s, 1) * rel_step).  Returns three arrays:

    * slope: centred difference in s of the determinant, descaled by the
      larger of its two log magnitudes;
    * margin = |f+ - f-| / (|f+| + |f-|), a dimensionless simplicity
      indicator: ~1 at a simple root (the two side values have opposite
      signs), ~0 at a double root;
    * step class, the regime of the slope subwronskians at the joint, read
      from the endpoint pairs at lam: 1 when both spans' slope pairings are
      nonzero at x = 0, 2 when both vanish (relative to their own triple's
      scale), 3 when exactly one vanishes.
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.size
    s = lams ** 0.25
    h = np.maximum(s, 1.0) * rel_step
    pairs, sign, log_abs = _batch_dets(
        system, np.concatenate([(s - h) ** 4, lams, (s + h) ** 4]), rel_tol)
    ref = np.maximum(log_abs[:n], log_abs[2 * n:])
    f_lo = sign[:n] * np.exp(np.minimum(log_abs[:n] - ref, 700.0))
    f_hi = sign[2 * n:] * np.exp(np.minimum(log_abs[2 * n:] - ref, 700.0))
    slope = (f_hi - f_lo) / (2.0 * h)
    margin = np.abs(f_hi - f_lo) / (np.abs(f_hi) + np.abs(f_lo) + 1e-300)

    # pairings of the two columns at x = 0 on both spans (the mirror flips
    # the sign of the slope and shear pairings, which the test ignores);
    # an orthonormalised pair gives them divided by det R > 0, a factor
    # common to the three that cancels in the relative test
    wa, wb = np.moveaxis(pairs[:, n:2 * n], (2, 3), (0, 1))
    sigma = np.array([[eval_coeff(system.left, "sigma", 0.0)],
                      [eval_coeff(system.right, "sigma", 0.0)]])
    slope_pairing = wa[0] * wb[1] - wb[0] * wa[1]
    curvature = (wa[0] * wb[2] - wb[0] * wa[2]) / sigma
    shear = wa[0] * wb[3] - wb[0] * wa[3]
    scale = np.max(np.abs([slope_pairing, curvature, shear]), axis=0)
    vanished = np.sum(np.abs(slope_pairing) <= vanish_rel * scale, axis=0)
    step_class = np.array([1, 3, 2])[vanished]
    return slope, margin, step_class


def det_slope(system, lam, rel_tol=DEFAULT_REL_TOL, rel_step=1e-4):
    """(slope, margin) of the determinant at lam: the one-lam case of probe."""
    slope, margin, _ = probe(system, [lam], rel_tol, rel_step)
    return float(slope[0]), float(margin[0])


def step_classify(system, lam, rel_tol=DEFAULT_REL_TOL, vanish_rel=1e-6):
    """Step class (1, 2 or 3) of the joint at lam: the one-lam case of probe."""
    return int(probe(system, [lam], rel_tol, vanish_rel=vanish_rel)[2][0])


def suggest_s_max(system, count):
    """Scan ceiling for the requested mode count.

    Uses the heuristic (count + 2) * pi/2 * max(sigma/rho)**(1/4); validated
    against the finite-element oracle rather than any asymptotic formula.
    """
    ratio = 0.0
    for profile in (system.left, system.right):
        lo, hi = profile.interval
        xs = np.linspace(lo, hi, GRID_POINTS)
        sig = eval_coeff(profile, "sigma", xs)
        rho = eval_coeff(profile, "rho", xs)
        ratio = max(ratio, float(np.max(sig / rho)))
    return (count + 2) * (math.pi / 2.0) * ratio ** 0.25


def solve_modes(system, count, rel_tol=DEFAULT_REL_TOL, ds=DEFAULT_DS,
                stations_per_side=DEFAULT_MODE_STATIONS):
    """First `count` eigenpairs, ascending, via scan + refine_brackets + assembly."""
    if count < 1:
        raise ValueError("count must be >= 1")
    s_max = suggest_s_max(system, count)
    brackets = scan(system, s_max, ds, rel_tol)
    tries = 0
    while len(brackets) < count and tries < 6:
        s_max *= 1.3
        brackets = _extend_scan(system, brackets, s_max, ds, rel_tol)
        tries += 1
    if len(brackets) < count:
        raise RuntimeError(
            f"found only {len(brackets)} determinant roots below s={s_max:g}")
    lams = refine_brackets(system, brackets[:count], rel_tol=rel_tol,
                           ends=brackets.ends[:count])
    return _eigenpairs(system, lams, rel_tol, stations_per_side, range(1, count + 1))


@dataclass(frozen=True)
class ModeVerification:
    index: int
    lam: float
    det_derivative: float
    det_margin: float
    sv_smallest: float
    sv_second: float
    sv_gap: float
    product_left: float
    product_right: float
    step_class: int
    rayleigh_residual: float


@dataclass(frozen=True)
class VerificationReport:
    """Numerical evidence for the spectral claims, one entry per mode."""

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
    note: str = SIGN_NOTE

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
                    "sv_smallest": m.sv_smallest,
                    "sv_second": m.sv_second,
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


def verify(system, eigenpairs, rel_tol=DEFAULT_REL_TOL):
    """Check positivity, ordering, simplicity, sign products and orthogonality."""
    if len(eigenpairs) < 2:
        raise ValueError("need at least two eigenpairs")
    n = len(eigenpairs)
    slopes, margins, classes = probe(system, [p.lam for p in eigenpairs], rel_tol)
    modes = []
    for k, pair in enumerate(eigenpairs):
        sv = pair.singular_values
        p_left = float(pair.mode_left[0, 1] * pair.mode_left[0, 3])
        p_right = float(pair.mode_right[-1, 1] * pair.mode_right[-1, 3])
        energy = energy_form(system, pair, pair)
        modes.append(ModeVerification(
            index=pair.index if pair.index is not None else k + 1,
            lam=pair.lam,
            det_derivative=float(slopes[k]),
            det_margin=float(margins[k]),
            sv_smallest=float(sv[3]),
            sv_second=float(sv[2]),
            sv_gap=pair.sv_gap,
            product_left=p_left,
            product_right=p_right,
            step_class=int(classes[k]),
            rayleigh_residual=abs(pair.lam - energy),
        ))

    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = h_inner(system, eigenpairs[i], eigenpairs[j])
    offdiag = float(np.max(np.abs(gram - np.diag(np.diag(gram))))) if n > 1 else 0.0

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
        modes=tuple(modes),
        positivity=positivity,
        strict_ordering=ordering,
        orthogonality=gram,
        orthogonality_max_offdiag=offdiag,
        rayleigh_max_residual=max(m.rayleigh_residual for m in modes),
        products_nonvanishing=nonvanishing,
        products_constant_sign=constant_sign,
        sign_left=sign_left,
        sign_right=sign_right,
        theorem1_consistent=consistent,
    )
