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
probe.  Mode assembly (eigenpair) integrates on the scalar DOP853 path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.optimize.elementwise import find_root

from .config import GRID_POINTS, eval_coeff, mirrored
from .fundamental import LEFT_UNIT_SHEAR, LEFT_UNIT_SLOPE, left_fundamental, right_fundamental
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


def _batch_matrices(system, lams, rel_tol):
    """Endpoint pairs and joint matrices at every lam, in one batched pass.

    The right span is integrated as its mirror on (-1, 0), next to the left
    span and from the same pinned data (the mirror of the right span's unit
    slope and unit shear at x = +1); sign flips are exact, so its endpoint
    states equal those of the right span integrated from x = +1 to the last
    bit.  Returns (pairs, matrices, col_log): pairs of shape (2, N, 2, 4)
    holding the left and the mirrored right endpoint pairs, the joint
    matrices (N, 4, 4), and per-column log scales (N, 4), each column
    carrying half of its span's log scale.
    """
    pairs, log_scale = _batch_final_states(
        (system.left, mirrored(system.right)), lams, -1.0, 0.0,
        [LEFT_UNIT_SLOPE, LEFT_UNIT_SHEAR], rel_tol)
    matrices = _build_matrix(pairs[0], pairs[1] * MIRROR, system.mass, lams)
    return pairs, matrices, np.repeat(log_scale.T / 2.0, 2, axis=-1)


def _batch_dets(system, lams, rel_tol):
    """Endpoint pairs and (sign, log |det|) at every lam, in one batched pass.

    Returns (pairs, sign, log_abs), pairs as from _batch_matrices.
    """
    pairs, matrices, col_log = _batch_matrices(system, lams, rel_tol)
    return (pairs, *_signed_log_det(matrices, col_log))


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
    if s_max <= 0:
        raise ValueError("s_max must be > 0")
    if ds <= 0:
        raise ValueError("ds must be > 0")
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
    (scipy.optimize.elementwise.find_root), and every pass evaluates the
    determinant at one new s per unfinished bracket in one batched
    integration.  ends, when given, holds the (sign, log |det|) at the low
    and the high end of every bracket as a scan found them (its ends
    attribute); they are then not integrated again.  Returns the
    eigenvalues in bracket order.
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
    # find_root evaluates the bracket ends before it iterates; serve those
    # calls from the values above instead of integrating again
    at_ends = dict(zip(s_lo.tolist() + s_hi.tolist(), zip(sign.tolist(), log_abs.tolist())))

    def descaled(s, ref):
        points = s.tolist()
        if all(x in at_ends for x in points):
            sign, log_abs = (np.array(v) for v in zip(*(at_ends[x] for x in points)))
        else:
            _, sign, log_abs = _batch_dets(system, s ** 4, rel_tol)
        return sign * np.exp(np.minimum(log_abs - ref, 700.0))

    # xrtol is relative in s, and lam = s**4 has four times the relative
    # error: /4 would just meet tol_lambda_rel, /40 leaves a factor of ten
    res = find_root(descaled, (s_lo, s_hi), args=(ref,),
                    tolerances={"xatol": 1e-14,
                                "xrtol": max(tol_lambda_rel / 40.0, 4e-16)})
    if not np.all(res.success):
        i = int(np.flatnonzero(~res.success)[0])
        raise RuntimeError(f"root refinement failed on [{s_lo[i]:g}, {s_hi[i]:g}] "
                           f"(status {int(res.status[i])})")
    return (res.x ** 4).tolist()


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


def eigenpair(system, lam, rel_tol=DEFAULT_REL_TOL,
              stations_per_side=DEFAULT_MODE_STATIONS, index=None):
    """Assemble the normalized mode at a refined eigenvalue lam."""
    if stations_per_side < 129 or stations_per_side % 2 == 0:
        raise ValueError("stations_per_side must be odd and >= 129")
    lf = left_fundamental(system, lam, rel_tol, stations_per_side)
    rf = right_fundamental(system, lam, rel_tol, stations_per_side)

    left_states = np.vstack([lf.unit_slope.final_state, lf.unit_shear.final_state])
    right_states = np.vstack([rf.unit_slope.final_state, rf.unit_shear.final_state])
    matrix = _build_matrix(left_states, right_states, system.mass, lam)
    col_log = np.array([lf.unit_slope.log_scale] * 2 + [rf.unit_slope.log_scale] * 2)

    norms = np.max(np.abs(matrix), axis=0)
    norms[norms == 0.0] = 1.0
    _, svals, vt = np.linalg.svd(matrix / norms)
    if svals[2] < DEGENERACY_GAP * svals[3]:
        warnings.warn(
            f"near-degenerate joint matrix at lam={lam:g}: "
            f"singular values {svals}", RuntimeWarning)

    coeffs = vt[-1] / (norms * np.exp(col_log - col_log.max()))
    coeffs = coeffs / np.linalg.norm(coeffs)
    if coeffs[0] < -SIGN_CONVENTION_EPS or (
            abs(coeffs[0]) <= SIGN_CONVENTION_EPS and coeffs[1] < 0):
        coeffs = -coeffs

    scale_l = math.exp(lf.unit_slope.log_scale)
    scale_r = math.exp(rf.unit_slope.log_scale)
    xs_l = lf.unit_slope.xs
    mode_l = (coeffs[0] * lf.unit_slope.states
              + coeffs[1] * lf.unit_shear.states) * scale_l
    xs_r = rf.unit_slope.xs[::-1].copy()
    mode_r = ((coeffs[2] * rf.unit_slope.states
               + coeffs[3] * rf.unit_shear.states) * scale_r)[::-1].copy()

    u0 = float(mode_l[-1, 0])
    rho_l = eval_coeff(system.left, "rho", xs_l)
    rho_r = eval_coeff(system.right, "rho", xs_r)
    h_sq = (simpson(rho_l * mode_l[:, 0] ** 2, x=xs_l)
            + simpson(rho_r * mode_r[:, 0] ** 2, x=xs_r)
            + system.mass * u0 ** 2)
    h = math.sqrt(h_sq)
    mode_l /= h
    mode_r /= h
    u0 /= h

    wl = mode_l[-1]
    wr = mode_r[0]
    residual = np.array([
        wl[0] - wr[0],
        wl[1] - wr[1],
        wl[2] - wr[2],
        wl[3] - wr[3] + system.mass * lam * wl[0],
    ])
    # one common scale for all four rows: the joint-state magnitude
    scale = max(float(np.max(np.abs(wl))), float(np.max(np.abs(wr))),
                abs(system.mass * lam * wl[0]), 1e-300)
    rel_residual = np.abs(residual) / scale

    return Eigenpair(
        index=index,
        lam=lam,
        coeffs=coeffs,
        xs_left=xs_l,
        mode_left=mode_l,
        xs_right=xs_r,
        mode_right=mode_r,
        u0=u0,
        interface_residuals=rel_residual,
        singular_values=svals,
    )


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
        simpson(rho_l * phi.mode_left[:, 0] * psi.mode_left[:, 0], x=phi.xs_left)
        + simpson(rho_r * phi.mode_right[:, 0] * psi.mode_right[:, 0], x=phi.xs_right)
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
        out += simpson(m_phi[:, 2] * m_psi[:, 2] / sig, x=xs)
        out += simpson(q * m_phi[:, 1] * m_psi[:, 1], x=xs)
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
    return [eigenpair(system, lam, rel_tol, stations_per_side, index=i + 1)
            for i, lam in enumerate(lams)]


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
