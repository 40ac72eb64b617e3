"""Characteristic determinant, eigenvalue location and spectral verification.

The joint conditions at x = 0 for a mode u = a*u1 + b*u2 (left span) and
v = c*v1 + d*v2 (right span) form a 4x4 matrix in (a, b, c, d) with the
fixed row order

    R1: u(0) - v(0)
    R2: u'(0) - v'(0)
    R3: sigma_l*u''(0) - sigma_r*v''(0)
    R4: T u(0) - T v(0) + M*lam*u(0)

Eigenvalues are the zeros of its determinant.  The determinant is tracked
as (sign, log magnitude) so the sign survives the exponential growth of the
fundamental solutions at large lam.  The scan runs on a uniform grid in
s = lam**(1/4), where the roots are asymptotically equispaced; it
integrates every grid point of a span in one batched pass and reads all
determinant signs from one stacked determinant.  Refinement (Brent), the
simplicity slope and mode assembly evaluate one lam at a time on the
scalar DOP853 path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from .config import GRID_POINTS, horner
from .fundamental import (
    LEFT_UNIT_SHEAR,
    LEFT_UNIT_SLOPE,
    RIGHT_UNIT_SHEAR,
    RIGHT_UNIT_SLOPE,
    left_fundamental,
    right_fundamental,
    subwronskians,
)
from .quasi import DEFAULT_REL_TOL, _batch_final_states, _final_states

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

    True column j = matrix[:, j] * exp(col_log_scale[j]).
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


def _endpoint_columns(system, lam, rel_tol):
    left, log_l = _final_states(system.left, lam, -1.0, 0.0,
                                [LEFT_UNIT_SLOPE, LEFT_UNIT_SHEAR], rel_tol)
    right, log_r = _final_states(system.right, lam, 1.0, 0.0,
                                 [RIGHT_UNIT_SLOPE, RIGHT_UNIT_SHEAR], rel_tol)
    return left, log_l, right, log_r


def _build_matrix(left_states, right_states, mass, lam):
    """Joint matrix from the endpoint pairs; stacks over leading axes.

    left_states and right_states have shape (..., 2, 4) and lam shape (...).
    """
    left = np.swapaxes(left_states, -1, -2).copy()
    left[..., 3, :] += mass * np.asarray(lam)[..., None] * left[..., 0, :]
    return np.concatenate([left, -np.swapaxes(right_states, -1, -2)], axis=-1)


def interface_matrix(system, lam, rel_tol=DEFAULT_REL_TOL):
    """Assemble the 4x4 joint-condition matrix at lam."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    left, log_l, right, log_r = _endpoint_columns(system, lam, rel_tol)
    matrix = _build_matrix(left, right, system.mass, lam)
    return InterfaceMatrix(
        lam=lam,
        matrix=matrix,
        col_log_scale=np.array([log_l, log_l, log_r, log_r]),
    )


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


def _det_at_s(system, s, rel_tol):
    lam = s ** 4
    imat = interface_matrix(system, lam, rel_tol)
    sign, log_abs = _signed_log_det(imat.matrix[None], imat.col_log_scale[None])
    return DeterminantSample(s=s, lam=lam, sign=int(sign[0]), log_abs=float(log_abs[0]))


def char_det(system, lam, rel_tol=DEFAULT_REL_TOL):
    """Characteristic determinant at lam (recorded at lam = s**4, s = lam**0.25)."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return _det_at_s(system, lam ** 0.25, rel_tol)


class _Brackets(list):
    """Sign-change brackets of a scan, plus what extending its grid needs.

    n is the number of grid points s = j*ds scanned so far and last the
    (s, sign) of the last one with a nonzero determinant.
    """

    n = 0
    last = None


def _grid_signs(system, s, rel_tol):
    """Determinant signs at every s of a grid, in one batched pass per span."""
    lams = s ** 4
    left, log_l = _batch_final_states(system.left, lams, -1.0, 0.0,
                                      [LEFT_UNIT_SLOPE, LEFT_UNIT_SHEAR], rel_tol)
    right, log_r = _batch_final_states(system.right, lams, 1.0, 0.0,
                                       [RIGHT_UNIT_SLOPE, RIGHT_UNIT_SHEAR], rel_tol)
    col_log = np.stack([log_l, log_l, log_r, log_r], axis=-1)
    sign, _ = _signed_log_det(_build_matrix(left, right, system.mass, lams), col_log)
    return sign


def _extend_scan(system, brackets, s_max, ds, rel_tol):
    """Add the grid points in (previous ceiling, s_max] to brackets, in place.

    Only the new points are integrated; the signs already found are kept.
    """
    n = int(math.floor(s_max / ds + 1e-9))
    if n <= brackets.n:
        return brackets
    s = ds * np.arange(brackets.n + 1, n + 1)
    for s_j, sign in zip(s.tolist(), _grid_signs(system, s, rel_tol).tolist()):
        if sign == 0:
            # exact zero on a grid point: vanishingly unlikely; skip the point
            # and let the neighbours bracket the root
            continue
        if brackets.last is not None and sign != brackets.last[1]:
            brackets.append((brackets.last[0], s_j))
        brackets.last = (s_j, sign)
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
    """Root of the determinant inside a sign-change bracket, to tol_lambda_rel in lam."""
    s_lo, s_hi = bracket
    d_lo = _det_at_s(system, s_lo, rel_tol)
    d_hi = _det_at_s(system, s_hi, rel_tol)
    if d_lo.sign * d_hi.sign >= 0:
        raise BracketError(
            f"determinant does not change sign on [{s_lo:g}, {s_hi:g}]")
    ref = max(d_lo.log_abs, d_hi.log_abs)

    def descaled(s):
        d = _det_at_s(system, s, rel_tol)
        if d.sign == 0:
            return 0.0
        return d.sign * math.exp(min(d.log_abs - ref, 700.0))

    s_root = brentq(descaled, s_lo, s_hi, xtol=1e-14,
                    rtol=max(tol_lambda_rel / 4.0, 4e-16))
    return s_root ** 4


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
    h_norm: float
    interface_residuals: np.ndarray
    singular_values: np.ndarray

    @property
    def sv_gap(self):
        sv = self.singular_values
        return float(sv[2] / max(sv[3], 1e-300))


def _coeff_samples(profile, xs, name):
    return np.polynomial.polynomial.polyval(xs, getattr(profile, name))


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
    rho_l = _coeff_samples(system.left, xs_l, "rho")
    rho_r = _coeff_samples(system.right, xs_r, "rho")
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
        h_norm=1.0,
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
    rho_l = _coeff_samples(system.left, phi.xs_left, "rho")
    rho_r = _coeff_samples(system.right, phi.xs_right, "rho")
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
        sig = _coeff_samples(side, xs, "sigma")
        q = np.maximum(_coeff_samples(side, xs, "q"), 0.0)
        out += simpson(m_phi[:, 2] * m_psi[:, 2] / sig, x=xs)
        out += simpson(q * m_phi[:, 1] * m_psi[:, 1], x=xs)
    return float(out)


def det_slope(system, lam, rel_tol=DEFAULT_REL_TOL, rel_step=1e-4):
    """Centred-difference slope of the descaled determinant in s at lam.

    Returns (slope, margin) where margin = |f+ - f-| / (|f+| + |f-|) is a
    dimensionless simplicity indicator: ~1 at a simple root (the two side
    values have opposite signs), ~0 at a double root.
    """
    s = lam ** 0.25
    h = max(s, 1.0) * rel_step
    lo = _det_at_s(system, s - h, rel_tol)
    hi = _det_at_s(system, s + h, rel_tol)
    ref = max(lo.log_abs, hi.log_abs)
    f_lo = lo.sign * math.exp(min(lo.log_abs - ref, 700.0))
    f_hi = hi.sign * math.exp(min(hi.log_abs - ref, 700.0))
    slope = (f_hi - f_lo) / (2.0 * h)
    margin = abs(f_hi - f_lo) / (abs(f_hi) + abs(f_lo) + 1e-300)
    return slope, margin


def step_classify(system, lam, rel_tol=DEFAULT_REL_TOL, vanish_rel=1e-6):
    """Regime of the slope subwronskians at the joint: 1, 2 or 3.

    1: both spans' slope pairings are nonzero at x = 0;
    2: both vanish (relative to their own triple's scale);
    3: exactly one vanishes.
    """
    vanished = []
    for build in (left_fundamental, right_fundamental):
        t = subwronskians(build(system, lam, rel_tol), 0.0)
        scale = max(abs(t.slope), abs(t.curvature), abs(t.shear))
        vanished.append(abs(t.slope) <= vanish_rel * scale)
    if not vanished[0] and not vanished[1]:
        return 1
    if vanished[0] and vanished[1]:
        return 2
    return 3


def suggest_s_max(system, count):
    """Scan ceiling for the requested mode count.

    Uses the heuristic (count + 2) * pi/2 * max(sigma/rho)**(1/4); validated
    against the finite-element oracle rather than any asymptotic formula.
    """
    ratio = 0.0
    for profile in (system.left, system.right):
        lo, hi = profile.interval
        xs = np.linspace(lo, hi, GRID_POINTS)
        sig = np.polynomial.polynomial.polyval(xs, profile.sigma)
        rho = np.polynomial.polynomial.polyval(xs, profile.rho)
        ratio = max(ratio, float(np.max(sig / rho)))
    return (count + 2) * (math.pi / 2.0) * ratio ** 0.25


def solve_modes(system, count, rel_tol=DEFAULT_REL_TOL, ds=DEFAULT_DS,
                stations_per_side=DEFAULT_MODE_STATIONS):
    """First `count` eigenpairs, ascending, via scan + refine + assembly."""
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
    pairs = []
    for i, bracket in enumerate(brackets[:count]):
        lam = refine(system, bracket, rel_tol=rel_tol)
        pairs.append(eigenpair(system, lam, rel_tol, stations_per_side, index=i + 1))
    return pairs


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
    modes = []
    for k, pair in enumerate(eigenpairs):
        slope, margin = det_slope(system, pair.lam, rel_tol)
        sv = pair.singular_values
        p_left = float(pair.mode_left[0, 1] * pair.mode_left[0, 3])
        p_right = float(pair.mode_right[-1, 1] * pair.mode_right[-1, 3])
        energy = energy_form(system, pair, pair)
        modes.append(ModeVerification(
            index=pair.index if pair.index is not None else k + 1,
            lam=pair.lam,
            det_derivative=slope,
            det_margin=margin,
            sv_smallest=float(sv[3]),
            sv_second=float(sv[2]),
            sv_gap=pair.sv_gap,
            product_left=p_left,
            product_right=p_right,
            step_class=step_classify(system, pair.lam, rel_tol),
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
