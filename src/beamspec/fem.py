"""Independent finite-element eigenvalue oracle (cubic Hermite elements).

Conforming C1 cubic Hermite elements on a uniform mesh per span, two DOFs
(u, u') per node.  The node at x = 0 is shared, so continuity of u and u'
across the joint is built in; moment continuity and moment-free ends are
natural conditions of the weak form.  The point mass enters as a single
addition of M to the diagonal mass-matrix entry of the joint displacement
DOF.  Hinged supports remove the displacement DOFs at x = -1 and x = +1.

The discrete problem is the symmetric-definite pencil K a = lam B a with

    K[i,j] = int sigma phi_i'' phi_j'' + int q phi_i' phi_j'
    B[i,j] = int rho  phi_i  phi_j     (+ M at the joint displacement DOF)

config.rho_sigma_q evaluates the coefficients once, at every element's Gauss points.
K and B have half-bandwidth 3 and are stored in band form.  A shift-invert
subspace iteration on the pencil supplies the eigenvectors only; each
eigenvalue is the Rayleigh quotient of its own eigenvector, summed over
elements and Gauss points as nonnegative terms (see `solve_generalized`).
Eigenvalues converge at fourth order in the mesh size, so two meshes give a
Richardson-extrapolated reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import rho_sigma_q

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(5)
_GAUSS_LOCAL = 0.5 * (_GAUSS_NODES + 1.0)   # Gauss points on [0, 1]
MAX_STEPS = 50   # subspace iteration steps before the solve gives up


class DefinitenessError(RuntimeError):
    """An assembled matrix is not symmetric or not positive definite."""


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled constrained matrices, DOF bookkeeping and quadrature data.

    sigma, q (clamped) and rho hold the coefficients at the Gauss points,
    one row per element; the element matrices were built from them and the
    Rayleigh quotients of `solve_generalized` read them again.
    """

    elements_per_side: int
    stiffness: np.ndarray     # (DOFs, 4): row i holds K[i, i..i+3], 0 past the end
    mass_matrix: np.ndarray   # B in the same band layout
    node_x: np.ndarray
    joint_dof: int       # index of the x=0 displacement DOF after constraints
    free_dofs: np.ndarray     # unconstrained index of each constrained DOF
    element_dofs: np.ndarray  # (elements, 4) unconstrained DOFs per element
    sigma: np.ndarray
    q: np.ndarray
    rho: np.ndarray
    point_mass: float


@dataclass(frozen=True)
class OracleSpectrum:
    """Ascending discrete eigenvalues and the subspace steps that found them."""

    values: np.ndarray
    steps: int
    elements_per_side: int


def _stack(*rows):
    return np.stack(np.broadcast_arrays(*rows))


def _quadrature(node_x):
    """Gauss points, weights and Hermite shape functions of every element.

    Returns x and w of shape (elements, Gauss points) and the values, first
    and second derivatives of the four shape functions, each of shape
    (4, elements, Gauss points).
    """
    h = np.diff(node_x)[:, None]
    g = _GAUSS_LOCAL
    x = node_x[:-1, None] + h * g
    w = 0.5 * h * _GAUSS_WEIGHTS
    n = _stack(
        1 - 3 * g ** 2 + 2 * g ** 3,
        h * (g - 2 * g ** 2 + g ** 3),
        3 * g ** 2 - 2 * g ** 3,
        h * (-g ** 2 + g ** 3),
    )
    dn = _stack(
        (-6 * g + 6 * g ** 2) / h,
        1 - 4 * g + 3 * g ** 2,
        (6 * g - 6 * g ** 2) / h,
        -2 * g + 3 * g ** 2,
    )
    ddn = _stack(
        (-6 + 12 * g) / h ** 2,
        (-4 + 6 * g) / h,
        (6 - 12 * g) / h ** 2,
        (-2 + 6 * g) / h,
    )
    return x, w, n, dn, ddn


def assemble(system, elements_per_side):
    """Assemble the constrained stiffness and mass matrices in band form."""
    if elements_per_side < 4:
        raise ValueError("need at least 4 elements per side")
    e = elements_per_side
    nodes = np.concatenate([np.linspace(-1.0, 0.0, e + 1),
                            np.linspace(0.0, 1.0, e + 1)[1:]])
    ndof = 2 * len(nodes)
    x, w, n, dn, ddn = _quadrature(nodes)

    rho, sigma, q = map(np.concatenate, zip(rho_sigma_q(system.left.coeffs, x[:e]),
                                            rho_sigma_q(system.right.coeffs, x[e:])))
    k_e = (np.einsum("eg,ieg,jeg->eij", w * sigma, ddn, ddn)
           + np.einsum("eg,ieg,jeg->eij", w * q, dn, dn))
    b_e = np.einsum("eg,ieg,jeg->eij", w * rho, n, n)
    for name, mat in (("stiffness", k_e), ("mass", b_e)):
        # written so that a NaN fails the check
        if not np.max(np.abs(mat - mat.swapaxes(1, 2))) <= 1e-12 * np.max(np.abs(mat)):
            raise DefinitenessError(f"{name} matrix is not symmetric")

    # hinged ends: displacement DOFs at x = -1 and x = +1 removed; entry
    # (i, j) of an element's upper triangle lands in band column j - i
    element_dofs = 2 * np.arange(2 * e)[:, None] + np.arange(4)
    free = np.delete(np.arange(ndof), [0, ndof - 2])
    index = np.searchsorted(free, element_dofs)    # constrained index of each DOF
    i, j = np.triu_indices(4)
    kept = np.isin(element_dofs[:, i], free) & np.isin(element_dofs[:, j], free)
    rows, cols = index[:, i][kept], index[:, j][kept]
    kk, bb = np.zeros((2, len(free), 4))
    np.add.at(kk, (rows, cols - rows), k_e[:, i, j][kept])
    np.add.at(bb, (rows, cols - rows), b_e[:, i, j][kept])
    joint = int(np.searchsorted(free, 2 * e))   # displacement DOF at x = 0
    bb[joint, 0] += system.mass
    _cholesky(bb, "mass")

    return DiscreteOperator(
        elements_per_side=e,
        stiffness=kk,
        mass_matrix=bb,
        node_x=nodes,
        joint_dof=joint,
        free_dofs=free,
        element_dofs=element_dofs,
        sigma=sigma,
        q=q,
        rho=rho,
        point_mass=system.mass,
    )


def _energies(op, vectors):
    """Strain and kinetic energy sums of each column of `vectors`.

    Both are sums over elements and Gauss points of nonnegative terms,
    w (sigma u''^2 + q u'^2) and w rho u^2 (plus M u(0)^2), with u and its
    derivatives interpolated from each element's four DOFs.
    """
    full = np.zeros((2 * len(op.node_x), vectors.shape[1]))
    full[op.free_dofs] = vectors
    local = full[op.element_dofs]       # (elements, 4, modes)
    _, w, n, dn, ddn = _quadrature(op.node_x)
    u, du, ddu = (np.einsum("ieg,eik->egk", s, local) for s in (n, dn, ddn))
    strain = (np.einsum("eg,egk->k", w * op.sigma, ddu ** 2)
              + np.einsum("eg,egk->k", w * op.q, du ** 2))
    kinetic = (np.einsum("eg,egk->k", w * op.rho, u ** 2)
               + op.point_mass * vectors[op.joint_dof] ** 2)
    return strain, kinetic


def _cholesky(band, name):
    """Cholesky factor for cho_solve_banded; band.T is LAPACK's lower band form."""
    from scipy.linalg import cholesky_banded   # 0.3 s to import: not on the shooting path
    try:
        return cholesky_banded(band.T, lower=True), True
    except ValueError as exc:    # LinAlgError, or an entry that is not finite
        raise DefinitenessError(f"{name} matrix is not positive definite") from exc


def _band_product(band, x):
    """The symmetric matrix stored as `band` times the columns of x."""
    y = band[:, :1] * x
    for k in range(1, band.shape[1]):
        y[:-k] += band[:-k, k:k + 1] * x[k:]
        y[k:] += band[:-k, k:k + 1] * x[:-k]
    return y


def _subspace(op, count):
    """B-orthonormal vectors of the `count` lowest modes and the steps taken.

    Subspace iteration (Bathe & Wilson) on B a = mu K a, mu = 1/lam: a step
    takes the QR of the block, W = K^-1 B Q and the Ritz pairs (mu, z) of
    (Q^T B W, Q^T B Q), then uses W z.  It stops when each wanted
    |K^-1 B x - mu x|_B / mu is <= 1e-8, or <= 1e-5 and fell less than 4x
    (the rounding floor), or when the block spans the space (one step is exact).
    """
    from scipy.linalg import cho_solve_banded, eigh

    factor, b = _cholesky(op.stiffness, "stiffness"), op.mass_matrix
    dim = len(b)
    block = np.random.default_rng(0).standard_normal((dim, min(dim, 2 * count + 8)))
    previous = np.inf
    for steps in range(1, MAX_STEPS + 1):
        q = np.linalg.qr(block)[0]
        bq = _band_product(b, q)
        w = cho_solve_banded(factor, bq)
        mu, z = eigh(bq.T @ w, bq.T @ q)
        mu, z = mu[::-1], z[:, ::-1]     # largest mu first: lowest lam first
        vectors, block = q @ z[:, :count], w @ z
        r = block[:, :count] - vectors * mu[:count]
        residual = np.max(np.sqrt(np.einsum("ik,ik->k", r, _band_product(b, r))) / mu[:count])
        if residual <= 1e-8 or previous / 4 < residual <= 1e-5 or block.shape[1] == dim:
            return vectors, steps
        previous = residual
    raise RuntimeError(f"subspace iteration did not converge in {MAX_STEPS} steps")


def solve_generalized(op, count):
    """Lowest `count` eigenvalues of K a = lam B a.

    A subspace iteration on the inverted pencil B a = (1/lam) K a (see
    `_subspace`) supplies the eigenvectors; its Ritz values are discarded.
    Their rounding error grows like eps * cond(K), i.e. like h**-4, and
    overtakes the discretization error of the first mode on fine meshes.
    Each eigenvalue is instead the Rayleigh quotient of its own eigenvector,
    evaluated with the Gauss rule and the coefficient values of `assemble` as

        lam = sum w (sigma u''^2 + q u'^2) / (sum w rho u^2 + M u(0)^2)

    with u, u' and u'' interpolated from each element's four DOFs.  In exact
    arithmetic this equals the pencil's eigenvalue.  Every term is
    nonnegative, so the sums do not cancel (a^T K a formed from the matrices
    does, and keeps a floor), and the quotient is stationary at an
    eigenvector, so the vector's rounding error enters only squared.
    """
    dim = op.stiffness.shape[0]
    if not 1 <= count <= dim:
        raise ValueError(f"count must lie in [1, {dim}]")
    vectors, steps = _subspace(op, count)
    strain, kinetic = _energies(op, vectors)
    values = strain / kinetic
    if np.any(values <= 0):
        raise RuntimeError("discrete eigenvalues must be positive")
    if np.any(np.diff(values) < 0):
        raise RuntimeError("discrete eigenvalues must be ascending")
    return OracleSpectrum(values=values, steps=steps,
                          elements_per_side=op.elements_per_side)


@dataclass(frozen=True)
class ComparisonRow:
    index: int
    shooting: float
    oracle_coarse: float
    oracle_fine: float
    richardson: float
    rel_error_coarse: float
    rel_error_richardson: float
    order: float


def compare(shooting, coarse, fine):
    """Per-index comparison table with Richardson extrapolation.

    `shooting` is the list of reference eigenvalues; `coarse` and `fine` are
    oracle spectra on two meshes (fine typically doubles the element count).
    The observed order uses the shooting values as the converged reference
    and should sit near 4 for these smooth coefficients.
    """
    n = len(shooting)
    if len(coarse.values) < n or len(fine.values) < n:
        raise ValueError("oracle spectra shorter than the shooting list")
    refine = fine.elements_per_side / coarse.elements_per_side
    ratio = refine ** 4
    rows = []
    for i, lam_s in enumerate(shooting):
        lam_c, lam_f = float(coarse.values[i]), float(fine.values[i])
        err_c, err_f = abs(lam_c - lam_s), abs(lam_f - lam_s)
        rich = (ratio * lam_f - lam_c) / (ratio - 1.0)
        order = (math.log(err_c / err_f) / math.log(refine)
                 if err_f > 0 and err_c > 0 else math.inf)
        rows.append(ComparisonRow(
            index=i + 1, shooting=lam_s, oracle_coarse=lam_c, oracle_fine=lam_f,
            richardson=rich, rel_error_coarse=err_c / abs(lam_s),
            rel_error_richardson=abs(rich - lam_s) / abs(lam_s), order=order))
    return rows
