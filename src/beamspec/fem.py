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

The coefficients are evaluated once, at the Gauss points of every element.
A dense symmetric solve of the pencil supplies the eigenvectors only; each
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

from .config import eval_coeff

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(5)
_GAUSS_LOCAL = 0.5 * (_GAUSS_NODES + 1.0)   # Gauss points on [0, 1]


class DefinitenessError(RuntimeError):
    """The assembled mass matrix failed its positive-definiteness check."""


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled constrained matrices, DOF bookkeeping and quadrature data.

    sigma, q (clamped) and rho hold the coefficients at the Gauss points,
    one row per element; the element matrices were built from them and the
    Rayleigh quotients of `solve_generalized` read them again.
    """

    elements_per_side: int
    stiffness: np.ndarray
    mass_matrix: np.ndarray
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
    """Ascending discrete eigenvalues with their B-orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray
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
    """Assemble the constrained stiffness and mass matrices."""
    if elements_per_side < 4:
        raise ValueError("need at least 4 elements per side")
    e = elements_per_side
    nodes = np.concatenate([np.linspace(-1.0, 0.0, e + 1),
                            np.linspace(0.0, 1.0, e + 1)[1:]])
    ndof = 2 * len(nodes)
    x, w, n, dn, ddn = _quadrature(nodes)

    def coeff(which):
        return np.concatenate([eval_coeff(system.left, which, x[:e]),
                               eval_coeff(system.right, which, x[e:])])

    sigma, q, rho = coeff("sigma"), coeff("q"), coeff("rho")
    k_e = (np.einsum("eg,ieg,jeg->eij", w * sigma, ddn, ddn)
           + np.einsum("eg,ieg,jeg->eij", w * q, dn, dn))
    b_e = np.einsum("eg,ieg,jeg->eij", w * rho, n, n)
    element_dofs = 2 * np.arange(2 * e)[:, None] + np.arange(4)
    rows = element_dofs[:, :, None]
    cols = element_dofs[:, None, :]
    stiffness = np.zeros((ndof, ndof))
    mass = np.zeros((ndof, ndof))
    np.add.at(stiffness, (rows, cols), k_e)
    np.add.at(mass, (rows, cols), b_e)
    joint = 2 * e    # displacement DOF of the shared node at x = 0
    mass[joint, joint] += system.mass

    # hinged ends: displacement DOFs at x = -1 and x = +1 removed
    free = np.delete(np.arange(ndof), [0, ndof - 2])
    kk = stiffness[np.ix_(free, free)]
    bb = mass[np.ix_(free, free)]

    for name, mat in (("stiffness", kk), ("mass", bb)):
        # written so that a NaN fails the check
        if not np.max(np.abs(mat - mat.T)) <= 1e-12 * np.max(np.abs(mat)):
            raise DefinitenessError(f"{name} matrix is not symmetric")
    try:
        np.linalg.cholesky(bb)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("mass matrix is not positive definite") from exc

    return DiscreteOperator(
        elements_per_side=e,
        stiffness=kk,
        mass_matrix=bb,
        node_x=nodes,
        joint_dof=int(np.searchsorted(free, joint)),
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


def solve_generalized(op, count):
    """Lowest `count` eigenvalues of K a = lam B a with B-orthonormal vectors.

    A dense solve of the inverted pencil B a = (1/lam) K a (only its `count`
    largest eigenvalues are requested) supplies the eigenvectors; its
    eigenvalues are discarded.  Their rounding error grows like
    eps * cond(K), i.e. like h**-4, and overtakes the discretization error of
    the first mode on fine meshes.  Each eigenvalue is instead the Rayleigh
    quotient of its own eigenvector, evaluated with the Gauss rule and the
    coefficient values of `assemble` as

        lam = sum w (sigma u''^2 + q u'^2) / (sum w rho u^2 + M u(0)^2)

    with u, u' and u'' interpolated from each element's four DOFs.  In exact
    arithmetic this equals the pencil's eigenvalue.  Every term is
    nonnegative, so the sums do not cancel (a^T K a formed from the matrices
    does, and keeps a floor), and the quotient is stationary at an
    eigenvector, so the vector's rounding error enters only squared.
    """
    # imported here: scipy.linalg alone costs about 0.3 s, which the
    # shooting solve should not pay
    from scipy.linalg import eigh

    dim = op.stiffness.shape[0]
    if not 1 <= count <= dim:
        raise ValueError(f"count must lie in [1, {dim}]")
    try:
        _, vectors = eigh(op.mass_matrix, op.stiffness,
                          subset_by_index=[dim - count, dim - 1])
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"generalized eigensolve failed: {exc}") from exc
    # 1/lam ascending = lam descending: reverse for smallest lam first
    vectors = vectors[:, ::-1]
    strain, kinetic = _energies(op, vectors)
    values = strain / kinetic
    if np.any(values <= 0):
        raise RuntimeError("discrete eigenvalues must be positive")
    if np.any(np.diff(values) < 0):
        raise RuntimeError("discrete eigenvalues must be ascending")
    vectors = vectors / np.sqrt(kinetic)
    return OracleSpectrum(values=values, vectors=vectors,
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
    ratio = (fine.elements_per_side / coarse.elements_per_side) ** 4
    rows = []
    for i in range(n):
        lam_s = shooting[i]
        lam_c = float(coarse.values[i])
        lam_f = float(fine.values[i])
        rich = (ratio * lam_f - lam_c) / (ratio - 1.0)
        err_c = abs(lam_c - lam_s)
        err_f = abs(lam_f - lam_s)
        if err_f > 0 and err_c > 0:
            order = math.log(err_c / err_f) / math.log(
                fine.elements_per_side / coarse.elements_per_side)
        else:
            order = math.inf
        rows.append(ComparisonRow(
            index=i + 1,
            shooting=lam_s,
            oracle_coarse=lam_c,
            oracle_fine=lam_f,
            richardson=rich,
            rel_error_coarse=abs(lam_c - lam_s) / abs(lam_s),
            rel_error_richardson=abs(rich - lam_s) / abs(lam_s),
            order=order,
        ))
    return rows
