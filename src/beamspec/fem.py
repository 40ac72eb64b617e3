"""Finite-element eigenvalues: the cubic Hermite oracle and the p-version seeds.

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
subspace iteration on the pencil, through a block cyclic reduction of K,
supplies the eigenvectors only; each eigenvalue is the Rayleigh quotient of
its own eigenvector, summed over elements and Gauss points as nonnegative
terms (see `solve_generalized`).  The iteration starts from the sampled
modes of the uniform massless hinged beam, made B-orthonormal by one QR and
a Cholesky factor (see `_subspace`).  The module uses numpy only.
Eigenvalues converge at fourth order in the mesh size, so two meshes give a
Richardson-extrapolated reference.

seed_eigenvalues, the seeds of spectrum.solve_modes, solves the same weak
form with one element of degree p per span; its eigenvalues converge
exponentially in p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .config import rho_sigma_q

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(5)
_GAUSS_LOCAL = 0.5 * (_GAUSS_NODES + 1.0)   # Gauss points on [0, 1]
MAX_STEPS = 50   # subspace iteration steps before the solve gives up
SEED_EXTRA_DEGREE = 16   # seed_eigenvalues' degree above the mode count


class DefinitenessError(RuntimeError):
    """An assembled matrix is not symmetric or not positive definite."""


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled constrained matrices, DOF bookkeeping and quadrature data.

    sigma, q (clamped), rho and the Gauss weights have one row per element
    and one column per Gauss point; shapes holds `_hermite` at those points,
    (3, 4, elements, Gauss points).  The element matrices were built from
    them and the Rayleigh quotients of `solve_generalized` read them again.
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
    weights: np.ndarray
    shapes: np.ndarray
    point_mass: float


@dataclass(frozen=True)
class OracleSpectrum:
    """Ascending discrete eigenvalues and the subspace steps that found them."""

    values: np.ndarray
    steps: int
    elements_per_side: int


def _hermite(g, h):
    """Values, first and second derivatives (axis 0) of the Hermite shape
    functions of u and u' at both ends (axis 1) of elements of length h at g
    in [0, 1]."""
    rows = np.broadcast_arrays(
        1 - 3 * g ** 2 + 2 * g ** 3,
        h * (g - 2 * g ** 2 + g ** 3),
        3 * g ** 2 - 2 * g ** 3,
        h * (-g ** 2 + g ** 3),
        (-6 * g + 6 * g ** 2) / h,
        1 - 4 * g + 3 * g ** 2,
        (6 * g - 6 * g ** 2) / h,
        -2 * g + 3 * g ** 2,
        (-6 + 12 * g) / h ** 2,
        (-4 + 6 * g) / h,
        (6 - 12 * g) / h ** 2,
        (-2 + 6 * g) / h,
    )
    return np.reshape(rows, (3, 4, *rows[0].shape))


def assemble(system, elements_per_side):
    """Assemble the constrained stiffness and mass matrices in band form."""
    if elements_per_side < 4:
        raise ValueError("need at least 4 elements per side")
    e = elements_per_side
    nodes = np.concatenate([np.linspace(-1.0, 0.0, e + 1),
                            np.linspace(0.0, 1.0, e + 1)[1:]])
    ndof = 2 * len(nodes)
    h = np.diff(nodes)[:, None]
    x = nodes[:-1, None] + h * _GAUSS_LOCAL     # Gauss points of every element
    w = 0.5 * h * _GAUSS_WEIGHTS
    shapes = _hermite(_GAUSS_LOCAL, h)
    n, dn, ddn = shapes

    rho, sigma, q = map(np.concatenate, zip(rho_sigma_q(system.left.coeffs, x[:e]),
                                            rho_sigma_q(system.right.coeffs, x[e:])))
    k_e = (np.einsum("eg,ieg,jeg->eij", w * sigma, ddn, ddn)
           + np.einsum("eg,ieg,jeg->eij", w * q, dn, dn))
    b_e = np.einsum("eg,ieg,jeg->eij", w * rho, n, n)
    for name, mat in (("stiffness", k_e), ("mass", b_e)):
        # written so that a NaN fails the check
        if not np.max(np.abs(mat - mat.swapaxes(1, 2))) <= 1e-12 * np.max(np.abs(mat)):
            raise DefinitenessError(f"{name} matrix is not symmetric")
    try:    # B is then definite: every DOF lies in an element, and M >= 0
        np.linalg.cholesky(b_e)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("mass matrix is not positive definite") from exc

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
        weights=w,
        shapes=shapes,
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
    u, du, ddu = (np.einsum("ieg,eik->egk", s, local) for s in op.shapes)
    return _energy_sums(op.weights, op.sigma, op.q, op.rho, u, du, ddu,
                        op.point_mass * vectors[op.joint_dof] ** 2)


def _energy_sums(w, sigma, q, rho, u, du, ddu, joint):
    """_energies' sums over (element, Gauss point) of the fields (e, g, modes),
    the point mass's kinetic share `joint` added."""
    strain = (np.einsum("eg,egk->k", w * sigma, ddu ** 2)
              + np.einsum("eg,egk->k", w * q, du ** 2))
    return strain, np.einsum("eg,egk->k", w * rho, u ** 2) + joint


def _factor(band):
    """Block cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7
    (1970) 627-656) of the stiffness `band`, padded by an identity DOF at each
    end to 2x2 node blocks D_n coupled to node n + 1 by U_n: each level checks
    and inverts the even nodes' pivots (an identity node appended to an even
    count), and the odd nodes' Schur complements form the next.  Per level:
    the node count, the D^-1, each odd node n + 1's gains [D_n^-1 U_n;
    D_(n+2)^-1 U_(n+1)^T], and the same gains regrouped by even node.
    """
    padded = np.concatenate([[[1.0, 0, 0, 0]], band, [[1.0, 0, 0, 0]]]).reshape(-1, 2, 4)
    diag = padded[:, [[0, 0], [0, 1]], [[0, 1], [1, 0]]]
    upper = padded[:-1, [[0, 0], [1, 1]], [[2, 3], [1, 2]]]
    levels = []
    while len(diag):
        nodes = len(diag)
        if nodes % 2 == 0:
            diag = np.concatenate([diag, np.eye(2)[None]])
            upper = np.concatenate([upper, np.zeros((1, 2, 2))])
        pivot = diag[::2]
        det = pivot[:, 0, 0] * pivot[:, 1, 1] - pivot[:, 0, 1] ** 2
        if not np.minimum(pivot[:, 0, 0], det).min() > 0:    # so that a NaN fails
            raise DefinitenessError("stiffness matrix is not positive definite")
        inverse = pivot[:, ::-1, ::-1] * [[1, -1], [-1, 1]] / det[:, None, None]
        couple = np.concatenate([upper[::2].swapaxes(1, 2), upper[1::2]], axis=2)
        gain = np.concatenate([inverse[:-1] @ upper[::2],
                               inverse[1:] @ upper[1::2].swapaxes(1, 2)], axis=1)
        diag = diag[1::2] - couple @ gain
        upper = -(couple[:-1, :, 2:] @ gain[1:, :2])
        down = np.zeros((len(inverse), 4, 2))
        down[:-1, :2], down[1:, 2:] = gain[:, :2].swapaxes(1, 2), gain[:, 2:].swapaxes(1, 2)
        levels.append((nodes, inverse, gain, down))
    return levels


def _solve(levels, rhs):
    """K^-1 rhs for the columns of rhs, down and up the levels of `_factor`."""
    columns, zero = rhs.shape[1], np.zeros((2, rhs.shape[1]))
    x = np.concatenate([zero[:1], rhs, zero[:1]]).reshape(-1, 2, columns)
    stack = []
    for nodes, _, _, down in levels:
        if nodes % 2 == 0:
            x = np.concatenate([x, zero[None]])
        stack.append(x)
        t = down @ x[::2]
        x = x[1::2] - t[:-1, :2] - t[1:, 2:]
    for (nodes, inverse, gain, _), full in zip(levels[::-1], stack[::-1]):
        t, even = gain @ x, inverse @ full[::2]
        even[:-1] -= t[:, :2]
        even[1:] -= t[:, 2:]
        full[::2], full[1::2] = even, x
        x = full[:nodes]
    return x.reshape(-1, columns)[1:-1]


def _band_product(band, x):
    """The symmetric matrix stored as `band` times the columns of x."""
    y = band[:, :1] * x
    for k in range(1, band.shape[1]):
        y[:-k] += band[:-k, k:k + 1] * x[k:]
        y[k:] += band[:-k, k:k + 1] * x[:-k]
    return y


def _reduction(block, bq):
    """The inverse of the Cholesky factor of the block's B-Gram matrix
    Q^T B Q, bq being B Q: Q times its transpose is B-orthonormal."""
    try:
        return np.linalg.inv(np.linalg.cholesky(bq.T @ block))
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("the block's B-Gram matrix is not positive definite") from exc


def _subspace(op, count):
    """B-orthonormal vectors of the `count` lowest modes and the steps taken.

    Subspace iteration (Bathe & Wilson) on B a = mu K a, mu = 1/lam: a step
    takes W = K^-1 B Q, the Ritz pairs (mu, z) of (Q^T B W, Q^T B Q) by a
    Cholesky reduction, and W z / mu (nearly B-orthonormal) as the next
    Q.  It stops when each wanted |K^-1 B x - mu x|_B / mu is <= 1e-8, or <=
    1e-5 and fell less than 4x (the rounding floor), or when the block spans
    the space (one step is exact).

    The start is u = sin(k (x+1)), u' = k cos(k (x+1)) at the nodes, k = j pi/2,
    j <= min(dim, 2 count + 8): the uniform massless hinged beam's modes, so
    uniform M = 0 converges in one step.  Its QR keeps Q^T B Q definite whatever
    the sines' rank, and the Cholesky factor of that B-Gram matrix makes it
    B-orthonormal, so a block of all dim columns spans the space in one step
    that a heavy joint mass does not spoil (for an orthonormal square Q,
    Q^T B Q would have B's condition).
    """
    levels, b = _factor(op.stiffness), op.mass_matrix
    dim = len(b)
    k = np.pi / 2 * np.arange(1, min(dim, 2 * count + 8) + 1)
    phase = np.outer(op.node_x + 1.0, k)
    start = np.stack([np.sin(phase), k * np.cos(phase)], axis=1).reshape(-1, len(k))
    block = np.linalg.qr(start[op.free_dofs])[0]
    block = block @ _reduction(block, _band_product(b, block)).T
    previous, bq = np.inf, _band_product(b, block)
    for steps in range(1, MAX_STEPS + 1):
        w = _solve(levels, bq)
        reduce = _reduction(block, bq)
        mu, y = np.linalg.eigh(reduce @ (bq.T @ w) @ reduce.T)
        mu, z = mu[::-1], reduce.T @ y[:, ::-1]     # largest mu first: lowest lam first
        vectors, wz = block @ z[:, :count], w @ z
        bwz = _band_product(b, wz)     # B r below, and the next step's B Q
        r = wz[:, :count] - vectors * mu[:count]
        br = bwz[:, :count] - bq @ z[:, :count] * mu[:count]
        residual = np.max(np.sqrt(np.einsum("ik,ik->k", r, br)) / mu[:count])
        if residual <= 1e-8 or previous / 4 < residual <= 1e-5 or block.shape[1] == dim:
            return vectors, steps
        previous, block, bq = residual, wz / mu, bwz / mu
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


def seed_eigenvalues(system, count):
    """Lowest `count` eigenvalues from one element of degree p per span.

    p = count + SEED_EXTRA_DEGREE.  The basis is the Hermite functions of the
    free nodal values u'(-1), u(0), u'(0), u'(+1) and Shen's bubbles
    psi_k = L_k - 2(2k+5)/(2k+7) L_(k+2) + (2k+3)/(2k+7) L_(k+4), k <= p - 4,
    with psi_k'' = (2k+3)(2k+5) L_(k+2) on [-1, 1] (J. Shen, SIAM J. Sci.
    Comput. 15 (1994) 1489-1505).  Gauss-Legendre with p + 12 points is exact
    for the degree <= 8 coefficients.  Each eigenvalue is the Rayleigh
    quotient of its eigh vector, as in `solve_generalized`.
    """
    p = count + SEED_EXTRA_DEGREE
    nodes, weights = leggauss(p + 12)
    g = 0.5 * (nodes + 1.0)          # both spans have length 1
    legendre = legvander(nodes, p).T
    m = p - 3
    k = np.arange(m)[:, None]
    bubbles = (legendre[:-4] - 2 * (2 * k + 5) / (2 * k + 7) * legendre[2:-2]
               + (2 * k + 3) / (2 * k + 7) * legendre[4:],
               2 * (2 * k + 3) * (legendre[3:-1] - legendre[1:-3]),
               4 * (2 * k + 3) * (2 * k + 5) * legendre[2:-2])
    hermite = _hermite(g, 1.0)
    # (derivative, DOF, span, g); DOFs u'(-1), u(0), u'(0), u'(+1), bubbles
    basis = np.zeros((3, 4 + 2 * m, 2, g.size))
    basis[:, :3, 0], basis[:, 1:4, 1] = hermite[:, 1:], hermite[:, [0, 1, 3]]
    basis[:, 4:4 + m, 0] = basis[:, 4 + m:, 1] = np.stack(bubbles)
    w = 0.5 * weights
    rho, sigma, q = map(np.stack, zip(rho_sigma_q(system.left.coeffs, g - 1.0),
                                      rho_sigma_q(system.right.coeffs, g)))
    v, dv, ddv = basis
    stiffness = (np.einsum("eg,ieg,jeg->ij", w * sigma, ddv, ddv)
                 + np.einsum("eg,ieg,jeg->ij", w * q, dv, dv))
    mass = np.einsum("eg,ieg,jeg->ij", w * rho, v, v)
    mass[1, 1] += system.mass      # DOF 1 is u(0)
    # B a = mu K a, mu = 1/lam: the wanted mu are the largest, so eigh's error
    # stays small beside their gaps (reduced by B's factor, mode 1 lost 4e-11)
    inverse = np.linalg.inv(np.linalg.cholesky(stiffness))
    vectors = inverse.T @ np.linalg.eigh(inverse @ mass @ inverse.T)[1][:, ::-1][:, :count]
    u, du, ddu = (np.einsum("ieg,ik->egk", b, vectors) for b in basis)
    strain, kinetic = _energy_sums(w, sigma, q, rho, u, du, ddu,
                                   system.mass * vectors[1] ** 2)
    return strain / kinetic


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
