import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from beamspec import fem
from beamspec.config import uniform_system, variable_system
from beamspec.fem import DefinitenessError, assemble, compare, solve_generalized

UNIFORM = uniform_system()
PI4 = math.pi ** 4


def densify(band):
    """The full symmetric matrix whose row i holds band[i, k] at column i + k."""
    dim, width = band.shape
    full = np.zeros((dim, dim))
    for k in range(width):
        full[np.arange(dim - k), np.arange(k, dim)] = band[:dim - k, k]
    return full + np.triu(full, 1).T


def dense_values(op, count):
    """Dense reference: the vectors of the inverted pencil B a = (1/lam) K a
    from a dense eigh, then the same Rayleigh quotients."""
    dim = op.stiffness.shape[0]
    _, vectors = scipy.linalg.eigh(densify(op.mass_matrix), densify(op.stiffness),
                                   subset_by_index=[dim - count, dim - 1])
    strain, kinetic = fem._energies(op, vectors[:, ::-1])
    return strain / kinetic


def test_dof_count_with_shared_joint_node():
    # 4 elements/side -> 9 distinct nodes -> 18 DOFs -> 16 after the two
    # hinged displacement constraints
    op = assemble(UNIFORM, 4)
    assert op.stiffness.shape == (16, 4)
    assert op.mass_matrix.shape == (16, 4)
    assert len(op.node_x) == 9
    for k in range(1, 4):    # band entries past the last DOF stay zero
        assert not np.any(op.stiffness[16 - k:, k]) and not np.any(op.mass_matrix[16 - k:, k])


def test_mass_augmentation_is_one_diagonal_entry():
    op0 = assemble(UNIFORM, 6)
    op5 = assemble(uniform_system(5.0), 6)
    diff = op5.mass_matrix - op0.mass_matrix
    assert diff[op0.joint_dof, 0] == pytest.approx(5.0)
    diff[op0.joint_dof, 0] = 0.0
    assert np.max(np.abs(diff)) == 0.0
    np.testing.assert_allclose(op5.stiffness, op0.stiffness)


def test_matrices_symmetric_and_definite():
    op = assemble(variable_system(2.0), 10)
    stiffness, mass = densify(op.stiffness), densify(op.mass_matrix)
    np.testing.assert_allclose(stiffness, stiffness.T, atol=1e-12)
    np.testing.assert_allclose(mass, mass.T, atol=1e-14)
    np.linalg.cholesky(mass)
    assert np.linalg.eigvalsh(stiffness).min() > 0


def test_band_matches_dense_assembly():
    # the dense scatter of every element matrix, then the hinged DOFs cut out
    op = assemble(variable_system(1.0), 6)
    _, w, n, dn, ddn = fem._quadrature(op.node_x)
    k_e = (np.einsum("eg,ieg,jeg->eij", w * op.sigma, ddn, ddn)
           + np.einsum("eg,ieg,jeg->eij", w * op.q, dn, dn))
    b_e = np.einsum("eg,ieg,jeg->eij", w * op.rho, n, n)
    ndof = 2 * len(op.node_x)
    for band, element, extra in ((op.stiffness, k_e, 0.0), (op.mass_matrix, b_e, 1.0)):
        full = np.zeros((ndof, ndof))
        rows, cols = op.element_dofs[:, :, None], op.element_dofs[:, None, :]
        np.add.at(full, (rows, cols), element)
        full[op.free_dofs[op.joint_dof], op.free_dofs[op.joint_dof]] += extra
        reference = full[np.ix_(op.free_dofs, op.free_dofs)]
        np.testing.assert_allclose(densify(band), reference, rtol=1e-14,
                                   atol=1e-14 * np.max(np.abs(reference)))


def test_closed_form_eigenvalues_40_elements():
    spec = solve_generalized(assemble(UNIFORM, 40), 4)
    lam1 = (math.pi / 2) ** 4
    assert spec.values[0] == pytest.approx(lam1, abs=1e-6)
    assert spec.values[1] == pytest.approx(PI4, abs=1e-4)


def test_symmetry_protected_mode_in_oracle():
    m0 = solve_generalized(assemble(UNIFORM, 40), 4)
    m1 = solve_generalized(assemble(uniform_system(1.0), 40), 4)
    assert m1.values[1] == pytest.approx(m0.values[1], rel=1e-6)


def test_vectors_b_orthonormal():
    op = assemble(variable_system(1.0), 12)
    for count in (6, 8):
        vectors, _ = fem._subspace(op, count)
        gram = vectors.T @ densify(op.mass_matrix) @ vectors
        np.testing.assert_allclose(gram, np.eye(count), atol=1e-10)


def test_eigenvalues_ascending_positive_all_masses():
    for mass in (0.0, 0.5, 1.0, 10.0):
        spec = solve_generalized(assemble(uniform_system(mass), 12), 8)
        assert np.all(spec.values > 0)
        assert np.all(np.diff(spec.values) > 0)


def test_oracle_mass_monotonicity():
    prev = None
    for mass in (0.0, 0.5, 1.0, 10.0):
        spec = solve_generalized(assemble(uniform_system(mass), 20), 6)
        if prev is not None:
            assert np.all(spec.values <= prev * (1 + 1e-12))
        prev = spec.values


def test_convergence_order_near_four():
    lam1 = (math.pi / 2) ** 4
    coarse = solve_generalized(assemble(UNIFORM, 20), 1)
    fine = solve_generalized(assemble(UNIFORM, 40), 1)
    rows = compare([lam1], coarse, fine)
    assert rows[0].order == pytest.approx(4.0, abs=0.5)


def test_six_modes_converge_at_fourth_order():
    # closed form (n pi/2)^4; a rounding floor in the eigenvalues pulls the
    # observed 40 -> 80 order of mode 1 far below 4
    exact = [(n * math.pi / 2) ** 4 for n in range(1, 7)]
    coarse = solve_generalized(assemble(UNIFORM, 40), 6)
    fine = solve_generalized(assemble(UNIFORM, 80), 6)
    for row in compare(exact, coarse, fine):
        assert row.order == pytest.approx(4.0, abs=0.5), row


def test_no_rounding_floor_at_320_elements():
    lam1 = (math.pi / 2) ** 4
    spec = solve_generalized(assemble(UNIFORM, 320), 1)
    assert abs(spec.values[0] - lam1) / lam1 <= 1e-10


def test_operator_keeps_gauss_point_coefficients():
    # the Rayleigh quotients reuse the values the element matrices were built from
    op = assemble(variable_system(1.0), 6)
    assert op.sigma.shape == op.q.shape == op.rho.shape == (12, 5)
    assert np.all(op.q >= 0.0)
    assert op.element_dofs.shape == (12, 4)
    assert len(op.free_dofs) == op.stiffness.shape[0]


def test_compare_identical_inputs_zero_error():
    spec = solve_generalized(assemble(UNIFORM, 8), 3)
    rows = compare(list(spec.values), spec, solve_generalized(assemble(UNIFORM, 16), 3))
    for row in rows:
        assert row.rel_error_coarse == 0.0


def test_compare_richardson_beats_raw():
    exact = [(n * math.pi / 2) ** 4 for n in (1, 2, 3)]
    coarse = solve_generalized(assemble(UNIFORM, 20), 3)
    fine = solve_generalized(assemble(UNIFORM, 40), 3)
    for row in compare(exact, coarse, fine):
        assert row.rel_error_richardson < row.rel_error_coarse


def test_guards():
    with pytest.raises(ValueError):
        assemble(UNIFORM, 3)
    op = assemble(UNIFORM, 4)
    with pytest.raises(ValueError):
        solve_generalized(op, 17)
    with pytest.raises(ValueError):
        solve_generalized(op, 0)


@pytest.mark.parametrize("system, elements, count, tol", [
    (variable_system(1.0), 80, 6, 1e-11),
    (uniform_system(10.0), 320, 6, 1e-11),
    (uniform_system(10.0), 4, 16, 1e-10),     # count == dim: one exact step
])
def test_banded_solve_matches_dense_solve(system, elements, count, tol):
    op = assemble(system, elements)
    spec = solve_generalized(op, count)
    reference = dense_values(op, count)
    assert np.max(np.abs(spec.values - reference) / reference) <= tol


def test_many_modes_converge_at_the_rounding_floor():
    # modes 30-40 stall near a 1e-6 residual while their eigenvalues sit at
    # the floor; a residual-only rule would not stop
    spec = solve_generalized(assemble(uniform_system(10.0), 80), 40)
    assert spec.steps <= fem.MAX_STEPS
    assert len(spec.values) == 40 and np.all(np.diff(spec.values) > 0)


def test_steps_and_values_repeat(shipped_systems):
    for system in shipped_systems.values():
        for elements in (40, 80, 160, 320):
            op = assemble(system, elements)
            first, second = solve_generalized(op, 6), solve_generalized(op, 6)
            assert np.array_equal(first.values, second.values)
            assert first.steps == second.steps <= 8


def test_band_storage_is_linear_in_the_mesh():
    # a dense 8000 x 8000 matrix would take 512 MB
    op = assemble(UNIFORM, 2000)
    dim = 4 * 2000
    assert op.stiffness.shape[0] == dim
    assert op.stiffness.nbytes == op.mass_matrix.nbytes == 32 * dim


@pytest.mark.parametrize("name", ["rho", "sigma"])
def test_nan_coefficient_is_a_definiteness_error(name):
    left = dataclasses.replace(UNIFORM.left)
    object.__setattr__(left, name, (math.nan,))    # past the profile's own check
    with pytest.raises(DefinitenessError, match="not symmetric"):
        assemble(dataclasses.replace(UNIFORM, left=left), 8)


def test_indefinite_mass_is_a_definiteness_error():
    left = dataclasses.replace(UNIFORM.left)
    object.__setattr__(left, "rho", (-1.0,))    # past the profile's own check
    with pytest.raises(DefinitenessError, match="mass matrix is not positive definite"):
        assemble(dataclasses.replace(UNIFORM, left=left), 8)


def test_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(fem, "MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match="did not converge in 2 steps"):
        solve_generalized(assemble(UNIFORM, 40), 6)
