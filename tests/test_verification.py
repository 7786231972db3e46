"""The colored finite-difference oracle against a column-by-column reference."""

import numpy as np
import pytest
import scipy.sparse as sp

from embedfem import verification
from embedfem.assembly import ConnectivityMap, GlobalSystem
from embedfem.mesh import GeometryParams, Resolution, build_rect_mesh, build_slider_mesh
from embedfem.model import ThermoElectricModel
from embedfem.physics import default_materials
from embedfem.verification import check_jacobian_fd, fd_jacobian, jacobian_fd_error

DEMO_BC = [("left_conductor_end", "psi", 0.0),
           ("symmetry_plane", "psi", 0.5),
           ("left_conductor_end", "temp", 0.0)]


def strip_mesh(n):
    """The demo's n x n element strip (n = 16 is the demo mesh)."""
    return build_slider_mesh(GeometryParams(),
                             Resolution(n // 2, n // 8, 3 * n // 8, n))


def strip_model(n=16, **kw):
    return ThermoElectricModel(strip_mesh(n), default_materials(),
                               dirichlet=DEMO_BC, **kw)


def random_state(model, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    return model.initial_guess() + scale * rng.normal(size=model.num_dofs)


def column_fd_jacobian(model, x, step_scale=1e-6):
    """Reference: perturb one column at a time into a dense matrix."""
    n = x.size
    out = np.empty((n, n))
    for j in range(n):
        h = step_scale * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        out[:, j] = (model.residual(xp) - model.residual(xm)) / (2.0 * h)
    return out


def column_fd_error(model, x, fd):
    dense = model.jacobian(x)[1].toarray()
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(dense)),
                       np.max(np.abs(fd)))
    return float(np.max(np.abs(dense - fd) / denom))


def test_colored_oracle_is_bitwise_the_column_reference():
    model = strip_model()
    for seed in range(5):
        x = random_state(model, seed)
        reference = column_fd_jacobian(model, x)
        assert np.array_equal(fd_jacobian(model, x).toarray(), reference)
        assert jacobian_fd_error(model, x) == column_fd_error(model, x, reference)
    # seven-element worksets share arenas, so their geometry is mapped on
    # every assembly; the partition must not change a single bit of the
    # oracle either
    partitioned = strip_model(workset_size=7)
    assert np.array_equal(fd_jacobian(partitioned, x).toarray(), reference)
    assert jacobian_fd_error(partitioned, x) == column_fd_error(model, x, reference)


@pytest.mark.parametrize("element_samples", [1, 256 * 2 * 5],
                         ids=["pairs", "five_colors"])
def test_ensemble_grouping_does_not_change_the_oracle(monkeypatch,
                                                      element_samples):
    # 18 calls of one color pair, or four calls of up to five pairs, against
    # the three calls of six that the column reference test checks
    model = strip_model(workset_size=7)
    x = random_state(model, 9)
    whole = fd_jacobian(model, x).data
    monkeypatch.setattr(verification, "_ENSEMBLE_ELEMENT_SAMPLES",
                        element_samples)
    assert np.array_equal(fd_jacobian(model, x).data, whole)


@pytest.mark.parametrize("mesh", [strip_mesh(16), strip_mesh(32),
                                  build_rect_mesh(12, 12)],
                         ids=["strip16", "strip32", "square12"])
def test_no_row_holds_two_columns_of_one_color(mesh):
    system = GlobalSystem(ConnectivityMap(mesh.connectivity, 2))
    colors = system.column_colors
    pattern = sp.csr_matrix((colors[system.indices] + 1, system.indices,
                             system.indptr), shape=(system.num_dofs,) * 2)
    for i in range(system.num_dofs):
        row = pattern.data[pattern.indptr[i]:pattern.indptr[i + 1]]
        assert np.unique(row).size == row.size
    # two unknowns on each node of a 3 x 3 node block all share a row
    assert colors.max() + 1 == 18


def test_verify_runs_sparse_on_the_32_strip():
    model = strip_model(32)
    fd = fd_jacobian(model, random_state(model, 0))
    assert sp.isspmatrix_csr(fd)
    assert fd.nnz == model.system.nnz
    result = check_jacobian_fd(model)
    assert result.passed and result.measured <= 1e-6
