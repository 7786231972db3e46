"""Connectivity, worksets, gather seeding, scatter additivity, global system."""

import numpy as np
import pytest
import scipy.sparse as sp

from embedfem import graph as gr
from embedfem import scalars as sc
from embedfem.assembly import ConnectivityMap, GlobalSystem, build_worksets
from embedfem.mesh import GeometryParams, Resolution, build_rect_mesh, build_slider_mesh
from embedfem.model import ThermoElectricModel
from embedfem.physics import default_materials

DEMO_BC = [("left_conductor_end", "psi", 0.0),
           ("symmetry_plane", "psi", 0.5),
           ("left_conductor_end", "temp", 0.0)]


def demo_mesh():
    return build_slider_mesh(GeometryParams(), Resolution())


def demo_model(**kw):
    return ThermoElectricModel(demo_mesh(), default_materials(),
                               dirichlet=DEMO_BC, **kw)


def random_state(model, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return model.initial_guess() + scale * rng.normal(size=model.num_dofs)


# ---------------------------------------------------------------------------
# connectivity and worksets
# ---------------------------------------------------------------------------

def test_connectivity_interleaving():
    mesh = build_rect_mesh(2, 2)
    conn = ConnectivityMap(mesh.connectivity, 2)
    assert conn.num_global_dofs == 9 * 2
    assert conn.dof[0, 0, 0] == mesh.connectivity[0, 0] * 2
    assert conn.dof[0, 0, 1] == mesh.connectivity[0, 0] * 2 + 1
    assert conn.dofs_per_element == 8
    # surjective onto the dof range
    assert set(conn.dof.ravel()) == set(range(conn.num_global_dofs))


def test_worksets_partition_the_elements():
    mesh = demo_mesh()
    assert len(build_worksets(mesh, 0)) == 1
    for size in (0, 1, 7, 64):
        worksets = build_worksets(mesh, size)
        covered = []
        for ws in worksets:
            if size > 0:
                assert ws.size <= size
            covered.extend(range(ws.start, ws.stop))
        assert covered == list(range(mesh.num_elems))


def test_csr_pattern_positions():
    mesh = build_rect_mesh(2, 1)
    conn = ConnectivityMap(mesh.connectivity, 2)
    system = GlobalSystem(conn)
    # scattering ones through the positions must reproduce dense element sums
    data = np.zeros(system.nnz)
    np.add.at(data, system.positions.ravel(),
              np.ones(system.positions.size))
    dense = system.matrix_from_data(data).toarray()
    expected = np.zeros_like(dense)
    for e in range(conn.elem_dofs.shape[0]):
        dofs = conn.elem_dofs[e]
        expected[np.ix_(dofs, dofs)] += 1.0
    assert np.array_equal(dense, expected)


# ---------------------------------------------------------------------------
# gather seeding by evaluation type
# ---------------------------------------------------------------------------

def test_gather_residual_copies_values():
    model = demo_model()
    x = np.arange(model.num_dofs, dtype=float)
    model.assemble(gr.RESIDUAL, x)
    ws = model.worksets[0]
    arena = model.graphs[gr.RESIDUAL].arena_for(ws.size)
    psi = arena.get("psi_node")
    assert np.array_equal(psi, x[model.conn.dof[ws.elements, :, 0]])


def test_gather_jacobian_identity_seed():
    model = demo_model()
    x = random_state(model)
    model.assemble(gr.JACOBIAN, x)
    ws = model.worksets[0]
    arena = model.graphs[gr.JACOBIAN].arena_for(
        ws.size, deriv_width=model.conn.dofs_per_element)
    psi = arena.get("psi_node")
    temp = arena.get("temp_node")
    n_nodes = model.conn.node_conn.shape[1]
    # stacked per-equation rows give the identity over local dofs
    seeds = np.zeros((ws.size, 2 * n_nodes, 2 * n_nodes))
    for n in range(n_nodes):
        seeds[:, 2 * n, :] = psi.dx[:, n]
        seeds[:, 2 * n + 1, :] = temp.dx[:, n]
    assert np.array_equal(seeds, np.broadcast_to(np.eye(2 * n_nodes), seeds.shape))


def test_gather_sg_deterministic_input():
    basis = sc.build_basis_data(3)
    model = demo_model(sg_basis=basis)
    x = random_state(model)
    x_block = np.zeros((basis.size, model.num_dofs))
    x_block[0] = x
    model.assemble(gr.SG_RESIDUAL, x_block=x_block,
                   uncertain={"PadSigma0": [35.0, 0.0, 0.0, 0.0]})
    ws = model.worksets[0]
    arena = model.graphs[gr.SG_RESIDUAL].arena_for(ws.size, basis=basis)
    psi = arena.get("psi_node")
    assert np.array_equal(psi.coeffs[..., 0], x[model.conn.dof[ws.elements, :, 0]])
    assert np.all(psi.coeffs[..., 1:] == 0.0)


def test_gather_coordinates_shape_seeds():
    model = demo_model()
    x = model.initial_guess()
    x_p = np.zeros((model.mesh.num_nodes, 2, 1))
    _, fp = model.shape_tangent(x, x_p)
    assert np.all(fp == 0.0)

    node = int(model.mesh.node_sets["slider_interior"][3])
    x_p[node, 1, 0] = 1.0
    model.assemble(gr.SHAPE_TANGENT, x, Xp=x_p)
    # the arena still holds the coordinates of the last-executed workset
    ws = model.worksets[-1]
    arena = model.graphs[gr.SHAPE_TANGENT].arena_for(ws.size, deriv_width=1)
    coords = arena.get("coords_node")
    local = np.nonzero(model.conn.node_conn[ws.elements] == node)
    assert np.all(coords.dx[local[0], local[1], 1, 0] == 1.0)
    mask = np.ones(coords.dx.shape[:2], dtype=bool)
    mask[local[0], local[1]] = False
    assert np.all(coords.dx[mask] == 0.0)


MISSING_INPUTS = [
    (gr.RESIDUAL, False, "the solution vector x"),
    (gr.JACOBIAN, False, "the solution vector x"),
    (gr.TANGENT, True, "tangent_params or a direction v"),
    (gr.SHAPE_TANGENT, True, "the coordinate sensitivities Xp"),
    (gr.SG_RESIDUAL, False, "the block unknowns x_block"),
    (gr.SG_JACOBIAN, False, "the block unknowns x_block"),
]


@pytest.mark.parametrize("ev_type, with_x, missing", MISSING_INPUTS,
                         ids=[case[0].tag for case in MISSING_INPUTS])
def test_assembly_names_a_missing_input_before_any_evaluator_runs(
        monkeypatch, ev_type, with_x, missing):
    model = demo_model(sg_basis=sc.build_basis_data(3))
    x = model.initial_guess() if with_x else None

    def execute(self, ctx):
        raise AssertionError("an evaluator ran before the inputs were checked")

    monkeypatch.setattr(gr.EvaluatorGraph, "execute", execute)
    with pytest.raises(ValueError, match=f"needs {missing}$") as err:
        model.assemble(ev_type, x)
    assert "[evaluator" not in str(err.value)


# ---------------------------------------------------------------------------
# scatter behavior
# ---------------------------------------------------------------------------

def test_scatter_sums_shared_rows():
    # two elements sharing an edge: shared dofs accumulate both contributions
    mesh = build_rect_mesh(2, 1)
    materials = default_materials(beta=0.0, v0_x=0.0)
    bc = [("left", "psi", 0.0), ("right", "psi", 0.5), ("left", "temp", 0.0)]
    model = ThermoElectricModel(mesh, materials, with_joule=False, dirichlet=bc)
    x = random_state(model, seed=3)
    f_both = model.residual(x)

    # oracle: same state assembled with single-element worksets and summed rows
    model_ws1 = ThermoElectricModel(mesh, materials, with_joule=False,
                                    dirichlet=bc, workset_size=1)
    assert np.array_equal(f_both, model_ws1.residual(x))


def test_jacobian_of_affine_problem_is_its_matrix():
    mesh = build_rect_mesh(3, 2)
    materials = default_materials(beta=0.0, v0_x=-2.0)
    bc = [("left", "psi", 0.0), ("right", "psi", 0.5), ("left", "temp", 0.0)]
    model = ThermoElectricModel(mesh, materials, with_joule=False, dirichlet=bc)
    x = random_state(model, seed=5)
    f_x, jac = model.jacobian(x)
    f_0 = model.residual(np.zeros_like(x))
    # affine residual: f(x) = J x + f(0), exactly up to roundoff
    assert np.allclose(f_x, jac @ x + f_0, atol=1e-11 * max(1.0, np.abs(f_x).max()))


def test_zero_local_contributions_leave_globals_zero():
    mesh = build_rect_mesh(2, 2)
    materials = default_materials(beta=0.0, v0_x=0.0)
    model = ThermoElectricModel(mesh, materials, with_joule=False, dirichlet=[])
    f = model.residual(np.zeros(model.num_dofs))
    assert np.all(f == 0.0)


def test_dirichlet_rows_are_identity_and_offset():
    model = demo_model()
    x = random_state(model, seed=7)
    f, jac = model.jacobian(x)
    d = model.dirichlet.dofs
    dense_rows = jac[d].toarray()
    expected = np.zeros_like(dense_rows)
    expected[np.arange(len(d)), d] = 1.0
    assert np.array_equal(dense_rows, expected)
    assert np.array_equal(f[d], x[d] - model.dirichlet.values)
