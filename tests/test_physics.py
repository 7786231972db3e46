"""Physics kernels against independent weak-form oracles; parameter library."""

import numpy as np
import pytest

from embedfem import graph as gr
from embedfem import scalars as sc
from embedfem.assembly import Workset
from embedfem.discretization import bilinear_basis
from embedfem.mesh import build_rect_mesh
from embedfem.model import ThermoElectricModel
from embedfem.physics import (ElementMaterials, MaterialTable,
                              NonPhysicalStateError, ParameterError,
                              ParameterLibrary, RegionMaterial,
                              default_materials, objective_max_temperature)


def material(sigma0=1.0, kappa=1.0, velocity=(0.0, 0.0), beta=0.0, T0=0.0):
    return RegionMaterial(sigma0, kappa, velocity, beta, T0)


def uniform_materials(**kw):
    m = material(**kw)
    return MaterialTable(conductor=m,
                         pad=material(**{**kw, "velocity": (0.0, 0.0)}),
                         slider=material(**{**kw, "velocity": (0.0, 0.0)}))


def test_element_materials_columns_and_unsorted_pad_runs():
    region_of = np.array([1, 1, 0, 1, 2, 2, 1])
    mats = ElementMaterials(default_materials(), region_of)
    assert mats.sigma0.shape == (7, 1)
    assert mats.sigma0[:, 0].tolist() == [35, 35, 100, 35, 100, 100, 35]
    assert mats.velocity[0][:, 0].tolist() == [0, 0, -10, 0, 0, 0, 0]
    assert mats.pad_runs == [[0, 2], [3, 4], [6, 7]]
    assert mats.pad_slices(Workset(1, 6)) == [slice(0, 1), slice(2, 3)]
    assert mats.pad_slices(Workset(4, 6)) == []


def build_model(mesh, materials, **kw):
    kw.setdefault("dirichlet", [])
    return ThermoElectricModel(mesh, materials, **kw)


# ---------------------------------------------------------------------------
# independent scalar-only oracle for the coupled weak form (no engine code)
# ---------------------------------------------------------------------------

def weak_form_oracle(coords, psi, temp, mat, alpha=0.0, beta_s=0.0,
                     quad_order=2, with_joule=True):
    """Element residual of the coupled system by straight-line quadrature.

    Plain loops and plain floats: independent of the field/graph machinery.
    Returns (r_psi, r_temp) of shape (4,).
    """
    gauss = {1: ([0.0], [2.0]),
             2: ([-1/np.sqrt(3), 1/np.sqrt(3)], [1.0, 1.0]),
             3: ([-np.sqrt(3/5), 0.0, np.sqrt(3/5)], [5/9, 8/9, 5/9])}
    pts1, wts1 = gauss[quad_order]
    ref = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    r_psi = np.zeros(4)
    r_temp = np.zeros(4)
    for qa, wa in zip(pts1, wts1):
        for qb, wb in zip(pts1, wts1):
            phi = [0.25 * (1 + qa * rx) * (1 + qb * ry) for rx, ry in ref]
            dphi = [(0.25 * rx * (1 + qb * ry), 0.25 * ry * (1 + qa * rx))
                    for rx, ry in ref]
            j = np.zeros((2, 2))
            for n in range(4):
                for a in range(2):
                    j[a, 0] += coords[n][a] * dphi[n][0]
                    j[a, 1] += coords[n][a] * dphi[n][1]
            det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
            inv = np.array([[j[1, 1], -j[0, 1]], [-j[1, 0], j[0, 0]]]) / det
            grads = [(inv[0, 0] * dphi[n][0] + inv[1, 0] * dphi[n][1],
                      inv[0, 1] * dphi[n][0] + inv[1, 1] * dphi[n][1])
                     for n in range(4)]
            u_t = sum(phi[n] * temp[n] for n in range(4))
            g_psi = [sum(grads[n][d] * psi[n] for n in range(4)) for d in range(2)]
            g_t = [sum(grads[n][d] * temp[n] for n in range(4)) for d in range(2)]
            sigma = mat.sigma0 / (1.0 + mat.beta * (u_t - mat.T0))
            joule = sigma * (g_psi[0] ** 2 + g_psi[1] ** 2) if with_joule else 0.0
            source = alpha + beta_s * u_t * u_t
            conv = mat.velocity[0] * g_t[0] + mat.velocity[1] * g_t[1]
            w = wa * wb * det
            for n in range(4):
                r_psi[n] += w * sigma * (g_psi[0] * grads[n][0]
                                         + g_psi[1] * grads[n][1])
                r_temp[n] += w * (mat.kappa * (g_t[0] * grads[n][0]
                                               + g_t[1] * grads[n][1])
                                  + (-conv - joule + source) * phi[n])
    return r_psi, r_temp


def test_full_residual_matches_standalone_oracle():
    mesh = build_rect_mesh(1, 1, 0.8, 1.3)
    mat = material(sigma0=35.0, kappa=2.0, velocity=(1.5, -0.7), beta=0.1, T0=0.2)
    model = build_model(mesh, MaterialTable(mat, material(sigma0=35.0, beta=0.1, T0=0.2, kappa=2.0),
                                            material(sigma0=35.0, beta=0.1, T0=0.2, kappa=2.0)))
    model.library.set_value("Alpha", 0.4)
    model.library.set_value("Beta", 0.9)
    rng = np.random.default_rng(11)
    x = rng.normal(size=model.num_dofs) * 0.5
    f = model.residual(x)

    conn = mesh.connectivity[0]
    coords = mesh.coords[conn]
    psi = x[conn * 2]
    temp = x[conn * 2 + 1]
    r_psi, r_temp = weak_form_oracle(coords, psi, temp, mat, alpha=0.4, beta_s=0.9)
    assert np.allclose(f[conn * 2], r_psi, atol=1e-13)
    assert np.allclose(f[conn * 2 + 1], r_temp, atol=1e-13)


def test_shared_node_rows_sum_element_oracles():
    mesh = build_rect_mesh(2, 1)
    mat = material(sigma0=3.0, kappa=1.5, velocity=(0.5, 0.0), beta=0.05)
    table = MaterialTable(mat, material(sigma0=3.0, kappa=1.5, beta=0.05),
                          material(sigma0=3.0, kappa=1.5, beta=0.05))
    model = build_model(mesh, table)
    rng = np.random.default_rng(4)
    x = rng.normal(size=model.num_dofs) * 0.4
    f = model.residual(x)
    expected = np.zeros_like(f)
    for e in range(mesh.num_elems):
        conn = mesh.connectivity[e]
        r_psi, r_temp = weak_form_oracle(mesh.coords[conn], x[conn * 2],
                                         x[conn * 2 + 1], mat)
        np.add.at(expected, conn * 2, r_psi)
        np.add.at(expected, conn * 2 + 1, r_temp)
    assert np.allclose(f, expected, atol=1e-13)


def test_potential_residual_hand_assembled_element_stiffness():
    # manufactured psi, sigma = 1: residual equals K psi with the 4x4 stiffness
    mesh = build_rect_mesh(1, 1)
    table = uniform_materials(sigma0=1.0, beta=0.0)
    model = build_model(mesh, table, with_joule=False)
    conn = mesh.connectivity[0]
    rng = np.random.default_rng(2)
    psi = rng.normal(size=4)
    x = np.zeros(model.num_dofs)
    x[conn * 2] = psi

    basis = bilinear_basis(2)
    coords = mesh.coords[conn]
    stiffness = np.zeros((4, 4))
    for q in range(basis.num_qp):
        j = np.einsum("na,nb->ab", coords, basis.ref_gradients[:, q, :])
        det = np.linalg.det(j)
        grads = basis.ref_gradients[:, q, :] @ np.linalg.inv(j)
        stiffness += det * basis.weights[q] * grads @ grads.T
    f = model.residual(x)
    assert np.allclose(f[conn * 2], stiffness @ psi, atol=1e-14)


def test_harmonic_state_has_zero_interior_residual():
    mesh = build_rect_mesh(4, 4)
    model = build_model(mesh, uniform_materials(sigma0=2.0), with_joule=False)
    x = np.zeros(model.num_dofs)
    x[0::2] = 0.25 + 0.5 * mesh.coords[:, 0] - 0.1 * mesh.coords[:, 1]
    f = model.residual(x)
    interior = np.setdiff1d(np.arange(mesh.num_nodes),
                            mesh.node_sets["boundary"])
    assert np.max(np.abs(f[interior * 2])) < 1e-14


def test_residual_homogeneous_in_sigma():
    mesh = build_rect_mesh(3, 3)
    rng = np.random.default_rng(9)
    x = rng.normal(size=2 * mesh.num_nodes)
    f1 = build_model(mesh, uniform_materials(sigma0=1.0), with_joule=False).residual(x)
    f2 = build_model(mesh, uniform_materials(sigma0=2.0), with_joule=False).residual(x)
    psi_rows = np.arange(0, 2 * mesh.num_nodes, 2)
    assert np.allclose(f2[psi_rows], 2.0 * f1[psi_rows], rtol=1e-14)


def test_joule_sign_constant_gradient():
    # psi = g x, sigma = 1: heat rows receive -g^2 * integral(phi)
    mesh = build_rect_mesh(1, 1)
    model = build_model(mesh, uniform_materials(sigma0=1.0))
    conn = mesh.connectivity[0]
    g = 2.0
    x = np.zeros(model.num_dofs)
    x[conn * 2] = g * mesh.coords[conn, 0]
    f = model.residual(x)
    assert np.allclose(f[conn * 2 + 1], -g * g * 0.25, atol=1e-14)


# ---------------------------------------------------------------------------
# conductivity and source examples
# ---------------------------------------------------------------------------

def test_conductivity_values():
    mesh = build_rect_mesh(1, 1)
    table = uniform_materials(sigma0=35.0, beta=0.1)
    model = build_model(mesh, table, with_joule=False)
    x = np.zeros(model.num_dofs)
    x[1::2] = 10.0  # T - T0 = 10 everywhere
    model.residual(x)
    arena = model.graphs[gr.RESIDUAL].arena_for(1)
    assert np.allclose(arena.get("sigma_qp"), 17.5, atol=1e-14)
    x[1::2] = 0.0
    model.residual(x)
    assert np.allclose(arena.get("sigma_qp"), 35.0, atol=1e-15)


def test_conductivity_derivative_at_reference_temperature():
    mesh = build_rect_mesh(1, 1)
    table = uniform_materials(sigma0=35.0, beta=0.1)
    model = build_model(mesh, table, with_joule=False)
    x = np.zeros(model.num_dofs)
    model.assemble(gr.JACOBIAN, x)
    arena = model.graphs[gr.JACOBIAN].arena_for(1, deriv_width=8)
    sigma = arena.get("sigma_qp")
    temp = arena.get("temp_qp")
    # d sigma / dT = -sigma0 * beta at T = T0; chain through the qp seeds
    assert np.allclose(sigma.dx, -35.0 * 0.1 * temp.dx, atol=1e-13)


def test_conductivity_nonphysical_state_reports_elements():
    mesh = build_rect_mesh(2, 1)
    table = uniform_materials(sigma0=35.0, beta=0.1)
    model = build_model(mesh, table, with_joule=False)
    x = np.zeros(model.num_dofs)
    x[1::2] = -20.0  # 1 + 0.1 (T - 0) < 0
    with pytest.raises(NonPhysicalStateError, match="elements"):
        model.residual(x)


def test_ensemble_nonphysical_state_names_global_elements():
    # sample 1 is out of range on element 3 only; the sample index must not
    # be reported as an element id
    mesh = build_rect_mesh(4, 1)
    model = build_model(mesh, uniform_materials(sigma0=35.0, beta=0.1),
                        with_joule=False)
    states = np.zeros((3, model.num_dofs))
    right = np.nonzero(mesh.coords[:, 0] == 1.0)[0]
    states[1, 2 * right + 1] = -40.0
    with pytest.raises(NonPhysicalStateError) as plain:
        model.residual(states[1])
    with pytest.raises(NonPhysicalStateError) as ensemble:
        model.residuals(states)
    assert str(ensemble.value) == str(plain.value)
    assert str(ensemble.value).endswith("elements [3]")


def test_source_term_examples():
    mesh = build_rect_mesh(1, 1)
    model = build_model(mesh, uniform_materials(), with_joule=False)
    model.library.set_value("Alpha", 1.0)
    model.library.set_value("Beta", 2.0)
    x = np.zeros(model.num_dofs)
    x[1::2] = 3.0
    model.residual(x)
    arena = model.graphs[gr.RESIDUAL].arena_for(1)
    assert np.allclose(arena.get("source_qp"), 19.0, atol=1e-14)
    model.library.set_value("Beta", 0.0)
    model.library.set_value("Alpha", 2.0)
    model.residual(x)
    assert np.allclose(arena.get("source_qp"), 2.0, atol=1e-15)


def test_source_parameter_seeds_under_tangent():
    mesh = build_rect_mesh(1, 1)
    model = build_model(mesh, uniform_materials(), with_joule=False)
    model.library.set_value("Alpha", 1.0)
    model.library.set_value("Beta", 2.0)
    x = np.zeros(model.num_dofs)
    x[1::2] = 3.0
    model.assemble(gr.TANGENT, x, tangent_params=("Alpha", "Beta"))
    arena = model.graphs[gr.TANGENT].arena_for(1, deriv_width=2)
    source = arena.get("source_qp")
    # ds/d(alpha) = 1, ds/d(beta) = u^2 = 9
    assert np.allclose(source.dx[..., 0], 1.0, atol=1e-15)
    assert np.allclose(source.dx[..., 1], 9.0, atol=1e-13)


def test_beta_tangent_seed_bypasses_the_zero_beta_short_circuit():
    mesh = build_rect_mesh(1, 1)
    model = build_model(mesh, uniform_materials(), with_joule=False)
    model.library.set_value("Alpha", 1.0)
    x = np.zeros(model.num_dofs)
    x[1::2] = 3.0
    model.assemble(gr.TANGENT, x, tangent_params=("Alpha", "Beta"))
    arena = model.graphs[gr.TANGENT].arena_for(1, deriv_width=2)
    source = arena.get("source_qp")
    # Beta is 0.0 but carries a seed: ds/d(beta) = u^2 = 9
    assert np.array_equal(source.val, np.ones_like(source.val))
    assert np.allclose(source.dx[..., 0], 1.0, atol=1e-15)
    assert np.allclose(source.dx[..., 1], 9.0, atol=1e-13)


def test_jacobian_decouples_when_beta_zero():
    mesh = build_rect_mesh(3, 3)
    model = build_model(mesh, uniform_materials(sigma0=4.0, beta=0.0),
                        with_joule=True)
    rng = np.random.default_rng(5)
    x = rng.normal(size=model.num_dofs) * 0.3
    _, jac = model.jacobian(x)
    dense = jac.toarray()
    psi_rows = np.arange(0, model.num_dofs, 2)
    temp_cols = np.arange(1, model.num_dofs, 2)
    assert np.all(dense[np.ix_(psi_rows, temp_cols)] == 0.0)


# ---------------------------------------------------------------------------
# parameter library
# ---------------------------------------------------------------------------

def test_registered_parameter_names():
    mesh = build_rect_mesh(1, 1)
    model = build_model(mesh, uniform_materials())
    assert model.library.names() == ["PadSigma0", "Alpha", "Beta"]


def test_parameter_push_reaches_assembly():
    mesh = build_rect_mesh(1, 1)
    model = build_model(mesh, uniform_materials(), with_joule=False)
    model.library.set_value("Alpha", 2.0)
    x = np.zeros(model.num_dofs)
    f1 = model.residual(x)
    model.library.set_value("Alpha", 4.0)
    f2 = model.residual(x)
    assert np.allclose(f2[1::2], 2.0 * f1[1::2], rtol=1e-14)


def test_parameter_errors():
    lib = ParameterLibrary()
    lib.register("A", 1.0)
    lib.register("A", 5.0)    # a second reader of "A" keeps its default
    assert lib.names() == ["A"]
    with pytest.raises(ParameterError, match="unknown"):
        lib.set_value("missing", 1.0)
    with pytest.raises(ParameterError, match="unknown"):
        lib.value("missing")
    lib.set_value("A", 3.0)
    assert lib.value("A") == 3.0
    lib.push()
    assert lib.scalar("A") == 3.0
    with pytest.raises(ParameterError, match="unknown parameter 'B'"):
        lib.push(tangent_params=("A", "B"))
    with pytest.raises(ParameterError, match="unknown parameter 'B'"):
        lib.push(uncertain={"B": [1.0, 0.5]}, basis=sc.build_basis_data(1))
    assert lib.scalar("A") == 3.0   # a refused push promotes nothing


def test_tangent_push_carries_unit_seed():
    lib = ParameterLibrary()
    lib.register("Other", 1.0)
    lib.register("A", 2.0)
    lib.push(tangent_params=("Other", "A"))
    value = lib.scalar("A")
    assert isinstance(value, sc.Dual)
    assert value.val == 2.0
    assert np.array_equal(value.dx, [0.0, 1.0])


def test_sg_push_carries_expansion():
    basis = sc.build_basis_data(3)
    lib = ParameterLibrary()
    lib.register("A", 35.0)
    lib.push(uncertain={"A": [35.0, 15.0, 0.0, 0.0]}, basis=basis)
    value = lib.scalar("A")
    assert isinstance(value, sc.PCE)
    assert value.evaluate(1.0) == 50.0


def test_misspelt_tangent_parameter_is_refused():
    mesh = build_rect_mesh(2, 2)
    model = build_model(mesh, uniform_materials())
    x = np.zeros(model.num_dofs)
    with pytest.raises(ParameterError, match="PadSigma0x"):
        model.tangent(x, ["PadSigma0x"])


def test_misspelt_uncertain_parameter_is_refused():
    basis = sc.build_basis_data(3)
    mesh = build_rect_mesh(2, 2)
    model = build_model(mesh, uniform_materials(), sg_basis=basis)
    x_block = np.zeros((basis.size, model.num_dofs))
    with pytest.raises(ParameterError, match="PadSigmaO"):
        model.sg_residual(x_block, {"PadSigmaO": [35.0, 15.0, 0.0, 0.0]})


# ---------------------------------------------------------------------------
# kernels are written once: no per-type compute variants
# ---------------------------------------------------------------------------

def test_compute_kernels_identical_across_types():
    mesh = build_rect_mesh(2, 2)
    model = build_model(mesh, uniform_materials())
    reference = {ev.name: type(ev) for ev in model.graphs[gr.RESIDUAL].schedule}
    specialized = {"gather_solution", "gather_coordinates", "scatter_residual"}
    for ev_type, graph in model.graphs.items():
        for ev in graph.schedule:
            if ev.name in specialized:
                continue
            assert type(ev) is reference[ev.name]
            assert type(ev).evaluate is reference[ev.name].evaluate


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_examples():
    x = np.array([0.0, 1.0, 0.0, 5.0, 0.0, 3.0])
    out = objective_max_temperature(x)
    assert out.value == 5.0
    assert out.argmax_dof == 3
    grad = out.dense_gradient(6)
    assert grad[3] == 1.0 and grad.sum() == 1.0

    ties = np.array([0.0, 2.0, 0.0, 2.0])
    assert objective_max_temperature(ties).argmax_dof == 1

    bumped = x.copy()
    bumped[1] += 0.5  # below the gap to the max
    assert objective_max_temperature(bumped).value == 5.0


def test_materials_validation():
    with pytest.raises(ValueError, match="positive"):
        uniform_materials(sigma0=-1.0)
    with pytest.raises(ValueError, match="slider"):
        MaterialTable(material(), material(),
                      material(velocity=(1.0, 0.0)))
