"""Slider morphing: identity, locality, area conservation, sensitivities."""

import numpy as np
import pytest

from embedfem.mesh import GeometryParams, Resolution, build_slider_mesh
from embedfem.morphing import (SHAPE_PARAMETERS, MorphError, _slider_frame,
                               mesh_sensitivity, morph, slider_area)


def base_mesh():
    return build_slider_mesh(GeometryParams(), Resolution())


def test_zero_parameters_is_bitwise_identity():
    mesh = base_mesh()
    for p in ([0.0], [0.0, 0.0]):
        out = morph(mesh, p)
        assert np.array_equal(out.coords, mesh.coords)


def test_topology_is_shared_and_unchanged():
    mesh = base_mesh()
    out = morph(mesh, [0.1])
    assert out.connectivity is mesh.connectivity
    assert out.node_sets is mesh.node_sets


def test_parabola_peak_and_endpoints():
    mesh = base_mesh()
    d = 0.08
    out = morph(mesh, [d])
    sym = mesh.node_sets["symmetry_plane"]
    # the symmetry plane sits at the full-slider midpoint: displacement d
    assert np.allclose(out.coords[sym, 1] - mesh.coords[sym, 1], d, atol=1e-14)
    iface = mesh.node_sets["pad_interface"]
    assert np.array_equal(out.coords[iface], mesh.coords[iface])


def test_non_slider_nodes_never_move():
    mesh = base_mesh()
    out = morph(mesh, [0.15, -0.1])
    moving = set(mesh.node_sets["slider_interior"].tolist())
    fixed = [n for n in range(mesh.num_nodes) if n not in moving]
    assert np.array_equal(out.coords[fixed], mesh.coords[fixed])


def test_one_parameter_preserves_thickness():
    mesh = base_mesh()
    out = morph(mesh, [0.1])
    # pure shear: x untouched, columns keep their spacing
    assert np.array_equal(out.coords[:, 0], mesh.coords[:, 0])


def test_two_parameter_area_conservation():
    mesh = base_mesh()
    a0 = slider_area(mesh)
    for p in ([0.12, -0.05], [-0.2, 0.15], [0.07, 0.07]):
        assert slider_area(morph(mesh, p)) == pytest.approx(a0, abs=1e-10)


def test_sensitivity_columns_match_analytic_derivative():
    # the morph is affine in the parameters, so the unit response is exact
    mesh = base_mesh()
    for params in ([0.0], [0.05], [0.1, -0.04]):
        params = np.asarray(params)
        x_p = mesh_sensitivity(mesh, params)
        for k in range(params.size):
            e_k = np.zeros_like(params)
            e_k[k] = 1.0
            analytic = morph(mesh, params + e_k).coords - morph(mesh, params).coords
            assert np.max(np.abs(x_p[:, :, k] - analytic)) < 1e-9


def test_sensitivity_peak_and_locality():
    mesh = base_mesh()
    x_p = mesh_sensitivity(mesh, [0.0])
    sym = mesh.node_sets["symmetry_plane"]
    top = sym[np.argmax(mesh.coords[sym, 1])]
    assert x_p[top, 1, 0] == pytest.approx(1.0, abs=1e-9)
    non_slider = np.setdiff1d(np.arange(mesh.num_nodes),
                              mesh.node_sets["slider_interior"])
    assert np.all(x_p[non_slider] == 0.0)
    assert np.all(x_p[:, 0, :] == 0.0)  # morph moves y only


def test_inverted_elements_rejected():
    mesh = base_mesh()
    with pytest.raises(Exception, match="determinant"):
        morph(mesh, [5.0, -5.0])


def test_parameter_count_validated():
    with pytest.raises(MorphError):
        morph(base_mesh(), [0.1, 0.2, 0.3])


def test_one_parameter_sensitivity_is_the_profile_exactly():
    mesh = base_mesh()
    moving, t = _slider_frame(mesh)[:2]
    x_p = mesh_sensitivity(mesh, [0.07])
    assert np.array_equal(x_p[moving, 1, 0], 4.0 * t * (1.0 - t))


def test_two_parameters_are_top_then_bottom():
    # next to the pad the area correction, which goes as the squared
    # profile, is small beside the deflections themselves
    mesh = base_mesh()
    moving = mesh.node_sets["slider_interior"]
    x = mesh.coords[moving, 0]
    moving = moving[x == x.min()]
    y = mesh.coords[moving, 1]
    upper, lower = moving[np.argmax(y)], moving[np.argmin(y)]
    moved = morph(mesh, [0.1, 0.0]).coords[:, 1] - mesh.coords[:, 1]
    assert moved[upper] > moved[lower]
    assert SHAPE_PARAMETERS[2] == ("deflection_top", "deflection_bottom")
