"""Mesh construction, region bookkeeping, and node sets."""

import numpy as np
import pytest

from embedfem.mesh import (GeometryParams, MeshError, Resolution, REGIONS,
                           build_rect_mesh, build_slider_mesh,
                           corner_jacobians)


def demo_mesh():
    return build_slider_mesh(GeometryParams(), Resolution())


def test_unit_square_counts():
    m = build_slider_mesh(GeometryParams(1.0, 0.0, 0.0, 1.0),
                          Resolution(2, 0, 0, 2))
    assert m.num_nodes == 9
    assert m.num_elems == 4


def test_uniform_mesh_has_equal_positive_jacobians():
    m = build_rect_mesh(8, 8)
    dets = corner_jacobians(m.coords, m.connectivity)
    assert np.all(dets > 0.0)
    assert np.allclose(dets, dets.flat[0])


def test_demo_mesh_golden_counts():
    # frozen after the first correct build of the default demo geometry
    m = demo_mesh()
    assert m.num_nodes == 289
    assert m.num_elems == 256
    assert {k: len(v) for k, v in m.node_sets.items()} == {
        "left_conductor_end": 17,
        "symmetry_plane": 17,
        "pad_interface": 17,
        "slider_interior": 102,
    }


def test_demo_mesh_pad_adjacent_to_slider():
    m = demo_mesh()
    pad_nodes = set(m.connectivity[m.region_of == REGIONS.index("pad")].ravel())
    slider_nodes = set(m.connectivity[m.region_of == REGIONS.index("slider")].ravel())
    assert pad_nodes & slider_nodes
    assert set(m.node_sets["pad_interface"]) <= (pad_nodes & slider_nodes)


def test_connectivity_is_counterclockwise():
    m = demo_mesh()
    x = m.coords[m.connectivity]
    area2 = np.zeros(m.num_elems)
    for c in range(4):
        a, b = x[:, c], x[:, (c + 1) % 4]
        area2 += a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]
    assert np.all(area2 > 0.0)


def test_node_set_coordinates():
    m = demo_mesh()
    g = GeometryParams()
    assert np.allclose(m.coords[m.node_sets["left_conductor_end"], 0], 0.0)
    total = g.conductor_length + g.pad_length + g.slider_length
    assert np.allclose(m.coords[m.node_sets["symmetry_plane"], 0], total)
    assert np.allclose(m.coords[m.node_sets["pad_interface"], 0],
                       g.conductor_length + g.pad_length)
    assert np.all(m.coords[m.node_sets["slider_interior"], 0]
                  > g.conductor_length + g.pad_length)


def test_degenerate_geometry_rejected():
    with pytest.raises(MeshError):
        build_slider_mesh(GeometryParams(height=0.0), Resolution())
    with pytest.raises(MeshError):
        build_slider_mesh(GeometryParams(pad_length=0.0), Resolution())
    with pytest.raises(MeshError):
        build_slider_mesh(GeometryParams(), Resolution(ny=0))


def test_rect_mesh_boundary_sets():
    m = build_rect_mesh(4, 3, 2.0, 1.5)
    assert len(m.node_sets["left"]) == 4
    assert len(m.node_sets["boundary"]) == 2 * 4 + 2 * 5 - 4
    assert np.allclose(m.coords[m.node_sets["top"], 1], 1.5)
